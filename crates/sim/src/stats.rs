//! Latency recording and summary statistics.
//!
//! Heracles consumes tail latency (e.g. the 99th percentile over a 15-second
//! window) as its primary control input.  [`LatencyRecorder`] collects the
//! per-request latencies produced by the queueing simulation and reports exact
//! empirical percentiles.

use serde::{Deserialize, Serialize};

/// Exact empirical latency distribution over a measurement window.
///
/// Stores every sample it records (windows are tens of thousands of requests
/// at most) so quantiles are exact rather than approximated.  A quantile
/// never sorts more than it reads: it selects the samples at and above its
/// rank, sorts only those, and keeps them at the end of the sample vector for
/// the next query.
///
/// [`retain_top`](Self::retain_top) cuts a recorder down to its largest
/// samples and their logical count, for a caller that only ever asks tail
/// quantiles again.  A cut recorder still ranks on every sample it recorded
/// and still answers exactly, or panics: never a value from a partial set.
///
/// # Example
///
/// ```
/// use heracles_sim::LatencyRecorder;
/// let mut rec = LatencyRecorder::new();
/// for i in 1..=100 {
///     rec.record(i as f64 / 1000.0);
/// }
/// assert_eq!(rec.quantile(0.99), 0.099);
/// ```
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct LatencyRecorder {
    samples: Vec<f64>,
    /// How many of the largest samples sit sorted ascending at the end of
    /// `samples`; every earlier sample is no larger than the first of them.
    sorted_top: usize,
    /// Samples [`retain_top`](Self::retain_top) discarded from below the
    /// kept ones, none larger than the smallest kept; zero unless cut.
    cut: usize,
}

impl LatencyRecorder {
    /// Creates an empty recorder.
    pub fn new() -> Self {
        LatencyRecorder { samples: Vec::new(), sorted_top: 0, cut: 0 }
    }

    /// Creates an empty recorder with capacity for `n` samples.
    pub fn with_capacity(n: usize) -> Self {
        LatencyRecorder { samples: Vec::with_capacity(n), sorted_top: 0, cut: 0 }
    }

    /// Records one latency sample in seconds.
    ///
    /// Non-finite or negative samples are ignored.  `-0.0` is stored as
    /// `+0.0`, so samples that compare equal are bitwise equal and a
    /// quantile is one bit pattern whatever order equal samples sort in.
    ///
    /// # Panics
    ///
    /// On a cut recorder (see [`retain_top`](Self::retain_top)).
    pub fn record(&mut self, latency_s: f64) {
        self.assert_whole("record");
        if let Some(sample) = stored(latency_s) {
            self.samples.push(sample);
            self.sorted_top = 0;
        }
    }

    /// Replaces each sample `x`, in order, by `f(x)` under the rules of
    /// [`record`](Self::record): a result `record` would ignore is dropped.
    /// The same as recording `f(x)` for every sample into a fresh recorder,
    /// without the second buffer.
    ///
    /// # Panics
    ///
    /// On a cut recorder (see [`retain_top`](Self::retain_top)).
    pub fn map_in_place(&mut self, mut f: impl FnMut(f64) -> f64) {
        self.assert_whole("map_in_place");
        let mut kept = 0;
        for i in 0..self.samples.len() {
            if let Some(sample) = stored(f(self.samples[i])) {
                self.samples[kept] = sample;
                kept += 1;
            }
        }
        self.samples.truncate(kept);
        self.sorted_top = 0;
    }

    /// Absorbs all samples from another recorder.
    ///
    /// # Panics
    ///
    /// If either recorder is cut (see [`retain_top`](Self::retain_top)).
    pub fn merge(&mut self, other: &LatencyRecorder) {
        self.assert_whole("merge");
        other.assert_whole("merge");
        self.samples.extend_from_slice(&other.samples);
        self.sorted_top = 0;
    }

    /// Number of recorded samples, including any that
    /// [`retain_top`](Self::retain_top) discarded.
    pub fn len(&self) -> usize {
        self.samples.len() + self.cut
    }

    /// The raw samples, in insertion order until a quantile is taken.  A
    /// quantile reorders them: the samples at and above its rank move, sorted
    /// ascending, to the end, and the rest keep no particular order.  Later
    /// quantiles ([`quantile_of_runs`] included) reuse that sorted top and
    /// select further down only when they need to.
    ///
    /// # Panics
    ///
    /// On a cut recorder (see [`retain_top`](Self::retain_top)), which no
    /// longer holds every sample.
    ///
    /// [`quantile_of_runs`]: Self::quantile_of_runs
    pub fn samples(&self) -> &[f64] {
        self.assert_whole("samples");
        &self.samples
    }

    /// True if no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The empirical quantile `q` in `[0, 1]`, or zero if empty.
    ///
    /// Uses the nearest-rank method, which is what production latency
    /// monitoring systems report.  Only the `n − rank + 1` samples at and
    /// above the rank are sorted (13 of 1200 for a p99), after a linear-time
    /// selection of them.
    ///
    /// # Panics
    ///
    /// On a cut recorder whose kept top is shallower than the rank (see
    /// [`retain_top`](Self::retain_top)).
    pub fn quantile(&mut self, q: f64) -> f64 {
        let picks = Self::tail_depth(q, self.len());
        if picks == 0 {
            return 0.0;
        }
        self.assert_holds(picks);
        self.sort_top(picks);
        self.samples[self.samples.len() - picks]
    }

    /// How many of the largest of `n` samples the nearest-rank quantile `q`
    /// reads: `n − rank + 1`, or zero for no samples.  It never decreases as
    /// `n` grows, so a recorder cut to the depth at the largest count it
    /// will be ranked among answers every such quantile exactly.
    pub fn tail_depth(q: f64, n: usize) -> usize {
        if n == 0 {
            0
        } else {
            n - nearest_rank(q, n) + 1
        }
    }

    /// The nearest-rank quantile `q` of the union of several recorders'
    /// samples — bitwise what [`merge`](Self::merge)-ing them into one
    /// recorder and calling [`quantile`](Self::quantile) returns — or zero
    /// if they hold no samples.
    ///
    /// The answer lies among the union's `n − rank + 1` largest samples,
    /// where `n` is the total sample count, so each run sorts at most that
    /// many of its own largest in place (nothing at all for a run whose
    /// sorted top is already that deep).  The answer is then selected by
    /// walking down from the runs' tops in `n − rank + 1` picks.  For a tail
    /// quantile that is one linear selection per new run and a few dozen
    /// comparisons, instead of a copy and sort of every sample.
    ///
    /// Ranks count every sample each run recorded, cut ones included.
    ///
    /// # Panics
    ///
    /// If a cut run's kept top is shallower than `n − rank + 1` (see
    /// [`retain_top`](Self::retain_top)).
    ///
    /// # Example
    ///
    /// ```
    /// use heracles_sim::LatencyRecorder;
    /// let mut runs = [LatencyRecorder::new(), LatencyRecorder::new()];
    /// for i in 1..=100 {
    ///     runs[i % 2].record(i as f64);
    /// }
    /// assert_eq!(LatencyRecorder::quantile_of_runs(runs.iter_mut(), 0.99), 99.0);
    /// ```
    pub fn quantile_of_runs<'a>(
        runs: impl IntoIterator<Item = &'a mut LatencyRecorder>,
        q: f64,
    ) -> f64 {
        // Each run with one past its largest sample not yet picked.
        let mut heads: Vec<(&mut LatencyRecorder, usize)> = runs
            .into_iter()
            .map(|run| {
                let end = run.samples.len();
                (run, end)
            })
            .collect();
        let picks = Self::tail_depth(q, heads.iter().map(|(run, _)| run.len()).sum());
        if picks == 0 {
            return 0.0;
        }
        // No run yields more than `picks` samples, all from its sorted top;
        // a cut run keeps at least that many, so none of its cut samples
        // could be picked.
        for (run, _) in &mut heads {
            run.assert_holds(picks);
            run.sort_top(picks);
        }
        let mut picked = 0.0;
        for _ in 0..picks {
            // The largest remaining sample over all runs.  Equal samples are
            // bitwise equal (see `record`), so which run yields a tie does
            // not matter.
            let mut best: Option<(usize, f64)> = None;
            for (i, &(ref run, end)) in heads.iter().enumerate() {
                if end > 0 && best.is_none_or(|(_, top)| run.samples[end - 1] > top) {
                    best = Some((i, run.samples[end - 1]));
                }
            }
            let (i, top) = best.expect("picks never exceed the kept sample count");
            heads[i].1 -= 1;
            picked = top;
        }
        picked
    }

    /// Moves the `k` largest samples (all of them if there are fewer) to the
    /// end, sorted ascending, unless a sorted top that deep is already there.
    ///
    /// An existing sorted top stays put: the selection runs over the samples
    /// below it and sorts only the newly selected ones, which are no larger
    /// than it.  Samples are finite and never `-0.0` (see `record`), so
    /// `total_cmp` orders them as `<` does and equal samples are bitwise
    /// equal: the value at each position does not depend on how ties fall.
    fn sort_top(&mut self, k: usize) {
        let k = k.min(self.samples.len());
        if k <= self.sorted_top {
            return;
        }
        let (n, sorted_top) = (self.samples.len(), self.sorted_top);
        let start = n - k;
        let below = &mut self.samples[..n - sorted_top];
        if start > 0 {
            below.select_nth_unstable_by(start, f64::total_cmp);
        }
        below[start..].sort_unstable_by(f64::total_cmp);
        self.sorted_top = k;
    }

    /// Keeps only the `k` largest samples (all of them if there are fewer),
    /// sorted ascending in a buffer of their size, and discards the rest but
    /// their count: [`len`](Self::len) and every quantile's rank still
    /// include them.
    ///
    /// A cut recorder answers a quantile exactly while the quantile reads no
    /// deeper than the kept top ([`tail_depth`](Self::tail_depth) ≤ `k`); a
    /// deeper one panics with "rank falls below the retained top" rather
    /// than answer from a partial set.  [`record`](Self::record),
    /// [`merge`](Self::merge), [`map_in_place`](Self::map_in_place),
    /// [`samples`](Self::samples) and [`mean`](Self::mean) need every sample
    /// and panic on a cut recorder; [`clear`](Self::clear) makes it whole.
    ///
    /// # Example
    ///
    /// ```
    /// use heracles_sim::LatencyRecorder;
    /// let mut rec = LatencyRecorder::new();
    /// for i in 1..=100 {
    ///     rec.record(i as f64);
    /// }
    /// rec.retain_top(LatencyRecorder::tail_depth(0.99, 100));
    /// assert_eq!(rec.len(), 100);
    /// assert_eq!(rec.quantile(0.99), 99.0);
    /// assert_eq!(rec.max(), 100.0);
    /// ```
    pub fn retain_top(&mut self, k: usize) {
        let n = self.samples.len();
        let k = k.min(n);
        self.sort_top(k);
        self.samples = self.samples[n - k..].to_vec();
        self.sorted_top = k;
        self.cut += n - k;
    }

    /// Panics if a cut recorder kept fewer than the top `picks` samples.
    fn assert_holds(&self, picks: usize) {
        assert!(
            self.cut == 0 || picks <= self.samples.len(),
            "rank falls below the retained top: the quantile reads the top {picks} of the \
             samples, but this run kept {} of its {}",
            self.samples.len(),
            self.len()
        );
    }

    /// Panics if the recorder is cut, naming the operation that needs every
    /// sample.
    fn assert_whole(&self, operation: &str) {
        assert!(
            self.cut == 0,
            "{operation} needs every sample, but retain_top kept {} of {}",
            self.samples.len(),
            self.len()
        );
    }

    /// The mean latency, or zero if empty.
    ///
    /// The samples are summed in their current order (see
    /// [`samples`](Self::samples)), so a mean taken after a quantile may
    /// differ in its last bits from one taken before.
    ///
    /// # Panics
    ///
    /// On a cut recorder (see [`retain_top`](Self::retain_top)).
    pub fn mean(&self) -> f64 {
        self.assert_whole("mean");
        if self.samples.is_empty() {
            0.0
        } else {
            self.samples.iter().sum::<f64>() / self.samples.len() as f64
        }
    }

    /// The maximum latency, or zero if empty.
    ///
    /// # Panics
    ///
    /// On a recorder cut to no samples (see [`retain_top`](Self::retain_top)).
    pub fn max(&self) -> f64 {
        if self.samples.is_empty() {
            self.assert_whole("max");
        }
        self.samples.iter().copied().fold(0.0, f64::max)
    }

    /// Removes all samples, cut ones included.
    pub fn clear(&mut self) {
        self.samples.clear();
        self.sorted_top = 0;
        self.cut = 0;
    }
}

/// The sample [`LatencyRecorder::record`] stores for `latency_s`, if any.
fn stored(latency_s: f64) -> Option<f64> {
    // `-0.0 + 0.0` is `+0.0`; every other value is unchanged.
    (latency_s.is_finite() && latency_s >= 0.0).then_some(latency_s + 0.0)
}

/// The 1-based nearest rank of quantile `q` (clamped to `[0, 1]`) among
/// `n > 0` sorted samples.
fn nearest_rank(q: f64, n: usize) -> usize {
    let q = q.clamp(0.0, 1.0);
    ((q * n as f64).ceil() as usize).clamp(1, n)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_nearest_rank() {
        let mut rec = LatencyRecorder::new();
        for v in [5.0, 1.0, 3.0, 2.0, 4.0] {
            rec.record(v);
        }
        assert_eq!(rec.quantile(0.5), 3.0);
        assert_eq!(rec.quantile(1.0), 5.0);
        assert_eq!(rec.quantile(0.0), 1.0);
    }

    #[test]
    fn quantile_of_empty_is_zero() {
        let mut rec = LatencyRecorder::new();
        assert_eq!(rec.quantile(0.99), 0.0);
        assert_eq!(rec.mean(), 0.0);
        assert_eq!(rec.max(), 0.0);
    }

    #[test]
    fn invalid_samples_ignored() {
        let mut rec = LatencyRecorder::new();
        rec.record(f64::NAN);
        rec.record(-1.0);
        rec.record(f64::INFINITY);
        assert!(rec.is_empty());
    }

    #[test]
    fn negative_zero_is_stored_as_positive_zero() {
        let mut rec = LatencyRecorder::new();
        rec.record(-0.0);
        assert_eq!(rec.samples()[0].to_bits(), 0.0f64.to_bits());
    }

    #[test]
    fn quantile_of_no_samples_is_zero() {
        let mut runs = [LatencyRecorder::new(), LatencyRecorder::new()];
        assert_eq!(LatencyRecorder::quantile_of_runs(runs.iter_mut(), 0.99), 0.0);
        assert_eq!(LatencyRecorder::quantile_of_runs(std::iter::empty(), 0.5), 0.0);
    }

    fn cut_recorder() -> LatencyRecorder {
        let mut rec = LatencyRecorder::new();
        for v in [5.0, 1.0, 3.0, 2.0, 4.0] {
            rec.record(v);
        }
        rec.retain_top(2);
        rec
    }

    #[test]
    fn cut_recorder_keeps_its_count_and_top() {
        let mut rec = cut_recorder();
        assert_eq!((rec.len(), rec.max()), (5, 5.0));
        assert_eq!((rec.quantile(0.8), rec.quantile(1.0)), (4.0, 5.0));
        rec.clear();
        assert!(rec.is_empty());
        assert_eq!(rec.mean(), 0.0);
    }

    #[test]
    #[should_panic(expected = "mean needs every sample, but retain_top kept 2 of 5")]
    fn cut_recorder_has_no_mean() {
        cut_recorder().mean();
    }

    #[test]
    #[should_panic(expected = "samples needs every sample, but retain_top kept 2 of 5")]
    fn cut_recorder_has_no_samples() {
        cut_recorder().samples();
    }

    #[test]
    #[should_panic(expected = "rank falls below the retained top")]
    fn cut_recorder_refuses_a_deeper_quantile() {
        cut_recorder().quantile(0.6);
    }

    #[test]
    fn merge_combines_samples() {
        let mut a = LatencyRecorder::new();
        let mut b = LatencyRecorder::new();
        a.record(1.0);
        b.record(2.0);
        a.merge(&b);
        assert_eq!(a.len(), 2);
        assert_eq!(a.quantile(1.0), 2.0);
    }
}
