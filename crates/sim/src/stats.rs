//! Latency recording and summary statistics.
//!
//! Heracles consumes tail latency (e.g. the 99th percentile over a 15-second
//! window) as its primary control input.  [`LatencyRecorder`] collects the
//! per-request latencies produced by the queueing simulation and reports exact
//! empirical percentiles; [`StreamingStats`] tracks running moments for
//! resource-utilization series.

use serde::{Deserialize, Serialize};

/// Exact empirical latency distribution over a measurement window.
///
/// Stores every sample (windows are tens of thousands of requests at most) so
/// quantiles are exact rather than approximated.
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
    sorted: bool,
}

impl LatencyRecorder {
    /// Creates an empty recorder.
    pub fn new() -> Self {
        LatencyRecorder { samples: Vec::new(), sorted: true }
    }

    /// Creates an empty recorder with capacity for `n` samples.
    pub fn with_capacity(n: usize) -> Self {
        LatencyRecorder { samples: Vec::with_capacity(n), sorted: true }
    }

    /// Records one latency sample in seconds.
    ///
    /// Non-finite or negative samples are ignored.  `-0.0` is stored as
    /// `+0.0`, so samples that compare equal are bitwise equal and a
    /// quantile is one bit pattern whatever order equal samples sort in.
    pub fn record(&mut self, latency_s: f64) {
        if latency_s.is_finite() && latency_s >= 0.0 {
            // `-0.0 + 0.0` is `+0.0`; every other value is unchanged.
            self.samples.push(latency_s + 0.0);
            self.sorted = false;
        }
    }

    /// Absorbs all samples from another recorder.
    pub fn merge(&mut self, other: &LatencyRecorder) {
        self.samples.extend_from_slice(&other.samples);
        self.sorted = false;
    }

    /// Number of recorded samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// The raw samples in insertion (not sorted) order unless a quantile has
    /// been computed since the last insertion, in which case they are sorted
    /// ascending — the sorted-run invariant [`quantile_of_runs`] relies on to
    /// skip re-sorting.
    ///
    /// [`quantile_of_runs`]: Self::quantile_of_runs
    pub fn samples(&self) -> &[f64] {
        &self.samples
    }

    /// True if no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// The empirical quantile `q` in `[0, 1]`, or zero if empty.
    ///
    /// Uses the nearest-rank method, which is what production latency
    /// monitoring systems report.
    pub fn quantile(&mut self, q: f64) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        self.sort();
        self.samples[nearest_rank(q, self.samples.len()) - 1]
    }

    /// The nearest-rank quantile `q` of the union of several recorders'
    /// samples — bitwise what [`merge`](Self::merge)-ing them into one
    /// recorder and calling [`quantile`](Self::quantile) returns — or zero
    /// if they hold no samples.
    ///
    /// Each run is sorted in place (a no-op for a run whose quantile was
    /// already taken), then the answer is selected by walking down from the
    /// runs' tops: `n − rank + 1` picks, where `n` is the total sample count.
    /// For a tail quantile that is a few dozen comparisons instead of a copy
    /// and sort of every sample.
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
        // Each sorted run with one past its largest sample not yet picked.
        let mut heads: Vec<(&[f64], usize)> = runs
            .into_iter()
            .map(|run| {
                run.sort();
                (run.samples.as_slice(), run.samples.len())
            })
            .collect();
        let n: usize = heads.iter().map(|&(run, _)| run.len()).sum();
        if n == 0 {
            return 0.0;
        }
        let picks = n - nearest_rank(q, n) + 1;
        let mut picked = 0.0;
        for _ in 0..picks {
            // The largest remaining sample over all runs.  Equal samples are
            // bitwise equal (see `record`), so which run yields a tie does
            // not matter.
            let mut best: Option<(usize, f64)> = None;
            for (i, &(run, end)) in heads.iter().enumerate() {
                if end > 0 && best.is_none_or(|(_, top)| run[end - 1] > top) {
                    best = Some((i, run[end - 1]));
                }
            }
            let (i, top) = best.expect("picks never exceed the sample count");
            heads[i].1 -= 1;
            picked = top;
        }
        picked
    }

    /// Sorts the samples ascending unless they already are.
    fn sort(&mut self) {
        if !self.sorted {
            self.samples.sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
            self.sorted = true;
        }
    }

    /// The mean latency, or zero if empty.
    pub fn mean(&self) -> f64 {
        if self.samples.is_empty() {
            0.0
        } else {
            self.samples.iter().sum::<f64>() / self.samples.len() as f64
        }
    }

    /// The maximum latency, or zero if empty.
    pub fn max(&self) -> f64 {
        self.samples.iter().copied().fold(0.0, f64::max)
    }

    /// Removes all samples.
    pub fn clear(&mut self) {
        self.samples.clear();
        self.sorted = true;
    }
}

/// The 1-based nearest rank of quantile `q` (clamped to `[0, 1]`) among
/// `n > 0` sorted samples.
fn nearest_rank(q: f64, n: usize) -> usize {
    let q = q.clamp(0.0, 1.0);
    ((q * n as f64).ceil() as usize).clamp(1, n)
}

/// Running mean / min / max / variance over a stream of values
/// (Welford's algorithm).
///
/// # Example
///
/// ```
/// use heracles_sim::StreamingStats;
/// let mut s = StreamingStats::new();
/// for v in [1.0, 2.0, 3.0] {
///     s.push(v);
/// }
/// assert_eq!(s.mean(), 2.0);
/// assert_eq!(s.max(), 3.0);
/// ```
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct StreamingStats {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl StreamingStats {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        StreamingStats { count: 0, mean: 0.0, m2: 0.0, min: f64::INFINITY, max: f64::NEG_INFINITY }
    }

    /// Adds a value to the stream. Non-finite values are ignored.
    pub fn push(&mut self, value: f64) {
        if !value.is_finite() {
            return;
        }
        self.count += 1;
        let delta = value - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (value - self.mean);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Number of values pushed.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// The running mean, or zero if empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// The population variance, or zero if fewer than two values.
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / self.count as f64
        }
    }

    /// The population standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// The minimum value, or zero if empty.
    pub fn min(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.min
        }
    }

    /// The maximum value, or zero if empty.
    pub fn max(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.max
        }
    }

    /// Merges another accumulator into this one.
    pub fn merge(&mut self, other: &StreamingStats) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        let total = self.count + other.count;
        let delta = other.mean - self.mean;
        let new_mean = self.mean + delta * other.count as f64 / total as f64;
        self.m2 += other.m2 + delta * delta * self.count as f64 * other.count as f64 / total as f64;
        self.mean = new_mean;
        self.count = total;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
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

    #[test]
    fn streaming_stats_moments() {
        let mut s = StreamingStats::new();
        for v in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            s.push(v);
        }
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert!((s.std_dev() - 2.0).abs() < 1e-12);
        assert_eq!(s.min(), 2.0);
        assert_eq!(s.max(), 9.0);
    }

    #[test]
    fn streaming_merge_equals_single_pass() {
        let values: Vec<f64> = (0..100).map(|i| (i as f64).sin() + 2.0).collect();
        let mut whole = StreamingStats::new();
        for &v in &values {
            whole.push(v);
        }
        let mut left = StreamingStats::new();
        let mut right = StreamingStats::new();
        for &v in &values[..37] {
            left.push(v);
        }
        for &v in &values[37..] {
            right.push(v);
        }
        left.merge(&right);
        assert!((left.mean() - whole.mean()).abs() < 1e-9);
        assert!((left.variance() - whole.variance()).abs() < 1e-9);
        assert_eq!(left.count(), whole.count());
    }

    #[test]
    fn streaming_ignores_non_finite() {
        let mut s = StreamingStats::new();
        s.push(f64::NAN);
        s.push(1.0);
        assert_eq!(s.count(), 1);
    }
}
