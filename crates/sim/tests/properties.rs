//! Property-based tests for the simulation kernel.

use heracles_sim::{LatencyRecorder, LogNormal, MultiServerQueue, SimDuration, SimRng, SimTime};
use proptest::prelude::*;

/// Latency samples rich in zeros (of both signs) and duplicates.
fn sample() -> impl Strategy<Value = f64> {
    (0u32..8, 0.0f64..100.0).prop_map(|(kind, x)| match kind {
        0 => 0.0,
        1 => -0.0,
        2 | 3 => (x as u32 % 4) as f64,
        _ => x,
    })
}

/// Quantile arguments including both ends and values outside `[0, 1]`.
fn quantile_arg() -> impl Strategy<Value = f64> {
    (0u32..6, -0.5f64..1.5).prop_map(|(kind, q)| match kind {
        0 => 0.0,
        1 => 1.0,
        _ => q,
    })
}

/// The samples `LatencyRecorder::record` keeps of `samples`, in order.
fn kept(samples: &[f64]) -> Vec<f64> {
    samples.iter().filter(|x| x.is_finite() && **x >= 0.0).map(|x| x + 0.0).collect()
}

/// The nearest-rank quantile `q` of `samples` as `LatencyRecorder::record`
/// would keep them, by a full sort: the oracle every selection must match
/// bitwise.
fn sorted_quantile(samples: &[f64], q: f64) -> f64 {
    let mut kept = kept(samples);
    if kept.is_empty() {
        return 0.0;
    }
    kept.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let rank = ((q.clamp(0.0, 1.0) * kept.len() as f64).ceil() as usize).clamp(1, kept.len());
    kept[rank - 1]
}

/// `SimRng::lognormal` as it was written before the sampler was hoisted
/// into `LogNormal`: the oracle the hoisted sampler must match bitwise.
fn inline_lognormal(rng: &mut SimRng, mean: f64, cov: f64) -> f64 {
    if mean <= 0.0 {
        return 0.0;
    }
    if cov <= 0.0 {
        return mean;
    }
    let sigma2 = (1.0 + cov * cov).ln();
    let mu = mean.ln() - sigma2 / 2.0;
    (mu + sigma2.sqrt() * rng.standard_normal()).exp()
}

/// `MultiServerQueue::run` as it was written with a `min_by` earliest-server
/// scan: the oracle the strict-`<` loop must match bitwise.
fn min_by_queue(
    servers: usize,
    rng: &mut SimRng,
    arrival_rate_hz: f64,
    requests: usize,
    mut service: impl FnMut(&mut SimRng) -> f64,
) -> LatencyRecorder {
    let mut latencies = LatencyRecorder::with_capacity(requests);
    if arrival_rate_hz <= 0.0 || requests == 0 {
        return latencies;
    }
    let mean_interarrival = 1.0 / arrival_rate_hz;
    let mut free_at = vec![0.0_f64; servers];
    let mut now = 0.0_f64;
    for _ in 0..requests {
        now += rng.exp(mean_interarrival);
        let (idx, earliest) = free_at
            .iter()
            .copied()
            .enumerate()
            .min_by(|a, b| a.1.partial_cmp(&b.1).expect("finite times"))
            .expect("at least one server");
        let start = now.max(earliest);
        let wait = start - now;
        let service_time = service(rng).max(0.0);
        free_at[idx] = start + service_time;
        latencies.record(wait + service_time);
    }
    latencies
}

fn bits(rec: &LatencyRecorder) -> Vec<u64> {
    rec.samples().iter().map(|x| x.to_bits()).collect()
}

proptest! {
    /// Quantiles are monotone in the quantile argument and bounded by min/max.
    #[test]
    fn quantiles_are_monotone(samples in proptest::collection::vec(0.0f64..1000.0, 1..200)) {
        let mut rec = LatencyRecorder::new();
        for &s in &samples {
            rec.record(s);
        }
        let q50 = rec.quantile(0.5);
        let q90 = rec.quantile(0.9);
        let q99 = rec.quantile(0.99);
        prop_assert!(q50 <= q90);
        prop_assert!(q90 <= q99);
        prop_assert!(q99 <= rec.quantile(1.0));
        prop_assert!(rec.quantile(0.0) <= q50);
    }

    /// Merging recorders is equivalent to recording everything in one.
    #[test]
    fn recorder_merge_is_concatenation(
        a in proptest::collection::vec(0.0f64..100.0, 0..100),
        b in proptest::collection::vec(0.0f64..100.0, 0..100),
    ) {
        let mut merged = LatencyRecorder::new();
        let mut left = LatencyRecorder::new();
        let mut right = LatencyRecorder::new();
        for &x in &a { merged.record(x); left.record(x); }
        for &x in &b { merged.record(x); right.record(x); }
        left.merge(&right);
        prop_assert_eq!(left.len(), merged.len());
        prop_assert_eq!(left.quantile(0.95), merged.quantile(0.95));
    }

    /// Simulated sojourn times are never smaller than the (constant) service time.
    #[test]
    fn sojourn_at_least_service(
        seed in 0u64..1000,
        servers in 1usize..16,
        service_ms in 0.1f64..10.0,
        utilization in 0.05f64..0.9,
    ) {
        let mut rng = SimRng::new(seed);
        let q = MultiServerQueue::new(servers);
        let service = service_ms / 1000.0;
        let lambda = utilization * servers as f64 / service;
        let mut lat = q.run(&mut rng, lambda, 500, |_| service);
        prop_assert!(lat.quantile(0.0) >= service - 1e-12);
    }

    /// Identical seeds give identical latency distributions (determinism).
    #[test]
    fn queue_is_deterministic(seed in 0u64..500) {
        let run = |seed| {
            let mut rng = SimRng::new(seed);
            let q = MultiServerQueue::new(4);
            let mut lat = q.run(&mut rng, 1000.0, 2000, |r| r.exp(0.002));
            (lat.quantile(0.5), lat.quantile(0.99), lat.mean())
        };
        prop_assert_eq!(run(seed), run(seed));
    }

    /// Time arithmetic: (t + d) - t == d for any time and duration.
    #[test]
    fn time_add_then_subtract(t_ns in 0u64..u64::MAX / 4, d_ns in 0u64..u64::MAX / 4) {
        let t = SimTime::from_nanos(t_ns);
        let d = SimDuration::from_nanos(d_ns);
        prop_assert_eq!((t + d) - t, d);
    }

    /// Selecting a quantile from several runs gives bitwise what merging
    /// them and taking the quantile gives, and what a full sort of every
    /// sample gives — for empty, untouched, partly selected and
    /// duplicate-heavy runs alike, and any quantile argument.
    #[test]
    fn quantile_of_runs_matches_merge_then_quantile(
        runs in proptest::collection::vec(proptest::collection::vec(sample(), 0..40), 0..7),
        presorted in 0u64..128,
        presort_q in quantile_arg(),
        q in quantile_arg(),
        q2 in quantile_arg(),
    ) {
        let mut recorders: Vec<LatencyRecorder> = runs
            .iter()
            .enumerate()
            .map(|(i, run)| {
                let mut rec = LatencyRecorder::new();
                for &x in run {
                    rec.record(x);
                }
                if presorted & (1 << i) != 0 {
                    rec.quantile(presort_q);
                }
                rec
            })
            .collect();
        let mut merged = LatencyRecorder::new();
        for rec in &recorders {
            merged.merge(rec);
        }
        let all: Vec<f64> = runs.concat();
        // The second argument runs over the tops the first call sorted.
        for q in [q, q2] {
            let want = sorted_quantile(&all, q).to_bits();
            let selected = LatencyRecorder::quantile_of_runs(recorders.iter_mut(), q);
            prop_assert_eq!(selected.to_bits(), want, "q = {}", q);
            prop_assert_eq!(merged.quantile(q).to_bits(), want, "q = {}", q);
        }
    }

    /// Runs cut to their retained tops still rank on every sample they
    /// recorded: each quantile whose pick count fits the shallowest cut is
    /// bitwise the full sort of every sample, over the runs and within each
    /// run, for empty, short, uncut and deeply cut runs alike.
    #[test]
    fn quantile_of_cut_runs_matches_full_sort(
        runs in proptest::collection::vec(proptest::collection::vec(sample(), 0..40), 0..7),
        depths in proptest::collection::vec(0usize..48, 7..8),
        q in quantile_arg(),
    ) {
        let mut recorders: Vec<LatencyRecorder> = runs
            .iter()
            .zip(&depths)
            .map(|(run, &depth)| {
                let mut rec = LatencyRecorder::new();
                for &x in run {
                    rec.record(x);
                }
                rec.retain_top(depth);
                rec
            })
            .collect();
        // The shallowest top a cut run kept; uncut runs hold everything.
        let fits = runs
            .iter()
            .zip(&depths)
            .filter(|(run, &depth)| depth < kept(run).len())
            .map(|(_, &depth)| depth)
            .min()
            .unwrap_or(usize::MAX);
        let all: Vec<f64> = runs.concat();
        let n = kept(&all).len();
        let sweep = (0..=64).map(|k| k as f64 / 64.0);
        for q in sweep.chain([q]) {
            if LatencyRecorder::tail_depth(q, n) <= fits {
                let want = sorted_quantile(&all, q).to_bits();
                let selected = LatencyRecorder::quantile_of_runs(recorders.iter_mut(), q);
                prop_assert_eq!(selected.to_bits(), want, "q = {}", q);
            }
            for (rec, run) in recorders.iter_mut().zip(&runs) {
                prop_assert_eq!(rec.len(), kept(run).len());
                if LatencyRecorder::tail_depth(q, rec.len()) <= fits {
                    prop_assert_eq!(rec.quantile(q).to_bits(), sorted_quantile(run, q).to_bits());
                }
            }
        }
    }

    /// A quantile whose pick count reaches below a cut run's retained top
    /// panics rather than answer from a partial set.
    #[test]
    #[should_panic(expected = "rank falls below the retained top")]
    fn quantile_below_a_retained_top_panics(
        runs in proptest::collection::vec(proptest::collection::vec(sample(), 0..40), 0..7),
        short in proptest::collection::vec(sample(), 1..40),
        q in quantile_arg(),
    ) {
        let mut recorders: Vec<LatencyRecorder> = runs
            .iter()
            .chain([&short])
            .map(|run| {
                let mut rec = LatencyRecorder::new();
                for &x in run {
                    rec.record(x);
                }
                rec
            })
            .collect();
        let n = recorders.iter().map(LatencyRecorder::len).sum();
        let picks = LatencyRecorder::tail_depth(q, n);
        // One sample short of what the quantile reads, or of the whole run.
        recorders.last_mut().expect("the short run").retain_top(picks.min(short.len()) - 1);
        LatencyRecorder::quantile_of_runs(recorders.iter_mut(), q);
    }

    /// A quantile taken by selecting and sorting only the recorder's top is
    /// bitwise the full-sort value, across records and quantiles in any
    /// interleaving: deeper queries extend the sorted top, shallower ones
    /// reuse it, and a record invalidates it.  The samples themselves are
    /// only ever reordered.
    #[test]
    fn quantile_by_selection_matches_full_sort(
        ops in proptest::collection::vec(
            (0u32..4, proptest::collection::vec(sample(), 0..30), quantile_arg()),
            1..12,
        ),
    ) {
        let mut rec = LatencyRecorder::new();
        let mut recorded = Vec::new();
        for (kind, batch, q) in ops {
            if kind == 0 {
                for &x in &batch {
                    rec.record(x);
                }
                recorded.extend_from_slice(&batch);
            }
            prop_assert_eq!(rec.quantile(q).to_bits(), sorted_quantile(&recorded, q).to_bits());
        }
        let mut got = bits(&rec);
        let mut want: Vec<u64> = kept(&recorded).iter().map(|x| x.to_bits()).collect();
        got.sort_unstable();
        want.sort_unstable();
        prop_assert_eq!(got, want);
    }

    /// Mapping a recorder's samples in place keeps bitwise what recording
    /// the mapped samples into a fresh recorder keeps, in the same order,
    /// including the results `record` drops or normalizes.
    #[test]
    fn map_in_place_matches_recording_the_mapped_samples(
        samples in proptest::collection::vec(sample(), 0..60),
        shift in -50.0f64..50.0,
        q in quantile_arg(),
    ) {
        // Some results are negative, `-0.0`, NaN or infinite.
        let f = |x: f64| match (x as u32) % 5 {
            0 => x - shift,
            1 => -0.0 * x,
            2 if x > 90.0 => f64::NAN,
            3 if x > 90.0 => f64::INFINITY,
            _ => x + shift,
        };
        let mut mapped = LatencyRecorder::new();
        for &x in &samples {
            mapped.record(x);
        }
        // A quantile first, so the map also has to drop a sorted top.
        mapped.quantile(q);
        let mut fresh = LatencyRecorder::new();
        for &x in mapped.samples() {
            fresh.record(f(x));
        }
        mapped.map_in_place(f);
        prop_assert_eq!(bits(&mapped), bits(&fresh));
        prop_assert_eq!(mapped.quantile(q).to_bits(), fresh.quantile(q).to_bits());
    }

    /// The hoisted log-normal sampler and `SimRng::lognormal` draw exactly
    /// what the inline formula drew, and consume the same randomness
    /// (none at all in the degenerate cases).
    #[test]
    fn lognormal_sampler_matches_inline_formula(
        seed in 0u64..1000,
        mean in (0u32..6, 1e-6f64..10.0).prop_map(|(kind, m)| match kind {
            0 => 0.0,
            1 => -m,
            _ => m,
        }),
        cov in (0u32..6, 0.0f64..3.0).prop_map(|(kind, c)| match kind {
            0 => 0.0,
            1 => -c,
            _ => c,
        }),
    ) {
        let sampler = LogNormal::new(mean, cov);
        let mut oracle = SimRng::new(seed);
        let mut hoisted = SimRng::new(seed);
        let mut delegated = SimRng::new(seed);
        for _ in 0..20 {
            let want = inline_lognormal(&mut oracle, mean, cov).to_bits();
            prop_assert_eq!(sampler.sample(&mut hoisted).to_bits(), want);
            prop_assert_eq!(delegated.lognormal(mean, cov).to_bits(), want);
        }
        let next = oracle.uniform();
        prop_assert_eq!(hoisted.uniform(), next);
        prop_assert_eq!(delegated.uniform(), next);
    }

    /// The earliest-server scan picks what the `min_by` scan picked.
    /// Constant service times make many servers free up at the same
    /// instant, so ties in `free_at` are common.
    #[test]
    fn queue_matches_min_by_reference(
        seed in 0u64..1000,
        servers in 1usize..12,
        service_ms in 0.1f64..5.0,
        utilization in 0.05f64..1.5,
        exponential in 0u32..3,
    ) {
        let service = service_ms / 1000.0;
        let lambda = utilization * servers as f64 / service;
        let draw = move |r: &mut SimRng| if exponential == 0 { r.exp(service) } else { service };
        let mut rng = SimRng::new(seed);
        let got = MultiServerQueue::new(servers).run(&mut rng, lambda, 400, draw);
        let mut oracle_rng = SimRng::new(seed);
        let want = min_by_queue(servers, &mut oracle_rng, lambda, 400, draw);
        prop_assert_eq!(bits(&got), bits(&want));
        prop_assert_eq!(rng.uniform(), oracle_rng.uniform());
    }

    /// Exponential and log-normal samples are always non-negative and finite.
    #[test]
    fn distributions_are_well_formed(seed in 0u64..1000, mean in 1e-6f64..10.0, cov in 0.0f64..3.0) {
        let mut rng = SimRng::new(seed);
        for _ in 0..100 {
            let e = rng.exp(mean);
            let l = rng.lognormal(mean, cov);
            prop_assert!(e.is_finite() && e >= 0.0);
            prop_assert!(l.is_finite() && l >= 0.0);
        }
    }
}
