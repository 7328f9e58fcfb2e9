//! Property-based tests for the simulation kernel.

use heracles_sim::{
    LatencyRecorder, LogNormal, MultiServerQueue, SimDuration, SimRng, SimTime, StandardDraws,
};
use proptest::prelude::*;

/// Latency samples rich in zeros (of both signs), duplicates, subnormals
/// and huge finite values, the last two often tied too.
fn sample() -> impl Strategy<Value = f64> {
    (0u32..10, 0.0f64..100.0).prop_map(|(kind, x)| match kind {
        0 => 0.0,
        1 => -0.0,
        2 | 3 => (x as u32 % 4) as f64,
        4 => f64::from_bits(1 + x as u64 % 3),
        5 => f64::MAX / (1.0 + (x as u32 % 3) as f64),
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
/// would keep them, by a full sort with `total_cmp`: the oracle every
/// selection must match bitwise.
fn sorted_quantile(samples: &[f64], q: f64) -> f64 {
    let mut kept = kept(samples);
    if kept.is_empty() {
        return 0.0;
    }
    kept.sort_by(f64::total_cmp);
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

/// `MultiServerQueue::run` as it was written with a `min_by` scan of every
/// server for the earliest to free up: the oracle the busy-list queue must
/// match bitwise.
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
    to_bits(rec.samples())
}

fn to_bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|x| x.to_bits()).collect()
}

/// The draws `LogNormal::sample_window` stages, one request at a time: the
/// gap, then the service time clamped at zero.
fn interleaved_window(
    rng: &mut SimRng,
    service: LogNormal,
    mean_interarrival: f64,
    requests: usize,
) -> (Vec<f64>, Vec<f64>) {
    (0..requests)
        .map(|_| {
            let gap = rng.exp(mean_interarrival);
            (gap, service.sample(rng).max(0.0))
        })
        .unzip()
}

/// Log-normal parameters of every shape: spread, and both constant ones
/// (a mean at or below zero, a CoV at or below zero).
fn lognormal_params() -> impl Strategy<Value = (f64, f64)> {
    (0u32..7, 1e-6f64..10.0, 0.01f64..3.0).prop_map(|(kind, mean, cov)| match kind {
        0 => (0.0, cov),
        1 => (-mean, cov),
        2 => (mean, 0.0),
        3 => (mean, -cov),
        _ => (mean, cov),
    })
}

/// Arrival rates, one in five infinite (every arrival at time zero).
fn arrival_rate() -> impl Strategy<Value = f64> {
    (0u32..5, 1.0f64..1e6).prop_map(|(kind, rate)| if kind == 0 { f64::INFINITY } else { rate })
}

/// Window sizes: none, one, odd counts and a fleet window of 1,200.
fn window_requests() -> impl Strategy<Value = usize> {
    (0u32..5, 0usize..600).prop_map(|(kind, n)| match kind {
        0 => 0,
        1 => 1,
        2 => 1200,
        _ => 2 * n + 1,
    })
}

/// A service-time sampler with mean `mean` seconds: exponential, constant,
/// log-normal (CoV 0.55), or a normal that is often negative (the queue
/// clamps those samples to zero).
fn service_draw(kind: u32, mean: f64) -> impl Fn(&mut SimRng) -> f64 + Copy {
    let lognormal = LogNormal::new(mean, 0.55);
    move |r: &mut SimRng| match kind {
        0 => r.exp(mean),
        1 => mean,
        2 => lognormal.sample(r),
        _ => r.normal(mean, 1.5 * mean),
    }
}

/// Runs `MultiServerQueue::run` and `min_by_queue` on one input and
/// requires the same latency bits and the same next uniform.
fn assert_queue_matches_reference(
    seed: u64,
    servers: usize,
    lambda: f64,
    requests: usize,
    draw: impl Fn(&mut SimRng) -> f64 + Copy,
) {
    let mut rng = SimRng::new(seed);
    let got = MultiServerQueue::new(servers).run(&mut rng, lambda, requests, draw);
    let mut oracle_rng = SimRng::new(seed);
    let want = min_by_queue(servers, &mut oracle_rng, lambda, requests, draw);
    prop_assert_eq!(bits(&got), bits(&want));
    prop_assert_eq!(rng.uniform(), oracle_rng.uniform());
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

    /// The busy-list queue gives what the `min_by` scan over every server
    /// gives, bit for bit, and draws the same randomness.  Utilizations up to
    /// 2 keep every server busy for most of a window, so the scan and the
    /// heap both run.  Constant service times make many servers free up at
    /// the same instant; an infinite arrival rate puts every arrival at time
    /// zero, and with the service times that clamp to zero it makes finish
    /// times equal to the clock, so ties on both sides of each comparison
    /// are common.
    #[test]
    fn queue_matches_min_by_reference(
        seed in 0u64..1000,
        servers in 1usize..65,
        service_ms in 0.1f64..5.0,
        utilization in 0.05f64..2.0,
        kind in 0u32..4,
        at_once in 0u32..8,
    ) {
        let service = service_ms / 1000.0;
        let lambda = if at_once == 0 {
            f64::INFINITY
        } else {
            utilization * servers as f64 / service
        };
        assert_queue_matches_reference(seed, servers, lambda, 400, service_draw(kind, service));
    }

    /// At ρ ≈ 1 a window enters and leaves saturation many times over 2,000
    /// requests, so the queue keeps moving between its list and its heap.
    #[test]
    fn queue_matches_min_by_reference_near_saturation(
        seed in 0u64..1000,
        servers in 1usize..65,
        service_ms in 0.1f64..5.0,
        utilization in 0.97f64..1.03,
        kind in 0u32..4,
    ) {
        let service = service_ms / 1000.0;
        let lambda = utilization * servers as f64 / service;
        assert_queue_matches_reference(seed, servers, lambda, 2000, service_draw(kind, service));
    }

    /// The staged window sampler gives the interleaved loop's draws bit for
    /// bit and leaves the generator where the loop does, for every shape
    /// (the constant ones draw no service uniform), an infinite rate (which
    /// draws no gap uniform) and any window size.
    #[test]
    fn staged_window_draws_match_the_interleaved_loop(
        seed in 0u64..1000,
        params in lognormal_params(),
        rate in arrival_rate(),
        requests in window_requests(),
    ) {
        let service = LogNormal::new(params.0, params.1);
        let mut staged = SimRng::new(seed);
        let (gaps, services) = service.sample_window(&mut staged, 1.0 / rate, requests);
        let mut looped = SimRng::new(seed);
        let (want_gaps, want_services) = interleaved_window(&mut looped, service, 1.0 / rate, requests);
        prop_assert_eq!(to_bits(&gaps), to_bits(&want_gaps));
        prop_assert_eq!(to_bits(&services), to_bits(&want_services));
        prop_assert_eq!(staged.uniform().to_bits(), looped.uniform().to_bits());
    }

    /// The standard draws, scaled, are `sample_window`'s draws bit for bit,
    /// and the generator stands where `sample_window` leaves it, both after
    /// drawing them and as their `rng_after`; a window that does not draw
    /// the standard set scales to `None`.  `run_lognormal` handed the draws
    /// gives the private window's latencies and generator.
    #[test]
    fn scaled_standard_draws_match_sample_window(
        seed in 0u64..1000,
        params in lognormal_params(),
        rate in arrival_rate(),
        requests in window_requests(),
        servers in 1usize..40,
    ) {
        let service = LogNormal::new(params.0, params.1);
        let mut drawn = SimRng::new(seed);
        let draws = StandardDraws::draw(&mut drawn, requests);
        prop_assert_eq!(draws.requests(), requests);
        let mut sampled = SimRng::new(seed);
        let (gaps, services) = service.sample_window(&mut sampled, 1.0 / rate, requests);
        match service.scale_window(&draws, 1.0 / rate) {
            Some((scaled_gaps, scaled_services)) => {
                prop_assert_eq!(to_bits(&scaled_gaps), to_bits(&gaps));
                prop_assert_eq!(to_bits(&scaled_services), to_bits(&services));
                let next = sampled.uniform().to_bits();
                prop_assert_eq!(drawn.uniform().to_bits(), next);
                prop_assert_eq!(draws.rng_after().clone().uniform().to_bits(), next);
            }
            None => prop_assert!(params.0 <= 0.0 || params.1 <= 0.0 || rate.is_infinite()),
        }

        // A window that reads the draws ignores the generator it is handed;
        // any other (an empty one too) draws privately from it.
        let queue = MultiServerQueue::new(servers);
        let mut private_rng = SimRng::new(seed);
        let private = queue.run_lognormal(&mut private_rng, rate, requests, service, 0.0, None);
        let reads = requests > 0 && service.scale_window(&draws, 1.0 / rate).is_some();
        let mut shared_rng = SimRng::new(if reads { seed ^ 0x5EED } else { seed });
        let shared =
            queue.run_lognormal(&mut shared_rng, rate, requests, service, 0.0, Some(&draws));
        prop_assert_eq!(bits(&shared), bits(&private));
        prop_assert_eq!(shared_rng.uniform().to_bits(), private_rng.uniform().to_bits());
    }

    /// `run_lognormal` is `run` with the log-normal sampler followed by
    /// `map_in_place(|x| x + shift)`, bit for bit and draw for draw,
    /// including shifts that drop samples (negative, NaN, infinite) or
    /// meet `-0.0`.
    #[test]
    fn run_lognormal_matches_run_then_shift(
        seed in 0u64..1000,
        servers in 1usize..40,
        params in lognormal_params(),
        utilization in 0.05f64..1.5,
        requests in window_requests(),
        shift in (0u32..8, -0.002f64..0.002).prop_map(|(kind, shift)| match kind {
            0 => 0.0,
            1 => -0.0,
            2 => f64::NAN,
            3 => f64::INFINITY,
            _ => shift,
        }),
    ) {
        let (mean, cov) = params;
        let service = LogNormal::new(mean, cov);
        let queue = MultiServerQueue::new(servers);
        let lambda = utilization * servers as f64 / mean.abs().max(1e-6);
        let mut fused_rng = SimRng::new(seed);
        let fused = queue.run_lognormal(&mut fused_rng, lambda, requests, service, shift, None);
        let mut plain_rng = SimRng::new(seed);
        let mut plain = queue.run(&mut plain_rng, lambda, requests, |r| service.sample(r));
        plain.map_in_place(|x| x + shift);
        prop_assert_eq!(bits(&fused), bits(&plain));
        prop_assert_eq!(fused_rng.uniform().to_bits(), plain_rng.uniform().to_bits());
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
