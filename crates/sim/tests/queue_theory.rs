//! The queue and its service sampler against queueing theory.
//!
//! Every other queue test compares `MultiServerQueue` with a slower copy of
//! the same algorithm or with its own recorded digest.  These checks use
//! references that do not move with the code:
//!
//! * `LogNormal`'s mean and CoV, and a Kolmogorov–Smirnov statistic against
//!   the exact log-normal CDF;
//! * M/M/c: the probability of waiting, the mean wait and the waiting-time
//!   tail against Erlang C;
//! * M/G/1 with log-normal service, and M/D/1 (a CoV of zero is a constant
//!   service time): the mean sojourn against Pollaczek–Khinchine.
//!
//! A run's estimate must fall inside a batch-means confidence interval
//! around the theory: the run (after a warm-up, for the queues) is cut into
//! `BATCHES` consecutive batches, whose means are close to independent
//! normals when each batch spans many relaxation times of the queue.  Seeds
//! are fixed, so each check is deterministic.

use heracles_sim::{LogNormal, MultiServerQueue, SimRng};

/// Consecutive batches per run.
const BATCHES: usize = 20;
/// The two-sided 99.9% quantile of Student's t with `BATCHES − 1` degrees of
/// freedom: the half-width of each interval in standard errors.
const T_999: f64 = 3.883;

/// The mean of `values`.
fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}

/// The sample standard deviation of `values`.
fn std_dev(values: &[f64]) -> f64 {
    let m = mean(values);
    let sum_sq: f64 = values.iter().map(|x| (x - m) * (x - m)).sum();
    (sum_sq / (values.len() - 1) as f64).sqrt()
}

/// The statistic `f` over each of `BATCHES` consecutive batches of
/// `values`, and its batch-means estimate with standard error.
fn batch_means(values: &[f64], f: impl Fn(&[f64]) -> f64) -> (f64, f64) {
    let size = values.len() / BATCHES;
    let batches: Vec<f64> = values.chunks_exact(size).take(BATCHES).map(f).collect();
    (mean(&batches), std_dev(&batches) / (BATCHES as f64).sqrt())
}

/// Asserts that the batch-means interval of `f` over `values` covers
/// `theory`.
fn assert_covers(what: &str, values: &[f64], f: impl Fn(&[f64]) -> f64, theory: f64) {
    let (estimate, se) = batch_means(values, f);
    assert!(
        (estimate - theory).abs() <= T_999 * se,
        "{what}: estimate {estimate:.6e} ± {:.3e} (99.9%) does not cover theory {theory:.6e}",
        T_999 * se
    );
}

/// The complementary error function, to a relative error below 1.2e-7
/// (the Chebyshev fit of Press et al., *Numerical Recipes*, §6.2).
fn erfc(x: f64) -> f64 {
    let z = x.abs();
    let t = 1.0 / (1.0 + 0.5 * z);
    let poly = -1.265_512_23
        + t * (1.000_023_68
            + t * (0.374_091_96
                + t * (0.096_784_18
                    + t * (-0.186_288_06
                        + t * (0.278_868_07
                            + t * (-1.135_203_98
                                + t * (1.488_515_87 + t * (-0.822_152_23 + t * 0.170_872_77))))))));
    let value = t * (-z * z + poly).exp();
    if x >= 0.0 {
        value
    } else {
        2.0 - value
    }
}

/// The CDF of the log-normal distribution with the given mean and CoV.
fn lognormal_cdf(mean: f64, cov: f64, x: f64) -> f64 {
    let sigma2 = (1.0 + cov * cov).ln();
    let mu = mean.ln() - sigma2 / 2.0;
    0.5 * erfc(-(x.ln() - mu) / (2.0 * sigma2).sqrt())
}

/// The Kolmogorov–Smirnov distance between the empirical CDF of `samples`
/// and `cdf`.
fn ks_distance(samples: &[f64], cdf: impl Fn(f64) -> f64) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len() as f64;
    sorted
        .iter()
        .enumerate()
        .map(|(i, &x)| {
            let f = cdf(x);
            ((i + 1) as f64 / n - f).max(f - i as f64 / n)
        })
        .fold(0.0, f64::max)
}

/// Erlang C: the probability that an arrival waits in an M/M/c queue with
/// offered load `a = λ/μ < c`.
fn erlang_c(c: usize, a: f64) -> f64 {
    let mut term = 1.0; // a^k / k!
    let mut sum = 0.0;
    for k in 0..c {
        if k > 0 {
            term *= a / k as f64;
        }
        sum += term;
    }
    let top = term * a / c as f64 / (1.0 - a / c as f64);
    top / (sum + top)
}

#[test]
fn lognormal_matches_its_mean_cov_and_cdf() {
    const SAMPLES: usize = 200_000;
    const MEAN_S: f64 = 0.002;
    for (seed, cov) in [(1, 0.2), (2, 0.55), (3, 1.2)] {
        let service = LogNormal::new(MEAN_S, cov);
        let mut rng = SimRng::new(seed);
        let (_, samples) = service.sample_window(&mut rng, 0.001, SAMPLES);
        assert_covers(&format!("mean at CoV {cov}"), &samples, mean, MEAN_S);
        assert_covers(&format!("CoV at CoV {cov}"), &samples, |b| std_dev(b) / mean(b), cov);
        // The Kolmogorov distribution's 99.9% point is 1.949 / √n.
        let d = ks_distance(&samples, |x| lognormal_cdf(MEAN_S, cov, x));
        assert!(
            d * (SAMPLES as f64).sqrt() < 1.949,
            "KS distance {d:.5} at CoV {cov} exceeds the 99.9% point"
        );
    }
}

#[test]
fn mmc_waits_match_erlang_c() {
    const REQUESTS: usize = 210_000;
    const WARM_UP: usize = 10_000;
    const MEAN_S: f64 = 0.001;
    for (seed, servers, rho) in [(11, 1, 0.5), (12, 1, 0.8), (13, 4, 0.8), (14, 12, 0.8)] {
        let lambda = rho * servers as f64 / MEAN_S;
        let mut services = Vec::with_capacity(REQUESTS);
        let mut rng = SimRng::new(seed);
        let lat = MultiServerQueue::new(servers).run(&mut rng, lambda, REQUESTS, |r| {
            let s = r.exp(MEAN_S);
            services.push(s);
            s
        });
        // Every sojourn is finite and non-negative, so the recorder holds
        // one per request, in order.
        let waits: Vec<f64> =
            lat.samples().iter().zip(&services).skip(WARM_UP).map(|(t, s)| t - s).collect();
        let waited: Vec<f64> = waits.iter().map(|&w| f64::from(u8::from(w > 0.0))).collect();
        let p_wait = erlang_c(servers, lambda * MEAN_S);
        let label = format!("M/M/{servers} at ρ = {rho}");
        assert_covers(&format!("{label}: P(wait)"), &waited, mean, p_wait);
        let mean_wait = MultiServerQueue::new(servers).erlang_c_mean_wait(lambda, MEAN_S);
        assert_covers(&format!("{label}: mean wait"), &waits, mean, mean_wait);
        // Erlang C's mean wait is P(wait) / (cμ − λ).
        let rate_gap = servers as f64 / MEAN_S - lambda;
        assert!((mean_wait - p_wait / rate_gap).abs() <= 1e-12 * mean_wait);
        // The wait is exponential beyond zero: P(W > t) = C(c, a)·e^{−(cμ − λ)t}.
        for gaps in [0.5, 2.0] {
            let t = gaps / rate_gap;
            let beyond: Vec<f64> = waits.iter().map(|&w| f64::from(u8::from(w > t))).collect();
            let tail = p_wait * (-rate_gap * t).exp();
            assert_covers(&format!("{label}: P(W > {t:.2e} s)"), &beyond, mean, tail);
        }
    }
}

#[test]
fn mg1_lognormal_sojourn_matches_pollaczek_khinchine() {
    const REQUESTS: usize = 210_000;
    const WARM_UP: usize = 10_000;
    const MEAN_S: f64 = 0.001;
    for (seed, cov, rho) in [(21, 0.2, 0.8), (22, 0.55, 0.5), (23, 1.2, 0.7), (24, 0.0, 0.7)] {
        let lambda = rho / MEAN_S;
        let mut rng = SimRng::new(seed);
        let service = LogNormal::new(MEAN_S, cov);
        let lat =
            MultiServerQueue::new(1).run_lognormal(&mut rng, lambda, REQUESTS, service, 0.0, None);
        // W = λ·E[S²] / (2(1 − ρ)), with E[S²] = m²(1 + CoV²); at CoV 0
        // (M/D/1) that is ρ·m / (2(1 − ρ)).
        let second_moment = MEAN_S * MEAN_S * (1.0 + cov * cov);
        let sojourn = lambda * second_moment / (2.0 * (1.0 - rho)) + MEAN_S;
        let label = format!("M/G/1 log-normal CoV {cov} at ρ = {rho}: mean sojourn");
        assert_covers(&label, &lat.samples()[WARM_UP..], mean, sojourn);
    }
}
