//! Deterministic random number generation.
//!
//! Every stochastic component of the simulation draws from a [`SimRng`] seeded
//! from the experiment configuration, so a given experiment is exactly
//! reproducible.  Independent sub-streams can be split off with
//! [`SimRng::fork`], which keeps components statistically independent while
//! remaining deterministic regardless of the order in which they draw.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A deterministic pseudo-random number generator with the distributions used
/// by the workload and hardware models.
///
/// # Example
///
/// ```
/// use heracles_sim::SimRng;
/// let mut rng = SimRng::new(7);
/// let service_time = rng.lognormal(0.010, 0.5); // mean 10 ms, CoV 0.5
/// assert!(service_time > 0.0);
/// ```
#[derive(Debug, Clone)]
pub struct SimRng {
    inner: StdRng,
    seed: u64,
}

impl SimRng {
    /// Creates a generator from a 64-bit seed.
    pub fn new(seed: u64) -> Self {
        SimRng { inner: StdRng::seed_from_u64(seed), seed }
    }

    /// Creates an independent generator for a named sub-stream.
    ///
    /// The fork is a pure function of the parent seed and `stream`, so the
    /// sub-stream does not depend on how many values the parent has produced.
    pub fn fork(&self, stream: u64) -> SimRng {
        // SplitMix64-style mixing of (seed, stream) into a new seed.
        let mut z = self.seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        SimRng::new(z)
    }

    /// A uniform sample in `[0, 1)`.
    pub fn uniform(&mut self) -> f64 {
        self.inner.gen::<f64>()
    }

    /// A uniform sample in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    pub fn uniform_range(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(lo <= hi, "uniform_range: lo {lo} > hi {hi}");
        lo + (hi - lo) * self.uniform()
    }

    /// A uniform integer sample in `[0, n)`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn index(&mut self, n: usize) -> usize {
        assert!(n > 0, "index: empty range");
        self.inner.gen_range(0..n)
    }

    /// Returns true with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        self.uniform() < p.clamp(0.0, 1.0)
    }

    /// An exponential sample with the given mean.
    ///
    /// Returns zero when `mean <= 0`.
    pub fn exp(&mut self, mean: f64) -> f64 {
        if mean <= 0.0 {
            return 0.0;
        }
        // Inverse-transform sampling; 1-u avoids ln(0).
        -mean * (1.0 - self.uniform()).ln()
    }

    /// A standard normal sample (Box–Muller transform).
    pub fn standard_normal(&mut self) -> f64 {
        let u1: f64 = 1.0 - self.uniform();
        let u2: f64 = self.uniform();
        (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
    }

    /// A normal sample with the given mean and standard deviation.
    pub fn normal(&mut self, mean: f64, std_dev: f64) -> f64 {
        mean + std_dev * self.standard_normal()
    }

    /// A log-normal sample parameterised by its mean and coefficient of
    /// variation (`std_dev / mean`).
    ///
    /// Service-time distributions in the workload models are log-normal, which
    /// matches the heavy-but-not-pathological tails of request service times
    /// in serving systems.  Returns zero when `mean <= 0`.  A caller drawing
    /// many samples of one distribution should build a [`LogNormal`] once.
    pub fn lognormal(&mut self, mean: f64, cov: f64) -> f64 {
        LogNormal::new(mean, cov).sample(self)
    }

    /// A Poisson sample with the given mean (Knuth's method).
    ///
    /// Used for per-step arrival counts in the fleet job stream.  Returns
    /// zero when `mean <= 0`.  Large means are split into chunks and summed
    /// (Poisson(a+b) = Poisson(a) + Poisson(b)), which keeps the method
    /// exact where a single `exp(-mean)` would underflow to zero and break
    /// the termination bound.
    pub fn poisson(&mut self, mean: f64) -> usize {
        if mean.is_nan() || mean <= 0.0 || !mean.is_finite() {
            // NaN and non-positive means sample zero arrivals; an infinite
            // mean would otherwise never terminate.
            return 0;
        }
        const CHUNK: f64 = 200.0;
        let mut remaining = mean;
        let mut total = 0usize;
        while remaining > CHUNK {
            total += self.poisson_knuth(CHUNK);
            remaining -= CHUNK;
        }
        total + self.poisson_knuth(remaining)
    }

    fn poisson_knuth(&mut self, mean: f64) -> usize {
        let limit = (-mean).exp();
        let mut k = 0usize;
        let mut product = 1.0;
        loop {
            product *= self.uniform();
            if product <= limit {
                return k;
            }
            k += 1;
        }
    }

    /// A bounded Pareto sample with shape `alpha` on `[lo, hi]`.
    ///
    /// Used for heavy-tailed best-effort task sizes.
    ///
    /// # Panics
    ///
    /// Panics if `lo <= 0`, `hi < lo`, or `alpha <= 0`.
    pub fn bounded_pareto(&mut self, alpha: f64, lo: f64, hi: f64) -> f64 {
        assert!(lo > 0.0 && hi >= lo && alpha > 0.0, "invalid bounded pareto parameters");
        let u = self.uniform();
        let la = lo.powf(alpha);
        let ha = hi.powf(alpha);
        let x = -(u * ha - u * la - ha) / (ha * la);
        x.powf(-1.0 / alpha)
    }
}

/// A log-normal distribution parameterised by its mean and coefficient of
/// variation, with the logarithms computed once at construction so that
/// each [`sample`](Self::sample) costs one standard-normal draw and an
/// `exp`.  [`SimRng::lognormal`] delegates here, so both give the same bits.
///
/// # Example
///
/// ```
/// use heracles_sim::{LogNormal, SimRng};
/// let service = LogNormal::new(0.010, 0.5); // mean 10 ms, CoV 0.5
/// let (mut a, mut b) = (SimRng::new(7), SimRng::new(7));
/// assert_eq!(service.sample(&mut a), b.lognormal(0.010, 0.5));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LogNormal(Shape);

#[derive(Debug, Clone, Copy, PartialEq)]
enum Shape {
    /// `mean <= 0` gives 0 and `cov <= 0` gives the mean, without drawing.
    Constant(f64),
    /// `exp(mu + sigma·Z)` for a standard normal `Z`.
    Spread { mu: f64, sigma: f64 },
}

impl LogNormal {
    /// The distribution with the given mean and `std_dev / mean`.
    ///
    /// # Panics
    ///
    /// Panics if `mean` is not finite, or if `cov` is NaN, infinite or so
    /// large that its square overflows.  Each would make the samples NaN or
    /// zero, which a queue takes as zero service times, so a window would
    /// read as perfect instead of failing.
    pub fn new(mean: f64, cov: f64) -> Self {
        assert!(mean.is_finite(), "log-normal mean must be finite, got {mean}");
        assert!((cov * cov).is_finite(), "log-normal CoV must be finite, got {cov}");
        if mean <= 0.0 {
            return LogNormal(Shape::Constant(0.0));
        }
        if cov <= 0.0 {
            return LogNormal(Shape::Constant(mean));
        }
        let sigma2 = (1.0 + cov * cov).ln();
        LogNormal(Shape::Spread { mu: mean.ln() - sigma2 / 2.0, sigma: sigma2.sqrt() })
    }

    /// One sample, drawn from `rng` (degenerate distributions draw nothing).
    pub fn sample(&self, rng: &mut SimRng) -> f64 {
        match self.0 {
            Shape::Constant(value) => value,
            Shape::Spread { mu, sigma } => (mu + sigma * rng.standard_normal()).exp(),
        }
    }

    /// The draws of a queue window of `requests` arrivals, as two vectors:
    /// the gap before each arrival (an exponential sample with mean
    /// `mean_interarrival`) and each request's service time clamped at zero.
    ///
    /// Bit for bit what drawing `(rng.exp(mean_interarrival),
    /// self.sample(rng).max(0.0))` once per request gives, and `rng` is left
    /// where that loop leaves it.  The loop spends most of a window in
    /// libm, so this sampler stages the same work:
    ///
    /// 1. every uniform, in the loop's order: the gap's, then the two the
    ///    normal draw takes, request by request;
    /// 2. one pass per function: the gaps' `ln`, the normals' `ln`, their
    ///    `cos`, the normal combined with `mu` and `sigma`, and `exp`.
    ///
    /// Each value is the same libm call or IEEE operation on the same
    /// operands as in the loop, so only the order of evaluation changes.
    /// The combining pass is plain `+`, `*` and `sqrt`, which LLVM may
    /// vectorize but never reassociate or fuse.  The `cos` pass visits its
    /// arguments grouped by their top 8 bits, so libm's argument-range
    /// branches predict.  A degenerate distribution, or a mean gap at or
    /// below zero, draws fewer uniforms per request and takes the loop
    /// itself.
    ///
    /// On a 2-vCPU Xeon, over windows of 1,200 requests, a request costs
    /// about 10 ns of uniforms, 8–10 ns for each `ln`, 23–27 ns of `cos`
    /// with its grouping (28–30 ns in draw order, 14 ns on sorted
    /// arguments), 1 ns to combine and 8–10 ns of `exp`: 61–66 ns in all,
    /// against 75–79 ns for the loop.
    ///
    /// # Example
    ///
    /// ```
    /// use heracles_sim::{LogNormal, SimRng};
    /// let service = LogNormal::new(0.002, 0.5);
    /// let (mut a, mut b) = (SimRng::new(3), SimRng::new(3));
    /// let (gaps, services) = service.sample_window(&mut a, 0.001, 100);
    /// for (gap, time) in gaps.iter().zip(&services) {
    ///     assert_eq!(*gap, b.exp(0.001));
    ///     assert_eq!(*time, service.sample(&mut b).max(0.0));
    /// }
    /// assert_eq!(a.uniform(), b.uniform());
    /// ```
    pub fn sample_window(
        &self,
        rng: &mut SimRng,
        mean_interarrival: f64,
        requests: usize,
    ) -> (Vec<f64>, Vec<f64>) {
        // A degenerate distribution draws no uniform for its service time,
        // and a zero mean gap none for its gap: those take the loop.
        let (Shape::Spread { mu, sigma }, true) = (self.0, mean_interarrival > 0.0) else {
            return draw_window(rng, mean_interarrival, requests, |r| self.sample(r));
        };
        let (mut gaps, mut services, mut turns) =
            (vec![0.0; requests], vec![0.0; requests], vec![0.0; requests]);
        for ((gap, service), turn) in gaps.iter_mut().zip(&mut services).zip(&mut turns) {
            *gap = rng.uniform();
            *service = rng.uniform();
            *turn = rng.uniform();
        }
        // `SimRng::exp`, then the two logarithms and the cosine of
        // `SimRng::standard_normal`, and the rest of `sample`.
        for gap in &mut gaps {
            *gap = -mean_interarrival * (1.0 - *gap).ln();
        }
        for service in &mut services {
            *service = (1.0 - *service).ln();
        }
        cos_of_turns_grouped(&mut turns);
        for (service, &cos) in services.iter_mut().zip(&turns) {
            *service = mu + sigma * ((-2.0 * *service).sqrt() * cos);
        }
        for service in &mut services {
            *service = service.exp().max(0.0);
        }
        (gaps, services)
    }
}

/// The draws of a queue window of `requests` arrivals, one request at a
/// time: the gap before it (an exponential sample with mean
/// `mean_interarrival`), then its service time from `service`, clamped at
/// zero.  The reference [`LogNormal::sample_window`] stages.
pub(crate) fn draw_window(
    rng: &mut SimRng,
    mean_interarrival: f64,
    requests: usize,
    mut service: impl FnMut(&mut SimRng) -> f64,
) -> (Vec<f64>, Vec<f64>) {
    (0..requests)
        .map(|_| {
            let gap = rng.exp(mean_interarrival);
            (gap, service(rng).max(0.0))
        })
        .unzip()
}

/// Replaces each `u` in `[0, 1)` by `cos(2π·u)`, calling `cos` in the order
/// of `u`'s top 8 bits (a counting sort of the indices) rather than in slice
/// order.  Each result is the call `SimRng::standard_normal` makes.
fn cos_of_turns_grouped(turns: &mut [f64]) {
    const GROUPS: usize = 256;
    // `u · 256` is exact and below 256, so its floor is `u`'s top 8 bits.
    let group = |u: f64| (u * GROUPS as f64) as usize;
    let mut starts = [0_usize; GROUPS];
    for &u in turns.iter() {
        starts[group(u)] += 1;
    }
    let mut next = 0;
    for start in &mut starts {
        (*start, next) = (next, next + *start);
    }
    let mut order = vec![0; turns.len()];
    for (i, &u) in turns.iter().enumerate() {
        let slot = &mut starts[group(u)];
        order[*slot] = i;
        *slot += 1;
    }
    for i in order {
        turns[i] = (2.0 * std::f64::consts::PI * turns[i]).cos();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mean_of(samples: &[f64]) -> f64 {
        samples.iter().sum::<f64>() / samples.len() as f64
    }

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::new(1);
        let mut b = SimRng::new(1);
        for _ in 0..100 {
            assert_eq!(a.uniform(), b.uniform());
        }
    }

    #[test]
    fn forks_are_order_independent() {
        let parent = SimRng::new(99);
        let mut f1 = parent.fork(3);
        let mut p2 = SimRng::new(99);
        let _ = p2.uniform(); // advancing the parent must not change the fork
        let mut f2 = p2.fork(3);
        assert_eq!(f1.uniform(), f2.uniform());
    }

    #[test]
    fn exp_has_requested_mean() {
        let mut rng = SimRng::new(5);
        let samples: Vec<f64> = (0..50_000).map(|_| rng.exp(2.0)).collect();
        let m = mean_of(&samples);
        assert!((m - 2.0).abs() < 0.05, "mean {m}");
    }

    #[test]
    fn lognormal_has_requested_mean() {
        let mut rng = SimRng::new(6);
        let samples: Vec<f64> = (0..50_000).map(|_| rng.lognormal(0.01, 0.7)).collect();
        let m = mean_of(&samples);
        assert!((m - 0.01).abs() < 0.0005, "mean {m}");
    }

    #[test]
    fn lognormal_degenerate_cases() {
        let mut rng = SimRng::new(7);
        assert_eq!(rng.lognormal(0.0, 0.5), 0.0);
        assert_eq!(rng.lognormal(3.0, 0.0), 3.0);
    }

    #[test]
    fn chance_extremes() {
        let mut rng = SimRng::new(8);
        assert!(!rng.chance(0.0));
        assert!(rng.chance(1.0));
    }

    #[test]
    fn bounded_pareto_stays_in_bounds() {
        let mut rng = SimRng::new(9);
        for _ in 0..10_000 {
            let x = rng.bounded_pareto(1.5, 1.0, 100.0);
            assert!((1.0..=100.0).contains(&x), "{x}");
        }
    }

    #[test]
    fn uniform_range_bounds() {
        let mut rng = SimRng::new(10);
        for _ in 0..1000 {
            let x = rng.uniform_range(5.0, 6.0);
            assert!((5.0..6.0).contains(&x));
        }
    }

    #[test]
    fn poisson_has_requested_mean() {
        let mut rng = SimRng::new(11);
        let samples: Vec<f64> = (0..50_000).map(|_| rng.poisson(3.0) as f64).collect();
        let m = mean_of(&samples);
        assert!((m - 3.0).abs() < 0.05, "mean {m}");
        assert_eq!(rng.poisson(0.0), 0);
        assert_eq!(rng.poisson(-1.0), 0);
        assert_eq!(rng.poisson(f64::INFINITY), 0);
        assert_eq!(rng.poisson(f64::NAN), 0);
    }

    #[test]
    fn poisson_survives_means_past_the_exp_underflow_point() {
        // exp(-1000) underflows to 0.0; the chunked sampler must still
        // return values distributed around the mean, not a constant.
        let mut rng = SimRng::new(12);
        let samples: Vec<f64> = (0..500).map(|_| rng.poisson(1_000.0) as f64).collect();
        let m = mean_of(&samples);
        assert!((m - 1_000.0).abs() < 10.0, "mean {m}");
        let var = samples.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / samples.len() as f64;
        assert!(var > 500.0, "variance collapsed: {var}");
    }
}
