//! Harness configuration.

use heracles_sim::SimDuration;

/// Parameters of the single-server colocation harness.
///
/// # Example
///
/// ```
/// use heracles_colo::ColoConfig;
/// let cfg = ColoConfig::default();
/// assert!(cfg.requests_per_window >= 1000);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ColoConfig {
    /// Length of one measurement window.
    pub window: SimDuration,
    /// Number of LC requests simulated per window (a statistical sample of
    /// the window's traffic; enough for stable 99th percentiles).
    pub requests_per_window: usize,
    /// Number of consecutive windows aggregated into one SLO measurement.
    /// The paper defines the SLO over multi-second windows (and the
    /// controller polls latency over 15 s) precisely so that tail estimates
    /// are statistically meaningful; the same aggregation is applied here to
    /// both the reported latency and the controller's input.
    pub slo_window_count: usize,
    /// Seed for all stochastic components of the experiment.
    pub seed: u64,
}

impl Default for ColoConfig {
    fn default() -> Self {
        ColoConfig {
            window: SimDuration::from_secs(1),
            requests_per_window: 3_000,
            slo_window_count: 5,
            seed: 42,
        }
    }
}

impl ColoConfig {
    /// A cheap configuration for unit tests.
    pub fn fast_test() -> Self {
        ColoConfig { requests_per_window: 1_500, slo_window_count: 4, ..Self::default() }
    }

    /// Returns a copy with a different seed (used to give every experiment
    /// cell and every cluster leaf an independent random stream).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_window_is_one_second() {
        assert_eq!(ColoConfig::default().window.as_secs_f64(), 1.0);
    }

    #[test]
    fn with_seed_changes_only_the_seed() {
        let a = ColoConfig::default();
        let b = a.with_seed(7);
        assert_eq!(a.window, b.window);
        assert_eq!(a.requests_per_window, b.requests_per_window);
        assert_ne!(a.seed, b.seed);
    }
}
