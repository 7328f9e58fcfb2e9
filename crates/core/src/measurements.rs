//! The measurements the controller polls each cycle.
//!
//! Heracles deliberately relies only on signals available on production
//! servers: the tail latency and load reported by the LC service itself, the
//! hardware counters in [`CounterSnapshot`], and the (coarse) progress the BE
//! tasks report about themselves.

use heracles_hw::CounterSnapshot;

/// One controller cycle's worth of observations.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Measurements {
    /// Tail latency of the LC workload over the last window, at its SLO
    /// percentile, in seconds.
    pub tail_latency_s: f64,
    /// LC load as a fraction of the server's peak load.
    pub load: f64,
    /// Progress the BE tasks achieved over the last window, in
    /// core-equivalents (used only to detect whether growing a resource
    /// actually benefits the BE job).
    pub be_progress: f64,
    /// Hardware counter readings for the last window.
    pub counters: CounterSnapshot,
}

impl Measurements {
    /// Latency slack against a target: `(target - latency) / target`.
    pub(crate) fn slack(&self, target_s: f64) -> f64 {
        if target_s <= 0.0 {
            return 0.0;
        }
        (target_s - self.tail_latency_s) / target_s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slack_computation() {
        let m = Measurements { tail_latency_s: 0.020, load: 0.5, ..Measurements::default() };
        assert!((m.slack(0.025) - 0.2).abs() < 1e-12);
        assert!(m.slack(0.010) < 0.0);
        assert_eq!(m.slack(0.0), 0.0);
    }
}
