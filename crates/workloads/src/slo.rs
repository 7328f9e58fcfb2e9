//! Service-level objective bookkeeping.
//!
//! Each LC workload has an SLO defined as a tail-latency target at a given
//! percentile (99%-ile for `websearch` and `memkeyval`, 95%-ile for
//! `ml_cluster`).  The figures in the paper report latency *normalized to the
//! SLO target*, and the controller works with the *latency slack*
//! `(target - measured) / target`.

/// A tail-latency service-level objective.
///
/// # Example
///
/// ```
/// use heracles_workloads::Slo;
/// let slo = Slo::new(0.025, 0.99);
/// assert_eq!(slo.normalized(0.0125), 0.5);
/// assert!(slo.is_met(0.020));
/// assert!(!slo.is_met(0.030));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Slo {
    /// Latency target in seconds.
    pub target_s: f64,
    /// The percentile (in `(0, 1]`) at which the target applies.
    pub percentile: f64,
}

impl Slo {
    /// Creates an SLO.
    ///
    /// # Panics
    ///
    /// Panics if the target is not positive or the percentile is outside
    /// `(0, 1]`.
    pub fn new(target_s: f64, percentile: f64) -> Self {
        assert!(target_s > 0.0, "SLO target must be positive");
        assert!(percentile > 0.0 && percentile <= 1.0, "percentile must be in (0, 1]");
        Slo { target_s, percentile }
    }

    /// Latency normalized to the target (1.0 = exactly at the SLO).
    pub fn normalized(&self, latency_s: f64) -> f64 {
        latency_s / self.target_s
    }

    /// True if the measured tail latency meets the SLO.
    pub fn is_met(&self, latency_s: f64) -> bool {
        latency_s <= self.target_s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn violation_has_negative_slack() {
        let slo = Slo::new(0.0005, 0.99);
        // Slack is 1 − normalized latency.
        assert!(slo.normalized(0.001) > 1.0);
        assert!(!slo.is_met(0.001));
    }

    #[test]
    #[should_panic]
    fn zero_target_is_rejected() {
        let _ = Slo::new(0.0, 0.99);
    }

    #[test]
    #[should_panic]
    fn bad_percentile_is_rejected() {
        let _ = Slo::new(0.01, 1.5);
    }
}
