//! Controller constants.
//!
//! The paper fixes the controller's parameters as empirically tuned
//! constants (§4): a 15-second top-level poll, BE execution disabled above
//! 85% load and re-enabled below 80%, growth disallowed below 10% latency
//! slack, cores reclaimed below 5% slack, a DRAM bandwidth limit of 90% of
//! peak, a power threshold of 90% of TDP, and 2-second / 2-second / 1-second
//! cycles for the core & memory, power and network sub-controllers.  Each is
//! one named constant here; only the post-violation cooldown is a
//! [`HeraclesConfig`] field.

use heracles_sim::SimDuration;
use serde::{Deserialize, Serialize};

/// Top-level controller poll period (latency/load polling, §4.1).
pub const POLL_PERIOD: SimDuration = SimDuration::from_secs(15);
/// Core & memory sub-controller cycle time (§4.2).
pub(crate) const CORE_MEM_PERIOD: SimDuration = SimDuration::from_secs(2);
/// Power sub-controller cycle time (§4.2).
pub(crate) const POWER_PERIOD: SimDuration = SimDuration::from_secs(2);
/// Network sub-controller cycle time (§4.2).
pub(crate) const NETWORK_PERIOD: SimDuration = SimDuration::from_secs(1);
/// BE execution is disabled when LC load exceeds this fraction of peak
/// (Algorithm 1).
pub const LOAD_DISABLE_THRESHOLD: f64 = 0.85;
/// BE execution is re-enabled when LC load drops below this fraction of
/// peak (Algorithm 1).  The gap to [`LOAD_DISABLE_THRESHOLD`] is the
/// controller's load hysteresis.
pub const LOAD_ENABLE_THRESHOLD: f64 = 0.80;
/// BE growth is disallowed when latency slack falls below this fraction
/// (Algorithm 1).
pub(crate) const SLACK_DISALLOW_GROWTH: f64 = 0.10;
/// BE cores are reclaimed when latency slack falls below this fraction
/// (Algorithm 1).
pub(crate) const SLACK_RECLAIM_CORES: f64 = 0.05;
/// DRAM bandwidth limit as a fraction of peak streaming bandwidth
/// (Algorithm 2).
pub(crate) const DRAM_LIMIT_FRACTION: f64 = 0.90;
/// Package power threshold (fraction of TDP) above which the power
/// sub-controller shifts power away from BE cores (Algorithm 3).
pub(crate) const POWER_THRESHOLD: f64 = 0.90;
/// Guaranteed frequency for LC cores in GHz: the frequency the LC workload
/// achieves running alone at full load (Algorithm 3).
pub(crate) const GUARANTEED_LC_FREQ_GHZ: f64 = 2.3;
/// BE cores left in place when slack drops below [`SLACK_RECLAIM_CORES`]
/// (Algorithm 1 removes all but two).
pub(crate) const BE_CORES_KEPT_ON_RECLAIM: usize = 2;
/// Cores given to a BE job when it is first (re-)enabled.
pub(crate) const BE_INITIAL_CORES: usize = 1;
/// Fraction of the LLC given to a BE job when it is first enabled (the
/// paper starts BE jobs with 10% of the LLC).
pub(crate) const BE_INITIAL_LLC_FRACTION: f64 = 0.10;

const _: () = {
    assert!(!POLL_PERIOD.is_zero());
    assert!(!CORE_MEM_PERIOD.is_zero());
    assert!(!POWER_PERIOD.is_zero());
    assert!(!NETWORK_PERIOD.is_zero());
    assert!(0.0 <= LOAD_ENABLE_THRESHOLD && LOAD_ENABLE_THRESHOLD <= LOAD_DISABLE_THRESHOLD);
    assert!(LOAD_DISABLE_THRESHOLD <= 1.0);
    assert!(SLACK_RECLAIM_CORES <= SLACK_DISALLOW_GROWTH);
    assert!(0.0 <= DRAM_LIMIT_FRACTION && DRAM_LIMIT_FRACTION <= 1.0);
    assert!(0.0 <= POWER_THRESHOLD && POWER_THRESHOLD <= 1.5);
    assert!(GUARANTEED_LC_FREQ_GHZ > 0.0);
    assert!(BE_INITIAL_CORES >= 1);
    assert!(0.0 <= BE_INITIAL_LLC_FRACTION && BE_INITIAL_LLC_FRACTION <= 1.0);
};

/// The one tunable parameter of the Heracles controller.
///
/// # Example
///
/// ```
/// use heracles_core::{HeraclesConfig, POLL_PERIOD};
/// assert_eq!(POLL_PERIOD.as_secs_f64(), 15.0);
/// assert_eq!(HeraclesConfig::default().cooldown.as_secs_f64(), 300.0);
/// assert_eq!(HeraclesConfig::fast().cooldown.as_secs_f64(), 60.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct HeraclesConfig {
    /// How long colocation stays disabled after a latency-slack violation.
    pub cooldown: SimDuration,
}

impl Default for HeraclesConfig {
    fn default() -> Self {
        HeraclesConfig { cooldown: SimDuration::from_secs(300) }
    }
}

impl HeraclesConfig {
    /// A configuration with a shorter cooldown, useful for fast experiments
    /// and tests where simulated wall-clock time is scarce.
    pub fn fast() -> Self {
        HeraclesConfig { cooldown: SimDuration::from_secs(60) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_constants() {
        assert_eq!(POLL_PERIOD.as_secs_f64(), 15.0);
        assert_eq!(LOAD_DISABLE_THRESHOLD, 0.85);
        assert_eq!(LOAD_ENABLE_THRESHOLD, 0.80);
        assert_eq!(SLACK_DISALLOW_GROWTH, 0.10);
        assert_eq!(SLACK_RECLAIM_CORES, 0.05);
        assert_eq!(DRAM_LIMIT_FRACTION, 0.90);
        assert_eq!(POWER_THRESHOLD, 0.90);
        assert_eq!(BE_CORES_KEPT_ON_RECLAIM, 2);
    }

    #[test]
    fn fast_config_is_valid() {
        assert!(HeraclesConfig::fast().cooldown < HeraclesConfig::default().cooldown);
    }
}
