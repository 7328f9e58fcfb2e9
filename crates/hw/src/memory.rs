//! DRAM bandwidth model.
//!
//! Commercial chips (at the time of the paper) provide no hardware mechanism
//! to *isolate* memory bandwidth; they only provide counters to *measure* it.
//! The model therefore exposes two things: how close the memory system is to
//! its peak streaming bandwidth, and how the average memory access latency
//! inflates as that point is approached.  The latency inflation is the
//! non-linear "inflection point" behaviour that makes DRAM saturation so
//! damaging to tail latency (§3.3, Figure 1, DRAM row).

use crate::config::ServerConfig;

/// Result of offering a set of bandwidth demands to the memory system.
#[derive(Debug)]
pub(crate) struct DramOutcome {
    /// Demand divided by peak bandwidth; may exceed 1 when oversubscribed.
    pub(crate) demand_ratio: f64,
    /// Achieved (delivered) total bandwidth in GB/s, never above peak.
    pub(crate) achieved_gbps: f64,
    /// Achieved bandwidth for the latency-critical class in GB/s.
    pub(crate) lc_achieved_gbps: f64,
    /// Achieved bandwidth for the best-effort class in GB/s.
    pub(crate) be_achieved_gbps: f64,
    /// Multiplier on the uncontended memory access latency.
    pub(crate) latency_multiplier: f64,
}

/// Shape parameters of the latency-inflation curve.
const CONTENTION_ALPHA: f64 = 0.12;
const CONTENTION_BETA: f64 = 3.0;
const MAX_MULTIPLIER: f64 = 40.0;

/// The latency inflation factor at a given demand ratio (`demand / peak`,
/// may exceed one).
///
/// Below ~80% of peak the penalty is small; beyond that it grows
/// super-linearly, and once demand exceeds peak the queue is unstable and
/// the factor grows with the overload until a cap.
fn latency_multiplier(demand_ratio: f64) -> f64 {
    let rho = demand_ratio.max(0.0);
    let stable = rho.min(0.97);
    let base = 1.0 + CONTENTION_ALPHA * stable.powf(CONTENTION_BETA) / (1.0 - stable);
    let overload_penalty = if rho > 0.97 { 1.0 + 10.0 * (rho - 0.97) } else { 1.0 };
    (base * overload_penalty).min(MAX_MULTIPLIER)
}

/// Offers the two classes' bandwidth demands to `config`'s memory system.
///
/// When the total demand exceeds peak bandwidth the memory controllers
/// deliver peak bandwidth split proportionally to demand (there is no
/// hardware isolation), and the access latency multiplier reflects the
/// oversubscription.  A validated configuration's peak is positive.
pub(crate) fn offer(
    config: &ServerConfig,
    lc_demand_gbps: f64,
    be_demand_gbps: f64,
) -> DramOutcome {
    let peak = config.dram_peak_gbps();
    let lc = lc_demand_gbps.max(0.0);
    let be = be_demand_gbps.max(0.0);
    let demand = lc + be;
    let ratio = demand / peak;
    let (achieved, lc_achieved, be_achieved) = if demand <= peak {
        (demand, lc, be)
    } else {
        let scale = peak / demand;
        (peak, lc * scale, be * scale)
    };
    DramOutcome {
        demand_ratio: ratio,
        achieved_gbps: achieved,
        lc_achieved_gbps: lc_achieved,
        be_achieved_gbps: be_achieved,
        latency_multiplier: latency_multiplier(ratio),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn offer(lc_demand_gbps: f64, be_demand_gbps: f64) -> DramOutcome {
        super::offer(&ServerConfig::default_haswell(), lc_demand_gbps, be_demand_gbps)
    }

    #[test]
    fn peak_matches_config() {
        let out = offer(200.0, 0.0);
        assert_eq!(out.achieved_gbps, ServerConfig::default_haswell().dram_peak_gbps());
        assert!((out.achieved_gbps - 120.0).abs() < 1e-9);
    }

    #[test]
    fn latency_multiplier_is_monotone() {
        let mut prev = 0.0;
        for i in 0..=150 {
            let rho = i as f64 / 100.0;
            let m = latency_multiplier(rho);
            assert!(m >= prev - 1e-12, "multiplier decreased at rho={rho}");
            assert!(m >= 1.0);
            prev = m;
        }
    }

    #[test]
    fn low_utilization_is_nearly_uncontended() {
        assert!(latency_multiplier(0.2) < 1.05);
        assert_eq!(latency_multiplier(0.0), 1.0);
    }

    #[test]
    fn saturation_blows_up_latency() {
        assert!(latency_multiplier(0.95) > 2.0);
        assert!(latency_multiplier(1.2) > 6.0);
        assert!(latency_multiplier(5.0) <= 40.0);
    }

    #[test]
    fn undersubscribed_demand_is_fully_served() {
        let out = offer(20.0, 30.0);
        assert_eq!(out.achieved_gbps, 50.0);
        assert_eq!(out.lc_achieved_gbps, 20.0);
        assert_eq!(out.be_achieved_gbps, 30.0);
        assert!(out.demand_ratio < 0.5);
    }

    #[test]
    fn oversubscribed_demand_is_rationed_proportionally() {
        let out = offer(60.0, 180.0);
        assert!((out.achieved_gbps - 120.0).abs() < 1e-9);
        assert!((out.lc_achieved_gbps - 30.0).abs() < 1e-9);
        assert!((out.be_achieved_gbps - 90.0).abs() < 1e-9);
        assert!(out.demand_ratio > 1.9);
        assert!(out.latency_multiplier > 10.0);
    }

    #[test]
    fn negative_demands_are_clamped() {
        let out = offer(-5.0, 10.0);
        assert_eq!(out.lc_achieved_gbps, 0.0);
        assert_eq!(out.be_achieved_gbps, 10.0);
    }

    #[test]
    fn saturated_offer_inflates_latency_over_a_calm_one() {
        let calm = offer(10.0, 10.0);
        let saturated = offer(60.0, 80.0);
        assert!(saturated.latency_multiplier > 3.0 * calm.latency_multiplier);
    }
}
