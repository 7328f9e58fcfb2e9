//! DRAM bandwidth model.
//!
//! Commercial chips (at the time of the paper) provide no hardware mechanism
//! to *isolate* memory bandwidth; they only provide counters to *measure* it.
//! The model therefore exposes two things: how close the memory system is to
//! its peak streaming bandwidth, and how the average memory access latency
//! inflates as that point is approached.  The latency inflation is the
//! non-linear "inflection point" behaviour that makes DRAM saturation so
//! damaging to tail latency (§3.3, Figure 1, DRAM row).

use serde::{Deserialize, Serialize};

use crate::config::ServerConfig;

/// Result of offering a set of bandwidth demands to the memory system.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DramOutcome {
    /// Total offered demand in GB/s.
    pub(crate) demand_gbps: f64,
    /// Demand divided by peak bandwidth; may exceed 1 when oversubscribed.
    pub(crate) demand_ratio: f64,
    /// Achieved (delivered) total bandwidth in GB/s, never above peak.
    pub(crate) achieved_gbps: f64,
    /// Achieved bandwidth for the latency-critical class in GB/s.
    pub(crate) lc_achieved_gbps: f64,
    /// Achieved bandwidth for the best-effort class in GB/s.
    pub(crate) be_achieved_gbps: f64,
    /// Multiplier on the uncontended memory access latency.
    pub latency_multiplier: f64,
}

/// The server's aggregate DRAM bandwidth and access latency behaviour.
///
/// # Example
///
/// ```
/// use heracles_hw::{DramModel, ServerConfig};
/// let dram = DramModel::new(&ServerConfig::default_haswell());
/// let calm = dram.offer(10.0, 10.0);
/// let saturated = dram.offer(60.0, 80.0);
/// assert!(saturated.latency_multiplier > 3.0 * calm.latency_multiplier);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DramModel {
    peak_gbps: f64,
    /// Shape parameters of the latency-inflation curve.
    contention_alpha: f64,
    contention_beta: f64,
    max_multiplier: f64,
}

impl DramModel {
    /// Creates the DRAM model for a server.
    pub fn new(config: &ServerConfig) -> Self {
        DramModel {
            peak_gbps: config.dram_peak_gbps(),
            contention_alpha: 0.12,
            contention_beta: 3.0,
            max_multiplier: 40.0,
        }
    }

    /// Peak streaming bandwidth in GB/s.
    pub(crate) fn peak_gbps(&self) -> f64 {
        self.peak_gbps
    }

    /// The latency inflation factor at a given demand ratio
    /// (`demand / peak`, may exceed one).
    ///
    /// Below ~80% of peak the penalty is small; beyond that it grows
    /// super-linearly, and once demand exceeds peak the queue is unstable and
    /// the factor grows with the overload until a cap.
    pub(crate) fn latency_multiplier(&self, demand_ratio: f64) -> f64 {
        let rho = demand_ratio.max(0.0);
        let stable = rho.min(0.97);
        let base = 1.0 + self.contention_alpha * stable.powf(self.contention_beta) / (1.0 - stable);
        let overload_penalty = if rho > 0.97 { 1.0 + 10.0 * (rho - 0.97) } else { 1.0 };
        (base * overload_penalty).min(self.max_multiplier)
    }

    /// Offers the two classes' bandwidth demands to the memory system.
    ///
    /// When the total demand exceeds peak bandwidth the memory controllers
    /// deliver peak bandwidth split proportionally to demand (there is no
    /// hardware isolation), and the access latency multiplier reflects the
    /// oversubscription.
    pub fn offer(&self, lc_demand_gbps: f64, be_demand_gbps: f64) -> DramOutcome {
        let lc = lc_demand_gbps.max(0.0);
        let be = be_demand_gbps.max(0.0);
        let demand = lc + be;
        let ratio = if self.peak_gbps > 0.0 { demand / self.peak_gbps } else { 0.0 };
        let (achieved, lc_achieved, be_achieved) = if demand <= self.peak_gbps || demand == 0.0 {
            (demand, lc, be)
        } else {
            let scale = self.peak_gbps / demand;
            (self.peak_gbps, lc * scale, be * scale)
        };
        DramOutcome {
            demand_gbps: demand,
            demand_ratio: ratio,
            achieved_gbps: achieved,
            lc_achieved_gbps: lc_achieved,
            be_achieved_gbps: be_achieved,
            latency_multiplier: self.latency_multiplier(ratio),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dram() -> DramModel {
        DramModel::new(&ServerConfig::default_haswell())
    }

    #[test]
    fn peak_matches_config() {
        assert!((dram().peak_gbps() - 120.0).abs() < 1e-9);
    }

    #[test]
    fn latency_multiplier_is_monotone() {
        let d = dram();
        let mut prev = 0.0;
        for i in 0..=150 {
            let rho = i as f64 / 100.0;
            let m = d.latency_multiplier(rho);
            assert!(m >= prev - 1e-12, "multiplier decreased at rho={rho}");
            assert!(m >= 1.0);
            prev = m;
        }
    }

    #[test]
    fn low_utilization_is_nearly_uncontended() {
        let d = dram();
        assert!(d.latency_multiplier(0.2) < 1.05);
        assert_eq!(d.latency_multiplier(0.0), 1.0);
    }

    #[test]
    fn saturation_blows_up_latency() {
        let d = dram();
        assert!(d.latency_multiplier(0.95) > 2.0);
        assert!(d.latency_multiplier(1.2) > 6.0);
        assert!(d.latency_multiplier(5.0) <= 40.0);
    }

    #[test]
    fn undersubscribed_demand_is_fully_served() {
        let out = dram().offer(20.0, 30.0);
        assert_eq!(out.achieved_gbps, 50.0);
        assert_eq!(out.lc_achieved_gbps, 20.0);
        assert_eq!(out.be_achieved_gbps, 30.0);
        assert!(out.demand_ratio < 0.5);
    }

    #[test]
    fn oversubscribed_demand_is_rationed_proportionally() {
        let out = dram().offer(60.0, 180.0);
        assert!((out.achieved_gbps - 120.0).abs() < 1e-9);
        assert!((out.lc_achieved_gbps - 30.0).abs() < 1e-9);
        assert!((out.be_achieved_gbps - 90.0).abs() < 1e-9);
        assert!(out.demand_ratio > 1.9);
        assert!(out.latency_multiplier > 10.0);
    }

    #[test]
    fn negative_demands_are_clamped() {
        let out = dram().offer(-5.0, 10.0);
        assert_eq!(out.lc_achieved_gbps, 0.0);
        assert_eq!(out.be_achieved_gbps, 10.0);
    }
}
