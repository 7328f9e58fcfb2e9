//! Offline model of the LC workload's DRAM bandwidth needs.
//!
//! Commercially available chips (at the time of the paper) cannot measure
//! DRAM bandwidth per core accurately, so Heracles needs one piece of offline
//! information: how much bandwidth the LC workload uses at a given load and
//! LLC allocation.  The controller combines this model with the measured
//! total bandwidth to estimate the BE tasks' share and to predict whether a
//! planned growth step would saturate the memory system.
//!
//! The model only has to be approximately right: the paper notes that the
//! websearch binary and shard changed between profiling and evaluation and
//! Heracles still performed well.  Tests exercise that robustness by
//! perturbing the model.

use std::sync::Arc;

use heracles_hw::ServerConfig;
use heracles_workloads::LcWorkload;

/// A lookup table of LC DRAM bandwidth as a function of load and LLC ways.
///
/// The model is profiled once per workload and platform, not once per
/// server, so it is a shared handle: cloning it only bumps a reference
/// count, and every controller built from one profile reads the same
/// immutable table, across threads too.
///
/// # Example
///
/// ```
/// use heracles_core::OfflineDramModel;
/// use heracles_hw::ServerConfig;
/// use heracles_workloads::LcWorkload;
/// let config = ServerConfig::default_haswell();
/// let model = OfflineDramModel::profile(&LcWorkload::websearch(), &config);
/// let low = model.lc_bandwidth_gbps(0.2, 20);
/// let high = model.lc_bandwidth_gbps(0.9, 20);
/// assert!(high > low);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct OfflineDramModel(Arc<DramTable>);

/// The profiled grid behind an [`OfflineDramModel`], one flat row-major
/// table.
#[derive(Debug, PartialEq)]
struct DramTable {
    workload: String,
    /// Load grid points (fractions of peak).
    loads: Box<[f64]>,
    /// LLC way grid points are `1..=ways`.
    ways: usize,
    /// `bandwidth_gbps[i * ways + j]` = GB/s at `loads[i]` and `j + 1` ways.
    bandwidth_gbps: Box<[f64]>,
}

impl OfflineDramModel {
    /// Profiles an LC workload offline: sweeps load and LLC allocation and
    /// records the bandwidth the workload model generates at each point.
    ///
    /// On a real deployment this is a measurement campaign on an idle server;
    /// here it queries the same workload model the simulator uses, which is
    /// exactly the information a real profiling run would capture.
    pub fn profile(workload: &LcWorkload, config: &ServerConfig) -> Self {
        let loads: Box<[f64]> = (1..=20).map(|i| i as f64 * 0.05).collect();
        let ways = config.llc_ways;
        let bandwidth_gbps = loads
            .iter()
            .flat_map(|&load| {
                (1..=ways).map(move |w| {
                    let cache_mb = w as f64 * config.llc_mb_per_way();
                    let deficit = workload.cache_deficit(load, cache_mb, config);
                    workload.dram_gbps(load, deficit)
                })
            })
            .collect();
        OfflineDramModel(Arc::new(DramTable {
            workload: workload.name().to_string(),
            loads,
            ways,
            bandwidth_gbps,
        }))
    }

    /// Predicted LC DRAM bandwidth (GB/s) at a given load and LLC way
    /// allocation, interpolating between grid points and clamping outside the
    /// profiled range.
    pub fn lc_bandwidth_gbps(&self, load: f64, lc_ways: usize) -> f64 {
        let t = &*self.0;
        if t.loads.is_empty() || t.ways == 0 {
            return 0.0;
        }
        let col = lc_ways.clamp(1, t.ways) - 1;
        let at = |row: usize| t.bandwidth_gbps[row * t.ways + col];
        let load = load.clamp(t.loads[0], *t.loads.last().expect("non-empty"));
        // Find the surrounding load grid points.
        let mut hi = t.loads.len() - 1;
        for (i, &l) in t.loads.iter().enumerate() {
            if l >= load {
                hi = i;
                break;
            }
        }
        if hi == 0 {
            return at(0);
        }
        let lo = hi - 1;
        let (l0, l1) = (t.loads[lo], t.loads[hi]);
        let (b0, b1) = (at(lo), at(hi));
        if (l1 - l0).abs() < 1e-12 {
            return b1;
        }
        b0 + (b1 - b0) * (load - l0) / (l1 - l0)
    }

    /// Applies a multiplicative error to every table entry, modelling a stale
    /// or imperfect profile (used by robustness tests).  The result is a new
    /// table; handles to this one are unaffected.
    pub fn perturbed(&self, factor: f64) -> Self {
        let t = &*self.0;
        OfflineDramModel(Arc::new(DramTable {
            workload: t.workload.clone(),
            loads: t.loads.clone(),
            ways: t.ways,
            bandwidth_gbps: t.bandwidth_gbps.iter().map(|b| b * factor).collect(),
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> OfflineDramModel {
        OfflineDramModel::profile(&LcWorkload::websearch(), &ServerConfig::default_haswell())
    }

    #[test]
    fn bandwidth_grows_with_load() {
        let m = model();
        let mut prev = 0.0;
        for i in 1..=10 {
            let bw = m.lc_bandwidth_gbps(i as f64 / 10.0, 20);
            assert!(bw >= prev);
            prev = bw;
        }
        assert!(prev > 30.0, "websearch at full load should use tens of GB/s, got {prev}");
    }

    #[test]
    fn bandwidth_grows_when_cache_shrinks() {
        let m =
            OfflineDramModel::profile(&LcWorkload::ml_cluster(), &ServerConfig::default_haswell());
        let starved = m.lc_bandwidth_gbps(0.8, 1);
        let comfortable = m.lc_bandwidth_gbps(0.8, 20);
        assert!(starved > comfortable);
    }

    #[test]
    fn lookup_is_clamped_outside_the_grid() {
        let m = model();
        assert_eq!(m.lc_bandwidth_gbps(-1.0, 10), m.lc_bandwidth_gbps(0.05, 10));
        assert_eq!(m.lc_bandwidth_gbps(2.0, 10), m.lc_bandwidth_gbps(1.0, 10));
        assert_eq!(m.lc_bandwidth_gbps(0.5, 0), m.lc_bandwidth_gbps(0.5, 1));
        assert_eq!(m.lc_bandwidth_gbps(0.5, 99), m.lc_bandwidth_gbps(0.5, 20));
    }

    #[test]
    fn interpolation_is_between_grid_points() {
        let m = model();
        let a = m.lc_bandwidth_gbps(0.50, 15);
        let b = m.lc_bandwidth_gbps(0.55, 15);
        let mid = m.lc_bandwidth_gbps(0.525, 15);
        assert!(mid >= a.min(b) - 1e-12 && mid <= a.max(b) + 1e-12);
    }

    #[test]
    fn perturbation_scales_every_entry() {
        let m = model();
        let p = m.perturbed(1.2);
        let base = m.lc_bandwidth_gbps(0.6, 12);
        let scaled = p.lc_bandwidth_gbps(0.6, 12);
        assert!((scaled - base * 1.2).abs() < 1e-9);
    }

    #[test]
    fn clones_share_one_table() {
        let m = model();
        assert!(Arc::ptr_eq(&m.0, &m.clone().0));
        let p = m.perturbed(1.0);
        assert!(!Arc::ptr_eq(&m.0, &p.0));
        assert_eq!(m, p);
    }
}
