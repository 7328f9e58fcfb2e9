//! Fixed-allocation experiments: the interference characterization of
//! Figure 1 and the cores×LLC convexity sweep of Figure 3.
//!
//! In the characterization (§3.2) the LC workload is pinned to "enough cores
//! to satisfy its SLO at the specific load" and a single-resource antagonist
//! runs on the remaining cores — except for the HyperThread antagonist (which
//! shares the LC cores' sibling threads), the network antagonist (which gets
//! exactly one core), and the `brain` row (which runs under OS-only
//! isolation, i.e. CFS shares with no pinning at all).  No controller runs;
//! the point is to measure raw interference.

use heracles_baselines::OsOnly;
use heracles_core::{ColocationPolicy, Measurements};
use heracles_hw::{Server, ServerConfig};
use heracles_sim::SimTime;
use heracles_workloads::{BeKind, BeWorkload, LcWorkload};
use serde::{Deserialize, Serialize};

use crate::config::ColoConfig;
use crate::runner::ColoRunner;

/// One cell of the Figure 1 table: a workload × antagonist × load point.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CharacterizationCell {
    /// The LC workload's name.
    pub lc: String,
    /// The antagonist's name.
    pub antagonist: String,
    /// LC load as a fraction of peak.
    pub load: f64,
    /// Tail latency normalized to the SLO target (the paper colour-codes
    /// anything above 1.0 as a violation and reports ">300%" above 3.0).
    pub normalized_latency: f64,
}

impl CharacterizationCell {
    /// The cell formatted the way Figure 1 prints it (percent of SLO,
    /// saturated at ">300%").
    pub fn formatted(&self) -> String {
        if self.normalized_latency > 3.0 {
            ">300%".to_string()
        } else {
            format!("{:.0}%", self.normalized_latency * 100.0)
        }
    }
}

/// How the characterization pins the two workloads for a given antagonist.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Layout {
    /// LC on "enough" cores, antagonist on the remaining cores.
    RemainingCores,
    /// Antagonist on the sibling HyperThreads of the LC cores.
    SiblingHyperThreads,
    /// LC on all cores but one; the antagonist (iperf) gets that one core.
    AllButOneCore,
}

/// The policy that lays out one characterization cell: a pinned layout, or
/// for the `brain` row the OS-only baseline (CFS shares, no pinning at all).
fn layout_policy(antagonist: &BeWorkload, lc_cores: usize) -> Box<dyn ColocationPolicy> {
    let layout = if antagonist.is_smt_antagonist() {
        Layout::SiblingHyperThreads
    } else if antagonist.is_network_antagonist() {
        Layout::AllButOneCore
    } else if antagonist.kind() == BeKind::Brain {
        return Box::new(OsOnly::new());
    } else {
        Layout::RemainingCores
    };
    Box::new(PinnedLayout { layout, lc_cores })
}

/// A policy that applies a fixed characterization layout and never changes it.
#[derive(Debug, Clone)]
struct PinnedLayout {
    layout: Layout,
    lc_cores: usize,
}

impl ColocationPolicy for PinnedLayout {
    fn name(&self) -> &str {
        "pinned-characterization-layout"
    }

    fn init(&mut self, server: &mut Server) {
        let total = server.config().total_cores();
        let alloc = server.allocations_mut();
        alloc.clear_cat();
        alloc.set_be_freq_cap_ghz(None);
        alloc.set_be_net_ceil_gbps(None);
        match self.layout {
            Layout::RemainingCores => {
                alloc.set_be_shares_lc_cores(false);
                alloc.set_lc_cores(self.lc_cores);
                alloc.set_be_cores(total - self.lc_cores);
            }
            Layout::SiblingHyperThreads => {
                alloc.set_be_shares_lc_cores(true);
                alloc.set_lc_cores(self.lc_cores);
                alloc.set_be_cores(self.lc_cores);
            }
            Layout::AllButOneCore => {
                alloc.set_be_shares_lc_cores(false);
                alloc.set_lc_cores(total - 1);
                alloc.set_be_cores(1);
            }
        }
    }

    fn tick(&mut self, _now: SimTime, _server: &mut Server, _m: &Measurements) {}

    fn be_enabled(&self) -> bool {
        true
    }
}

/// Measures one cell of the Figure 1 characterization.
pub fn characterize_cell(
    lc: &LcWorkload,
    antagonist: &BeWorkload,
    load: f64,
    server_config: &ServerConfig,
    colo: &ColoConfig,
) -> CharacterizationCell {
    let policy = layout_policy(antagonist, lc.cores_needed(load, server_config));
    let mut runner =
        ColoRunner::new(server_config.clone(), lc.clone(), Some(antagonist.clone()), policy, *colo);
    // A couple of windows of warm-up, then measure.
    let records = runner.run_steady(load, 3);
    let normalized = records.iter().skip(1).map(|r| r.normalized_latency).fold(0.0, f64::max);
    CharacterizationCell {
        lc: lc.name().to_string(),
        antagonist: antagonist.name().to_string(),
        load,
        normalized_latency: normalized,
    }
}

/// The maximum load at which the LC workload still meets its SLO when
/// restricted to a fraction of the machine's cores and LLC ways (one point of
/// the Figure 3 convexity surface).  Returns a load fraction in `[0, 1]`.
pub fn max_load_under_slo(
    lc: &LcWorkload,
    core_fraction: f64,
    llc_fraction: f64,
    server_config: &ServerConfig,
    colo: &ColoConfig,
) -> f64 {
    let total_cores = server_config.total_cores();
    let total_ways = server_config.llc_ways;
    let lc_cores = ((total_cores as f64 * core_fraction).round() as usize).clamp(1, total_cores);
    let lc_ways = ((total_ways as f64 * llc_fraction).round() as usize).clamp(1, total_ways - 1);

    let meets = |load: f64| -> bool {
        let server_cfg = server_config.clone();
        let policy = RestrictedLayout { lc_cores, lc_ways };
        let mut runner = ColoRunner::new(server_cfg, lc.clone(), None, Box::new(policy), *colo);
        let records = runner.run_steady(load, 2);
        records.iter().all(|r| r.slo_met)
    };

    // Binary search over load.
    let mut lo = 0.0;
    let mut hi = 1.0;
    if meets(1.0) {
        return 1.0;
    }
    if !meets(0.02) {
        return 0.0;
    }
    for _ in 0..7 {
        let mid = (lo + hi) / 2.0;
        if meets(mid) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    lo
}

/// A policy that pins the LC workload to a subset of cores and LLC ways and
/// runs no BE task (used by the convexity sweep).
#[derive(Debug, Clone, Copy)]
struct RestrictedLayout {
    lc_cores: usize,
    lc_ways: usize,
}

impl ColocationPolicy for RestrictedLayout {
    fn name(&self) -> &str {
        "restricted-layout"
    }

    fn init(&mut self, server: &mut Server) {
        let total_ways = server.config().llc_ways;
        let alloc = server.allocations_mut();
        alloc.set_be_shares_lc_cores(false);
        alloc.set_lc_cores(self.lc_cores);
        alloc.set_be_cores(0);
        let lc_ways = self.lc_ways.clamp(1, total_ways - 1);
        alloc.set_cat(lc_ways, total_ways - lc_ways);
        alloc.set_be_freq_cap_ghz(None);
        alloc.set_be_net_ceil_gbps(None);
    }

    fn tick(&mut self, _now: SimTime, _server: &mut Server, _m: &Measurements) {}

    fn be_enabled(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> (ServerConfig, ColoConfig) {
        (ServerConfig::default_haswell(), ColoConfig::fast_test())
    }

    #[test]
    fn benign_antagonist_leaves_websearch_healthy() {
        let (server, colo) = cfg();
        let cell = characterize_cell(
            &LcWorkload::websearch(),
            &BeWorkload::llc_small(),
            0.4,
            &server,
            &colo,
        );
        assert!(cell.normalized_latency < 1.3, "got {:.2}", cell.normalized_latency);
    }

    #[test]
    fn dram_antagonist_devastates_websearch_at_low_load() {
        let (server, colo) = cfg();
        let cell = characterize_cell(
            &LcWorkload::websearch(),
            &BeWorkload::stream_dram(),
            0.2,
            &server,
            &colo,
        );
        assert!(cell.normalized_latency > 2.0, "got {:.2}", cell.normalized_latency);
    }

    #[test]
    fn network_antagonist_hurts_only_memkeyval() {
        let (server, colo) = cfg();
        let kv =
            characterize_cell(&LcWorkload::memkeyval(), &BeWorkload::iperf(), 0.5, &server, &colo);
        let ws =
            characterize_cell(&LcWorkload::websearch(), &BeWorkload::iperf(), 0.5, &server, &colo);
        assert!(kv.normalized_latency > 3.0, "memkeyval got {:.2}", kv.normalized_latency);
        assert!(ws.normalized_latency < 1.0, "websearch got {:.2}", ws.normalized_latency);
    }

    #[test]
    fn brain_under_os_isolation_violates_slo() {
        let (server, colo) = cfg();
        let cell =
            characterize_cell(&LcWorkload::ml_cluster(), &BeWorkload::brain(), 0.5, &server, &colo);
        assert!(cell.normalized_latency > 1.2, "got {:.2}", cell.normalized_latency);
    }

    #[test]
    fn formatted_saturates_at_300_percent() {
        let cell = CharacterizationCell {
            lc: "x".into(),
            antagonist: "y".into(),
            load: 0.5,
            normalized_latency: 4.2,
        };
        assert_eq!(cell.formatted(), ">300%");
        let mild = CharacterizationCell { normalized_latency: 0.96, ..cell };
        assert_eq!(mild.formatted(), "96%");
    }

    #[test]
    fn max_load_shrinks_with_fewer_cores() {
        let (server, colo) = cfg();
        let ws = LcWorkload::websearch();
        let small = max_load_under_slo(&ws, 0.25, 1.0, &server, &colo);
        let large = max_load_under_slo(&ws, 1.0, 1.0, &server, &colo);
        assert!(large > small, "large {large:.2} <= small {small:.2}");
        assert!(large > 0.8);
        assert!(small < 0.5);
    }
}
