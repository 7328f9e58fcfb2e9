//! Fixed-allocation experiments: the interference characterization of
//! Figure 1 and the cores×LLC convexity sweep of Figure 3.
//!
//! In the characterization (§3.2) the LC workload is pinned to "enough cores
//! to satisfy its SLO at the specific load" and a single-resource antagonist
//! runs on the remaining cores — except for the HyperThread antagonist (which
//! shares the LC cores' sibling threads), the network antagonist (which gets
//! exactly one core), and the `brain` row (which runs under OS-only
//! isolation, i.e. CFS shares with no pinning at all).  No controller runs:
//! each cell is one [`StaticLayout`], and the point is to measure raw
//! interference.

use heracles_baselines::{Layout, StaticLayout};
use heracles_hw::ServerConfig;
use heracles_workloads::{BeKind, BeWorkload, LcWorkload};
use serde::{Deserialize, Serialize};

use crate::config::ColoConfig;
use crate::runner::ColoRunner;

/// One cell of the Figure 1 table: a workload × antagonist × load point.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CharacterizationCell {
    /// The LC workload's name.
    pub(crate) lc: String,
    /// The antagonist's name.
    pub(crate) antagonist: String,
    /// LC load as a fraction of peak.
    pub(crate) load: f64,
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

/// The layout of one characterization cell: the LC workload on `lc_cores`
/// and the antagonist on the remaining cores, except that the HyperThread
/// antagonist shares the LC cores' sibling threads, the network antagonist
/// gets exactly one core (the LC workload keeps the rest), and the `brain`
/// row runs under the OS-only baseline (CFS shares, no pinning at all).
fn cell_layout(antagonist: &BeWorkload, lc_cores: usize, config: &ServerConfig) -> StaticLayout {
    let total = config.total_cores();
    let (lc_cores, be_cores, be_shares_lc_cores) = if antagonist.is_smt_antagonist() {
        (lc_cores, lc_cores, true)
    } else if antagonist.is_network_antagonist() {
        (total - 1, 1, false)
    } else if antagonist.kind() == BeKind::Brain {
        return StaticLayout::os_only();
    } else {
        (lc_cores, total.saturating_sub(lc_cores), false)
    };
    let layout = Layout {
        lc_cores,
        be_cores,
        be_shares_lc_cores,
        cat: None,
        be_freq_cap_ghz: None,
        be_net_ceil_gbps: None,
    };
    StaticLayout::new("pinned-characterization-layout", layout, true)
}

/// Measures one cell of the Figure 1 characterization.
pub fn characterize_cell(
    lc: &LcWorkload,
    antagonist: &BeWorkload,
    load: f64,
    server_config: &ServerConfig,
    colo: &ColoConfig,
) -> CharacterizationCell {
    let policy = cell_layout(antagonist, lc.cores_needed(load, server_config), server_config);
    let mut runner = ColoRunner::new(
        server_config.clone(),
        lc.clone(),
        Some(antagonist.clone()),
        Box::new(policy),
        *colo,
    );
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
    let policy = convexity_layout(core_fraction, llc_fraction, server_config);
    let meets = |load: f64| -> bool {
        let server_cfg = server_config.clone();
        let mut runner =
            ColoRunner::new(server_cfg, lc.clone(), None, Box::new(policy.clone()), *colo);
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

/// The layout of one convexity point: the LC workload alone on a fraction
/// of the cores (at least one) and of the LLC ways (at least one, leaving at
/// least one), the rest of the machine idle.
fn convexity_layout(core_fraction: f64, llc_fraction: f64, config: &ServerConfig) -> StaticLayout {
    let total_cores = config.total_cores();
    let total_ways = config.llc_ways;
    let lc_cores = ((total_cores as f64 * core_fraction).round() as usize).clamp(1, total_cores);
    let lc_ways = ((total_ways as f64 * llc_fraction).round() as usize).clamp(1, total_ways - 1);
    let layout = Layout {
        lc_cores,
        be_cores: 0,
        be_shares_lc_cores: false,
        cat: Some((lc_ways, total_ways - lc_ways)),
        be_freq_cap_ghz: None,
        be_net_ceil_gbps: None,
    };
    StaticLayout::new("restricted-layout", layout, false)
}

#[cfg(test)]
mod tests {
    use super::*;
    use heracles_core::ColocationPolicy;
    use heracles_hw::{Allocations, Server};

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

    fn fnv1a_word(hash: u64, word: u64) -> u64 {
        word.to_le_bytes().iter().fold(hash, |h, &b| (h ^ b as u64).wrapping_mul(0x0100_0000_01b3))
    }

    fn fold_option(digest: u64, value: Option<f64>) -> u64 {
        match value {
            Some(v) => fnv1a_word(fnv1a_word(digest, 1), v.to_bits()),
            None => fnv1a_word(digest, 0),
        }
    }

    fn fold_allocations(digest: u64, a: &Allocations) -> u64 {
        let words = [
            a.total_cores(),
            a.lc_cores(),
            a.be_cores(),
            a.be_shares_lc_cores() as usize,
            a.cat_enabled() as usize,
            a.lc_ways(),
            a.be_ways(),
        ];
        let digest = words.iter().fold(digest, |h, &w| fnv1a_word(h, w as u64));
        let digest = fold_option(digest, a.be_freq_cap_ghz());
        let digest = fold_option(digest, a.be_net_ceil_gbps());
        fold_option(digest, a.package_cap_w())
    }

    /// Folds a policy's name, the allocation its `init` leaves on a fresh
    /// server and on one with every mechanism (the package cap included)
    /// already set, and its `be_enabled`.
    fn fold_policy(digest: u64, mut policy: StaticLayout, config: &ServerConfig) -> u64 {
        let digest = policy.name().bytes().fold(digest, |h, b| fnv1a_word(h, b as u64));
        let mut fresh = Server::new(config.clone());
        policy.init(&mut fresh);
        let digest = fold_allocations(digest, fresh.allocations());
        let mut dirty = Server::new(config.clone());
        let alloc = dirty.allocations_mut();
        alloc.set_lc_cores(5);
        alloc.set_be_shares_lc_cores(true);
        alloc.set_be_cores(7);
        alloc.set_cat(3, 5);
        alloc.set_be_freq_cap_ghz(Some(1.5));
        alloc.set_be_net_ceil_gbps(Some(1.0));
        alloc.set_package_cap_w(Some(100.0));
        policy.init(&mut dirty);
        let digest = fold_allocations(digest, dirty.allocations());
        fnv1a_word(digest, policy.be_enabled() as u64)
    }

    /// The digest of every layout below, recorded when each baseline and
    /// each characterization layout was a policy type of its own.
    const RECORDED_LAYOUT_DIGEST: u64 = 0xbdc1_60d0_2976_53a1;

    /// Every baseline and every characterization layout, at each hardware
    /// generation, pinned to the allocations they wrote as separate types.
    #[test]
    fn layouts_match_recorded_digest() {
        let fractions = [0.0, 0.1, 0.25, 0.5, 0.75, 1.0];
        let antagonists = [
            BeWorkload::llc_small(),
            BeWorkload::llc_medium(),
            BeWorkload::stream_llc(),
            BeWorkload::llc_big(),
            BeWorkload::stream_dram(),
            BeWorkload::spinloop(),
            BeWorkload::cpu_pwr(),
            BeWorkload::iperf(),
            BeWorkload::brain(),
            BeWorkload::streetview(),
        ];
        let mut digest = 0xcbf2_9ce4_8422_2325;
        let mut layouts = 0usize;
        for config in [
            ServerConfig::older_sandy_bridge(),
            ServerConfig::default_haswell(),
            ServerConfig::newer_skylake(),
        ] {
            let mut policies = vec![
                StaticLayout::lc_only(),
                StaticLayout::os_only(),
                StaticLayout::half_and_half(&config),
                StaticLayout::conservative(&config),
            ];
            for &c in &fractions {
                for &l in &fractions {
                    for &n in &fractions {
                        policies.push(StaticLayout::static_partition(&config, c, l, n, None));
                    }
                }
            }
            for antagonist in &antagonists {
                for lc_cores in 1..=config.total_cores() {
                    policies.push(cell_layout(antagonist, lc_cores, &config));
                }
            }
            for i in 0..=20 {
                for j in 0..=20 {
                    policies.push(convexity_layout(i as f64 / 20.0, j as f64 / 20.0, &config));
                }
            }
            for policy in policies {
                digest = fold_policy(digest, policy, &config);
                layouts += 1;
            }
        }
        assert_eq!(
            digest, RECORDED_LAYOUT_DIGEST,
            "layout digest {digest:#018x} over {layouts} layouts"
        );
    }
}
