//! Tests that check the paper's headline claims hold in this reproduction
//! (in shape, not in absolute numbers): the characterization patterns of
//! Figure 1, the convexity of Figure 3, the EMU gains of Figure 5, and the
//! TCO arithmetic of §5.3.

use heracles_cluster::TcoModel;
use heracles_colo::{characterize_cell, max_load_under_slo, ColoConfig};
use heracles_hw::ServerConfig;
use heracles_workloads::{BeWorkload, LcWorkload};

fn setup() -> (ServerConfig, ColoConfig) {
    (ServerConfig::default_haswell(), ColoConfig::fast_test())
}

#[test]
fn figure1_dram_interference_hurts_at_low_load_not_high_load() {
    let (server, colo) = setup();
    let ws = LcWorkload::websearch();
    let dram = BeWorkload::stream_dram();
    let low = characterize_cell(&ws, &dram, 0.15, &server, &colo, None);
    let high = characterize_cell(&ws, &dram, 0.95, &server, &colo, None);
    assert!(low.normalized_latency > 2.0, "low load: {:.2}", low.normalized_latency);
    assert!(high.normalized_latency < 1.2, "high load: {:.2}", high.normalized_latency);
    assert!(low.normalized_latency > high.normalized_latency);
}

#[test]
fn figure1_small_llc_antagonist_is_harmless_for_websearch_but_not_big() {
    // At low load the antagonist holds most of the machine's cores, which is
    // where the paper's LLC(big) row shows its worst violations.
    let (server, colo) = setup();
    let ws = LcWorkload::websearch();
    let small = characterize_cell(&ws, &BeWorkload::llc_small(), 0.15, &server, &colo, None);
    let big = characterize_cell(&ws, &BeWorkload::llc_big(), 0.15, &server, &colo, None);
    assert!(small.normalized_latency < 1.0, "small: {:.2}", small.normalized_latency);
    assert!(
        big.normalized_latency > 1.0 && big.normalized_latency > 1.3 * small.normalized_latency,
        "big: {:.2} vs small {:.2}",
        big.normalized_latency,
        small.normalized_latency
    );
}

#[test]
fn figure1_network_antagonist_only_hurts_the_network_bound_workload() {
    let (server, colo) = setup();
    let iperf = BeWorkload::iperf();
    let kv = characterize_cell(&LcWorkload::memkeyval(), &iperf, 0.6, &server, &colo, None);
    let ws = characterize_cell(&LcWorkload::websearch(), &iperf, 0.6, &server, &colo, None);
    let ml = characterize_cell(&LcWorkload::ml_cluster(), &iperf, 0.6, &server, &colo, None);
    assert!(kv.normalized_latency > 3.0, "memkeyval: {:.2}", kv.normalized_latency);
    assert!(ws.normalized_latency < 1.0, "websearch: {:.2}", ws.normalized_latency);
    assert!(ml.normalized_latency < 1.0, "ml_cluster: {:.2}", ml.normalized_latency);
}

#[test]
fn figure1_power_virus_hurts_more_at_low_load() {
    let (server, colo) = setup();
    let ws = LcWorkload::websearch();
    let pwr = BeWorkload::cpu_pwr();
    let low = characterize_cell(&ws, &pwr, 0.1, &server, &colo, None);
    let high = characterize_cell(&ws, &pwr, 0.9, &server, &colo, None);
    assert!(
        low.normalized_latency > high.normalized_latency,
        "low {:.2} should exceed high {:.2}",
        low.normalized_latency,
        high.normalized_latency
    );
}

#[test]
fn figure1_os_isolation_with_brain_violates_every_workload() {
    let (server, colo) = setup();
    let brain = BeWorkload::brain();
    for lc in LcWorkload::all() {
        let cell = characterize_cell(&lc, &brain, 0.5, &server, &colo, None);
        assert!(
            cell.normalized_latency > 1.2,
            "{} with brain under CFS only reached {:.2}",
            lc.name(),
            cell.normalized_latency
        );
    }
}

#[test]
fn figure3_max_load_is_monotone_in_cores_and_cache() {
    let (server, colo) = setup();
    let ws = LcWorkload::websearch();
    // More cores never reduce the achievable load; same for more cache.
    let quarter = max_load_under_slo(&ws, 0.25, 0.5, &server, &colo, None);
    let half = max_load_under_slo(&ws, 0.5, 0.5, &server, &colo, None);
    let full = max_load_under_slo(&ws, 1.0, 0.5, &server, &colo, None);
    assert!(quarter <= half + 0.05 && half <= full + 0.05, "{quarter:.2} {half:.2} {full:.2}");
    let tiny_cache = max_load_under_slo(&ws, 1.0, 0.05, &server, &colo, None);
    assert!(tiny_cache <= full + 0.05);
    // And the surface spans a wide range (it is not flat).
    assert!(full - quarter > 0.3);
}

#[test]
fn tco_claims_from_section_5_3() {
    let tco = TcoModel::paper_case_study();
    let high_util_gain = tco.throughput_per_tco_improvement(0.75, 0.90);
    let low_util_gain = tco.throughput_per_tco_improvement(0.20, 0.90);
    // Paper: 15% and ~300%.
    assert!((0.10..=0.25).contains(&high_util_gain), "{high_util_gain:.2}");
    assert!((2.0..=4.5).contains(&low_util_gain), "{low_util_gain:.2}");
    // Energy proportionality alone is an order of magnitude less effective.
    assert!(tco.energy_proportionality_improvement(0.75, 0.35) < high_util_gain / 2.0);
    assert!(tco.energy_proportionality_improvement(0.20, 0.35) < low_util_gain / 10.0);
}
