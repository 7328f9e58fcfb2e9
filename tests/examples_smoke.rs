//! Smoke test for the `examples/` directory.
//!
//! `quickstart_scenario_reaches_steady_state` mirrors `examples/quickstart.rs`
//! at test speed so the scenario the README points newcomers at is itself
//! asserted, not just compiled.  CI's "Build examples" step compiles every
//! example, and `scripts/goldens.sh` runs the root examples against their
//! recorded stdout.

use heracles_colo::{ColoConfig, ColoRunner, ColoSummary};
use heracles_core::{ColocationPolicy, Heracles, HeraclesConfig, OfflineDramModel};
use heracles_hw::ServerConfig;
use heracles_workloads::{BeWorkload, LcWorkload};

/// The quickstart scenario: Heracles colocates `brain` with websearch at 40%
/// load, grows the best-effort share, and keeps the tail latency inside the
/// SLO.  Mirrors `examples/quickstart.rs` with the fast test configuration.
#[test]
fn quickstart_scenario_reaches_steady_state() {
    let server = ServerConfig::default_haswell();
    let websearch = LcWorkload::websearch();
    let brain = BeWorkload::brain();

    let dram_model = OfflineDramModel::profile(&websearch, &server);
    let policy: Box<dyn ColocationPolicy> =
        Box::new(Heracles::new(HeraclesConfig::fast(), websearch.slo(), dram_model));
    let mut runner =
        ColoRunner::new(server, websearch, Some(brain), policy, ColoConfig::fast_test());

    let records = runner.run_steady(0.40, 60);

    let last = records.last().expect("windows were recorded");
    assert!(last.be_cores >= 4, "BE share did not grow: {} cores", last.be_cores);

    let steady = ColoSummary::from_records(&records[30..]);
    assert_eq!(
        steady.slo_violation_fraction, 0.0,
        "quickstart scenario violated the SLO: {steady:?}"
    );
    assert!(steady.mean_emu > 0.5, "EMU only {:.2}", steady.mean_emu);
    assert!(steady.worst_normalized_latency <= 1.0, "{steady:?}");
}
