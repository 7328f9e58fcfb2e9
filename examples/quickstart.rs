//! Quickstart: colocate a best-effort job with websearch under Heracles.
//!
//! Builds a simulated dual-socket server, profiles websearch's DRAM bandwidth
//! offline, starts a per-server Heracles controller, and colocates the
//! `brain` batch job with websearch at 40% load.  Prints how the controller
//! grows the best-effort share while keeping the tail latency inside the SLO.
//!
//! Run with: `cargo run --release --example quickstart`

use heracles_colo::{ColoConfig, ColoRunner, ColoSummary};
use heracles_core::{ColocationPolicy, Heracles, HeraclesConfig, OfflineDramModel};
use heracles_hw::ServerConfig;
use heracles_workloads::{BeWorkload, LcWorkload};

fn main() {
    let server = ServerConfig::default_haswell();
    let websearch = LcWorkload::websearch();
    let brain = BeWorkload::brain();

    // Offline step: profile the LC workload's DRAM bandwidth needs.
    let dram_model = OfflineDramModel::profile(&websearch, &server);

    // Online step: run Heracles on the server.
    let policy: Box<dyn ColocationPolicy> =
        Box::new(Heracles::new(HeraclesConfig::default(), websearch.slo(), dram_model));
    let mut runner = ColoRunner::new(server, websearch, Some(brain), policy, ColoConfig::default());

    println!("colocating brain with websearch at 40% load under Heracles");
    println!(
        "{:>6} {:>9} {:>9} {:>12} {:>8} {:>8}",
        "time", "lc_cores", "be_cores", "latency/SLO", "EMU", "DRAM"
    );
    let mut records = Vec::new();
    for minute in 0..3 {
        records.extend((0..60).map(|_| runner.step(0.40)));
        let r = records.last().expect("at least one window");
        println!(
            "{:>5}s {:>9} {:>9} {:>11.0}% {:>7.0}% {:>7.0}%",
            (minute + 1) * 60,
            r.lc_cores,
            r.be_cores,
            r.normalized_latency * 100.0,
            r.emu * 100.0,
            r.counters.dram_utilization() * 100.0
        );
    }

    let summary = ColoSummary::from_records(&records[records.len() - 120..]);
    println!();
    println!("steady state over the last 2 minutes:");
    println!("  worst latency: {:.0}% of SLO", summary.worst_normalized_latency * 100.0);
    println!("  SLO violations: {:.0}% of windows", summary.slo_violation_fraction * 100.0);
    println!("  effective machine utilization: {:.0}%", summary.mean_emu * 100.0);
    println!(
        "  best-effort throughput: {:.0}% of running alone",
        summary.mean_be_throughput * 100.0
    );
}
