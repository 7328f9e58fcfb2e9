//! Compare colocation policies: Heracles vs OS-only isolation vs a static
//! partition, across the load range.
//!
//! For each policy the example colocates `streetview` (a DRAM-hungry batch
//! job) with websearch at several load points and reports worst-case latency
//! and Effective Machine Utilization, reproducing in miniature the trade-off
//! the paper's Figures 4 and 5 illustrate.
//!
//! Run with: `cargo run --release --example colocate_websearch`

use heracles_baselines::StaticLayout;
use heracles_colo::{ColoConfig, ColoRunner, ColoSummary};
use heracles_core::{ColocationPolicy, Heracles, HeraclesConfig, OfflineDramModel};
use heracles_hw::ServerConfig;
use heracles_workloads::{BeWorkload, LcWorkload};

fn policy(name: &str, lc: &LcWorkload, server: &ServerConfig) -> Box<dyn ColocationPolicy> {
    match name {
        "heracles" => Box::new(Heracles::new(
            HeraclesConfig::default(),
            lc.slo(),
            OfflineDramModel::profile(lc, server),
        )),
        "os-only" => Box::new(StaticLayout::os_only()),
        "static" => Box::new(StaticLayout::half_and_half(server)),
        other => panic!("unknown policy {other}"),
    }
}

fn main() {
    let server = ServerConfig::default_haswell();
    let websearch = LcWorkload::websearch();
    let streetview = BeWorkload::streetview();
    let loads = [0.2, 0.4, 0.6, 0.8];

    println!("websearch + streetview, 90 s per load point");
    println!(
        "{:<10} {:>6} {:>14} {:>10} {:>14}",
        "policy", "load", "worst latency", "EMU", "SLO violations"
    );
    for name in ["heracles", "os-only", "static"] {
        for &load in &loads {
            let mut runner = ColoRunner::new(
                server.clone(),
                websearch.clone(),
                Some(streetview.clone()),
                policy(name, &websearch, &server),
                ColoConfig::default(),
            );
            let records = runner.run_steady(load, 90);
            // Report steady state (skip the first 45 s of convergence).
            let summary = ColoSummary::from_records(&records[45..]);
            println!(
                "{:<10} {:>5.0}% {:>13.0}% {:>9.0}% {:>13.0}%",
                name,
                load * 100.0,
                summary.worst_normalized_latency * 100.0,
                summary.mean_emu * 100.0,
                summary.slo_violation_fraction * 100.0
            );
        }
    }
    println!();
    println!("Heracles keeps the worst-case latency under the SLO while raising EMU;");
    println!("OS-only isolation violates the SLO, and the static partition leaves");
    println!("utilization on the table at low load while still risking violations at high load.");
}
