//! Websearch cluster over a diurnal load trace (a miniature of Figure 8).
//!
//! Runs a small websearch cluster twice — once without colocation and once
//! with per-leaf Heracles instances colocating brain and streetview — over a
//! compressed diurnal trace, and prints root latency (relative to the cluster
//! SLO) and Effective Machine Utilization side by side.
//!
//! Run with: `cargo run --release --example cluster_diurnal`

use heracles_cluster::{ClusterConfig, ClusterPolicy, WebsearchCluster};
use heracles_colo::ColoConfig;
use heracles_hw::ServerConfig;

fn main() {
    let server = ServerConfig::default_haswell();
    // A compressed trace: 48 steps of 10 windows each.
    let base = ClusterConfig {
        leaves: 8,
        steps: 48,
        windows_per_step: 10,
        colo: ColoConfig { requests_per_window: 1_500, ..ColoConfig::default() },
        ..ClusterConfig::default()
    };

    let baseline = WebsearchCluster::new(
        ClusterConfig { policy: ClusterPolicy::Baseline, ..base },
        server.clone(),
    )
    .run();
    let heracles =
        WebsearchCluster::new(ClusterConfig { policy: ClusterPolicy::Heracles, ..base }, server)
            .run();

    println!(
        "{:>6} {:>6} | {:>16} {:>9} | {:>16} {:>9}",
        "step", "load", "baseline lat/SLO", "base EMU", "heracles lat/SLO", "her EMU"
    );
    for (b, h) in baseline.steps.iter().zip(&heracles.steps) {
        println!(
            "{:>6} {:>5.0}% | {:>15.0}% {:>8.0}% | {:>15.0}% {:>8.0}%",
            b.time,
            b.load * 100.0,
            b.normalized_root_latency * 100.0,
            b.emu * 100.0,
            h.normalized_root_latency * 100.0,
            h.emu * 100.0
        );
    }
    println!();
    println!(
        "baseline: mean EMU {:.0}%, SLO violations {:.0}%",
        baseline.mean_emu() * 100.0,
        baseline.violation_fraction() * 100.0
    );
    println!(
        "heracles: mean EMU {:.0}%, min EMU {:.0}%, SLO violations {:.0}%",
        heracles.mean_emu() * 100.0,
        heracles.min_emu() * 100.0,
        heracles.violation_fraction() * 100.0
    );
}
