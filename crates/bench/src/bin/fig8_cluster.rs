//! Figure 8: a websearch cluster over a 12-hour diurnal load trace, baseline
//! (no colocation) vs Heracles colocating brain and streetview on the leaves.
//! Reports root latency relative to the cluster SLO and Effective Machine
//! Utilization over time.
//!
//! Run with: `cargo run --release -p heracles_bench --bin fig8_cluster --
//! [--quick] [--leaves N] [--steps N] [--seed N]`

use heracles_bench::cli::{exit_usage, Args};
use heracles_cluster::{ClusterConfig, ClusterPolicy, WebsearchCluster};
use heracles_colo::ColoConfig;
use heracles_hw::ServerConfig;

/// The cluster the options ask for; a usage error comes back as the
/// message `main` prints before exiting 2.
fn parse(args: &mut Args) -> Result<ClusterConfig, String> {
    let defaults = if args.flag("--quick")? {
        ClusterConfig {
            leaves: 6,
            steps: 36,
            windows_per_step: 5,
            colo: ColoConfig { requests_per_window: 1_000, ..ColoConfig::default() },
            ..ClusterConfig::default()
        }
    } else {
        ClusterConfig::default()
    };
    let config = ClusterConfig {
        leaves: args.value("--leaves", defaults.leaves)?,
        steps: args.value("--steps", defaults.steps)?,
        seed: args.value("--seed", defaults.seed)?,
        ..defaults
    };
    args.finish()?;
    Ok(config)
}

fn main() {
    let base = parse(&mut Args::from_env()).unwrap_or_else(|e| exit_usage(&e));
    let server = ServerConfig::default_haswell();

    println!("Figure 8: websearch cluster over a 12-hour diurnal trace");
    println!(
        "  leaves: {}, steps: {}, windows per step: {}",
        base.leaves, base.steps, base.windows_per_step
    );
    println!();

    let baseline = WebsearchCluster::new(
        ClusterConfig { policy: ClusterPolicy::Baseline, ..base },
        server.clone(),
    )
    .run();
    let heracles =
        WebsearchCluster::new(ClusterConfig { policy: ClusterPolicy::Heracles, ..base }, server)
            .run();

    println!(
        "{:>8} {:>6} | {:>13} {:>9} | {:>13} {:>9}",
        "time", "load", "base lat/SLO", "base EMU", "her lat/SLO", "her EMU"
    );
    let stride = (baseline.steps.len() / 24).max(1);
    for (b, h) in baseline.steps.iter().zip(&heracles.steps).step_by(stride) {
        println!(
            "{:>8} {:>5.0}% | {:>12.0}% {:>8.0}% | {:>12.0}% {:>8.0}%",
            // The simulated trace time the step read its load at (the end of
            // the step).  The run covers only the trace's first
            // steps × windows per step × window seconds.
            format!("{:.3}h", b.time.as_secs_f64() / 3600.0),
            b.load * 100.0,
            b.normalized_root_latency * 100.0,
            b.emu * 100.0,
            h.normalized_root_latency * 100.0,
            h.emu * 100.0
        );
    }
    println!();
    println!(
        "baseline: mean EMU {:.0}%, SLO violations in {:.0}% of steps",
        baseline.mean_emu() * 100.0,
        baseline.violation_fraction() * 100.0
    );
    println!(
        "heracles: mean EMU {:.0}%, min EMU {:.0}%, SLO violations in {:.0}% of steps",
        heracles.mean_emu() * 100.0,
        heracles.min_emu() * 100.0,
        heracles.violation_fraction() * 100.0
    );
    println!();
    println!("(paper: Figure 8 — Heracles produces no SLO violations, cuts the latency slack,");
    println!(" and sustains an average EMU of ~90% with a minimum of ~80% across the trace.)");
}
