//! Figure 8: a websearch cluster over a 12-hour diurnal load trace, baseline
//! (no colocation) vs Heracles colocating brain and streetview on the leaves.
//! Reports root latency relative to the cluster SLO and Effective Machine
//! Utilization over time.
//!
//! A root node fans each query out to every leaf, so the root latency is
//! the mean of the leaf tails.  Each leaf is a single-server colocation
//! experiment: websearch plus a production BE task (brain on even leaves,
//! streetview on odd ones, as in the paper) under its own Heracles
//! instance.  The cluster SLO is the root latency at 90% load without any
//! colocation (§5.3).
//!
//! Run with: `cargo run --release -p heracles_bench --bin fig8_cluster --
//! [--quick] [--leaves N] [--steps N] [--seed N]`

use heracles_baselines::StaticLayout;
use heracles_bench::cli::{exit_usage, Args};
use heracles_colo::{ColoConfig, ColoRunner};
use heracles_core::{Heracles, HeraclesConfig, OfflineDramModel};
use heracles_fleet::MAX_FLEET_SERVERS;
use heracles_hw::ServerConfig;
use heracles_sim::SimTime;
use heracles_workloads::{BeWorkload, DiurnalTrace, LcWorkload, Slo};

/// The cluster the options ask for.
#[derive(Debug)]
struct Cluster {
    /// Number of leaf servers (the paper uses "tens of servers").
    leaves: usize,
    /// Number of trace steps to simulate.
    steps: usize,
    /// Harness windows per trace step: the trace is read once per step,
    /// the controllers tick every window.
    windows_per_step: usize,
    /// Per-leaf harness configuration.
    colo: ColoConfig,
    /// Seed for the trace and the per-leaf random streams.
    seed: u64,
}

/// One trace step of a run.
struct Step {
    /// Simulated trace time at the end of the step, where its load is read.
    time: SimTime,
    /// Websearch load during the step (fraction of peak).
    load: f64,
    /// Root latency as a fraction of the cluster SLO.
    root_latency: f64,
    /// Mean Effective Machine Utilization across the leaves.
    emu: f64,
}

/// The cluster the options ask for; a usage error comes back as the
/// message `main` prints before exiting 2.
fn parse(args: &mut Args) -> Result<Cluster, String> {
    let (leaves, steps, windows_per_step, requests_per_window) =
        if args.flag("--quick")? { (6, 36, 5, 1_000) } else { (12, 144, 6, 1_200) };
    let cluster = Cluster {
        leaves: args.value("--leaves", leaves)?,
        steps: args.value("--steps", steps)?,
        windows_per_step,
        colo: ColoConfig { requests_per_window, ..ColoConfig::default() },
        seed: args.value("--seed", 42)?,
    };
    args.finish()?;
    if !(1..=MAX_FLEET_SERVERS).contains(&cluster.leaves) {
        return Err(format!("--leaves must be 1..={MAX_FLEET_SERVERS} (got {})", cluster.leaves));
    }
    if cluster.steps == 0 {
        return Err("--steps must be at least 1 (got 0)".into());
    }
    Ok(cluster)
}

/// The cluster SLO target: the worst mean leaf tail over one step's
/// windows at 90% load, every leaf running websearch alone.
fn calibrate(cluster: &Cluster, server: &ServerConfig) -> f64 {
    let mut leaves: Vec<ColoRunner> = (0..cluster.leaves)
        .map(|i| {
            ColoRunner::new(
                server.clone(),
                LcWorkload::websearch(),
                None,
                Box::new(StaticLayout::lc_only()),
                cluster.colo.with_seed(cluster.seed ^ (0x5EAF + i as u64)),
            )
        })
        .collect();
    let mut worst_mean = 0.0_f64;
    for _ in 0..cluster.windows_per_step {
        let mut sum = 0.0;
        for leaf in &mut leaves {
            sum += leaf.step(0.90).tail_latency_s;
        }
        worst_mean = worst_mean.max(sum / leaves.len() as f64);
    }
    worst_mean
}

/// Leaf `index`: websearch alone, or, given the cluster SLO target, with a
/// BE task under a Heracles instance defending that target.
fn leaf(
    cluster: &Cluster,
    server: &ServerConfig,
    index: usize,
    target_s: Option<f64>,
) -> ColoRunner {
    let websearch = LcWorkload::websearch();
    let colo = cluster.colo.with_seed(cluster.seed ^ (0xC1A5 + index as u64 * 7919));
    let Some(target_s) = target_s else {
        let layout = Box::new(StaticLayout::lc_only());
        return ColoRunner::new(server.clone(), websearch, None, layout, colo);
    };
    let be = if index.is_multiple_of(2) { BeWorkload::brain() } else { BeWorkload::streetview() };
    // Every leaf profiles the same offline DRAM model even though each
    // serves a different shard (the paper does the same and notes the
    // controller tolerates the resulting model error).
    let dram_model = OfflineDramModel::profile(&websearch, server);
    // The root latency is the mean of the leaf tails, so each leaf defends
    // the cluster target itself.
    let slo = Slo::new(target_s, websearch.slo().percentile);
    let heracles = Box::new(Heracles::new(HeraclesConfig::default(), slo, dram_model));
    ColoRunner::new(server.clone(), websearch, Some(be), heracles, colo)
}

/// Runs the cluster over the trace, with Heracles on every leaf when
/// `heracles` is set, judging root latency against `target_s`.
fn run(cluster: &Cluster, server: &ServerConfig, target_s: f64, heracles: bool) -> Vec<Step> {
    let trace = DiurnalTrace::websearch_12h(cluster.seed);
    let mut leaves: Vec<ColoRunner> = (0..cluster.leaves)
        .map(|i| leaf(cluster, server, i, heracles.then_some(target_s)))
        .collect();
    let step_duration = cluster.colo.window * cluster.windows_per_step as u64;
    (1..=cluster.steps as u64)
        .map(|k| {
            let time = SimTime::ZERO + step_duration * k;
            let load = trace.load_at(time);
            let (mut latency_sum, mut emu_sum) = (0.0, 0.0);
            for leaf in &mut leaves {
                leaf.advance(load, cluster.windows_per_step, false);
                let last = leaf.last_record().expect("advance ran a window");
                latency_sum += last.tail_latency_s;
                emu_sum += last.emu;
            }
            let n = leaves.len() as f64;
            Step { time, load, root_latency: latency_sum / n / target_s, emu: emu_sum / n }
        })
        .collect()
}

fn mean_emu(steps: &[Step]) -> f64 {
    steps.iter().map(|s| s.emu).sum::<f64>() / steps.len() as f64
}

fn violation_fraction(steps: &[Step]) -> f64 {
    steps.iter().filter(|s| s.root_latency > 1.0).count() as f64 / steps.len() as f64
}

fn main() {
    let cluster = parse(&mut Args::from_env()).unwrap_or_else(|e| exit_usage(&e));
    let server = ServerConfig::default_haswell();

    println!("Figure 8: websearch cluster over a 12-hour diurnal trace");
    println!(
        "  leaves: {}, steps: {}, windows per step: {}",
        cluster.leaves, cluster.steps, cluster.windows_per_step
    );
    println!();

    let target_s = calibrate(&cluster, &server);
    let baseline = run(&cluster, &server, target_s, false);
    let heracles = run(&cluster, &server, target_s, true);

    println!(
        "{:>8} {:>6} | {:>13} {:>9} | {:>13} {:>9}",
        "time", "load", "base lat/SLO", "base EMU", "her lat/SLO", "her EMU"
    );
    let stride = (baseline.len() / 24).max(1);
    for (b, h) in baseline.iter().zip(&heracles).step_by(stride) {
        println!(
            "{:>8} {:>5.0}% | {:>12.0}% {:>8.0}% | {:>12.0}% {:>8.0}%",
            // The simulated trace time the step read its load at (the end of
            // the step).  The run covers only the trace's first
            // steps × windows per step × window seconds.
            format!("{:.3}h", b.time.as_secs_f64() / 3600.0),
            b.load * 100.0,
            b.root_latency * 100.0,
            b.emu * 100.0,
            h.root_latency * 100.0,
            h.emu * 100.0
        );
    }
    let min_emu = heracles.iter().map(|s| s.emu).fold(f64::INFINITY, f64::min);
    println!();
    println!(
        "baseline: mean EMU {:.0}%, SLO violations in {:.0}% of steps",
        mean_emu(&baseline) * 100.0,
        violation_fraction(&baseline) * 100.0
    );
    println!(
        "heracles: mean EMU {:.0}%, min EMU {:.0}%, SLO violations in {:.0}% of steps",
        mean_emu(&heracles) * 100.0,
        min_emu * 100.0,
        violation_fraction(&heracles) * 100.0
    );
    println!();
    println!("(paper: Figure 8 — Heracles produces no SLO violations, cuts the latency slack,");
    println!(" and sustains an average EMU of ~90% with a minimum of ~80% across the trace.)");
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A scaled-down cluster.
    fn fast_test() -> Cluster {
        Cluster {
            leaves: 4,
            steps: 24,
            windows_per_step: 4,
            colo: ColoConfig::fast_test(),
            seed: 42,
        }
    }

    fn parse_vec(list: &[&str]) -> Result<Cluster, String> {
        parse(&mut Args::from_vec(list.iter().map(|s| s.to_string()).collect()))
    }

    #[test]
    fn sizes_outside_one_to_the_fleet_limit_are_usage_errors() {
        let too_many = (MAX_FLEET_SERVERS + 1).to_string();
        for (option, value) in [("--leaves", "0"), ("--steps", "0"), ("--leaves", &too_many)] {
            let err = parse_vec(&["--quick", option, value]).unwrap_err();
            assert!(err.contains(option) && err.contains(value), "{option} {value}: {err}");
        }
        let largest = MAX_FLEET_SERVERS.to_string();
        assert_eq!(
            parse_vec(&["--leaves", &largest, "--steps", "1"]).unwrap().leaves,
            MAX_FLEET_SERVERS
        );
    }

    #[test]
    fn slo_target_is_calibrated_from_ninety_percent_load() {
        let target = calibrate(&fast_test(), &ServerConfig::default_haswell());
        // Root latency at 90% load is positive and below the per-leaf SLO.
        assert!(target > 0.001);
        assert!(target < LcWorkload::websearch().slo().target_s);
    }

    #[test]
    fn baseline_cluster_meets_its_slo_and_tracks_load() {
        let (cluster, server) = (fast_test(), ServerConfig::default_haswell());
        let steps = run(&cluster, &server, calibrate(&cluster, &server), false);
        assert_eq!(steps.len(), cluster.steps);
        assert_eq!(violation_fraction(&steps), 0.0);
        // Without colocation EMU equals the websearch load.
        for step in &steps {
            assert!((step.emu - step.load).abs() < 1e-9);
        }
    }

    #[test]
    fn heracles_cluster_raises_emu_without_slo_violations() {
        let (cluster, server) =
            (Cluster { steps: 30, ..fast_test() }, ServerConfig::default_haswell());
        let target_s = calibrate(&cluster, &server);
        let heracles = run(&cluster, &server, target_s, true);
        let baseline = run(&cluster, &server, target_s, false);
        // The root-derived per-leaf latency target leaves less room for
        // colocation than the standalone per-leaf SLO, so the EMU gain in
        // this short run is modest — but it must be a gain, with zero
        // violations.
        assert!(
            mean_emu(&heracles) > mean_emu(&baseline) + 0.02,
            "heracles EMU {:.2} vs baseline {:.2}",
            mean_emu(&heracles),
            mean_emu(&baseline)
        );
        let violations: Vec<f64> =
            heracles.iter().map(|s| s.root_latency).filter(|&l| l > 1.0).collect();
        assert!(violations.is_empty(), "violations: {violations:?}");
    }
}
