//! Figure 4: tail latency of each LC workload colocated with each BE job
//! under Heracles, across the load range.  The paper's claim: no SLO
//! violations in any cell.
//!
//! Run with: `cargo run --release -p heracles_bench --bin fig4_latency_slo [--quick]`

use heracles_bench::{evaluation_loads, parallel_map, percent, print_load_header, print_row};
use heracles_colo::{ColoConfig, ColoRunner, ColoSummary};
use heracles_core::{ColocationPolicy, Heracles, HeraclesConfig, OfflineDramModel};
use heracles_hw::ServerConfig;
use heracles_workloads::{BeWorkload, LcWorkload};

/// Worst-case normalized latency over the steady-state half of a run.
fn steady_state_latency(
    lc: &LcWorkload,
    be: Option<&BeWorkload>,
    load: f64,
    server: &ServerConfig,
    colo: &ColoConfig,
    windows: usize,
) -> f64 {
    let policy: Box<dyn ColocationPolicy> = Box::new(Heracles::new(
        HeraclesConfig::default(),
        lc.slo(),
        OfflineDramModel::profile(lc, server),
    ));
    let mut runner = ColoRunner::new(server.clone(), lc.clone(), be.cloned(), policy, *colo);
    let records = runner.run_steady(load, windows);
    ColoSummary::from_records(&records[windows - windows / 2..]).worst_normalized_latency
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let server = ServerConfig::default_haswell();
    let colo = if quick { ColoConfig::fast_test() } else { ColoConfig::default() };
    let windows = if quick { 60 } else { 120 };
    let loads = if quick { vec![0.1, 0.3, 0.5, 0.7, 0.9] } else { evaluation_loads() };

    println!("Figure 4: LC tail latency under Heracles colocation (% of SLO, worst case in steady state)");
    println!();
    let mut violations = 0usize;
    let mut cells = 0usize;
    for lc in LcWorkload::all() {
        println!("{} with Heracles", lc.name());
        print_load_header("BE workload", &loads);
        // Baseline: the LC workload alone on the whole machine.
        let baseline = parallel_map(&loads, |&load| {
            steady_state_latency(&lc, None, load, &server, &colo, windows)
        });
        print_row("baseline", &baseline.iter().map(|&v| percent(v)).collect::<Vec<_>>());
        for be in BeWorkload::evaluation_set() {
            // The paper omits websearch/ml_cluster with iperf (they are
            // insensitive to network interference); we include them anyway.
            let results = parallel_map(&loads, |&load| {
                steady_state_latency(&lc, Some(&be), load, &server, &colo, windows)
            });
            cells += results.len();
            violations += results.iter().filter(|&&v| v > 1.0).count();
            print_row(be.name(), &results.iter().map(|&v| percent(v)).collect::<Vec<_>>());
        }
        println!();
    }
    println!(
        "SLO violations: {violations} of {cells} colocation cells ({:.1}%)",
        100.0 * violations as f64 / cells.max(1) as f64
    );
    println!("(paper: Figure 4 — no SLO violations at any load for any colocation.)");
}
