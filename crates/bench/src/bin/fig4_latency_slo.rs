//! Figure 4: tail latency of each LC workload colocated with each BE job
//! under Heracles, across the load range.  The paper's claim: no SLO
//! violations in any cell.
//!
//! Run with: `cargo run --release -p heracles_bench --bin fig4_latency_slo [--quick]`

use heracles_bench::{evaluation_loads, percent, print_load_header, print_row, FigureRun};
use heracles_sim::parallel_map;
use heracles_workloads::{BeWorkload, LcWorkload};

fn main() {
    let run = FigureRun::from_args();
    let loads = if run.quick { vec![0.1, 0.3, 0.5, 0.7, 0.9] } else { evaluation_loads() };
    // Worst-case normalized latency over the steady-state half of a run.
    let latency = |lc: &LcWorkload, be: Option<&BeWorkload>| {
        parallel_map(&loads, |&load| run.heracles(lc, be, load).worst_normalized_latency)
    };

    println!("Figure 4: LC tail latency under Heracles colocation (% of SLO, worst case in steady state)");
    println!();
    let mut violations = 0usize;
    let mut cells = 0usize;
    for lc in LcWorkload::all() {
        println!("{} with Heracles", lc.name());
        print_load_header("BE workload", &loads);
        // Baseline: the LC workload alone on the whole machine.
        let baseline = latency(&lc, None);
        print_row("baseline", &baseline.iter().map(|&v| percent(v)).collect::<Vec<_>>());
        for be in BeWorkload::evaluation_set() {
            // The paper omits websearch/ml_cluster with iperf (they are
            // insensitive to network interference); we include them anyway.
            let results = latency(&lc, Some(&be));
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
