//! Figure 1: impact of single-resource interference on the tail latency of
//! websearch, ml_cluster and memkeyval.
//!
//! Each row is an antagonist, each column a load point; every cell is the
//! tail latency normalized to the SLO (values above 100% are violations,
//! values above 300% are printed as ">300%" like the paper).
//!
//! Run with: `cargo run --release -p heracles_bench --bin fig1_characterization [--quick]`

use heracles_bench::{figure1_loads, percent, print_load_header, print_row, FigureRun};
use heracles_colo::{characterize_cell, SharedDraws, CELL_WINDOWS};
use heracles_sim::parallel_map;
use heracles_workloads::{BeWorkload, LcWorkload};

fn main() {
    let run = FigureRun::from_args();
    let loads = if run.quick { vec![0.1, 0.3, 0.5, 0.7, 0.9] } else { figure1_loads() };
    // Every cell runs on one seed, so they share their windows' draws.
    let draws = SharedDraws::new(&run.colo, CELL_WINDOWS);

    println!("Figure 1: tail latency under single-resource interference (% of SLO)");
    println!();
    for lc in LcWorkload::all() {
        println!("{}", lc.name());
        print_load_header("antagonist", &loads);
        for antagonist in BeWorkload::characterization_antagonists() {
            let cells = parallel_map(&loads, |&load| {
                let cell =
                    characterize_cell(&lc, &antagonist, load, &run.server, &run.colo, Some(&draws));
                cell.normalized_latency
            });
            let formatted: Vec<String> = cells.iter().map(|&v| percent(v)).collect();
            print_row(antagonist.name(), &formatted);
        }
        println!();
    }
    println!("(paper: Figure 1 — LLC(big)/DRAM devastate all workloads at low-to-mid load and");
    println!(" fade at high load as the antagonist loses cores; HyperThread sharing hurts at");
    println!(" high load; the power virus hurts mostly at low load; network streaming only");
    println!(" hurts memkeyval; brain under OS-only isolation violates every workload.)");
}
