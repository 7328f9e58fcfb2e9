//! Figure 5: Effective Machine Utilization (EMU) achieved by Heracles when
//! colocating each LC workload with the production batch jobs (brain and
//! streetview) across the load range.  EMU = LC throughput + BE throughput,
//! each normalized to running alone; it can exceed 100% when the two
//! workloads have complementary resource needs.
//!
//! Run with: `cargo run --release -p heracles_bench --bin fig5_emu [--quick]`

use heracles_bench::{evaluation_loads, print_load_header, print_percent_row, FigureRun};
use heracles_sim::parallel_map;
use heracles_workloads::{BeWorkload, LcWorkload};

fn main() {
    let run = FigureRun::from_args();
    let loads = if run.quick { vec![0.2, 0.4, 0.6, 0.8] } else { evaluation_loads() };

    println!("Figure 5: Effective Machine Utilization under Heracles (%)");
    println!();
    print_load_header("colocation", &loads);
    print_percent_row("baseline", loads.iter().copied());
    let mut sum = 0.0;
    let mut count = 0usize;
    for lc in LcWorkload::all() {
        for be in BeWorkload::production_set() {
            let emu = parallel_map(&loads, |&load| run.heracles(&lc, Some(&be), load).mean_emu);
            sum += emu.iter().sum::<f64>();
            count += emu.len();
            print_percent_row(&format!("{}+{}", lc.name(), be.name()), emu);
        }
    }
    println!();
    println!(
        "average EMU across all colocations and loads: {:.0}%",
        100.0 * sum / count.max(1) as f64
    );
    println!("(paper: Figure 5 — EMU between ~60% and ~120%, averaging ~90%; websearch+streetview");
    println!(" exceeds 100% because their resource needs are complementary.)");
}
