//! Figure 6: shared-resource utilization under Heracles — DRAM bandwidth,
//! CPU utilization and CPU power (as a fraction of TDP) — for each LC
//! workload colocated with each BE job, across the load range.
//!
//! Run with: `cargo run --release -p heracles_bench --bin fig6_resource_util [--quick]`

use heracles_bench::{parallel_map, print_load_header, print_percent_row, FigureRun};
use heracles_colo::ColoSummary;
use heracles_workloads::{BeWorkload, LcWorkload};

fn main() {
    let run = FigureRun::from_args();
    let loads: Vec<f64> = if run.quick {
        vec![0.2, 0.4, 0.6, 0.8]
    } else {
        vec![0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9]
    };

    type Metric = fn(&ColoSummary) -> f64;
    let metrics: [(&str, Metric); 3] = [
        ("DRAM BW (% of peak)", |s| s.mean_dram_utilization),
        ("CPU utilization (%)", |s| s.mean_cpu_utilization),
        ("CPU power (% of TDP)", |s| s.mean_power_fraction),
    ];
    let evaluation_set = BeWorkload::evaluation_set();
    // One row per colocation: the LC workload alone, then each BE job.
    let rows: Vec<Option<&BeWorkload>> =
        std::iter::once(None).chain(evaluation_set.iter().map(Some)).collect();
    let cells: Vec<(Option<&BeWorkload>, f64)> =
        rows.iter().flat_map(|&be| loads.iter().map(move |&load| (be, load))).collect();

    println!("Figure 6: shared-resource utilization under Heracles");
    for lc in LcWorkload::all() {
        // Every metric's table reads the same runs, so each cell runs once.
        let summaries = parallel_map(&cells, |&(be, load)| run.heracles(&lc, be, load));
        for (metric_name, extract) in metrics {
            println!();
            println!("{} — {}", lc.name(), metric_name);
            print_load_header("colocation", &loads);
            for (be, row) in rows.iter().zip(summaries.chunks(loads.len())) {
                print_percent_row(be.map_or("baseline", |b| b.name()), row.iter().map(extract));
            }
        }
    }
    println!();
    println!("(paper: Figure 6 — DRAM bandwidth never saturates (kept below 90% of peak);");
    println!(" CPU utilization and power rise well above the baseline, which is where the");
    println!(" extra throughput comes from.)");
}
