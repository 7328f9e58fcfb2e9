//! Figure 5: Effective Machine Utilization (EMU) achieved by Heracles when
//! colocating each LC workload with the production batch jobs (brain and
//! streetview) across the load range.  EMU = LC throughput + BE throughput,
//! each normalized to running alone; it can exceed 100% when the two
//! workloads have complementary resource needs.
//!
//! Run with: `cargo run --release -p heracles_bench --bin fig5_emu [--quick]`

use heracles_bench::{evaluation_loads, parallel_map, print_load_header, print_row};
use heracles_colo::{ColoConfig, ColoRunner, ColoSummary};
use heracles_core::{ColocationPolicy, Heracles, HeraclesConfig, OfflineDramModel};
use heracles_hw::ServerConfig;
use heracles_workloads::{BeWorkload, LcWorkload};

fn steady_state_emu(
    lc: &LcWorkload,
    be: &BeWorkload,
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
    let mut runner = ColoRunner::new(server.clone(), lc.clone(), Some(be.clone()), policy, *colo);
    let records = runner.run_steady(load, windows);
    ColoSummary::from_records(&records[windows - windows / 2..]).mean_emu
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let server = ServerConfig::default_haswell();
    let colo = if quick { ColoConfig::fast_test() } else { ColoConfig::default() };
    let windows = if quick { 60 } else { 120 };
    let loads = if quick { vec![0.2, 0.4, 0.6, 0.8] } else { evaluation_loads() };

    println!("Figure 5: Effective Machine Utilization under Heracles (%)");
    println!();
    print_load_header("colocation", &loads);
    print_row("baseline", &loads.iter().map(|l| format!("{:.0}%", l * 100.0)).collect::<Vec<_>>());
    let mut sum = 0.0;
    let mut count = 0usize;
    for lc in LcWorkload::all() {
        for be in BeWorkload::production_set() {
            let label = format!("{}+{}", lc.name(), be.name());
            let emu = parallel_map(&loads, |&load| {
                steady_state_emu(&lc, &be, load, &server, &colo, windows)
            });
            sum += emu.iter().sum::<f64>();
            count += emu.len();
            print_row(
                &label,
                &emu.iter().map(|&v| format!("{:.0}%", v * 100.0)).collect::<Vec<_>>(),
            );
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
