//! Single-resource interference characterization (a miniature of Figure 1).
//!
//! Pins each latency-critical workload to "enough cores for its SLO" at a few
//! load points and runs one antagonist on the remaining cores, printing tail
//! latency as a percentage of the SLO.  Values above 100% are SLO violations;
//! values above 300% are printed as ">300%" like the paper's figure.
//!
//! Run with: `cargo run --release --example characterize_interference`

use heracles_colo::{characterize_cell, ColoConfig, SharedDraws, CELL_WINDOWS};
use heracles_hw::ServerConfig;
use heracles_workloads::{BeWorkload, LcWorkload};

fn main() {
    let server = ServerConfig::default_haswell();
    let colo = ColoConfig::default();
    // Every cell runs on one seed, so they share their windows' draws.
    let draws = SharedDraws::new(&colo, CELL_WINDOWS);
    let loads = [0.10, 0.30, 0.50, 0.70, 0.90];

    for lc in LcWorkload::all() {
        println!("{}", lc.name());
        print!("{:<14}", "antagonist");
        for load in loads {
            print!("{:>9.0}%", load * 100.0);
        }
        println!();
        for antagonist in BeWorkload::characterization_antagonists() {
            print!("{:<14}", antagonist.name());
            for &load in &loads {
                let cell = characterize_cell(&lc, &antagonist, load, &server, &colo, Some(&draws));
                print!("{:>10}", cell.formatted());
            }
            println!();
        }
        println!();
    }
}
