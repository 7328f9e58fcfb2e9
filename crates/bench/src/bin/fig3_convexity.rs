//! Figure 3: the maximum websearch load that still meets the SLO, as a
//! function of the fraction of cores and of LLC capacity granted to it.
//! The paper uses this surface to argue that gradient descent over
//! (cores, cache) finds the global optimum.
//!
//! Run with: `cargo run --release -p heracles_bench --bin fig3_convexity [--quick]`

use heracles_bench::FigureRun;
use heracles_colo::max_load_under_slo;
use heracles_sim::parallel_map;
use heracles_workloads::LcWorkload;

fn main() {
    let run = FigureRun::from_args();
    let fractions: Vec<f64> = if run.quick {
        vec![0.25, 0.5, 0.75, 1.0]
    } else {
        vec![0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0]
    };
    let websearch = LcWorkload::websearch();

    println!("Figure 3: websearch max load under SLO (%) vs cores and LLC share");
    println!();
    print!("{:>12}", "cores \\ LLC");
    for llc in &fractions {
        print!("{:>7.0}%", llc * 100.0);
    }
    println!();

    let grid: Vec<(f64, f64)> =
        fractions.iter().flat_map(|&c| fractions.iter().map(move |&l| (c, l))).collect();
    let results = parallel_map(&grid, |&(cores, llc)| {
        max_load_under_slo(&websearch, cores, llc, &run.server, &run.colo)
    });

    for (i, &cores) in fractions.iter().enumerate() {
        print!("{:>11.0}%", cores * 100.0);
        for j in 0..fractions.len() {
            let value = results[i * fractions.len() + j];
            print!("{:>7.0}%", value * 100.0);
        }
        println!();
    }
    println!();
    println!("(paper: Figure 3 — performance is a convex, monotone function of cores and");
    println!(" cache, so one-dimension-at-a-time gradient descent finds the global optimum.)");
}
