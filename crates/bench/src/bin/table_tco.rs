//! §5.3 TCO analysis: throughput/TCO improvements from raising utilization
//! with Heracles, compared against an energy-proportionality-only controller,
//! using the Barroso et al. TCO calculator parameters from the paper.
//!
//! Run with: `cargo run --release -p heracles_bench --bin table_tco`

use heracles_bench::cli::{exit_usage, Args};
use heracles_cluster::TcoModel;

fn main() {
    if let Err(e) = Args::from_env().finish() {
        exit_usage(&e);
    }
    let tco = TcoModel::paper_case_study();
    println!("TCO case study (Barroso et al. calculator, low per-server-cost datacenter)");
    println!(
        "  server ${:.0} over {:.0} years, infra ${:.0} over {:.0} years,",
        tco.server_capex,
        tco.server_lifetime_years,
        tco.infra_capex_per_server,
        tco.infra_lifetime_years
    );
    println!(
        "  PUE {:.1}, {:.0} W peak per server, ${:.2}/kWh, {} servers",
        tco.pue, tco.peak_power_w, tco.electricity_per_kwh, tco.cluster_servers
    );
    println!();

    println!(
        "{:>24} {:>14} {:>14} {:>16}",
        "initial utilization", "target util.", "throughput/TCO", "energy-prop only"
    );
    for &(from, to) in &[(0.75, 0.90), (0.50, 0.90), (0.20, 0.90)] {
        let heracles = tco.throughput_per_tco_improvement(from, to);
        let energy_prop = tco.energy_proportionality_improvement(from, 0.35);
        println!(
            "{:>23}% {:>13}% {:>+13.0}% {:>+15.1}%",
            (from * 100.0) as i64,
            (to * 100.0) as i64,
            heracles * 100.0,
            energy_prop * 100.0
        );
    }
    println!();
    println!("annual cluster TCO at 75% utilization: ${:.1}M", tco.annual_tco_cluster(0.75) / 1e6);
    println!("annual cluster TCO at 90% utilization: ${:.1}M", tco.annual_tco_cluster(0.90) / 1e6);
    println!();
    println!("(paper §5.3: ~15% throughput/TCO gain when a 75%-utilized cluster reaches 90%,");
    println!(" ~306% when a 20%-utilized cluster reaches 90%; an energy-proportionality");
    println!(" controller alone achieves only ~3% and <7% respectively.)");
}
