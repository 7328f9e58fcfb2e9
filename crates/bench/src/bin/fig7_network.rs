//! Figure 7: egress network bandwidth of memkeyval colocated with the iperf
//! network antagonist under Heracles, across the load range.  The network
//! sub-controller must give memkeyval the bandwidth it needs (plus headroom)
//! and cap the BE flows at whatever is left.
//!
//! Run with: `cargo run --release -p heracles_bench --bin fig7_network [--quick]`

use heracles_bench::{parallel_map, print_load_header, print_row};
use heracles_colo::{ColoConfig, ColoRunner, ColoSummary};
use heracles_core::{ColocationPolicy, Heracles, HeraclesConfig, OfflineDramModel};
use heracles_hw::ServerConfig;
use heracles_workloads::{BeWorkload, LcWorkload};

fn steady_state(
    load: f64,
    be: Option<&BeWorkload>,
    server: &ServerConfig,
    colo: &ColoConfig,
    windows: usize,
) -> ColoSummary {
    let kv = LcWorkload::memkeyval();
    let policy: Box<dyn ColocationPolicy> = Box::new(Heracles::new(
        HeraclesConfig::default(),
        kv.slo(),
        OfflineDramModel::profile(&kv, server),
    ));
    let mut runner = ColoRunner::new(server.clone(), kv, be.cloned(), policy, *colo);
    let records = runner.run_steady(load, windows);
    ColoSummary::from_records(&records[windows - windows / 2..])
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let server = ServerConfig::default_haswell();
    let colo = if quick { ColoConfig::fast_test() } else { ColoConfig::default() };
    let windows = if quick { 60 } else { 120 };
    let loads: Vec<f64> = if quick {
        vec![0.2, 0.4, 0.6, 0.8]
    } else {
        vec![0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9]
    };
    let link = server.nic_gbps;

    println!("Figure 7: memkeyval network bandwidth with iperf under Heracles (% of link rate)");
    println!();
    print_load_header("series", &loads);

    let baseline = parallel_map(&loads, |&load| steady_state(load, None, &server, &colo, windows));
    print_row(
        "baseline (LC)",
        &baseline
            .iter()
            .map(|s| format!("{:.0}%", s.mean_lc_net_gbps / link * 100.0))
            .collect::<Vec<_>>(),
    );

    let iperf = BeWorkload::iperf();
    let colocated =
        parallel_map(&loads, |&load| steady_state(load, Some(&iperf), &server, &colo, windows));
    print_row(
        "heracles (LC)",
        &colocated
            .iter()
            .map(|s| format!("{:.0}%", s.mean_lc_net_gbps / link * 100.0))
            .collect::<Vec<_>>(),
    );
    print_row(
        "heracles (BE)",
        &colocated
            .iter()
            .map(|s| format!("{:.0}%", s.mean_be_net_gbps / link * 100.0))
            .collect::<Vec<_>>(),
    );
    print_row(
        "worst lat/SLO",
        &colocated
            .iter()
            .map(|s| format!("{:.0}%", s.worst_normalized_latency * 100.0))
            .collect::<Vec<_>>(),
    );
    println!();
    println!("(paper: Figure 7 — the LC traffic follows the baseline curve; the BE flows get");
    println!(" the remaining link bandwidth minus headroom, shrinking as memkeyval's load grows,");
    println!(" and memkeyval keeps meeting its SLO.)");
}
