//! Figure 7: egress network bandwidth of memkeyval colocated with the iperf
//! network antagonist under Heracles, across the load range.  The network
//! sub-controller must give memkeyval the bandwidth it needs (plus headroom)
//! and cap the BE flows at whatever is left.
//!
//! Run with: `cargo run --release -p heracles_bench --bin fig7_network [--quick]`

use heracles_bench::{print_load_header, print_percent_row, FigureRun};
use heracles_sim::parallel_map;
use heracles_workloads::{BeWorkload, LcWorkload};

fn main() {
    let run = FigureRun::from_args();
    let loads: Vec<f64> = if run.quick {
        vec![0.2, 0.4, 0.6, 0.8]
    } else {
        vec![0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9]
    };
    let link = run.server.nic_gbps;
    let kv = LcWorkload::memkeyval();
    let iperf = BeWorkload::iperf();

    println!("Figure 7: memkeyval network bandwidth with iperf under Heracles (% of link rate)");
    println!();
    print_load_header("series", &loads);

    let baseline = parallel_map(&loads, |&load| run.heracles(&kv, None, load));
    print_percent_row("baseline (LC)", baseline.iter().map(|s| s.mean_lc_net_gbps / link));

    let colocated = parallel_map(&loads, |&load| run.heracles(&kv, Some(&iperf), load));
    print_percent_row("heracles (LC)", colocated.iter().map(|s| s.mean_lc_net_gbps / link));
    print_percent_row("heracles (BE)", colocated.iter().map(|s| s.mean_be_net_gbps / link));
    print_percent_row("worst lat/SLO", colocated.iter().map(|s| s.worst_normalized_latency));
    println!();
    println!("(paper: Figure 7 — the LC traffic follows the baseline curve; the BE flows get");
    println!(" the remaining link bandwidth minus headroom, shrinking as memkeyval's load grows,");
    println!(" and memkeyval keeps meeting its SLO.)");
}
