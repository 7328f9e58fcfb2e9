//! Prints a per-window trace of one Heracles colocation run.
//!
//! Usage: `debug_trace [LOAD] [WINDOWS] [BE]` — e.g.
//! `cargo run -p heracles_colo --example debug_trace -- 0.2 140 brain`.
//! A malformed argument (a LOAD that is not a finite number, a WINDOWS that
//! is not a count, an unknown BE or a fourth argument) is a usage error:
//! exit 2 with a message on stderr.

use heracles_colo::{ColoConfig, ColoRunner};
use heracles_core::{ColocationPolicy, Heracles, HeraclesConfig, OfflineDramModel};
use heracles_hw::ServerConfig;
use heracles_workloads::{BeWorkload, LcWorkload};

const USAGE: &str = "usage: debug_trace [LOAD] [WINDOWS] [BE (brain|streetview|iperf)]";

/// Prints `message` and the usage line on stderr and exits 2.
fn usage_error(message: &str) -> ! {
    eprintln!("debug_trace: {message}\n{USAGE}");
    std::process::exit(2);
}

fn main() {
    let mut args = std::env::args().skip(1);
    let load = match args.next() {
        None => 0.4,
        Some(a) => match a.parse::<f64>() {
            Ok(load) if load.is_finite() => load,
            _ => usage_error(&format!("LOAD must be a finite number, got {a:?}")),
        },
    };
    let windows = match args.next() {
        None => 60,
        Some(a) => a
            .parse::<usize>()
            .unwrap_or_else(|_| usage_error(&format!("WINDOWS must be a count, got {a:?}"))),
    };
    let be = match args.next().as_deref() {
        None | Some("brain") => BeWorkload::brain(),
        Some("streetview") => BeWorkload::streetview(),
        Some("iperf") => BeWorkload::iperf(),
        Some(other) => usage_error(&format!("unknown BE workload {other:?}")),
    };
    if let Some(extra) = args.next() {
        usage_error(&format!("unexpected argument {extra:?}"));
    }

    let cfg = ServerConfig::default_haswell();
    let lc = LcWorkload::websearch();
    let model = OfflineDramModel::profile(&lc, &cfg);
    let policy: Box<dyn ColocationPolicy> =
        Box::new(Heracles::new(HeraclesConfig::fast(), lc.slo(), model));
    let mut runner = ColoRunner::new(cfg, lc, Some(be), policy, ColoConfig::fast_test());
    for i in 0..windows {
        let r = runner.step(load);
        println!(
            "w{:03} lc_cores={:2} be_cores={:2} be_ways={:2} norm_lat={:.2} emu={:.2} dram={:.2} pwr={:.2} lc_freq={:.2}",
            i,
            r.lc_cores,
            r.be_cores,
            r.be_ways,
            r.normalized_latency,
            r.emu,
            r.counters.dram_utilization(),
            r.counters.power_fraction(),
            r.counters.lc_freq_ghz,
        );
    }
}
