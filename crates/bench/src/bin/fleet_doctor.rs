//! Renders the fleet report for one run: placement outcomes, violation
//! attribution, the traffic plane, controller decisions, wake attribution
//! (event-driven core), per-service SLO attainment, the alert timeline, the
//! top-k unhealthiest leaves, the sketch-vs-exact quantile cross-check, the
//! energy plane and the autoscale / lifecycle timeline.
//!
//! Two modes:
//!
//! * **artifact mode** — `fleet_doctor --trace <trace.jsonl>
//!   [--metrics <metrics.json>]` reads artifacts written by
//!   `fleet_scale --trace` (add `--health` for the health sections),
//! * **live mode** — `fleet_doctor [--fast] [--servers N] [--steps N]
//!   [--seed N] [--policy KIND] [--sim-core stepped|event]` runs a fleet
//!   with the health plane and metering enabled and reports on its
//!   in-memory artifacts (the same parser either way, so the modes cannot
//!   drift).
//!
//! The energy section reads the energy columns of the trace's
//! `fleet`/`step` events and, when present, the meter's end-of-run summary;
//! live mode always meters (the shadow is free).
//!
//! Exits 2 on usage errors (including an unknown option) or IO errors, and
//! 1 when an artifact fails to parse — including a violation without its
//! (service, generation, balancer) cause, a wake without a reason, or a
//! lossless step that woke more leaves than it has wake lines — when the
//! cross-check exceeds the sketch's error bound, or when energy
//! conservation breaks.

use heracles_bench::cli::Args;
use heracles_bench::fleet_doctor::DoctorReport;
use heracles_fleet::{FleetConfig, PolicyKind};
use heracles_hw::ServerConfig;

/// Every option `fleet_doctor` understands, across both modes.
const KNOWN_OPTIONS: &[&str] =
    &["--trace", "--metrics", "--fast", "--servers", "--steps", "--seed", "--policy", "--sim-core"];

fn main() {
    let args = Args::from_env();
    if let Err(e) = args.reject_unknown(KNOWN_OPTIONS) {
        eprintln!("fleet_doctor: {e}");
        std::process::exit(2);
    }
    let trace_path = args.value("--trace", String::new());
    let metrics_path = args.value("--metrics", String::new());

    let report = if !trace_path.is_empty() {
        let trace = match std::fs::read_to_string(&trace_path) {
            Ok(doc) => doc,
            Err(e) => {
                eprintln!("cannot read {trace_path}: {e}");
                std::process::exit(2);
            }
        };
        let metrics = if metrics_path.is_empty() {
            None
        } else {
            match std::fs::read_to_string(&metrics_path) {
                Ok(doc) => Some(doc),
                Err(e) => {
                    eprintln!("cannot read {metrics_path}: {e}");
                    std::process::exit(2);
                }
            }
        };
        DoctorReport::from_artifacts(&trace, metrics.as_deref())
    } else {
        if !metrics_path.is_empty() {
            eprintln!("--metrics only makes sense with --trace (live mode collects its own)");
            std::process::exit(2);
        }
        let base =
            if args.flag("--fast") { FleetConfig::fast_test() } else { FleetConfig::default() };
        let config = FleetConfig {
            servers: args.value("--servers", base.servers),
            steps: args.value("--steps", base.steps),
            seed: args.value("--seed", base.seed),
            sim_core: args.value("--sim-core", base.sim_core),
            ..base
        };
        if let Err(e) = config.validate() {
            eprintln!("invalid configuration: {e}");
            std::process::exit(2);
        }
        DoctorReport::live(
            config,
            &ServerConfig::default_haswell(),
            args.value("--policy", PolicyKind::LeastLoaded),
        )
    };

    match report {
        Ok(report) => {
            print!("{}", report.render());
            if !report.cross_checks_ok() {
                eprintln!("sketch-vs-exact cross-check FAILED its error bound");
                std::process::exit(1);
            }
            if !report.energy_ok() {
                eprintln!("energy joules-vs-∫watts conservation cross-check FAILED");
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("fleet_doctor: {e}");
            std::process::exit(1);
        }
    }
}
