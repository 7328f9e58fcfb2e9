//! Renders the fleet report for one run: placement outcomes, violation
//! attribution, the traffic plane, controller decisions, wake attribution
//! (event-driven core), per-service SLO attainment, the alert timeline, the
//! top-k unhealthiest leaves, the sketch-vs-exact quantile cross-check, the
//! energy plane and the autoscale / lifecycle timeline.
//!
//! `fleet_doctor --trace <trace.jsonl> [--metrics <metrics.json>]` reads
//! the artifacts written by `fleet_scale --trace` (add `--health` there for
//! the health sections and `--energy` for the energy section's meter
//! summary).
//!
//! The energy section reads the energy columns of the trace's
//! `fleet`/`step` events and, when present, the meter's end-of-run summary.
//!
//! Exits 2 on usage errors (an unknown option, a missing `--trace`) or IO
//! errors, and 1 when an artifact fails to parse — including a `--metrics`
//! file that is not a metrics document, a violation without its (service,
//! generation, balancer) cause, a step without its worst latency, energy
//! columns or represented duration, a wake without a reason, or a lossless
//! step that woke more leaves than it has wake lines — when the
//! cross-check exceeds the sketch's error bound, or when energy
//! conservation breaks.

use heracles_bench::cli::{exit_usage, Args};
use heracles_bench::fleet_doctor::DoctorReport;

/// Every option `fleet_doctor` understands.
const KNOWN_OPTIONS: &[&str] = &["--trace", "--metrics"];

/// Reads the artifacts the options name; a usage or IO error comes back as
/// the message `main` prints before exiting 2.
fn read_artifacts(args: &Args) -> Result<(String, Option<String>), String> {
    args.reject_unknown(KNOWN_OPTIONS)?;
    let trace_path = args.value("--trace", String::new())?;
    if trace_path.is_empty() {
        return Err("--trace <trace.jsonl> is required (write one with fleet_scale --trace)".into());
    }
    let read =
        |path: &str| std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"));
    let trace = read(&trace_path)?;
    let metrics_path = args.value("--metrics", String::new())?;
    let metrics = if metrics_path.is_empty() { None } else { Some(read(&metrics_path)?) };
    Ok((trace, metrics))
}

fn main() {
    let (trace, metrics) = read_artifacts(&Args::from_env()).unwrap_or_else(|e| exit_usage(&e));
    match DoctorReport::from_artifacts(&trace, metrics.as_deref()) {
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
