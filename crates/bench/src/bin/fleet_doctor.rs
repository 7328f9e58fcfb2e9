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

use std::fs::File;
use std::io::{BufRead, BufReader};

use heracles_bench::cli::{exit_usage, Args};
use heracles_bench::fleet_doctor::DoctorReport;

/// Every option `fleet_doctor` understands.
const KNOWN_OPTIONS: &[&str] = &["--trace", "--metrics"];

/// Opens the artifacts the options name: the trace path and a reader for
/// it (the trace is read one line at a time), and the metrics document.  A
/// usage or IO error comes back as the message `main` prints before
/// exiting 2.
fn open_artifacts(args: &Args) -> Result<(String, BufReader<File>, Option<String>), String> {
    args.reject_unknown(KNOWN_OPTIONS)?;
    let trace_path = args.value("--trace", String::new())?;
    if trace_path.is_empty() {
        return Err("--trace <trace.jsonl> is required (write one with fleet_scale --trace)".into());
    }
    let cannot_read = |path: &str, e: std::io::Error| format!("cannot read {path}: {e}");
    let trace = File::open(&trace_path).map_err(|e| cannot_read(&trace_path, e))?;
    let metrics_path = args.value("--metrics", String::new())?;
    let metrics = if metrics_path.is_empty() {
        None
    } else {
        Some(std::fs::read_to_string(&metrics_path).map_err(|e| cannot_read(&metrics_path, e))?)
    };
    Ok((trace_path, BufReader::new(trace), metrics))
}

fn main() {
    let (trace_path, trace, metrics) =
        open_artifacts(&Args::from_env()).unwrap_or_else(|e| exit_usage(&e));
    let mut read_error = None;
    let lines = trace.lines().map_while(|line| line.map_err(|e| read_error = Some(e)).ok());
    let report = DoctorReport::from_artifacts(lines, metrics.as_deref());
    if let Some(e) = read_error {
        exit_usage(&format!("cannot read {trace_path}: {e}"));
    }
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
