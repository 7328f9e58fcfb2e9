//! End-to-end and per-layer benchmark of the Heracles fleet simulator.
//!
//! The simulator's users wait on host time and host memory to learn a
//! fleet's effective machine utilization (EMU) and SLO violations.  This
//! benchmark measures that wait end to end on three workloads, checks that
//! the simulated outcome is right, and — in a separate traced run — times
//! each layer of the fleet path from outside.
//!
//! # Running
//!
//! From the repository root (`BENCHMARK.json` holds the same command):
//!
//! ```text
//! cargo run --release --offline -q --manifest-path fleetbench/Cargo.toml -- \
//!     --workload diurnal --seed 42 --seconds 20 --trace 0
//! ```
//!
//! * `--workload NAME` — `diurnal`, `plateau` or `diurnal-traced` (required);
//! * `--seed N` — the workload seed (default 42);
//! * `--seconds S` — the run length the workload is sized for (default 20;
//!   the sizes are a pure function of `S`, so the same `S` simulates the
//!   same fleet on every commit however fast it runs);
//! * `--trace 0|1` — `0` prints the end-to-end metrics, `1` runs the traced
//!   pass and prints the per-layer metrics (default 0);
//! * `--repeat N` — reruns the same command in N fresh processes, one at a
//!   time, prints each metric's median and quartiles to stderr and the
//!   medians as the result line.
//!
//! The last line on stdout is one JSON object: `correct`, `attempted`,
//! `failed` and `metrics` (each `{"value", "unit"}`).  Bad flags exit with
//! code 2 and a message.
//!
//! # Workloads
//!
//! Every workload is a batch simulation (no request loop, open or closed),
//! run in its own process.  The only threads are the simulator's own
//! fan-out, one per available core.
//!
//! * `diurnal` — the realistic headline: an elastic fleet (reactive
//!   autoscaler, least-loaded placement) over a mixed-service front end on
//!   mixed hardware generations, slack-aware balancing, one compressed
//!   diurnal day of 144 steps at the fleet defaults (4 windows per step,
//!   1200 requests per window, demand re-sampled every step).  Every leaf
//!   simulates every window in full, so the leaf layers are nearly all of
//!   a step; it also runs whatever the *default* sim core is, so changing
//!   that default shows up here.
//! * `plateau` — a static fleet (interference-aware placement, so
//!   characterization runs at set-up) under one demand sample held for the
//!   whole run, with three small job arrivals per step, on the event core.
//!   Most leaf-windows fast-forward, so the event core's wake and
//!   fast-forward path does the work that `diurnal` bypasses; each leaf
//!   runs three times as many steps, so per-window history retention
//!   dominates its memory.
//! * `diurnal-traced` — `diurnal`'s exact simulation on the event core with
//!   lossless tracing, the health plane and energy metering on, and the
//!   trace and metrics documents rendered inside the timed run.  Any
//!   difference from `diurnal` is observer, event-core bookkeeping or
//!   export cost; its result must be bit-identical to `diurnal`'s.
//!
//! # Metrics
//!
//! End to end (`--trace 0`, probes off): `setup_s` (median fleet
//! construction), `step_cpu_ms_p50` / `step_cpu_ms_p90` (per step; p90 is
//! the highest percentile with at least ten steps beyond it), `run_cpu_s`
//! (first step through the result and any export), `leaf_windows_per_cpu_s`
//! (in-service leaves × windows per step, summed, over `run_cpu_s`),
//! `peak_rss_mb` (the process's peak resident set), and the simulated
//! outcomes `fleet_emu`, `be_core_s` and `tco_per_be_core_s`, which a change
//! meant only for speed must leave bit-identical.
//!
//! Every end-to-end time is the process's CPU time (all threads), not wall
//! time.  On a small shared host the fan-out's threads wait whenever another
//! process holds one of the cores, so a step's wall time flips between "all
//! cores" and "one core" and its median jumps by up to half from run to run;
//! CPU time counts the work the simulator did, which that contention does
//! not change.  Wall time is reported per layer instead (`fleet.step_ms`,
//! and `sim.cores_busy`, CPU over wall across the steps, which shows how
//! well the fan-out used the cores).
//!
//! Per layer (`--trace 1`): the traced pass turns on lossless telemetry,
//! the health plane and metering (read-only shadows, bit-identical on or
//! off) and calls the probes in `probes.rs` between steps.  What each
//! layer metric should move, and where:
//!
//! | layer metrics | should move | on |
//! |---|---|---|
//! | `colo.full_window_us`, `workloads.simulate_window_us`, `sim.tail_us` | `step_cpu_ms_p50`, `run_cpu_s`, `leaf_windows_per_cpu_s` | `diurnal`, `diurnal-traced`; `plateau` only by its full-window share |
//! | `fleet.fast_share`, `fleet.woken_per_step`, `fleet.full_windows`, `fleet.fast_windows`, `fleet.wake.*`, `colo.fast_window_us` | `step_cpu_ms_p50`, `step_cpu_ms_p90`, `run_cpu_s` | `plateau`; no change on `diurnal` (the stepped core never fast-forwards) |
//! | `fleet.leaf_busy_share`, `sim.cores_busy`, `sim.fanout_us` | wall time only (`fleet.step_ms`); `step_cpu_ms_p50` by the fan-out's own cost | `plateau` (few woken leaves spread over contiguous chunks) |
//! | `colo.rss_kb_per_leaf_window` | `peak_rss_mb` | `plateau`, less on `diurnal` |
//! | `telemetry.*` | `run_cpu_s`, `peak_rss_mb` | `diurnal-traced` |
//! | `fleet.route_us`, `fleet.plan_us`, `fleet.place_us`, `autoscale.*`, `energy.meter_us` | `step_cpu_ms_p50` | `diurnal`, below every bound: a control-plane change should show no end-to-end change |
//! | `core.dram_profile_ms`, `colo.characterize_ms` | `setup_s` | `plateau`, `diurnal` |
//! | `hw.evaluate_us`, `core.tick_us` | nothing resolvable (well under 1% of a full window) | — |
//!
//! The remaining per-layer metrics are work counts read from the result
//! (leaf steps and windows, jobs, preemptions, migrations, autoscaler
//! actions, violation server-steps) and `fleet.step_ms`, the traced pass's
//! median step in wall time.
//!
//! # Checks
//!
//! Every step: demand conservation per service, job-ledger balance,
//! strictly increasing time, finite non-negative energy.  At the end of a
//! run with telemetry: no evicted trace events, monotone trace timestamps,
//! and the energy meter's joules equal to the steps' sum.  Finally a 64-bit
//! digest of the result's steps, jobs and events is compared with the one
//! recorded for the seed (see `checks.rs`); `diurnal-traced` is held to
//! `diurnal`'s digests.
//!
//! The fleet model has no hardware reference: it is unvalidated against
//! real machines, so no error figure is reported.  The repository's older
//! `BENCH_fleet.json` artifact and the `fleet_size` bench are left as they
//! are; folding them into this benchmark is separate work.

mod checks;
mod clock;
mod json;
mod probes;
mod stats;
mod workload;

use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

use heracles_fleet::{FleetResult, SimCore, Telemetry};
use heracles_telemetry::TraceValue;

use checks::Checker;
use clock::process_cpu_s;
use json::{Json, Metric};
use probes::Probes;
use stats::{median, percentile, quartiles};
use workload::{ScaleCounts, Size, Workload};

const USAGE: &str = "usage: heracles_fleetbench --workload diurnal|plateau|diurnal-traced \
                     [--seed N] [--seconds S] [--trace 0|1] [--repeat N]";
const DEFAULT_SEED: u64 = 42;
const DEFAULT_SECONDS: u64 = checks::DIGEST_SECONDS;
/// Longest run `--seconds` may ask for.
const MAX_SECONDS: u64 = 600;
/// Most fresh processes `--repeat` may ask for.
const MAX_REPEAT: usize = 100;

/// Set-up is timed over at least this many constructions, and more until
/// this much time has passed (it takes milliseconds, so one timing is
/// mostly noise).
const SETUP_MIN_REPS: usize = 5;
const SETUP_MIN_TIME: Duration = Duration::from_secs(1);
const SETUP_MAX_REPS: usize = 5_000;

/// The parsed command line.
#[derive(Debug, Clone, PartialEq)]
struct Options {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    repeat: usize,
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut workload = None;
    let mut options = Options {
        workload: Workload::Diurnal,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        repeat: 1,
    };
    let mut rest = args.iter();
    while let Some(flag) = rest.next() {
        let mut value = || rest.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(
                    Workload::parse(name).ok_or_else(|| format!("unknown workload '{name}'"))?,
                );
            }
            "--seed" => options.seed = parse_number(flag, value()?, 0, u64::MAX)?,
            "--seconds" => options.seconds = parse_number(flag, value()?, 1, MAX_SECONDS)?,
            "--trace" => options.trace = parse_number(flag, value()?, 0, 1)? == 1,
            "--repeat" => {
                options.repeat = parse_number(flag, value()?, 1, MAX_REPEAT as u64)? as usize
            }
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    options.workload = workload.ok_or("--workload is required")?;
    Ok(options)
}

fn parse_number(flag: &str, text: &str, min: u64, max: u64) -> Result<u64, String> {
    match text.parse::<u64>() {
        Ok(v) if (min..=max).contains(&v) => Ok(v),
        _ => Err(format!("{flag} takes a whole number from {min} to {max} (got '{text}')")),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let options = match parse_args(&args) {
        Ok(options) => options,
        Err(message) => {
            eprintln!("error: {message}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = if options.repeat > 1 { repeat(&options, &args) } else { run_once(&options) };
    match outcome {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::FAILURE
        }
    }
}

/// Runs the workload once and returns its result line.
fn run_once(options: &Options) -> Result<String, String> {
    let size = options.workload.size(options.seconds);
    let report = run(options.workload, size, options.seed, options.seconds, options.trace)?;
    eprintln!(
        "{} seed {} ({} leaves x {} steps, {} threads): digest {:016x}, {} of {} checks failed",
        options.workload.name(),
        options.seed,
        size.servers,
        size.steps,
        threads(),
        report.digest,
        report.failed,
        report.attempted
    );
    for message in &report.messages {
        eprintln!("check failed: {message}");
    }
    Ok(report.line())
}

/// One run's outcome.
#[derive(Debug)]
struct Report {
    attempted: u64,
    failed: u64,
    messages: Vec<String>,
    digest: u64,
    metrics: Vec<Metric>,
}

impl Report {
    fn correct(&self) -> bool {
        self.failed == 0
    }

    fn line(&self) -> String {
        let metrics = self.metrics.iter().map(|m| (m.name, m.value, m.unit));
        json::result_line(self.correct(), self.attempted, self.failed, metrics)
    }
}

/// Worker threads the simulator's fan-out uses (one per available core).
fn threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn ms(started: Instant) -> f64 {
    started.elapsed().as_secs_f64() * 1e3
}

/// The process's peak resident set so far, in kB (Linux's `VmHWM`).
fn peak_rss_kb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status for memory use: {e}"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().strip_suffix("kB")?.trim().parse::<f64>().ok())
        .ok_or_else(|| "/proc/self/status has no VmHWM line".to_string())
}

/// Runs one workload once: set-up (timed over repeated constructions),
/// the timed steps with their checks, and — for a traced run — the probes.
fn run(
    workload: Workload,
    size: Size,
    seed: u64,
    seconds: u64,
    traced: bool,
) -> Result<Report, String> {
    let config = workload.config(size, seed, traced);
    let mut setups = Vec::new();
    let mut fleet = None;
    let setup_started = Instant::now();
    while setups.len() < SETUP_MIN_REPS
        || (setup_started.elapsed() < SETUP_MIN_TIME && setups.len() < SETUP_MAX_REPS)
    {
        drop(fleet.take());
        let cpu = process_cpu_s();
        fleet = Some(workload.build(config));
        setups.push(process_cpu_s() - cpu);
    }
    let mut fleet = fleet.expect("set-up ran at least once");
    let setup_peak_kb = peak_rss_kb()?;
    let mut probes = traced.then(|| Probes::new(fleet.sim(), workload.policy()));

    let mut checker = Checker::default();
    let mut step_ms = Vec::with_capacity(size.steps);
    let mut step_cpu_ms = Vec::with_capacity(size.steps);
    let mut leaf_steps = 0usize;
    let run_cpu = process_cpu_s();
    for index in 0..size.steps {
        if let Some(p) = probes.as_mut() {
            p.before_step(fleet.sim());
        }
        let started = Instant::now();
        let cpu = process_cpu_s();
        let step = fleet.step();
        step_cpu_ms.push((process_cpu_s() - cpu) * 1e3);
        step_ms.push(ms(started));
        leaf_steps += step.in_service_servers;
        checker.after_step(fleet.sim(), &step);
        if let Some(p) = probes.as_mut() {
            p.after_step(index, &step);
        }
    }
    checker.energy(fleet.sim());
    let telemetry = fleet.take_telemetry();
    let export = telemetry.as_ref().map(|t| {
        let started = Instant::now();
        let header = [("workload", workload.name().to_string()), ("seed", seed.to_string())];
        let bytes = t.trace_jsonl(&header).len() + t.metrics_json().len();
        (bytes, ms(started))
    });
    let (result, scale) = fleet.finish();
    let run_cpu_s = process_cpu_s() - run_cpu;
    let peak_kb = peak_rss_kb()?;

    if let Some(t) = telemetry.as_ref() {
        checker.trace(t);
    }
    let digest = checks::digest(&result);
    checker.digest(workload, seed, seconds, digest);

    let windows = config.windows_per_step as f64;
    let leaf_windows = leaf_steps as f64 * windows;
    let mut metrics = if traced {
        let probes = probes.expect("a traced run has probes");
        let observed = Observed {
            probes: &probes,
            telemetry: telemetry.as_ref().expect("a traced run has telemetry"),
            export: export.expect("a traced run exports"),
            result: &result,
            scale,
            step_ms: &step_ms,
            step_cpu_ms: &step_cpu_ms,
            leaf_steps,
            windows,
            event_core: config.sim_core == SimCore::EventDriven,
            rss_growth_kb: peak_kb - setup_peak_kb,
        };
        observed.metrics()
    } else {
        vec![
            Metric::new("setup_s", median(&setups), "s"),
            Metric::new("step_cpu_ms_p50", percentile(&step_cpu_ms, 0.50), "ms"),
            Metric::new("step_cpu_ms_p90", percentile(&step_cpu_ms, 0.90), "ms"),
            Metric::new("run_cpu_s", run_cpu_s, "s"),
            Metric::new("leaf_windows_per_cpu_s", leaf_windows / run_cpu_s, "lw/cpu-s"),
            Metric::new("peak_rss_mb", peak_kb * 1024.0 / 1e6, "MB"),
            Metric::new("fleet_emu", result.mean_fleet_emu(), "fraction"),
            Metric::new("be_core_s", result.be_core_s_served(), "core-s"),
            Metric::new("tco_per_be_core_s", result.tco_per_be_core_s(), "USD/core-s"),
        ]
    };
    for m in &mut metrics {
        let finite = m.value.is_finite();
        checker.check(finite, || format!("metric {} is {}", m.name, m.value));
        if !finite {
            m.value = 0.0;
        }
    }
    Ok(Report {
        attempted: checker.attempted(),
        failed: checker.failed(),
        messages: checker.messages().to_vec(),
        digest,
        metrics,
    })
}

/// What a traced run observed, turned into the per-layer metrics.
struct Observed<'a> {
    probes: &'a Probes,
    telemetry: &'a Telemetry,
    /// Bytes of the rendered trace and metrics documents, and the
    /// milliseconds rendering took.
    export: (usize, f64),
    result: &'a FleetResult,
    scale: ScaleCounts,
    /// Each step's wall and process-CPU milliseconds.
    step_ms: &'a [f64],
    step_cpu_ms: &'a [f64],
    leaf_steps: usize,
    windows: f64,
    event_core: bool,
    rss_growth_kb: f64,
}

/// The wake reasons the fleet attributes, as its `wake` trace events name
/// them, with the metric each is counted under.
const WAKE_REASONS: [(&str, &str); 5] = [
    ("controller-poll", "fleet.wake.controller_poll"),
    ("job-arrival", "fleet.wake.job_arrival"),
    ("job-completion", "fleet.wake.job_completion"),
    ("load-delta", "fleet.wake.load_delta"),
    ("lifecycle", "fleet.wake.lifecycle"),
];

impl Observed<'_> {
    fn metrics(&self) -> Vec<Metric> {
        let r = self.result;
        let steps = r.steps.len().max(1) as f64;
        let leaf_windows = self.leaf_steps as f64 * self.windows;

        // Wakes come from the trace's `wake` events (event core only; the
        // stepped core simulates every leaf-window in full).
        let mut wakes = [0u64; WAKE_REASONS.len()];
        let (mut woken, mut full_windows) = (0u64, 0u64);
        for event in self.telemetry.recorder.iter() {
            if event.scope() != "fleet" || event.kind() != "wake" {
                continue;
            }
            woken += 1;
            if let Some(TraceValue::U64(n)) = event.field("full_windows") {
                full_windows += n;
            }
            if let Some(TraceValue::Str(reasons)) = event.field("reasons") {
                for reason in reasons.split('+') {
                    if let Some(i) = WAKE_REASONS.iter().position(|(name, _)| *name == reason) {
                        wakes[i] += 1;
                    }
                }
            }
        }
        let (full, woken_per_step) = if self.event_core {
            (full_windows as f64, woken as f64 / steps)
        } else {
            (leaf_windows, self.leaf_steps as f64 / steps)
        };
        let fast = leaf_windows - full;
        let nproc = threads() as f64;
        let busy_us = full * self.probes.median("colo.full_window_us")
            + fast * self.probes.median("colo.fast_window_us");
        let step_us: f64 = self.step_ms.iter().sum::<f64>() * 1e3;
        let step_cpu_us: f64 = self.step_cpu_ms.iter().sum::<f64>() * 1e3;

        let placed = r.jobs.iter().filter(|j| j.first_start.is_some()).count() as f64;
        let arrived = r.jobs.len() as f64;
        let (export_bytes, export_ms) = self.export;
        let count = |name, value: f64| Metric::new(name, value, "count");
        let mut metrics = self.probes.metrics();
        metrics.extend([
            Metric::new("fleet.step_ms", median(self.step_ms), "ms"),
            Metric::new("fleet.leaf_busy_share", busy_us / (nproc * step_us), "fraction"),
            Metric::new("sim.cores_busy", step_cpu_us / step_us, "cores"),
            Metric::new("fleet.fast_share", fast / leaf_windows.max(1.0), "fraction"),
            Metric::new("fleet.woken_per_step", woken_per_step, "leaves/step"),
            count("fleet.full_windows", full),
            count("fleet.fast_windows", fast),
        ]);
        metrics.extend(WAKE_REASONS.iter().zip(wakes).map(|(&(_, name), n)| count(name, n as f64)));
        let alerts = self.telemetry.metrics.counter("health.alerts_fired");
        metrics.extend([
            Metric::new(
                "colo.rss_kb_per_leaf_window",
                self.rss_growth_kb / leaf_windows.max(1.0),
                "kB",
            ),
            count("telemetry.events", self.telemetry.recorder.len() as f64),
            count("telemetry.dropped", self.telemetry.recorder.dropped() as f64),
            Metric::new("telemetry.trace_mb", export_bytes as f64 / 1e6, "MB"),
            Metric::new("telemetry.export_ms", export_ms, "ms"),
            count("telemetry.alerts_fired", alerts as f64),
            count("fleet.leaf_steps", self.leaf_steps as f64),
            count("fleet.leaf_windows", leaf_windows),
            count("fleet.violation_server_steps", r.violation_server_steps() as f64),
            count("fleet.jobs_arrived", arrived),
            count("fleet.jobs_placed", placed),
            count("fleet.jobs_unplaced", arrived - placed),
            Metric::new("fleet.place_ratio", placed / arrived.max(1.0), "fraction"),
            count("fleet.jobs_completed", r.jobs_completed() as f64),
            count("fleet.preemptions", r.preemptions() as f64),
            count("fleet.migrations", r.migrations() as f64),
            count("autoscale.buys", self.scale.buys as f64),
            count("autoscale.drains", self.scale.drains as f64),
            count("autoscale.retirements", self.scale.retirements as f64),
            count("autoscale.drain_requeues", self.scale.drain_requeues as f64),
        ]);
        metrics
    }
}

/// Reruns the command in `options.repeat` fresh processes, one after the
/// other, prints each metric's median and quartiles, and returns the
/// result line of the medians.
fn repeat(options: &Options, args: &[String]) -> Result<String, String> {
    let mut child_args = Vec::new();
    let mut rest = args.iter();
    while let Some(arg) = rest.next() {
        if arg == "--repeat" {
            rest.next();
        } else {
            child_args.push(arg.clone());
        }
    }
    let exe = std::env::current_exe()
        .map_err(|e| format!("cannot find this executable to rerun it: {e}"))?;
    let mut runs = Vec::new();
    for i in 0..options.repeat {
        let output = Command::new(&exe)
            .args(&child_args)
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| format!("run {i} did not start: {e}"))?;
        if !output.status.success() {
            return Err(format!("run {i} exited with {}", output.status));
        }
        let stdout = String::from_utf8_lossy(&output.stdout);
        let last = stdout.lines().last().ok_or_else(|| format!("run {i} printed nothing"))?;
        runs.push(json::parse(last).map_err(|e| format!("run {i} printed no result ({e})"))?);
    }
    let summary = summarize(&runs)?;
    eprintln!("{:<34} {:>14} {:>14} {:>14} {:>8}  unit", "metric", "median", "q1", "q3", "iqr/med");
    for row in &summary.rows {
        let spread = if row.median != 0.0 { (row.q3 - row.q1) / row.median.abs() } else { 0.0 };
        eprintln!(
            "{:<34} {:>14.6} {:>14.6} {:>14.6} {:>8.4}  {}",
            row.name, row.median, row.q1, row.q3, spread, row.unit
        );
    }
    Ok(summary.line())
}

/// One metric across repeated runs.
struct SummaryRow {
    name: String,
    unit: String,
    median: f64,
    q1: f64,
    q3: f64,
}

struct Summary {
    correct: bool,
    attempted: u64,
    failed: u64,
    rows: Vec<SummaryRow>,
}

impl Summary {
    fn line(&self) -> String {
        let metrics = self.rows.iter().map(|r| (r.name.as_str(), r.median, r.unit.as_str()));
        json::result_line(self.correct, self.attempted, self.failed, metrics)
    }
}

fn summarize(runs: &[Json]) -> Result<Summary, String> {
    let first = runs.first().ok_or("no runs")?;
    let names = first.get("metrics").and_then(Json::members).ok_or("a result without metrics")?;
    let mut summary = Summary { correct: true, attempted: 0, failed: 0, rows: Vec::new() };
    for run in runs {
        summary.correct &= run.get("correct") == Some(&Json::Bool(true));
        summary.attempted += run.get("attempted").and_then(Json::as_f64).unwrap_or(0.0) as u64;
        summary.failed += run.get("failed").and_then(Json::as_f64).unwrap_or(0.0) as u64;
    }
    for (name, first_metric) in names {
        let values = runs
            .iter()
            .map(|run| {
                run.get("metrics")
                    .and_then(|m| m.get(name))
                    .and_then(|m| m.get("value"))
                    .and_then(Json::as_f64)
                    .ok_or_else(|| format!("a run did not report {name}"))
            })
            .collect::<Result<Vec<f64>, String>>()?;
        let [q1, q2, q3] = quartiles(&values);
        summary.rows.push(SummaryRow {
            name: name.clone(),
            unit: first_metric.get("unit").and_then(Json::as_str).unwrap_or("").to_string(),
            median: q2,
            q1,
            q3,
        });
    }
    Ok(summary)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    /// The names `BENCHMARK.json` lists under `section`.
    fn declared(benchmark: &Json, section: &str) -> Vec<String> {
        benchmark
            .get(section)
            .and_then(Json::as_array)
            .unwrap_or_else(|| panic!("BENCHMARK.json has no {section} list"))
            .iter()
            .map(|m| m.get("name").and_then(Json::as_str).expect("a named metric").to_string())
            .collect()
    }

    /// Every workload at toy size, through the same code path as a real
    /// run: every check passes, and the printed metric names are exactly
    /// the ones `BENCHMARK.json` declares.
    #[test]
    fn every_workload_runs_clean_and_prints_the_declared_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
        let benchmark = json::parse(&text).expect("BENCHMARK.json parses");
        let workloads = declared(&benchmark, "workloads");
        assert_eq!(workloads, Workload::ALL.map(|w| w.name().to_string()));
        for (traced, section) in [(false, "end_to_end"), (true, "per_layer")] {
            let mut expected = declared(&benchmark, section);
            expected.sort();
            for workload in Workload::ALL {
                let report = run(workload, Size::toy(), DEFAULT_SEED, 1, traced).expect("runs");
                assert_eq!(report.failed, 0, "{} failed: {:?}", workload.name(), report.messages);
                assert!(report.attempted > Size::toy().steps as u64);
                let line = json::parse(&report.line()).expect("the result line is JSON");
                let mut printed: Vec<String> = line
                    .get("metrics")
                    .and_then(Json::members)
                    .expect("metrics")
                    .iter()
                    .map(|(name, _)| name.clone())
                    .collect();
                printed.sort();
                assert_eq!(printed, expected, "{} ({section})", workload.name());
            }
        }
    }

    /// Event core and telemetry change no bit of the result.
    #[test]
    fn diurnal_traced_reproduces_diurnal_exactly() {
        let digest = |w| run(w, Size::toy(), 7, 1, false).expect("runs").digest;
        assert_eq!(digest(Workload::Diurnal), digest(Workload::DiurnalTraced));
    }

    #[test]
    fn flags_parse_and_bad_flags_are_errors() {
        let options = parse_args(&strings(&[
            "--workload",
            "plateau",
            "--seed",
            "7",
            "--seconds",
            "3",
            "--trace",
            "1",
        ]))
        .expect("valid flags");
        assert_eq!(
            options,
            Options { workload: Workload::Plateau, seed: 7, seconds: 3, trace: true, repeat: 1 }
        );
        for bad in [
            &["--seed", "1"][..],
            &["--workload", "nope"],
            &["--workload", "diurnal", "--trace", "2"],
            &["--workload", "diurnal", "--seconds", "0"],
            &["--workload", "diurnal", "--seed", "-1"],
            &["--workload", "diurnal", "--seed"],
            &["--workload", "diurnal", "--repeat", "x"],
            &["--workload", "diurnal", "--verbose"],
        ] {
            assert!(parse_args(&strings(bad)).is_err(), "{bad:?} parsed");
        }
    }
}
