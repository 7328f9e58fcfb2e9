//! Generated hostile input for `fleet_doctor`: every field the report
//! reads is required, so a trace or metrics document with one field
//! dropped, duplicated or mistyped fails `DoctorReport::from_artifacts`
//! with a message naming the line and the key, never a report that reads
//! the field as zero.
//!
//! The mutants start from one real traced run (an elastic fleet on the
//! event core with the health plane and energy metering, at `fast_test`
//! size) plus one writer-rendered line for each kind no such run carries:
//! `traffic`/`divert`, `alert`/`resolved` and `fleet`/`requeue`.

use std::sync::OnceLock;

use heracles::autoscale::{AutoscaleConfig, AutoscaleKind, ElasticFleet};
use heracles::bench::fleet_doctor::DoctorReport;
use heracles::fleet::{EnergyConfig, FleetConfig, PolicyKind, SimCore, TelemetryConfig};
use heracles::hw::ServerConfig;
use heracles::sim::SimTime;
use heracles::telemetry::{Object, TraceEvent};

/// Every `(scope, kind)` the doctor reads, with the fields it reads beyond
/// the `t`/`scope`/`kind` envelope.
const READS: [(&str, &str, &[&str]); 24] = [
    ("fleet", "dispatch_round", &[]),
    ("fleet", "place", &[]),
    ("fleet", "unplaced", &[]),
    ("fleet", "complete", &[]),
    ("store", "admission", &[]),
    ("core", "top_level", &[]),
    ("fleet", "violation", &["service", "generation", "balancer"]),
    ("traffic", "divert", &["service", "verdict"]),
    ("traffic", "conservation", &["max_imbalance"]),
    ("fleet", "wake", &["reasons"]),
    (
        "fleet",
        "step",
        &[
            "worst_normalized_latency",
            "energy_joules",
            "watts_sandy_bridge",
            "watts_haswell",
            "watts_skylake",
            "step_represented_s",
            "woken",
            "quiescent",
        ],
    ),
    ("health", "attainment", &["service", "attainment", "violating", "leaves"]),
    ("alert", "firing", &["alert", "cause", "fast", "slow"]),
    ("alert", "resolved", &["alert", "for_steps"]),
    ("health", "leaf", &["leaf", "count", "lat_p50", "lat_p99", "wakes_p95"]),
    ("energy", "summary", &["fleet_joules", "fleet_dollars", "conservation_error_j"]),
    ("energy", "top_leaf", &["server", "joules", "dollars"]),
    ("fleet", "migrate", &["job", "from", "to"]),
    ("fleet", "requeue", &["job"]),
    ("store", "server_added", &["server", "generation"]),
    ("store", "drain_started", &["server"]),
    ("store", "retired", &["server"]),
    ("autoscale", "buy", &["generation", "server"]),
    ("autoscale", "drain", &["server"]),
];

/// The run's trace, with the three hand-written lines appended, and its
/// metrics document, built once.
fn artifacts() -> &'static (String, String) {
    static ARTIFACTS: OnceLock<(String, String)> = OnceLock::new();
    ARTIFACTS.get_or_init(|| {
        let config = AutoscaleConfig::diurnal(FleetConfig {
            sim_core: SimCore::EventDriven,
            telemetry: TelemetryConfig::with_health(),
            energy: EnergyConfig::metered(),
            ..FleetConfig::fast_test()
        });
        let mut fleet = ElasticFleet::new(
            config,
            ServerConfig::default_haswell(),
            PolicyKind::LeastLoaded,
            AutoscaleKind::EnergyAware,
        );
        for _ in 0..config.fleet.steps {
            fleet.step_once();
        }
        fleet.emit_health_summary();
        fleet.emit_energy_summary();
        let telemetry = fleet.take_telemetry().expect("telemetry was enabled");
        let trace = telemetry.trace_jsonl(&[("policy", "least-loaded".to_string())]).to_string();

        let last = trace.lines().last().expect("an event line");
        let end = SimTime::from_secs_f64(Object::parse(last).unwrap().f64("t").unwrap());
        let extra = [
            TraceEvent::new(end, "traffic", "divert")
                .u64("server", 0)
                .str("service", "websearch")
                .str("verdict", "shed")
                .f64("base_qps", 100.0)
                .f64("routed_qps", 80.0)
                .f64("slack", 0.05),
            TraceEvent::new(end, "alert", "resolved")
                .str("alert", "slo-burn")
                .str("cause", "lc windows violating slo faster than the error budget allows")
                .f64("fast", 0.0)
                .f64("resolve_fast", 0.5)
                .u64("for_steps", 3),
            TraceEvent::new(end, "fleet", "requeue").u64("job", 7).u64("from", 2),
        ];
        let events = telemetry.recorder.len() + extra.len();
        let mut trace = trace.replacen(
            &format!("\"events\":{},", telemetry.recorder.len()),
            &format!("\"events\":{events},"),
            1,
        );
        for event in extra {
            trace.push_str(&event.jsonl());
            trace.push('\n');
        }
        (trace, telemetry.metrics_json())
    })
}

/// A line's fields as `"key":value` texts, without the braces.  Every
/// value of the doctor's kinds is a number or a comma-free string.
fn fields(line: &str) -> Vec<&str> {
    let parts: Vec<&str> = line[1..line.len() - 1].split(',').collect();
    assert_eq!(format!("{{{}}}", parts.join(",")), line);
    parts
}

fn key_of(field: &str) -> &str {
    field.split_once(':').expect("a key:value field").0.trim_matches('"')
}

/// The document with line `n` (1-based) replaced.
fn with_line(doc: &str, n: usize, line: &str) -> String {
    let mut lines: Vec<&str> = doc.lines().collect();
    lines[n - 1] = line;
    lines.join("\n") + "\n"
}

/// Asserts `result` failed naming line `n` and `key`.
fn assert_names(result: Result<DoctorReport, String>, n: usize, key: &str, what: &str) {
    match result {
        Ok(_) => panic!("{what}: accepted"),
        Err(e) => assert!(
            e.contains(&format!("line {n}:")) && e.contains(&format!("{key:?}")),
            "{what}: the error does not name line {n} and {key:?}: {e}"
        ),
    }
}

#[test]
fn the_real_trace_carries_every_kind_the_doctor_reads_and_parses() {
    let (trace, metrics) = artifacts();
    let report = DoctorReport::from_artifacts(trace.lines(), Some(metrics)).expect("it parses");
    assert!(report.render().contains("requeue job 7"));
    for (scope, kind, _) in READS {
        let envelope = format!("\"scope\":\"{scope}\",\"kind\":\"{kind}\"");
        assert!(trace.contains(&envelope), "the trace has no {scope}/{kind} line");
    }
}

/// For each kind the doctor reads: its first line (for `fleet`/`step`,
/// the first that woke leaves) with each read field dropped, with one key
/// duplicated, and with one value mistyped.
#[test]
fn every_trace_mutant_fails_naming_its_line_and_key() {
    let (trace, metrics) = artifacts();
    let mut mutants = 0;
    for (scope, kind, reads) in READS {
        let envelope = format!("\"scope\":\"{scope}\",\"kind\":\"{kind}\"");
        let (idx, line) = trace
            .lines()
            .enumerate()
            .find(|(_, l)| {
                l.contains(&envelope)
                    && (kind != "step" || Object::parse(l).unwrap().u64("woken").unwrap() > 0)
            })
            .expect("a line of the kind");
        let n = idx + 1;
        let parts = fields(line);
        let read: Vec<&str> = ["t", "scope", "kind"].iter().chain(reads).copied().collect();
        let mut check = |mutant: Vec<String>, key: &str, what: &str| {
            let doc = with_line(trace, n, &format!("{{{}}}", mutant.join(",")));
            let what = format!("{scope}/{kind} with {what} {key:?}");
            assert_names(DoctorReport::from_artifacts(doc.lines(), Some(metrics)), n, key, &what);
            mutants += 1;
        };
        for key in &read {
            let dropped = parts.iter().filter(|f| key_of(f) != *key).map(|f| f.to_string());
            check(dropped.collect(), key, "dropped");
        }
        let target = *reads.first().unwrap_or(&"t");
        let at = parts.iter().position(|f| key_of(f) == target).expect("the field is written");
        let mut duplicated: Vec<String> = parts.iter().map(|f| f.to_string()).collect();
        duplicated.insert(at + 1, parts[at].to_string());
        check(duplicated, target, "duplicated");
        let value = parts[at].split_once(':').unwrap().1;
        let wrong = if value.starts_with('"') { "7" } else { "\"7\"" };
        let mut mistyped: Vec<String> = parts.iter().map(|f| f.to_string()).collect();
        mistyped[at] = format!("\"{target}\":{wrong}");
        check(mistyped, target, "mistyped");
    }
    assert!(mutants > 100, "only {mutants} mutants");
}

#[test]
fn every_metrics_mutant_fails_naming_its_line_and_key() {
    let (trace, metrics) = artifacts();
    let (idx, row) = metrics
        .lines()
        .enumerate()
        .find(|(_, l)| l.trim_start().starts_with("\"fleet.normalized_latency\":"))
        .expect("the per-leaf row");
    let p99 = row.find(", \"p99\":").expect("a p99 column");
    let close = p99 + row[p99..].find('}').expect("the row's closing brace");
    let without = format!("{}{}", &row[..p99], &row[close..]);
    let result =
        DoctorReport::from_artifacts(trace.lines(), Some(&with_line(metrics, idx + 1, &without)));
    assert_names(result, idx + 1, "p99", "the per-leaf row without p99");

    let gauges = metrics.lines().position(|l| l.starts_with("  \"gauges\":")).expect("gauges");
    let mut lines: Vec<&str> = metrics.lines().collect();
    lines.insert(gauges, "  \"counters\": {},");
    let doubled = lines.join("\n") + "\n";
    let result = DoctorReport::from_artifacts(trace.lines(), Some(&doubled));
    assert_names(result, gauges + 1, "counters", "a second counters section");
}
