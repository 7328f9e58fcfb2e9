//! Bad input is an error, never a panic, at the parsers behind the
//! binaries:
//!
//! * `Args` — the option parser behind every bench binary — on arbitrary
//!   argument lists, for every value type the binaries parse, and its
//!   `finish` check for unread arguments;
//! * `DoctorReport::from_artifacts` followed by `render` on every
//!   char-boundary truncation of a real run's trace and metrics documents,
//!   and on that trace with its field values swapped for extreme or broken
//!   ones.

use std::sync::OnceLock;

use proptest::prelude::*;

use heracles::autoscale::{AutoscaleConfig, AutoscaleKind, ElasticFleet};
use heracles::bench::cli::Args;
use heracles::bench::fleet_doctor::DoctorReport;
use heracles::colo::ColoConfig;
use heracles::fleet::{
    BalancerKind, EnergyConfig, FleetConfig, GenerationMix, PolicyKind, SimCore, TelemetryConfig,
};
use heracles::hw::ServerConfig;
use heracles::workloads::ServiceMix;

/// Argument tokens: the binaries' option names in both spellings, and
/// values that are negative, overflowing, non-finite, malformed or
/// multi-byte.  Every truncation of each is tried too.
const ARG_TOKENS: [&str; 16] = [
    "--servers",
    "--steps=18446744073709551616",
    "--power-cap",
    "--mix=0.4:0.3",
    "--services",
    "--balancer",
    "--sim-core=event",
    "--=",
    "-1",
    "1e999",
    "NaN",
    "1:1",
    "websearch:0.5,memkeyval:0.5",
    "ml_cluster:NaN,:",
    "slack-aware",
    "é=\u{1F600}",
];

/// Parses every option the binaries read, as every type they read it as.
fn parse_everything(mut args: Args) {
    for name in ["--servers", "--steps", "--power-cap", "--mix", "--services"] {
        let _ = args.value(name, 0usize);
        let _ = args.value(name, 0.0f64);
        let _ = args.optional::<String>(name);
        let _ = args.value(name, GenerationMix::homogeneous());
        let _ = args.value(name, ServiceMix::websearch_only());
    }
    let _ = args.value("--balancer", BalancerKind::CapacityWeighted);
    let _ = args.value("--policy", PolicyKind::LeastLoaded);
    let _ = args.value("--sim-core", SimCore::Stepped);
    let _ = args.finish();
}

/// The trace and metrics documents of a small real run with every event
/// family on — an elastic fleet on the event core with the health plane,
/// energy metering and the end-of-run summaries `fleet_scale --trace`
/// writes — built once.
fn real_artifacts() -> &'static (String, String) {
    static ARTIFACTS: OnceLock<(String, String)> = OnceLock::new();
    ARTIFACTS.get_or_init(|| {
        let config = AutoscaleConfig::diurnal(FleetConfig {
            servers: 3,
            steps: 4,
            windows_per_step: 1,
            sim_core: SimCore::EventDriven,
            colo: ColoConfig { requests_per_window: 200, ..ColoConfig::fast_test() },
            telemetry: TelemetryConfig::with_health(),
            energy: EnergyConfig::metered(),
            ..FleetConfig::fast_test()
        });
        let mut fleet = ElasticFleet::new(
            config,
            ServerConfig::default_haswell(),
            PolicyKind::LeastLoaded,
            AutoscaleKind::Reactive,
        );
        for _ in 0..config.fleet.steps {
            fleet.step_once();
        }
        fleet.emit_health_summary();
        fleet.emit_energy_summary();
        let telemetry = fleet.take_telemetry().expect("telemetry was enabled");
        let header = [("policy", "least-loaded".to_string()), ("health", "on".to_string())];
        (telemetry.trace_jsonl(&header).to_string(), telemetry.metrics_json())
    })
}

/// Every char boundary of `doc`, including its end.
fn cuts(doc: &str) -> impl Iterator<Item = usize> + '_ {
    doc.char_indices().map(|(i, _)| i).chain([doc.len()])
}

fn parse_and_render(trace: &str, metrics: &str) {
    if let Ok(report) = DoctorReport::from_artifacts(trace.lines(), Some(metrics)) {
        report.render();
    }
}

#[test]
fn doctor_never_panics_on_a_truncated_real_trace() {
    let (trace, metrics) = real_artifacts();
    let full =
        DoctorReport::from_artifacts(trace.lines(), Some(metrics)).expect("the real run parses");
    assert!(full.render().contains("energy plane"));
    for cut in cuts(trace) {
        parse_and_render(&trace[..cut], metrics);
    }
    for cut in cuts(metrics) {
        parse_and_render(trace, &metrics[..cut]);
    }
}

/// Extreme values of each reading a field can have, and two no writer
/// writes (`1e999`, `NaN`) that the reader rejects.
const F64_VALUES: [&str; 8] = ["0.5", "1", "0", "-0", "1e308", "-1e308", "1e999", "NaN"];
const U64_VALUES: [&str; 3] = ["0", "7", "18446744073709551615"];
const STR_VALUES: [&str; 3] = ["\"\"", "\"\u{1F600}\"", "\"a\\\"b\""];

/// The real trace with the fields after each event's `t`, `scope` and
/// `kind` rewritten by `picks` (cycled), each in a thousand: below
/// `broken` the field is left without a value, below `broken + extreme`
/// it takes an extreme value of its reading, else it keeps its value.
/// `partial` marks the trace lossy, which lifts the wake cross-check.
fn hostile_trace(picks: &[usize], extreme: usize, broken: usize, partial: bool) -> String {
    let mut picks = picks.iter().copied().cycle();
    let mut lines = real_artifacts().0.lines();
    let header = lines.next().expect("a header");
    let mut out =
        if partial { header.replace("\"dropped\":0", "\"dropped\":1") } else { header.into() };
    for line in lines {
        out.push('\n');
        let mut parts = line.trim_end_matches('}').split(',');
        out.push_str(&parts.by_ref().take(3).collect::<Vec<_>>().join(","));
        for part in parts {
            let (key, value) = part.split_once(':').expect("a key:value field");
            let values: &[&str] = match value {
                v if v.starts_with('"') => &STR_VALUES,
                v if v.parse::<u64>().is_ok() => &U64_VALUES,
                _ => &F64_VALUES,
            };
            let value = match picks.next().unwrap_or(usize::MAX) {
                p if p < broken => "",
                p if p < broken + extreme => values[p % values.len()],
                _ => value,
            };
            out.push_str(&format!(",{key}:{value}"));
        }
        out.push('}');
    }
    out.push('\n');
    out
}

proptest! {
    /// `Args::value`, `Args::optional` and `Args::finish` answer `Ok` or
    /// `Err` on any argument list, and on every char-boundary truncation of
    /// each of its tokens.
    #[test]
    fn args_value_never_panics(picks in proptest::collection::vec(0usize..ARG_TOKENS.len(), 0..6)) {
        let argv: Vec<String> = picks.iter().map(|&i| ARG_TOKENS[i].to_string()).collect();
        for (slot, token) in argv.iter().enumerate() {
            for cut in cuts(token) {
                let mut cut_argv = argv.clone();
                cut_argv[slot] = token[..cut].to_string();
                parse_everything(Args::from_vec(cut_argv));
            }
        }
    }

    /// The real trace with extreme or broken field values parses to a
    /// report or an error, and a report always renders.
    #[test]
    fn doctor_never_panics_on_hostile_fields(
        picks in proptest::collection::vec(0usize..1000, 1..500),
        extreme in 0usize..400,
        broken in 0usize..2,
        partial in 0usize..2,
    ) {
        let trace = hostile_trace(&picks, extreme, broken, partial == 1);
        parse_and_render(&trace, &real_artifacts().1);
    }
}
