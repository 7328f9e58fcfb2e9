//! Round-trip properties: any trace the writer can render, the telemetry
//! crate's one reader parses back, and the flight recorder's ring keeps
//! exactly the bytes its events render to.
//!
//! Arbitrary `TraceEvent`s are rendered through the flight recorder's
//! JSONL sink and parsed back with `Object::parse`, and each field's typed
//! read is compared with what its builder call was given.
//! Scope, kind, string, integer and boolean fields round-trip exactly
//! (strings through every escape the writer emits); timestamps round-trip
//! exactly at the sink's microsecond precision; float fields round-trip
//! to the sink's six rendered decimals.  Small rings evict many times per
//! case, and their retained events read back through `TraceLine` by its
//! documented rule.  Rings spanning several compressed chunks are checked
//! against an uncompressed reference in the telemetry crate's own tests.
//! The reader never panics, whatever text it is handed: a truncated line
//! is an error.  Every line and the metrics document of a real traced run
//! parse.

use proptest::prelude::*;

use heracles::colo::ColoConfig;
use heracles::fleet::{EnergyConfig, FleetConfig, FleetSim, PolicyKind, SimCore, TelemetryConfig};
use heracles::hw::ServerConfig;
use heracles::sim::SimTime;
use heracles::telemetry::{
    validate_metrics_json, FlightRecorder, Object, TraceEvent, TraceLine, TraceValue, TRACE_SCHEMA,
};

/// Field keys by slot — distinct, and distinct from the envelope keys
/// (`t`, `scope`, `kind`), so every field is recoverable by name.
const KEYS: [&str; 6] = ["ka", "kb", "kc", "kd", "ke", "kf"];
const SCOPES: [&str; 4] = ["fleet", "core", "alert", "health"];
const KINDS: [&str; 4] = ["step", "firing", "summary", "be_state"];

/// Characters string fields draw from — every escape class the writer
/// handles (quotes, backslashes, whitespace escapes, raw control
/// characters, multi-byte unicode) plus JSON-structural characters that
/// must NOT confuse the reader when they appear raw inside a
/// value.
const CHAR_POOL: [char; 19] = [
    'a', 'Z', '0', ' ', '"', '\\', '\n', '\r', '\t', '\u{1}', '\u{1f}', 'é', 'λ', '𝄞', '/', '{',
    '}', ':', ',',
];

/// Values of the first `variants` kinds: integers, finite floats, strings
/// and booleans, then non-finite floats (which render as `null`).
fn value_strategy_of(variants: usize) -> impl Strategy<Value = TraceValue> {
    (
        0..variants,
        0u64..u64::MAX,
        -1e6f64..1e6,
        proptest::collection::vec(0usize..CHAR_POOL.len(), 0..12),
    )
        .prop_map(|(variant, bits, float, chars)| match variant {
            0 => TraceValue::U64(bits),
            1 => TraceValue::I64(bits as i64),
            2 => TraceValue::F64(float),
            3 => TraceValue::Str(chars.into_iter().map(|i| CHAR_POOL[i]).collect()),
            4 => TraceValue::Bool(bits & 1 == 0),
            _ => TraceValue::F64([f64::NAN, f64::INFINITY, f64::NEG_INFINITY][bits as usize % 3]),
        })
}

/// An event and the fields its builder was given, in emission order.
type Built = (TraceEvent, Vec<(&'static str, TraceValue)>);

fn event_strategy() -> impl Strategy<Value = Built> {
    event_strategy_of(5)
}

fn event_strategy_of(variants: usize) -> impl Strategy<Value = Built> {
    (
        // Whole microseconds: the sink renders seconds to six decimals, so
        // sub-microsecond timestamps cannot survive any JSONL round trip.
        0u64..1_000_000_000_000,
        0usize..SCOPES.len() * KINDS.len(),
        proptest::collection::vec(value_strategy_of(variants), 0..KEYS.len() + 1),
    )
        .prop_map(|(micros, envelope, values)| {
            let mut event = TraceEvent::new(
                SimTime::from_nanos(micros * 1_000),
                SCOPES[envelope % SCOPES.len()],
                KINDS[envelope / SCOPES.len()],
            );
            let fields: Vec<_> = KEYS.into_iter().zip(values).collect();
            for (key, value) in &fields {
                event = match *value {
                    TraceValue::U64(v) => event.u64(key, v),
                    TraceValue::I64(v) => event.i64(key, v),
                    TraceValue::F64(v) => event.f64(key, v),
                    TraceValue::Str(ref v) => event.str(key, v),
                    TraceValue::Bool(v) => event.bool(key, v),
                };
            }
            (event, fields)
        })
}

/// `TraceLine::field`'s documented readback of a written value.
fn read_back(value: &TraceValue) -> TraceValue {
    match value {
        TraceValue::I64(v) if *v >= 0 => TraceValue::U64(*v as u64),
        TraceValue::F64(v) if v.is_finite() => TraceValue::F64(format!("{v:.6}").parse().unwrap()),
        TraceValue::F64(_) => TraceValue::F64(f64::NAN),
        other => other.clone(),
    }
}

/// Equality that counts NaN equal to itself.
fn same(a: &TraceValue, b: &TraceValue) -> bool {
    match (a, b) {
        (TraceValue::F64(x), TraceValue::F64(y)) => x == y || (x.is_nan() && y.is_nan()),
        _ => a == b,
    }
}

/// Characters arbitrary reader input draws from: JSON structure, escape
/// starts, number and literal characters, and multi-byte unicode.
const NOISE_POOL: [char; 24] = [
    '"', '\\', ':', ',', '{', '}', ' ', '\n', 'u', '0', '9', 'f', '-', '.', 'e', 't', 'k', 'a',
    'n', 'l', 'é', '𝄞', '\u{1}', '+',
];

/// Keys the readers are asked for on arbitrary input.
const PROBE_KEYS: [&str; 7] = ["t", "scope", "kind", "ka", "kb", "a", ""];

/// Parses `doc` and makes every typed read of every probe key, and reads
/// it as a `TraceLine`; the property is that none of them panics.  Returns
/// whether it parsed.
fn read_everything(doc: &str) -> bool {
    let line = TraceLine::new(doc);
    if let Ok(line) = &line {
        let _ = (line.time(), line.scope(), line.kind());
    }
    let parsed = Object::parse(doc);
    for key in PROBE_KEYS {
        if let Ok(line) = &line {
            let _ = line.field(key);
        }
        if let Ok(object) = &parsed {
            let _ = (object.has(key), object.u64(key), object.f64(key));
            let _ = (object.str(key), object.obj(key));
        }
    }
    parsed.is_ok()
}

proptest! {
    #[test]
    fn any_written_trace_parses_back(
        events in proptest::collection::vec(event_strategy(), 1..16),
    ) {
        let mut recorder = FlightRecorder::new(64);
        recorder.extend(events.iter().map(|(event, _)| event.clone()));
        let doc = recorder.document(&[("seed", "7".to_string())]).to_string();

        let mut lines = doc.lines();
        let header = Object::parse(lines.next().expect("header line")).expect("header parses");
        prop_assert_eq!(header.u64("events"), Ok(events.len() as u64));
        prop_assert_eq!(header.str("seed"), Ok("7"));

        for ((event, fields), line) in events.iter().zip(lines) {
            let parsed = Object::parse(line).expect("a written line parses");
            let t = parsed.f64("t").expect("t field");
            prop_assert_eq!(SimTime::from_secs_f64(t), event.time(), "time drifted: {}", line);
            prop_assert_eq!(parsed.str("scope"), Ok(event.scope()));
            prop_assert_eq!(parsed.str("kind"), Ok(event.kind()));
            for (key, value) in fields {
                match value {
                    TraceValue::U64(v) => {
                        prop_assert_eq!(parsed.u64(key), Ok(*v), "u64 {}: {}", key, line);
                    }
                    TraceValue::I64(_) | TraceValue::Bool(_) => {
                        let read = TraceLine::new(line).expect("a written line").field(key);
                        prop_assert_eq!(read, Some(read_back(value)), "{}: {}", key, line);
                    }
                    TraceValue::F64(v) => {
                        let read = parsed.f64(key).expect("f64 field");
                        // Six rendered decimals: |decimal rounding| <= 5e-7
                        // plus re-parse noise.
                        prop_assert!(
                            (read - v).abs() <= 6e-7,
                            "f64 {key}: parsed {read} vs written {v} in {line}"
                        );
                    }
                    TraceValue::Str(v) => {
                        prop_assert_eq!(
                            parsed.str(key),
                            Ok(v.as_str()),
                            "str {} failed to round-trip: {}", key, line
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn ring_keeps_exactly_the_last_capacity_lines(
        capacity in 1usize..17,
        events in proptest::collection::vec(event_strategy_of(6), 0..120),
    ) {
        let mut recorder = FlightRecorder::new(capacity);
        recorder.extend(events.iter().map(|(event, _)| event.clone()));
        let kept = &events[events.len().saturating_sub(capacity)..];
        let dropped = events.len() - kept.len();
        prop_assert_eq!(recorder.len(), kept.len());
        prop_assert_eq!(recorder.dropped(), dropped as u64);

        let mut expected = format!(
            "{{\"schema\":\"{TRACE_SCHEMA}\",\"events\":{},\"dropped\":{dropped},\"seed\":\"7\"}}\n",
            kept.len()
        );
        for (event, _) in kept {
            expected.push_str(&event.jsonl());
            expected.push('\n');
        }
        prop_assert_eq!(recorder.document(&[("seed", "7".to_string())]).to_string(), expected);

        prop_assert_eq!(recorder.iter().count(), kept.len());
        for (line, (event, fields)) in recorder.iter().zip(kept) {
            prop_assert_eq!(line.time(), event.time());
            prop_assert_eq!(line.scope(), event.scope());
            prop_assert_eq!(line.kind(), event.kind());
            for (key, value) in fields {
                let read = line.field(key).expect("a written field reads back");
                prop_assert!(
                    same(&read, &read_back(value)),
                    "{key}: wrote {value:?}, read {read:?} from {}", event.jsonl()
                );
            }
            prop_assert_eq!(line.field("missing"), None);
        }
    }

    #[test]
    fn field_readers_never_panic_on_arbitrary_text(
        chars in proptest::collection::vec(0usize..NOISE_POOL.len(), 0..48),
    ) {
        let doc: String = chars.into_iter().map(|i| NOISE_POOL[i]).collect();
        read_everything(&doc);
        // The same noise as the value of a real key.
        read_everything(&format!("{{\"ka\":{doc}"));
        read_everything(&format!("{{\"ka\":\"{doc}"));
    }

    #[test]
    fn field_readers_never_panic_on_truncated_lines(built in event_strategy_of(6)) {
        let line = built.0.jsonl();
        for (cut, _) in line.char_indices() {
            prop_assert!(!read_everything(&line[..cut]), "a truncated line parsed: {}", &line[..cut]);
        }
        prop_assert!(read_everything(&line), "the whole line failed to parse: {}", line);
    }
}

/// Every line of a real traced run (event core, health plane and energy
/// metering on, with the end-of-run summaries) and its metrics document
/// parse.
#[test]
fn every_artifact_of_a_real_traced_run_parses() {
    let config = FleetConfig {
        servers: 4,
        steps: 12,
        sim_core: SimCore::EventDriven,
        colo: ColoConfig { requests_per_window: 400, ..ColoConfig::fast_test() },
        telemetry: TelemetryConfig::with_health(),
        energy: EnergyConfig::metered(),
        ..FleetConfig::fast_test()
    };
    let mut sim = FleetSim::new(config, ServerConfig::default_haswell(), PolicyKind::LeastLoaded);
    for _ in 0..config.steps {
        sim.step_once();
    }
    sim.emit_health_summary();
    sim.emit_energy_summary();
    let telemetry = sim.take_telemetry().expect("telemetry on");
    let trace = telemetry.trace_jsonl(&[("seed", "7".to_string())]).to_string();
    for (n, line) in trace.lines().enumerate() {
        if let Err(e) = Object::parse(line) {
            panic!("line {}: {}: {line}", n + 1, String::from(e));
        }
    }
    assert!(trace.lines().count() > 100, "too small a run to cover the writers");
    let metrics = telemetry.metrics_json();
    let parsed = validate_metrics_json(&metrics).expect("the metrics document parses");
    assert!(parsed.obj("histograms").expect("histograms").has("fleet.normalized_latency"));
}
