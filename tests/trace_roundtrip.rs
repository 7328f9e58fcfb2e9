//! Round-trip properties: any trace the writer can render, the report-side
//! scanner can read back, and the flight recorder's ring keeps exactly
//! the bytes its events render to.
//!
//! Arbitrary `TraceEvent`s are rendered through the flight recorder's
//! JSONL sink and recovered with the telemetry crate's field scanners, and
//! each field read back is compared with what its builder call was given.
//! Scope, kind, string, integer and boolean fields round-trip exactly
//! (strings through every escape the writer emits); timestamps round-trip
//! exactly at the sink's microsecond precision; float fields round-trip
//! to the sink's six rendered decimals.  Small rings evict many times per
//! case, and their retained events read back through `TraceLine` by its
//! documented rule.  Rings spanning several compressed chunks are checked
//! against an uncompressed reference in the telemetry crate's own tests.
//! The field readers never panic, whatever text they are handed.

use proptest::prelude::*;

use heracles::sim::SimTime;
use heracles::telemetry::{
    field_f64, field_raw, field_str, field_u64, FlightRecorder, TraceEvent, TraceLine, TraceValue,
    TRACE_SCHEMA,
};

/// Field keys by slot — distinct, and distinct from the envelope keys
/// (`t`, `scope`, `kind`), so every field is recoverable by name.
const KEYS: [&str; 6] = ["ka", "kb", "kc", "kd", "ke", "kf"];
const SCOPES: [&str; 4] = ["fleet", "core", "alert", "health"];
const KINDS: [&str; 4] = ["step", "firing", "summary", "be_state"];

/// Characters string fields draw from — every escape class the writer
/// handles (quotes, backslashes, whitespace escapes, raw control
/// characters, multi-byte unicode) plus JSON-structural characters that
/// must NOT confuse the scanner when they appear unescaped inside a
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

/// Events at any nanosecond: the ring keeps each line's exact time beside
/// it, so nothing is lost to the rendering's microsecond precision.
fn nano_event_strategy() -> impl Strategy<Value = Built> {
    (event_strategy_of(6), 0u64..1_000).prop_map(|((event, fields), nanos)| {
        (event.shifted(heracles::sim::SimDuration::from_nanos(nanos)), fields)
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

/// Calls every field reader on `doc` for every probe key; the property
/// is that none of them panics.
fn read_everything(doc: &str) {
    let line = TraceLine::new(SimTime::ZERO, doc);
    let _ = (line.scope(), line.kind());
    for key in PROBE_KEYS {
        let _ = field_raw(doc, key);
        let _ = field_str(doc, key);
        let _ = field_f64(doc, key);
        let _ = field_u64(doc, key);
        let _ = line.field(key);
    }
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
        let header = lines.next().expect("header line");
        prop_assert_eq!(field_u64(header, "events"), Some(events.len() as u64));
        prop_assert_eq!(field_str(header, "seed").as_deref(), Some("7"));

        for ((event, fields), line) in events.iter().zip(lines) {
            let t = field_f64(line, "t").expect("t field");
            prop_assert_eq!(SimTime::from_secs_f64(t), event.time(), "time drifted: {}", line);
            prop_assert_eq!(field_str(line, "scope").as_deref(), Some(event.scope()));
            prop_assert_eq!(field_str(line, "kind").as_deref(), Some(event.kind()));
            for (key, value) in fields {
                match value {
                    TraceValue::U64(v) => {
                        prop_assert_eq!(field_u64(line, key), Some(*v), "u64 {}: {}", key, line);
                    }
                    TraceValue::I64(v) => {
                        let raw = field_raw(line, key).expect("i64 field");
                        prop_assert_eq!(raw.parse::<i64>().ok(), Some(*v), "i64 {}: {}", key, line);
                    }
                    TraceValue::F64(v) => {
                        let parsed = field_f64(line, key).expect("f64 field");
                        // Six rendered decimals: |decimal rounding| <= 5e-7
                        // plus re-parse noise.
                        prop_assert!(
                            (parsed - v).abs() <= 6e-7,
                            "f64 {key}: parsed {parsed} vs written {v} in {line}"
                        );
                    }
                    TraceValue::Str(v) => {
                        prop_assert_eq!(
                            field_str(line, key).as_deref(),
                            Some(v.as_str()),
                            "str {} failed to round-trip: {}", key, line
                        );
                    }
                    TraceValue::Bool(v) => {
                        let expect = if *v { "true" } else { "false" };
                        prop_assert_eq!(field_raw(line, key), Some(expect), "bool {}: {}", key, line);
                    }
                }
            }
        }
    }

    #[test]
    fn ring_keeps_exactly_the_last_capacity_lines(
        capacity in 1usize..17,
        events in proptest::collection::vec(nano_event_strategy(), 0..120),
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
    fn field_readers_never_panic_on_truncated_lines(built in nano_event_strategy()) {
        let line = built.0.jsonl();
        for (cut, _) in line.char_indices().chain([(line.len(), ' ')]) {
            read_everything(&line[..cut]);
        }
    }
}
