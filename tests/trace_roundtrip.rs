//! Round-trip property: any trace the writer can render, the report-side
//! scanner can read back.
//!
//! Arbitrary `TraceEvent`s are rendered through the flight recorder's
//! JSONL sink and recovered with the telemetry crate's field scanners.
//! Scope, kind, string, integer and boolean fields round-trip exactly
//! (strings through every escape the writer emits); timestamps round-trip
//! exactly at the sink's microsecond precision; float fields round-trip
//! to the sink's six rendered decimals.

use proptest::prelude::*;

use heracles::sim::SimTime;
use heracles::telemetry::{
    field_f64, field_raw, field_str, field_u64, FlightRecorder, TraceEvent, TraceValue,
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

fn value_strategy() -> impl Strategy<Value = TraceValue> {
    (
        0usize..5,
        0u64..u64::MAX,
        -1e6f64..1e6,
        proptest::collection::vec(0usize..CHAR_POOL.len(), 0..12),
    )
        .prop_map(|(variant, bits, float, chars)| match variant {
            0 => TraceValue::U64(bits),
            1 => TraceValue::I64(bits as i64),
            2 => TraceValue::F64(float),
            3 => TraceValue::Str(chars.into_iter().map(|i| CHAR_POOL[i]).collect()),
            _ => TraceValue::Bool(bits & 1 == 0),
        })
}

fn event_strategy() -> impl Strategy<Value = TraceEvent> {
    (
        // Whole microseconds: the sink renders seconds to six decimals, so
        // sub-microsecond timestamps cannot survive any JSONL round trip.
        0u64..1_000_000_000_000,
        0usize..SCOPES.len() * KINDS.len(),
        proptest::collection::vec(value_strategy(), 0..KEYS.len() + 1),
    )
        .prop_map(|(micros, envelope, values)| {
            let mut event = TraceEvent::new(
                SimTime::from_nanos(micros * 1_000),
                SCOPES[envelope % SCOPES.len()],
                KINDS[envelope / SCOPES.len()],
            );
            for (slot, value) in values.into_iter().enumerate() {
                let key = KEYS[slot];
                event = match value {
                    TraceValue::U64(v) => event.u64(key, v),
                    TraceValue::I64(v) => event.i64(key, v),
                    TraceValue::F64(v) => event.f64(key, v),
                    TraceValue::Str(v) => event.str(key, &v),
                    TraceValue::Bool(v) => event.bool(key, v),
                };
            }
            event
        })
}

proptest! {
    #[test]
    fn any_written_trace_parses_back(
        events in proptest::collection::vec(event_strategy(), 1..16),
    ) {
        let mut recorder = FlightRecorder::new(64);
        recorder.extend(events.iter().cloned());
        let doc = recorder.to_jsonl(&[("seed", "7".to_string())]);

        let mut lines = doc.lines();
        let header = lines.next().expect("header line");
        prop_assert_eq!(field_u64(header, "events"), Some(events.len() as u64));
        prop_assert_eq!(field_str(header, "seed").as_deref(), Some("7"));

        for (event, line) in events.iter().zip(lines) {
            let t = field_f64(line, "t").expect("t field");
            prop_assert_eq!(SimTime::from_secs_f64(t), event.time(), "time drifted: {}", line);
            prop_assert_eq!(field_str(line, "scope").as_deref(), Some(event.scope()));
            prop_assert_eq!(field_str(line, "kind").as_deref(), Some(event.kind()));
            for (key, value) in event.fields() {
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
}
