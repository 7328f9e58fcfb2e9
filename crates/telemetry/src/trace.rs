//! Structured trace events and their JSON rendering.

use heracles_sim::SimTime;
use std::fmt::Write as _;

/// One typed field value on a [`TraceEvent`].
///
/// Floats are rendered with a fixed six decimals everywhere so the same run
/// always serializes to the same bytes; non-finite floats (which no emitter
/// should produce) render as JSON `null` rather than corrupting the
/// document.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceValue {
    /// An unsigned integer (ids, counts).
    U64(u64),
    /// A signed integer (deltas).
    I64(i64),
    /// A float, serialized with six decimals.
    F64(f64),
    /// A string (names, labels), JSON-escaped on output.
    Str(String),
    /// A boolean.
    Bool(bool),
}

impl TraceValue {
    /// Appends the value to `out` as a JSON literal.
    pub(crate) fn write_json(&self, out: &mut String) {
        match self {
            TraceValue::U64(v) => {
                let _ = write!(out, "{v}");
            }
            TraceValue::I64(v) => {
                let _ = write!(out, "{v}");
            }
            TraceValue::F64(v) if v.is_finite() => {
                let _ = write!(out, "{v:.6}");
            }
            TraceValue::F64(_) => out.push_str("null"),
            TraceValue::Str(s) => {
                out.push('"');
                write_escaped(out, s);
                out.push('"');
            }
            TraceValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        }
    }
}

impl From<&str> for TraceValue {
    fn from(s: &str) -> Self {
        TraceValue::Str(s.to_string())
    }
}

/// Appends `s` to `out` escaped for the inside of a JSON string literal:
/// quote, backslash and control characters only (the emitters produce
/// ASCII).  Every writer in this crate escapes through here.
pub(crate) fn write_escaped(out: &mut String, s: &str) {
    // Every byte that needs an escape is ASCII, so the clean runs between
    // them are whole UTF-8 sequences and are copied as they are.
    let mut clean = 0;
    for (i, b) in s.bytes().enumerate() {
        if !matches!(b, b'"' | b'\\' | 0..=0x1f) {
            continue;
        }
        out.push_str(&s[clean..i]);
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            _ => {
                let _ = write!(out, "\\u{b:04x}");
            }
        }
        clean = i + 1;
    }
    out.push_str(&s[clean..]);
}

/// One decision record: where and when (in *simulated* time) a subsystem
/// chose something, plus the typed fields that explain the choice.
///
/// Each field is rendered as it is appended, so an event holds its line's
/// field text, not the values; read fields back with
/// [`TraceLine`](crate::TraceLine).
///
/// Events deliberately cannot carry wall-clock readings: the only timestamp
/// is [`SimTime`], so a trace is a pure function of the seed.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    time: SimTime,
    scope: &'static str,
    kind: &'static str,
    /// The fields in emission order, each rendered as `,"key":value`.
    fields: String,
}

impl TraceEvent {
    /// Starts an event at `time` from subsystem `scope` with decision `kind`.
    pub fn new(time: SimTime, scope: &'static str, kind: &'static str) -> Self {
        TraceEvent { time, scope, kind, fields: String::new() }
    }

    /// Renders `,"key":` and hands back the text for the value to follow.
    fn key(&mut self, key: &str) -> &mut String {
        self.fields.push_str(",\"");
        write_escaped(&mut self.fields, key);
        self.fields.push_str("\":");
        &mut self.fields
    }

    /// Appends an unsigned-integer field.
    pub fn u64(mut self, key: &'static str, value: u64) -> Self {
        TraceValue::U64(value).write_json(self.key(key));
        self
    }

    /// Appends a signed-integer field.
    pub fn i64(mut self, key: &'static str, value: i64) -> Self {
        TraceValue::I64(value).write_json(self.key(key));
        self
    }

    /// Appends a float field.
    pub fn f64(mut self, key: &'static str, value: f64) -> Self {
        TraceValue::F64(value).write_json(self.key(key));
        self
    }

    /// Appends a string field.
    pub fn str(mut self, key: &'static str, value: &str) -> Self {
        let out = self.key(key);
        out.push('"');
        write_escaped(out, value);
        out.push('"');
        self
    }

    /// Appends a boolean field.
    pub fn bool(mut self, key: &'static str, value: bool) -> Self {
        TraceValue::Bool(value).write_json(self.key(key));
        self
    }

    /// The simulated time of the decision.
    pub fn time(&self) -> SimTime {
        self.time
    }

    /// The emitting subsystem (`"core"`, `"traffic"`, `"placement"`, ...).
    pub fn scope(&self) -> &'static str {
        self.scope
    }

    /// The decision kind within the scope.
    pub fn kind(&self) -> &'static str {
        self.kind
    }

    /// Renders the event as one JSON object (no trailing newline): the fixed
    /// `t`/`scope`/`kind` prefix followed by the fields in emission order.
    pub fn jsonl(&self) -> String {
        let mut out = String::with_capacity(64 + self.fields.len());
        self.write_jsonl(&mut out);
        out
    }

    /// Appends [`jsonl`](Self::jsonl)'s rendering to `out`: the one path
    /// both a standalone line and the flight recorder's lines are written
    /// through, allocating nothing beyond `out`'s growth.
    pub(crate) fn write_jsonl(&self, out: &mut String) {
        let _ = write!(out, "{{\"t\":{:.6},\"scope\":\"", self.time.as_secs_f64());
        write_escaped(out, self.scope);
        out.push_str("\",\"kind\":\"");
        write_escaped(out, self.kind);
        out.push('"');
        out.push_str(&self.fields);
        out.push('}');
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn event() -> TraceEvent {
        TraceEvent::new(SimTime::from_secs(15), "core", "be_state")
            .str("from", "disabled")
            .str("to", "enabled")
            .f64("slack", 0.4)
            .u64("server", 3)
            .bool("growth", true)
    }

    #[test]
    fn jsonl_has_fixed_prefix_and_emission_order() {
        assert_eq!(
            event().jsonl(),
            "{\"t\":15.000000,\"scope\":\"core\",\"kind\":\"be_state\",\
             \"from\":\"disabled\",\"to\":\"enabled\",\"slack\":0.400000,\
             \"server\":3,\"growth\":true}"
        );
    }

    #[test]
    fn strings_are_json_escaped() {
        let ev =
            TraceEvent::new(SimTime::ZERO, "test", "esc").str("s", "a\"b\\c\nd").str("c", "\u{1}");
        assert!(ev.jsonl().contains("\"s\":\"a\\\"b\\\\c\\nd\""));
        assert!(ev.jsonl().contains("\"c\":\"\\u0001\""));
    }

    #[test]
    fn non_finite_floats_render_as_null() {
        let ev = TraceEvent::new(SimTime::ZERO, "test", "nan").f64("v", f64::NAN);
        assert!(ev.jsonl().contains("\"v\":null"));
    }

    #[test]
    fn field_lookup_and_accessors_work() {
        let ev = event();
        assert_eq!(ev.scope(), "core");
        assert_eq!(ev.kind(), "be_state");
        let line = crate::TraceLine::new(&ev.jsonl()).unwrap();
        assert_eq!(line.time(), ev.time());
        assert_eq!(line.field("server"), Some(TraceValue::U64(3)));
        assert_eq!(line.field("from"), Some(TraceValue::Str("disabled".into())));
        assert_eq!(line.field("missing"), None);
    }
}
