//! Structured trace events and the flat-field scanner that reads them back.

use heracles_sim::{SimDuration, SimTime};
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

/// The text right after the first `"key":` in a flat JSON rendering,
/// past any whitespace (the metrics document writes `": "`).
fn value_of<'a>(doc: &'a str, key: &str) -> Option<&'a str> {
    let needle = format!("\"{key}\":");
    let start = doc.find(&needle)? + needle.len();
    Some(doc[start..].trim_start())
}

/// The bare (unquoted) literal `value` starts with: up to the next `,`,
/// `}` or line end.  `None` for a quoted string.
fn bare(value: &str) -> Option<&str> {
    if value.starts_with('"') {
        return None;
    }
    let end = value.find([',', '}', '\n']).unwrap_or(value.len());
    Some(value[..end].trim_end())
}

/// The raw JSON value of `key` in a document this crate wrote — the
/// reader side of the trace and metrics writers.  A string
/// value comes back still escaped, without its quotes; any other value is
/// the bare literal.
///
/// The scanner relies on the writers' canonical flat rendering (each key
/// once per object, no nesting the key could hide in); it is not a general
/// JSON parser.
pub fn field_raw<'a>(doc: &'a str, key: &str) -> Option<&'a str> {
    let value = value_of(doc, key)?;
    match value.strip_prefix('"') {
        Some(quoted) => string_body(quoted),
        None => bare(value),
    }
}

/// The still-escaped body of the string literal whose opening quote was
/// just stripped: up to the closing unescaped quote.
fn string_body(quoted: &str) -> Option<&str> {
    let mut escaped = false;
    for (i, c) in quoted.char_indices() {
        match c {
            '\\' if !escaped => escaped = true,
            '"' if !escaped => return Some(&quoted[..i]),
            _ => escaped = false,
        }
    }
    None
}

/// The string value of `key`, unescaped for every escape the writers
/// emit (`\"`, `\\`, `\n`, `\r`, `\t` and `\uXXXX` control characters),
/// so a parsed field is byte-identical to the string the writer was given.
pub fn field_str(doc: &str, key: &str) -> Option<String> {
    field_raw(doc, key).map(unescape)
}

/// Undoes [`write_escaped`]; an escape it does not emit is kept verbatim.
fn unescape(raw: &str) -> String {
    let mut out = String::with_capacity(raw.len());
    let mut chars = raw.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('"') => out.push('"'),
            Some('\\') => out.push('\\'),
            Some('n') => out.push('\n'),
            Some('r') => out.push('\r'),
            Some('t') => out.push('\t'),
            Some('u') => {
                let hex: String = chars.by_ref().take(4).collect();
                match u32::from_str_radix(&hex, 16).ok().and_then(char::from_u32) {
                    Some(u) => out.push(u),
                    None => {
                        out.push_str("\\u");
                        out.push_str(&hex);
                    }
                }
            }
            Some(other) => {
                out.push('\\');
                out.push(other);
            }
            None => out.push('\\'),
        }
    }
    out
}

/// The value of `key` read back as a [`TraceValue`] by the rule
/// [`TraceLine::field`](crate::TraceLine::field) documents.
pub(crate) fn field_value(doc: &str, key: &str) -> Option<TraceValue> {
    let value = value_of(doc, key)?;
    if let Some(quoted) = value.strip_prefix('"') {
        return string_body(quoted).map(|raw| TraceValue::Str(unescape(raw)));
    }
    let raw = bare(value)?;
    Some(match raw {
        "true" => TraceValue::Bool(true),
        "false" => TraceValue::Bool(false),
        "null" => TraceValue::F64(f64::NAN),
        _ => match raw.parse::<u64>() {
            Ok(v) => TraceValue::U64(v),
            Err(_) => match raw.parse::<i64>() {
                Ok(v) => TraceValue::I64(v),
                Err(_) => TraceValue::F64(raw.parse().ok()?),
            },
        },
    })
}

/// The numeric value of `key` as f64 (`None` for a quoted or malformed
/// value).
pub fn field_f64(doc: &str, key: &str) -> Option<f64> {
    bare(value_of(doc, key)?)?.parse().ok()
}

/// The numeric value of `key` as u64 (floats with a zero fraction
/// accepted).
pub fn field_u64(doc: &str, key: &str) -> Option<u64> {
    let raw = bare(value_of(doc, key)?)?;
    raw.parse::<u64>().ok().or_else(|| {
        let f: f64 = raw.parse().ok()?;
        (f >= 0.0 && f.fract() == 0.0).then_some(f as u64)
    })
}

/// One decision record: where and when (in *simulated* time) a subsystem
/// chose something, plus the typed fields that explain the choice.
///
/// Events deliberately cannot carry wall-clock readings: the only timestamp
/// is [`SimTime`], so a trace is a pure function of the seed.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    time: SimTime,
    scope: &'static str,
    kind: &'static str,
    fields: Vec<(&'static str, TraceValue)>,
}

impl TraceEvent {
    /// Starts an event at `time` from subsystem `scope` with decision `kind`.
    pub fn new(time: SimTime, scope: &'static str, kind: &'static str) -> Self {
        TraceEvent { time, scope, kind, fields: Vec::new() }
    }

    /// Appends an unsigned-integer field.
    pub fn u64(mut self, key: &'static str, value: u64) -> Self {
        self.fields.push((key, TraceValue::U64(value)));
        self
    }

    /// Appends a signed-integer field.
    pub fn i64(mut self, key: &'static str, value: i64) -> Self {
        self.fields.push((key, TraceValue::I64(value)));
        self
    }

    /// Appends a float field.
    pub fn f64(mut self, key: &'static str, value: f64) -> Self {
        self.fields.push((key, TraceValue::F64(value)));
        self
    }

    /// Appends a string field.
    pub fn str(mut self, key: &'static str, value: &str) -> Self {
        self.fields.push((key, TraceValue::Str(value.to_string())));
        self
    }

    /// Appends a boolean field.
    pub fn bool(mut self, key: &'static str, value: bool) -> Self {
        self.fields.push((key, TraceValue::Bool(value)));
        self
    }

    /// Shifts the event's timestamp forward by `offset`: rebases a
    /// subsystem's local clock (a leaf controller commissioned mid-run
    /// starts at its own zero) onto the global simulation clock.
    pub fn shifted(mut self, offset: SimDuration) -> Self {
        self.time += offset;
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

    /// The typed fields, in emission order.
    pub fn fields(&self) -> &[(&'static str, TraceValue)] {
        &self.fields
    }

    /// The value of the named field, if present.
    pub fn field(&self, key: &str) -> Option<&TraceValue> {
        self.fields.iter().find(|(k, _)| *k == key).map(|(_, v)| v)
    }

    /// Renders the event as one JSON object (no trailing newline): the fixed
    /// `t`/`scope`/`kind` prefix followed by the fields in emission order.
    pub fn jsonl(&self) -> String {
        let mut out = String::with_capacity(64 + 16 * self.fields.len());
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
        for (key, value) in &self.fields {
            out.push_str(",\"");
            write_escaped(out, key);
            out.push_str("\":");
            value.write_json(out);
        }
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
        assert_eq!(ev.field("server"), Some(&TraceValue::U64(3)));
        assert_eq!(ev.field("missing"), None);
    }

    #[test]
    fn field_scanners_handle_strings_numbers_and_escapes() {
        let line = r#"{"t":12.500000,"scope":"fleet","kind":"violation","service":"a\"b","generation":1,"load":0.750000}"#;
        assert_eq!(field_f64(line, "t"), Some(12.5));
        assert_eq!(field_str(line, "scope").as_deref(), Some("fleet"));
        assert_eq!(field_str(line, "service").as_deref(), Some("a\"b"));
        assert_eq!(field_u64(line, "generation"), Some(1));
        assert_eq!(field_f64(line, "load"), Some(0.75));
        assert_eq!(field_raw(line, "missing"), None);
    }

    #[test]
    fn field_str_recovers_every_writer_escape() {
        let line =
            "{\"t\":1.000000,\"scope\":\"x\",\"kind\":\"y\",\"s\":\"a\\\"b\\\\c\\nd\\te\\u0001f\"}";
        assert_eq!(field_str(line, "s").as_deref(), Some("a\"b\\c\nd\te\u{1}f"));
    }
}
