//! Schema validators for the telemetry artifacts.  Each parses a line or
//! document once, with [`Object::parse`], and hands back what it parsed.
//! CI runs them over the artifacts `fleet_scale --trace/--metrics` emits,
//! so a malformed document fails the build instead of silently drifting.

use crate::json::{Object, ReadError};

/// Schema tag on the first line of every trace JSONL document.
pub const TRACE_SCHEMA: &str = "heracles-trace/v1";

/// Schema tag in every metrics JSON document.
pub(crate) const METRICS_SCHEMA: &str = "heracles-metrics/v3";

/// Validates a trace JSONL document: a header line carrying the schema tag
/// and retention stats, then one JSON object per line with a numeric `"t"`
/// and string `"scope"`/`"kind"` fields, in non-decreasing time order.
/// [`TraceDocument::validate`](crate::TraceDocument::validate) checks an
/// exported view by the same rule.
pub fn validate_trace_jsonl(doc: &str) -> Result<(), String> {
    let mut lines = doc.lines();
    let (mut check, _) = TraceCheck::header(lines.next().ok_or("empty document")?)?;
    lines.try_for_each(|line| check.line(line).map(drop))?;
    check.finish()
}

/// The trace validator, fed a document's lines one at a time: the header
/// first, then each event line, then [`finish`](Self::finish).  Each check
/// returns the line it parsed, so a reader validates and reads a line with
/// one parse.
pub struct TraceCheck {
    declared: u64,
    events: u64,
    last_t: f64,
}

impl TraceCheck {
    /// Checks the header line and returns it parsed.
    pub fn header(header: &str) -> Result<(TraceCheck, Object<'_>), String> {
        let in_header = |e: ReadError| format!("header: {}", String::from(e));
        let parsed = Object::parse(header).map_err(in_header)?;
        if parsed.str("schema").ok() != Some(TRACE_SCHEMA) {
            return Err(format!("header missing schema tag {TRACE_SCHEMA:?}"));
        }
        let declared = parsed.u64("events").map_err(in_header)?;
        parsed.u64("dropped").map_err(in_header)?;
        Ok((TraceCheck { declared, events: 0, last_t: f64::NEG_INFINITY }, parsed))
    }

    /// Checks the next event line and returns it parsed.
    pub fn line<'a>(&mut self, line: &'a str) -> Result<Object<'a>, String> {
        let n = self.events + 2; // 1-based, after the header
        let on_line = |e: ReadError| format!("line {n}: {}", String::from(e));
        let parsed = Object::parse(line).map_err(on_line)?;
        let t = parsed.f64("t").map_err(on_line)?;
        if t.is_nan() || t < self.last_t {
            return Err(format!("line {n} goes backwards in sim time ({t} < {})", self.last_t));
        }
        parsed.str("scope").map_err(on_line)?;
        parsed.str("kind").map_err(on_line)?;
        self.last_t = t;
        self.events += 1;
        Ok(parsed)
    }

    /// Checks the header's event count against the lines seen.
    pub fn finish(self) -> Result<(), String> {
        if self.events != self.declared {
            return Err(format!("header declares {} events, found {}", self.declared, self.events));
        }
        Ok(())
    }
}

/// Validates a metrics JSON document and returns it parsed: the schema
/// tag, the three sections (counters, gauges, histograms — one quantile
/// row per distribution) and whole-number retention stats.  An error names
/// the document line at fault.
pub fn validate_metrics_json(doc: &str) -> Result<Object<'_>, String> {
    let in_doc = |e: ReadError| e.in_lines(doc);
    let parsed = Object::parse(doc).map_err(in_doc)?;
    if parsed.str("schema").ok() != Some(METRICS_SCHEMA) {
        return Err(format!("missing schema tag {METRICS_SCHEMA:?}"));
    }
    for section in ["counters", "gauges", "histograms"] {
        parsed.obj(section).map_err(in_doc)?;
    }
    for key in ["trace_events", "trace_dropped"] {
        parsed.u64(key).map_err(in_doc)?;
    }
    Ok(parsed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace_doc() -> String {
        format!(
            "{{\"schema\":\"{TRACE_SCHEMA}\",\"events\":2,\"dropped\":0,\"seed\":\"7\"}}\n\
             {{\"t\":1.000000,\"scope\":\"core\",\"kind\":\"be_state\"}}\n\
             {{\"t\":2.000000,\"scope\":\"fleet\",\"kind\":\"step\",\"n\":2}}\n"
        )
    }

    #[test]
    fn well_formed_trace_validates() {
        validate_trace_jsonl(&trace_doc()).unwrap();
    }

    #[test]
    fn trace_validator_rejects_malformed_documents() {
        assert!(validate_trace_jsonl("").is_err());
        assert!(validate_trace_jsonl(&trace_doc().replace("heracles-trace/v1", "v0")).is_err());
        assert!(validate_trace_jsonl(&trace_doc().replace("\"events\":2", "\"events\":9")).is_err());
        assert!(validate_trace_jsonl(&trace_doc().replace("\"t\":2.000000", "\"t\":oops")).is_err());
        assert!(validate_trace_jsonl(&trace_doc().replace("\"t\":2.000000", "\"t\":0.5")).is_err());
        assert!(validate_trace_jsonl(&trace_doc().replace("\"scope\":\"fleet\"", "\"nope\":3"))
            .is_err());
    }

    #[test]
    fn header_counts_must_be_whole_numbers() {
        let header_only = |events: &str, dropped: &str| {
            format!("{{\"schema\":\"{TRACE_SCHEMA}\",\"events\":{events},\"dropped\":{dropped}}}\n")
        };
        validate_trace_jsonl(&header_only("0", "0")).unwrap();
        for (events, dropped) in [("-1", "0"), ("0.5", "0"), ("NaN", "0"), ("0", "-5")] {
            let doc = header_only(events, dropped);
            assert!(validate_trace_jsonl(&doc).is_err(), "accepted {doc}");
        }
    }

    #[test]
    fn metrics_validator_requires_all_sections() {
        let doc = format!(
            "{{\n  \"schema\": \"{METRICS_SCHEMA}\",\n  \"counters\": {{}},\n  \
             \"gauges\": {{}},\n  \"histograms\": {{}},\n  \"trace_events\": 1,\n  \
             \"trace_dropped\": 0\n}}\n"
        );
        validate_metrics_json(&doc).unwrap();
        assert!(validate_metrics_json(&doc.replace(METRICS_SCHEMA, "heracles-metrics/v2")).is_err());
        assert!(validate_metrics_json(&doc.replace("\"histograms\"", "\"h\"")).is_err());
        assert!(validate_metrics_json(&doc.replace("\"trace_events\": 1", "\"x\": 1")).is_err());
    }
}
