//! Hand-rolled schema validators for the telemetry artifacts.
//!
//! The workspace vendors no JSON parser, and both documents are produced by
//! equally hand-rolled writers in this crate, so substring checks are exact
//! rather than heuristic.  CI runs these over the artifacts `fleet_scale
//! --trace/--metrics` emits, so a malformed document fails the build instead
//! of silently drifting.

use crate::trace::{field_f64, field_u64};

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
    let mut check = TraceCheck::header(lines.next().ok_or("empty document")?)?;
    lines.try_for_each(|line| check.line(line))?;
    check.finish()
}

/// The trace validator, fed a document's lines one at a time: the header
/// first, then each event line, then [`finish`](Self::finish).
pub struct TraceCheck {
    declared: u64,
    events: u64,
    last_t: f64,
}

impl TraceCheck {
    /// Checks the header line.
    pub fn header(header: &str) -> Result<TraceCheck, String> {
        if !header.contains(&format!("\"schema\":\"{TRACE_SCHEMA}\"")) {
            return Err(format!("header missing schema tag {TRACE_SCHEMA:?}"));
        }
        let declared =
            field_u64(header, "events").ok_or("header missing whole-number \"events\" field")?;
        field_u64(header, "dropped").ok_or("header missing whole-number \"dropped\" field")?;
        Ok(TraceCheck { declared, events: 0, last_t: f64::NEG_INFINITY })
    }

    /// Checks the next event line.
    pub fn line(&mut self, line: &str) -> Result<(), String> {
        let n = self.events + 2; // 1-based, after the header
        if !line.starts_with('{') || !line.ends_with('}') {
            return Err(format!("line {n} is not a JSON object"));
        }
        let t = field_f64(line, "t").ok_or_else(|| format!("line {n} missing numeric \"t\""))?;
        if t < self.last_t {
            return Err(format!("line {n} goes backwards in sim time ({t} < {})", self.last_t));
        }
        self.last_t = t;
        for key in ["\"scope\":\"", "\"kind\":\""] {
            if !line.contains(key) {
                return Err(format!("line {n} missing {key}...\" field"));
            }
        }
        self.events += 1;
        Ok(())
    }

    /// Checks the header's event count against the lines seen.
    pub fn finish(self) -> Result<(), String> {
        if self.events != self.declared {
            return Err(format!("header declares {} events, found {}", self.declared, self.events));
        }
        Ok(())
    }
}

/// Validates a metrics JSON document: the schema tag, the three sections
/// (counters, gauges, histograms — one quantile row per distribution) and
/// numeric retention stats.
pub fn validate_metrics_json(doc: &str) -> Result<(), String> {
    if !doc.contains(&format!("\"schema\": \"{METRICS_SCHEMA}\"")) {
        return Err(format!("missing schema tag {METRICS_SCHEMA:?}"));
    }
    for section in ["\"counters\": {", "\"gauges\": {", "\"histograms\": {"] {
        if !doc.contains(section) {
            return Err(format!("missing section {section}...}}"));
        }
    }
    for key in ["trace_events", "trace_dropped"] {
        field_f64(doc, key).ok_or_else(|| format!("missing numeric \"{key}\": field"))?;
    }
    Ok(())
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
