//! The metrics registry: counters, gauges and quantile sketches keyed by
//! static metric ids, and the one writer of the metrics document.

use std::collections::BTreeMap;

use crate::sketch::QuantileSketch;
use crate::trace::{write_escaped, TraceValue};
use crate::validate::METRICS_SCHEMA;

/// Named counters, gauges and distributions.
///
/// Ids are `&'static str` (e.g. `"fleet.jobs_placed"`) so emitters cannot
/// fabricate names at runtime, and storage is a `BTreeMap` so exports
/// iterate in sorted order — a traced run's metrics document is as
/// deterministic as its trace (it records no wall-clock time).  A
/// distribution is a [`QuantileSketch`], the health plane's estimator, so
/// its quantiles carry the sketch's relative-error bound and do not depend
/// on the order observations arrive in.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsRegistry {
    counters: BTreeMap<&'static str, u64>,
    gauges: BTreeMap<&'static str, f64>,
    histograms: BTreeMap<&'static str, QuantileSketch>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Increments a counter by one.
    pub fn inc(&mut self, id: &'static str) {
        self.add(id, 1);
    }

    /// Increments a counter by `n`.
    pub fn add(&mut self, id: &'static str, n: u64) {
        *self.counters.entry(id).or_insert(0) += n;
    }

    /// Sets a gauge to its latest value.
    pub fn set_gauge(&mut self, id: &'static str, value: f64) {
        self.gauges.insert(id, value);
    }

    /// Records one observation of a distribution.
    pub fn observe(&mut self, id: &'static str, value: f64) {
        self.histograms.entry(id).or_default().observe(value);
    }

    /// Current value of a counter (0 if never incremented).
    pub fn counter(&self, id: &str) -> u64 {
        self.counters.get(id).copied().unwrap_or(0)
    }

    /// Current value of a gauge.
    pub fn gauge(&self, id: &str) -> Option<f64> {
        self.gauges.get(id).copied()
    }

    /// The named distribution's sketch, if it has observations.
    pub fn histogram(&self, id: &str) -> Option<&QuantileSketch> {
        self.histograms.get(id)
    }

    /// The metrics document: the schema tag, the three metric
    /// families as sorted `"id": value` sections, and the trace's retention
    /// stats.  A distribution renders as one flat row, `{"count", "min",
    /// "max", "p50", "p95", "p99"}`.  Every key is escaped and every value
    /// written exactly as a trace field is.
    pub(crate) fn to_json(&self, trace_events: u64, trace_dropped: u64) -> String {
        let mut out = String::from("{\n");
        write_row(&mut out, "schema", &METRICS_SCHEMA.into());
        write_section(&mut out, "counters", &self.counters, |out, &n| {
            TraceValue::U64(n).write_json(out)
        });
        write_section(&mut out, "gauges", &self.gauges, |out, &v| {
            TraceValue::F64(v).write_json(out)
        });
        write_section(&mut out, "histograms", &self.histograms, write_sketch);
        write_row(&mut out, "trace_events", &TraceValue::U64(trace_events));
        write_key(&mut out, "  ", "trace_dropped");
        TraceValue::U64(trace_dropped).write_json(&mut out);
        out.push_str("\n}\n");
        out
    }
}

/// Appends `indent` and `"key": `.
fn write_key(out: &mut String, indent: &str, key: &str) {
    out.push_str(indent);
    out.push('"');
    write_escaped(out, key);
    out.push_str("\": ");
}

/// Appends one top-level `"key": value,` line.
fn write_row(out: &mut String, key: &str, value: &TraceValue) {
    write_key(out, "  ", key);
    value.write_json(out);
    out.push_str(",\n");
}

/// Appends the `name` section: one `"id": value` line per entry, the
/// value written by `write`.
fn write_section<T>(
    out: &mut String,
    name: &str,
    rows: &BTreeMap<&'static str, T>,
    write: impl Fn(&mut String, &T),
) {
    write_key(out, "  ", name);
    out.push('{');
    for (i, (id, row)) in rows.iter().enumerate() {
        out.push_str(if i == 0 { "\n" } else { ",\n" });
        write_key(out, "    ", id);
        write(out, row);
    }
    out.push_str(if rows.is_empty() { "},\n" } else { "\n  },\n" });
}

/// Appends a distribution's row: one flat object of its count, extremes
/// and quantiles.
fn write_sketch(out: &mut String, sketch: &QuantileSketch) {
    let fields = [
        ("count", TraceValue::U64(sketch.count())),
        ("min", TraceValue::F64(sketch.min())),
        ("max", TraceValue::F64(sketch.max())),
        ("p50", TraceValue::F64(sketch.p50())),
        ("p95", TraceValue::F64(sketch.p95())),
        ("p99", TraceValue::F64(sketch.p99())),
    ];
    out.push('{');
    for (i, (key, value)) in fields.iter().enumerate() {
        write_key(out, if i == 0 { "" } else { ", " }, key);
        value.write_json(out);
    }
    out.push('}');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_default_to_zero() {
        let mut m = MetricsRegistry::new();
        m.inc("a.b");
        m.add("a.b", 4);
        assert_eq!(m.counter("a.b"), 5);
        assert_eq!(m.counter("missing"), 0);
    }

    #[test]
    fn gauges_keep_the_latest_value() {
        let mut m = MetricsRegistry::new();
        assert_eq!(m.gauge("g"), None);
        m.set_gauge("g", 1.0);
        m.set_gauge("g", 2.5);
        assert_eq!(m.gauge("g"), Some(2.5));
    }

    #[test]
    fn json_sections_are_sorted_and_escaped() {
        let mut m = MetricsRegistry::new();
        m.inc("z.last");
        m.inc("a.first");
        m.set_gauge("g", 0.5);
        m.observe("h", 1.0);
        let doc = m.to_json(3, 0);
        let a = doc.find("a.first").unwrap();
        let z = doc.find("z.last").unwrap();
        assert!(a < z, "counters must iterate sorted");
        assert!(doc.contains("\"g\": 0.500000"));
        assert!(doc.contains("\"count\": 1"));
    }
}
