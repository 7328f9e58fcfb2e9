//! The bounded flight recorder and the per-run telemetry bundle.

use std::collections::VecDeque;
use std::fmt::{self, Write as _};
use std::io;

use heracles_sim::SimTime;

use crate::config::TelemetryConfig;
use crate::health::HealthPlane;
use crate::metrics::MetricsRegistry;
use crate::trace::{field_raw, field_value, write_escaped, TraceEvent, TraceValue};
use crate::validate::{validate_trace_lines, TRACE_SCHEMA};

/// The smallest spare room the line buffer keeps ahead of each
/// [`FlightRecorder::record`], and its smallest growth step.
const LINE_HEADROOM: usize = 4 << 10;

/// The smallest growth step of the time index, in entries.
const TIMES_STEP: usize = 256;

/// The line buffer and the time index grow by `1 / GROWTH_DIVISOR` of
/// their length (at least their smallest step), so a lossless trace holds
/// little more heap than its rendered bytes.
const GROWTH_DIVISOR: usize = 16;

/// A bounded ring buffer of trace events, held as the JSONL lines they
/// export as.
///
/// Like an aircraft flight recorder it keeps the *most recent* history:
/// when full, the oldest event is dropped and counted, so a long run's
/// trace ends at the interesting end (the crash) rather than the take-off.
///
/// [`record`](Self::record) renders each [`TraceEvent`] once, through
/// [`TraceEvent::write_jsonl`], onto one append-only buffer of
/// newline-terminated lines, and keeps the event's exact [`SimTime`] in an
/// index beside it.  Eviction moves the buffer's live start forward; the
/// dead prefix is compacted away once it is more than half the buffer.
/// [`document`](Self::document) exports the header beside a borrow of the
/// live bytes, and [`iter`](Self::iter) reads the retained events back as
/// [`TraceLine`] views of their lines: the exact time from the index, and
/// every field by [`TraceLine::field`]'s rule (a quoted value as an
/// unescaped `Str`, `true`/`false` as `Bool`, a bare integer as `U64`, or
/// `I64` when negative, any other number as `F64` at its six-decimal
/// rendering).
#[derive(Debug, Clone)]
pub struct FlightRecorder {
    capacity: usize,
    /// Rendered lines, each ending in `\n`; the retained ones from `start`.
    text: String,
    start: usize,
    /// Each retained line's exact time, oldest first.
    times: VecDeque<SimTime>,
    dropped: u64,
}

impl FlightRecorder {
    /// A recorder holding at most `capacity` events (at least one).
    pub fn new(capacity: usize) -> Self {
        FlightRecorder {
            capacity: capacity.max(1),
            text: String::new(),
            start: 0,
            times: VecDeque::new(),
            dropped: 0,
        }
    }

    /// Renders one event onto the ring, evicting the oldest if it is full.
    pub fn record(&mut self, event: TraceEvent) {
        if self.times.len() == self.capacity {
            self.evict_oldest();
        }
        if self.text.capacity() - self.text.len() < LINE_HEADROOM {
            self.text.reserve_exact(LINE_HEADROOM.max(self.text.len() / GROWTH_DIVISOR));
        }
        if self.times.len() == self.times.capacity() {
            let step = TIMES_STEP.max(self.times.len() / GROWTH_DIVISOR);
            self.times.reserve_exact(step.min(self.capacity - self.times.len()));
        }
        event.write_jsonl(&mut self.text);
        self.text.push('\n');
        self.times.push_back(event.time());
    }

    fn evict_oldest(&mut self) {
        self.times.pop_front();
        let line = self.live().find('\n').expect("every retained line ends in a newline");
        self.start += line + 1;
        self.dropped += 1;
        if 2 * self.start > self.text.len() {
            self.text.drain(..self.start);
            self.start = 0;
        }
    }

    /// Appends every event from `iter` in order.
    pub fn extend(&mut self, iter: impl IntoIterator<Item = TraceEvent>) {
        for event in iter {
            self.record(event);
        }
    }

    /// The retained lines, newline-terminated, oldest first.
    fn live(&self) -> &str {
        &self.text[self.start..]
    }

    /// The retained events, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = TraceLine<'_>> {
        self.live()
            .split_terminator('\n')
            .zip(&self.times)
            .map(|(text, &time)| TraceLine { time, text })
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.times.len()
    }

    /// True when no event has been retained.
    pub fn is_empty(&self) -> bool {
        self.times.is_empty()
    }

    /// Number of events evicted because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The trace as a JSONL document: a schema/metadata header line
    /// followed by one line per retained event.  `header` carries run
    /// metadata (seed, policy, balancer), each rendered as a string field.
    /// Only the header line is rendered; the event lines are borrowed.
    pub fn document(&self, header: &[(&'static str, String)]) -> TraceDocument<'_> {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"schema\":\"{TRACE_SCHEMA}\",\"events\":{},\"dropped\":{}",
            self.len(),
            self.dropped
        );
        for (key, value) in header {
            out.push_str(",\"");
            write_escaped(&mut out, key);
            out.push_str("\":\"");
            write_escaped(&mut out, value);
            out.push('"');
        }
        out.push_str("}\n");
        TraceDocument { header: out, body: self.live() }
    }
}

/// Two recorders are equal when they would export the same trace: the
/// same capacity, drop count and retained events, wherever their buffers
/// were last compacted.
impl PartialEq for FlightRecorder {
    fn eq(&self, other: &Self) -> bool {
        self.capacity == other.capacity
            && self.dropped == other.dropped
            && self.times == other.times
            && self.live() == other.live()
    }
}

/// A trace's JSONL document as a view: its rendered header line and a
/// borrow of the recorder's retained lines.
///
/// Exporting copies nothing: [`write_to`](Self::write_to) hands both parts
/// to the sink, and [`validate`](Self::validate) checks them in place.
/// [`Display`](fmt::Display) writes the same bytes, so `to_string()` gives
/// the whole document as one `String` where a caller needs a `&str`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceDocument<'a> {
    /// The header line, newline-terminated.
    header: String,
    /// The event lines, each newline-terminated.
    body: &'a str,
}

impl<'a> TraceDocument<'a> {
    /// The document's length in bytes.
    pub fn len(&self) -> usize {
        self.header.len() + self.body.len()
    }

    /// Never true: a document always has its header line.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The event lines, newline-terminated, without the header.
    pub fn body(&self) -> &'a str {
        self.body
    }

    /// The document's lines without their newlines, header first.
    pub fn lines(&self) -> impl Iterator<Item = &str> {
        self.header.lines().chain(self.body.lines())
    }

    /// Writes the document to `sink`.
    pub fn write_to(&self, sink: &mut impl io::Write) -> io::Result<()> {
        sink.write_all(self.header.as_bytes())?;
        sink.write_all(self.body.as_bytes())
    }

    /// Validates the document as
    /// [`validate_trace_jsonl`](crate::validate_trace_jsonl) validates its
    /// text.
    pub fn validate(&self) -> Result<(), String> {
        validate_trace_lines(self.lines())
    }
}

impl fmt::Display for TraceDocument<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.header)?;
        f.write_str(self.body)
    }
}

/// One retained trace event, read back from its rendered line.
///
/// [`time`](Self::time) is exact: the recorder keeps it beside the line.
/// Everything else is read from the line with the crate's field scanner
/// ([`field_raw`], [`field_str`](crate::field_str)), so a `TraceLine` sees
/// exactly what a reader of the exported JSONL sees.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceLine<'a> {
    time: SimTime,
    text: &'a str,
}

impl<'a> TraceLine<'a> {
    /// Views `text`, one rendered event line without its newline (say, a
    /// line of an exported document), as an event at `time`.
    pub fn new(time: SimTime, text: &'a str) -> Self {
        TraceLine { time, text }
    }

    /// The simulated time of the decision, exactly as recorded.
    pub fn time(&self) -> SimTime {
        self.time
    }

    /// The emitting subsystem as written: the name itself, since scopes
    /// are plain identifiers that need no escape.
    pub fn scope(&self) -> &'a str {
        field_raw(self.text, "scope").unwrap_or_default()
    }

    /// The decision kind within the scope, as written.
    pub fn kind(&self) -> &'a str {
        field_raw(self.text, "kind").unwrap_or_default()
    }

    /// The value of the named field read back from the line, by this rule:
    ///
    /// * a quoted value comes back as [`TraceValue::Str`], unescaped;
    /// * `true` and `false` come back as [`TraceValue::Bool`];
    /// * a bare integer comes back as [`TraceValue::U64`], or as
    ///   [`TraceValue::I64`] when negative (so a non-negative `I64` field
    ///   reads back as `U64`);
    /// * any other number comes back as [`TraceValue::F64`] at its
    ///   six-decimal rendering, and `null` (a non-finite float) as NaN.
    ///
    /// The envelope keys `t`, `scope` and `kind` read back the same way.
    pub fn field(&self, key: &str) -> Option<TraceValue> {
        field_value(self.text, key)
    }
}

/// Everything one traced run collects: the flight recorder, the metrics
/// registry and (when asked for) the health plane.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Telemetry {
    /// The bounded ring of rendered decision events.
    pub recorder: FlightRecorder,
    /// Counters, gauges and distribution sketches.
    pub metrics: MetricsRegistry,
    /// The online health plane (sketches + alert engine), present only
    /// when [`TelemetryConfig::health`] asked for it.
    pub health: Option<HealthPlane>,
}

impl Default for FlightRecorder {
    fn default() -> Self {
        FlightRecorder::new(TelemetryConfig::default().trace_capacity)
    }
}

impl Telemetry {
    /// Builds the bundle for `config`, or `None` when telemetry is off.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails [`TelemetryConfig::validate`].
    pub fn new(config: TelemetryConfig) -> Option<Telemetry> {
        if let Err(e) = config.validate() {
            panic!("invalid telemetry configuration: {e}");
        }
        if !config.enabled {
            return None;
        }
        Some(Telemetry {
            recorder: FlightRecorder::new(config.trace_capacity),
            metrics: MetricsRegistry::new(),
            health: config.health.then(HealthPlane::new),
        })
    }

    /// The run's trace as a JSONL document (see [`FlightRecorder::document`]).
    pub fn trace_jsonl(&self, header: &[(&'static str, String)]) -> TraceDocument<'_> {
        self.recorder.document(header)
    }

    /// The run's metrics as a JSON document: sorted counters, gauges and
    /// distribution quantiles, and the recorder's retention stats.  It
    /// carries no wall-clock time, so identical seeds give byte-identical
    /// documents.
    pub fn metrics_json(&self) -> String {
        self.metrics.to_json(self.recorder.len() as u64, self.recorder.dropped())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::validate::{validate_metrics_json, validate_trace_jsonl};
    use heracles_sim::SimTime;

    fn event(secs: u64) -> TraceEvent {
        TraceEvent::new(SimTime::from_secs(secs), "test", "tick").u64("n", secs)
    }

    #[test]
    fn ring_keeps_the_most_recent_events() {
        let mut rec = FlightRecorder::new(3);
        rec.extend((0..5).map(event));
        assert_eq!(rec.len(), 3);
        assert_eq!(rec.dropped(), 2);
        let first = rec.iter().next().unwrap();
        assert_eq!(first.time(), SimTime::from_secs(2));
    }

    #[test]
    fn capacity_is_clamped_to_at_least_one() {
        let rec = FlightRecorder::new(0);
        assert_eq!(rec.capacity(), 1);
    }

    #[test]
    fn disabled_config_builds_no_bundle() {
        assert!(Telemetry::new(TelemetryConfig::default()).is_none());
        assert!(Telemetry::new(TelemetryConfig::enabled()).is_some());
    }

    #[test]
    #[should_panic(expected = "invalid telemetry configuration")]
    fn invalid_config_is_rejected() {
        Telemetry::new(TelemetryConfig {
            enabled: true,
            trace_capacity: 0,
            ..TelemetryConfig::default()
        });
    }

    #[test]
    fn jsonl_and_metrics_documents_validate() {
        let mut tel = Telemetry::new(TelemetryConfig::enabled()).unwrap();
        tel.recorder.extend((0..4).map(event));
        tel.metrics.inc("test.ticks");
        tel.metrics.observe("test.n", 2.0);
        let doc = tel.trace_jsonl(&[("seed", "7".into())]);
        doc.validate().unwrap();
        let trace = doc.to_string();
        validate_trace_jsonl(&trace).unwrap();
        assert_eq!(trace.len(), doc.len());
        assert!(trace.lines().eq(doc.lines()));
        let mut written = Vec::new();
        doc.write_to(&mut written).unwrap();
        assert_eq!(written, trace.as_bytes());
        assert!(trace.starts_with(&format!("{{\"schema\":\"{TRACE_SCHEMA}\"")));
        assert!(trace.contains("\"seed\":\"7\""));
        assert_eq!(trace.lines().count(), 5);
        let metrics = tel.metrics_json();
        validate_metrics_json(&metrics).unwrap();
        assert!(metrics.contains("\"test.ticks\": 1"));
        assert!(!metrics.contains("\"phases\""));
    }
}
