//! The bounded flight recorder and the per-run telemetry bundle.

use std::borrow::Cow;
use std::collections::VecDeque;
use std::fmt::{self, Write as _};
use std::io;
use std::sync::Arc;

use heracles_sim::SimTime;

use crate::codec;
use crate::config::TelemetryConfig;
use crate::health::HealthPlane;
use crate::json::{Json, Object, ReadError};
use crate::metrics::MetricsRegistry;
use crate::trace::{write_escaped, TraceEvent, TraceValue};
use crate::validate::{TraceCheck, TRACE_SCHEMA};

/// The most bytes of lines a chunk holds: a chunk is sealed before the
/// line that would take it past this size.  The codec's 16-bit offsets
/// reach across a whole chunk, and an export unpacks any packed chunk into
/// one stack buffer of this size.  (On a 14 MB fleet trace, 64 KiB chunks
/// compress 16.8x and 16 KiB ones 14.2x.)
const CHUNK: usize = 64 << 10;

/// A bounded ring buffer of trace events, held as the JSONL lines they
/// export as, in compressed chunks.
///
/// Like an aircraft flight recorder it keeps the *most recent* history:
/// when full, the oldest event is dropped and counted, so a long run's
/// trace ends at the interesting end (the crash) rather than the take-off.
///
/// [`record`](Self::record) renders each [`TraceEvent`] once, through
/// `TraceEvent::write_jsonl`, and appends the newline-terminated line to
/// an open chunk.  The open chunk grows by doubling as lines join it, up
/// to 64 KiB.  Before a line would take it past 64 KiB, the chunk is
/// sealed and its room freed: its lines are compressed by the crate's
/// codec (an LZ77 parse in per-block Huffman codes) into one buffer the
/// recorder keeps and copied out at their packed size, or kept as they
/// are when that would not shrink them (as is a lone line longer than a
/// chunk).  Chunks hold whole lines.  Eviction counts lines off the head
/// of the oldest chunk, unpacking it once to find their ends, and frees
/// the chunk with its last line, so the ring holds at most one chunk of
/// evicted lines.
///
/// The codec is lossless and a chunk unpacks to exactly the bytes that
/// were sealed, so compression changes what the ring holds and never what
/// it exports: [`document`](Self::document) writes the bytes the lines
/// were rendered as, unpacking one chunk at a time into a fixed buffer,
/// and [`iter`](Self::iter) reads the retained events back as
/// [`TraceLine`]s, one unpacked chunk at a time: each line's time from
/// its own `t`, and every field by [`TraceLine::field`]'s rule.  A line
/// renders its time to six decimals, so the recorder takes events at
/// whole microseconds only: every time the simulation stamps is a whole
/// second.
#[derive(Debug, Clone)]
pub struct FlightRecorder {
    capacity: usize,
    /// Sealed chunks, oldest first.
    sealed: VecDeque<Sealed>,
    /// The chunk being filled: whole lines, each ending in `\n`.
    open: String,
    /// The bytes of the lines already evicted from the front chunk: the
    /// oldest sealed one, or the open one when none is sealed.
    head_bytes: usize,
    /// Retained lines, and their bytes with newlines.
    len: usize,
    bytes: usize,
    dropped: u64,
    /// The next event's line, rendered before it joins a chunk.
    line: String,
    /// The block a chunk's lines are packed into as it is sealed.
    packing: Vec<u8>,
}

/// A sealed chunk: a run of whole lines.
#[derive(Debug, Clone)]
enum Sealed {
    /// A codec block and the length of the lines it unpacks to (at most
    /// [`CHUNK`]).
    Packed { block: Box<[u8]>, len: usize },
    /// The lines as they are: a block would not have been shorter, or the
    /// chunk's lines are being evicted from.
    Raw(Arc<str>),
}

impl Sealed {
    /// Packs `text` through `scratch` when that shrinks it, else keeps it
    /// as it is.
    fn seal(text: &str, scratch: &mut Vec<u8>) -> Self {
        if text.len() <= CHUNK {
            scratch.clear();
            codec::compress(text.as_bytes(), scratch);
            if scratch.len() < text.len() {
                return Sealed::Packed { block: Box::from(&scratch[..]), len: text.len() };
            }
        }
        Sealed::Raw(Arc::from(text))
    }

    /// The lines, unpacked into a buffer of their own when packed.
    fn shared(&self) -> Arc<str> {
        match self {
            Sealed::Raw(text) => Arc::clone(text),
            Sealed::Packed { block, len } => Arc::from(unpack(block, *len, &mut vec![0; *len])),
        }
    }
}

/// Unpacks a sealed block of `len` bytes of lines into the front of `buf`.
fn unpack<'b>(block: &[u8], len: usize, buf: &'b mut [u8]) -> &'b str {
    let n = codec::decompress(block, buf).expect("a sealed block decodes");
    assert_eq!(n, len, "a sealed block decodes to the bytes it was packed from");
    std::str::from_utf8(&buf[..n]).expect("a chunk holds whole UTF-8 lines")
}

/// The length of the line at `from`, with its newline.
fn line_len(text: &str, from: usize) -> usize {
    text[from..].find('\n').expect("every retained line ends in a newline") + 1
}

/// The lines of one unpacked chunk from byte `at`.
struct ChunkLines {
    text: Arc<str>,
    at: usize,
}

impl Iterator for ChunkLines {
    type Item = TraceLine;

    fn next(&mut self) -> Option<TraceLine> {
        let start = self.at;
        if start == self.text.len() {
            return None;
        }
        let end = start + line_len(&self.text, start) - 1;
        self.at = end + 1;
        let time = Object::parse(&self.text[start..end]).and_then(|line| line.time());
        let time = time.expect("a recorded line has its time");
        Some(TraceLine { time, chunk: Arc::clone(&self.text), start, end })
    }
}

impl FlightRecorder {
    /// A recorder holding at most `capacity` events (at least one).
    pub fn new(capacity: usize) -> Self {
        FlightRecorder {
            capacity: capacity.max(1),
            sealed: VecDeque::new(),
            open: String::new(),
            head_bytes: 0,
            len: 0,
            bytes: 0,
            dropped: 0,
            line: String::new(),
            packing: Vec::new(),
        }
    }

    /// Renders one event onto the ring, evicting the oldest if it is full.
    ///
    /// The event's time must be a whole number of microseconds: its line
    /// holds the time to six decimals, and the line is all the ring keeps.
    pub fn record(&mut self, event: TraceEvent) {
        debug_assert_eq!(
            event.time().as_nanos() % 1_000,
            0,
            "a trace line renders its time to whole microseconds, not {:?}",
            event.time()
        );
        if self.len == self.capacity {
            self.evict_oldest();
        }
        self.line.clear();
        event.write_jsonl(&mut self.line);
        self.line.push('\n');
        // Chunks hold whole lines: the line that would overflow the open
        // chunk starts the next one.
        if self.open.len() + self.line.len() > CHUNK {
            self.seal();
        }
        // The open chunk grows by doubling, to at most a chunk's size but
        // for a line longer than a chunk.
        let needed = self.open.len() + self.line.len();
        if needed > self.open.capacity() {
            let room = (2 * self.open.capacity()).clamp(needed, needed.max(CHUNK));
            self.open.reserve_exact(room - self.open.len());
        }
        self.open.push_str(&self.line);
        self.len += 1;
        self.bytes += self.line.len();
        // A line longer than a chunk is sealed on its own, kept raw.
        if self.open.len() > CHUNK {
            self.seal();
        }
    }

    /// Seals the open chunk, if it holds any line.
    fn seal(&mut self) {
        if self.open.is_empty() {
            return;
        }
        self.sealed.push_back(Sealed::seal(&self.open, &mut self.packing));
        // The next lines grow the open chunk from nothing.
        self.open = String::new();
    }

    fn evict_oldest(&mut self) {
        let (line, chunk_len) = match self.sealed.front_mut() {
            Some(chunk) => {
                let text = chunk.shared();
                let line = line_len(&text, self.head_bytes);
                let len = text.len();
                *chunk = Sealed::Raw(text);
                (line, len)
            }
            None => (line_len(&self.open, self.head_bytes), self.open.len()),
        };
        self.head_bytes += line;
        self.bytes -= line;
        self.len -= 1;
        self.dropped += 1;
        if self.head_bytes == chunk_len {
            if self.sealed.pop_front().is_none() {
                self.open = String::new();
            }
            self.head_bytes = 0;
        }
    }

    /// Appends every event from `iter` in order.
    pub fn extend(&mut self, iter: impl IntoIterator<Item = TraceEvent>) {
        for event in iter {
            self.record(event);
        }
    }

    /// The retained events, oldest first, unpacking one chunk at a time;
    /// each line's time is read from its `t`.
    pub fn iter(&self) -> impl Iterator<Item = TraceLine> + '_ {
        let sealed = self.sealed.iter().map(Sealed::shared);
        let open = (!self.open.is_empty()).then(|| Arc::from(self.open.as_str()));
        let mut head = Some(self.head_bytes);
        sealed.chain(open).flat_map(move |text| ChunkLines { text, at: head.take().unwrap_or(0) })
    }

    /// Hands `f` the retained lines chunk by chunk, oldest first, each a
    /// run of whole newline-terminated lines.  A packed chunk is unpacked
    /// into one buffer on the stack, so this allocates nothing.
    fn try_for_each_chunk<E>(&self, mut f: impl FnMut(&str) -> Result<(), E>) -> Result<(), E> {
        let mut buf = [0u8; CHUNK];
        let mut head = self.head_bytes;
        for chunk in &self.sealed {
            let text = match chunk {
                Sealed::Raw(text) => text,
                Sealed::Packed { block, len } => unpack(block, *len, &mut buf),
            };
            f(&text[std::mem::take(&mut head)..])?;
        }
        f(&self.open[head..])
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no event has been retained.
    pub fn is_empty(&self) -> bool {
        self.len == 0
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
    /// Only the header line is rendered; the event lines stay in the ring
    /// until the document is written.
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
        TraceDocument { header: out, recorder: self }
    }
}

/// Two recorders are equal when they would export the same trace: the
/// same capacity, drop count and retained events, however their lines
/// fall into chunks.
impl PartialEq for FlightRecorder {
    fn eq(&self, other: &Self) -> bool {
        self.capacity == other.capacity
            && self.dropped == other.dropped
            && self.len == other.len
            && self.bytes == other.bytes
            && self.iter().eq(other.iter())
    }
}

/// A trace's JSONL document as a view: its rendered header line and the
/// recorder's retained lines.
///
/// Exporting allocates nothing beyond the header line:
/// [`write_to`](Self::write_to) hands the header and then each chunk's
/// lines to the sink, unpacking a packed chunk into one fixed stack
/// buffer, and [`validate`](Self::validate) checks the lines the same way.
/// [`len`](Self::len) is a tracked count, known without unpacking
/// anything.  [`Display`](fmt::Display) writes the same bytes, so
/// `to_string()` gives the whole document as one `String` where a caller
/// needs a `&str`.
#[derive(Debug, Clone)]
pub struct TraceDocument<'a> {
    /// The header line, newline-terminated.
    header: String,
    recorder: &'a FlightRecorder,
}

impl TraceDocument<'_> {
    /// The document's length in bytes.
    pub fn len(&self) -> usize {
        self.header.len() + self.recorder.bytes
    }

    /// Never true: a document always has its header line.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Writes the document to `sink`.
    pub fn write_to(&self, sink: &mut impl io::Write) -> io::Result<()> {
        sink.write_all(self.header.as_bytes())?;
        self.recorder.try_for_each_chunk(|text| sink.write_all(text.as_bytes()))
    }

    /// Validates the document line by line through [`TraceCheck`].
    pub fn validate(&self) -> Result<(), String> {
        let (mut check, _) = TraceCheck::header(self.header.trim_end())?;
        self.recorder
            .try_for_each_chunk(|text| text.lines().try_for_each(|l| check.line(l).map(drop)))?;
        check.finish()
    }
}

/// Two documents are equal when they hold the same bytes.
impl PartialEq for TraceDocument<'_> {
    fn eq(&self, other: &Self) -> bool {
        let (a, b) = (self.recorder, other.recorder);
        self.header == other.header
            && (a.len, a.bytes) == (b.len, b.bytes)
            && a.iter().zip(b.iter()).all(|(x, y)| x.text() == y.text())
    }
}

impl Eq for TraceDocument<'_> {}

impl fmt::Display for TraceDocument<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.header)?;
        self.recorder.try_for_each_chunk(|text| f.write_str(text))
    }
}

/// One retained trace event, read back from its rendered line.
///
/// Everything is read from the line by the crate's one parser
/// ([`Object::parse`]), so a `TraceLine` sees exactly what a reader of the
/// exported JSONL sees: a line read from the recorder takes its
/// [`time`](Self::time) from its `t`, exact since the recorder holds
/// whole microseconds only.  A line read from the recorder shares its
/// unpacked chunk with the chunk's other lines.
#[derive(Clone)]
pub struct TraceLine {
    time: SimTime,
    chunk: Arc<str>,
    /// The line's bytes in `chunk`, without its newline.
    start: usize,
    end: usize,
}

impl TraceLine {
    /// The event a rendered line (without its newline) holds, say a line
    /// of an exported document, at the time its `t` reads.  A line that
    /// does not parse, or whose `t` is not a time, is an error.
    pub fn new(text: &str) -> Result<Self, ReadError> {
        let time = Object::parse(text)?.time()?;
        Ok(TraceLine { time, chunk: Arc::from(text), start: 0, end: text.len() })
    }

    /// The rendered line, without its newline.
    fn text(&self) -> &str {
        &self.chunk[self.start..self.end]
    }

    /// The simulated time of the decision: the line's `t`.
    pub fn time(&self) -> SimTime {
        self.time
    }

    /// The emitting subsystem: the name itself, since scopes are plain
    /// identifiers that need no escape (empty if the line has none).
    pub fn scope(&self) -> &str {
        self.name("scope")
    }

    /// The decision kind within the scope, likewise.
    pub fn kind(&self) -> &str {
        self.name("kind")
    }

    /// The escape-free string `key` holds, borrowed from the line.
    fn name(&self, key: &str) -> &str {
        match Object::parse(self.text()).ok().as_ref().and_then(|line| line.get(key)) {
            Some(&Json::Str(Cow::Borrowed(name))) => name,
            _ => "",
        }
    }

    /// The value of the named field read back from the line, by this rule:
    ///
    /// * a quoted value comes back as [`TraceValue::Str`], decoded;
    /// * `true` and `false` come back as [`TraceValue::Bool`];
    /// * an integer comes back as [`TraceValue::U64`], or as
    ///   [`TraceValue::I64`] when negative (so a non-negative `I64` field
    ///   reads back as `U64`);
    /// * any other number comes back as [`TraceValue::F64`] at its
    ///   six-decimal rendering, and `null` (a non-finite float) as NaN.
    ///
    /// The envelope keys `t`, `scope` and `kind` read back the same way.
    /// `None` when the line has no such field or does not parse.
    pub fn field(&self, key: &str) -> Option<TraceValue> {
        Some(match Object::parse(self.text()).ok()?.get(key)? {
            Json::Lit("null") => TraceValue::F64(f64::NAN),
            Json::Lit(b @ ("true" | "false")) => TraceValue::Bool(*b == "true"),
            Json::Lit(n) => match (n.parse(), n.parse()) {
                (Ok(u), _) => TraceValue::U64(u),
                (_, Ok(i)) => TraceValue::I64(i),
                _ => TraceValue::F64(n.parse().ok()?),
            },
            Json::Str(s) => TraceValue::Str(s.to_string()),
            Json::Obj(_) => return None,
        })
    }
}

/// Two lines are equal when they hold the same text, wherever their
/// chunks are: the text holds the time.
impl PartialEq for TraceLine {
    fn eq(&self, other: &Self) -> bool {
        self.text() == other.text()
    }
}

impl Eq for TraceLine {}

impl fmt::Debug for TraceLine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TraceLine").field("time", &self.time).field("text", &self.text()).finish()
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
    use crate::validate::validate_metrics_json;
    use heracles_sim::SimTime;
    use std::collections::VecDeque;

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
        assert_eq!(trace.len(), doc.len());
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

    /// A time that steps every 40 events and moves on by a microsecond
    /// within a step, as nanoseconds.
    fn stepped(i: usize) -> u64 {
        15_000_000_000 * (i / 40) as u64 + 1_000 * (i % 40) as u64
    }

    /// The `i`-th event of a stream with fleet-shaped lines at
    /// [`stepped`] times, and every 997th line longer than a chunk.
    fn varied(i: usize) -> TraceEvent {
        let event = TraceEvent::new(SimTime::from_nanos(stepped(i)), "fleet", "wake")
            .u64("server", (i * 37 % 200) as u64)
            .str("reasons", ["load-delta", "job-arrival+load-delta", "controller-poll"][i % 3])
            .f64("load", (i % 1000) as f64 / 997.0);
        if i % 997 == 500 {
            event.str("blob", &"x".repeat(CHUNK + 100))
        } else {
            event
        }
    }

    /// Records `events` of [`varied`] into a ring of `capacity` and checks
    /// its export and every readback against a plain list of the last
    /// `capacity` rendered lines.
    fn matches_reference(capacity: usize, events: usize) -> FlightRecorder {
        let mut rec = FlightRecorder::new(capacity);
        let mut reference: VecDeque<(SimTime, String)> = VecDeque::new();
        for i in 0..events {
            let event = varied(i);
            if reference.len() == capacity {
                reference.pop_front();
            }
            reference.push_back((event.time(), event.jsonl()));
            rec.record(event);
        }
        assert_eq!(
            (rec.len(), rec.dropped()),
            (reference.len(), (events - reference.len()) as u64)
        );

        let doc = rec.document(&[("seed", "7".to_string())]);
        let mut expected = format!(
            "{{\"schema\":\"{TRACE_SCHEMA}\",\"events\":{},\"dropped\":{},\"seed\":\"7\"}}\n",
            rec.len(),
            rec.dropped()
        );
        for (_, line) in &reference {
            expected.push_str(line);
            expected.push('\n');
        }
        assert_eq!(doc.len(), expected.len());
        assert!(doc.to_string() == expected, "the export differs from the rendered lines");
        let mut written = Vec::new();
        doc.write_to(&mut written).unwrap();
        assert!(written == expected.as_bytes(), "write_to differs from the rendered lines");
        doc.validate().unwrap();

        let mut read = 0;
        for (line, (time, text)) in rec.iter().zip(&reference) {
            assert_eq!((line.time(), line.text()), (*time, text.as_str()));
            assert_eq!((line.scope(), line.kind()), ("fleet", "wake"));
            assert_eq!(line, TraceLine::new(text).unwrap());
            read += 1;
        }
        assert_eq!(read, reference.len());
        assert!(rec == rec.clone());
        rec
    }

    fn packed(rec: &FlightRecorder) -> usize {
        rec.sealed.iter().filter(|c| matches!(c, Sealed::Packed { .. })).count()
    }

    /// The number of lines a sealed chunk holds.
    fn line_count(chunk: &Sealed) -> usize {
        chunk.shared().matches('\n').count()
    }

    #[test]
    fn a_lossless_recorder_packs_its_chunks_and_exports_every_byte() {
        let rec = matches_reference(3000, 3000);
        assert!(packed(&rec) >= 3, "{} of {} chunks packed", packed(&rec), rec.sealed.len());
        // Each line longer than a chunk is a raw chunk of its own.
        let raw: Vec<_> = rec.sealed.iter().filter(|c| matches!(c, Sealed::Raw(_))).collect();
        assert_eq!(raw.len(), 3);
        assert!(raw.iter().all(|c| line_count(c) == 1));
        let (block_bytes, packed_lines) =
            rec.sealed.iter().fold((0, 0), |(bytes, lines), c| match c {
                Sealed::Packed { block, len } => (bytes + block.len(), lines + len),
                Sealed::Raw(_) => (bytes, lines),
            });
        assert!(block_bytes * 4 < packed_lines, "{block_bytes} B packed from {packed_lines} B");
    }

    #[test]
    fn a_ring_evicting_mid_chunk_keeps_its_last_lines() {
        let rec = matches_reference(1000, 2700);
        assert!(rec.head_bytes > 0, "the last eviction should land inside a chunk");
        assert!(rec.sealed.len() >= 3 && packed(&rec) >= 1);
        assert!(matches!(rec.sealed[0], Sealed::Raw(_)), "the front chunk is unpacked");
    }

    #[test]
    fn a_ring_frees_the_chunks_it_has_evicted() {
        let rec = matches_reference(700, 6000);
        // 700 lines of about 130 B span two chunks, three with a long line.
        assert!(rec.sealed.len() <= 3, "{} sealed chunks for 700 lines", rec.sealed.len());
        assert!(rec.head_bytes <= CHUNK);
    }

    #[test]
    fn tiny_rings_evict_from_the_open_chunk_and_past_long_lines() {
        for capacity in [1, 3] {
            matches_reference(capacity, 2600);
        }
    }

    #[test]
    fn a_line_reads_its_time_from_its_t_and_without_one_is_an_error() {
        let line = TraceLine::new(r#"{"t":15.000001,"scope":"a","kind":"b"}"#).unwrap();
        assert_eq!(line.time(), SimTime::from_nanos(15_000_001_000));
        for text in ["", "{", r#"{"scope":"a"}"#, r#"{"t":-1.0}"#, r#"{"t":null}"#, r#"{"t":"1"}"#]
        {
            assert!(TraceLine::new(text).is_err(), "{text} read as a line");
        }
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "whole microseconds")]
    fn a_sub_microsecond_time_is_refused() {
        let mut rec = FlightRecorder::new(4);
        rec.record(TraceEvent::new(SimTime::from_nanos(15_000_000_500), "test", "tick"));
    }
}
