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
use crate::json::{Json, Object};
use crate::metrics::MetricsRegistry;
use crate::trace::{write_escaped, TraceEvent, TraceValue};
use crate::validate::{TraceCheck, TRACE_SCHEMA};

/// The most bytes of lines a chunk holds: a chunk is sealed before the
/// line that would take it past this size.  The codec's 16-bit offsets
/// reach across a whole chunk, and an export unpacks any packed chunk into
/// one stack buffer of this size.  (On a 14 MB fleet trace, 64 KiB chunks
/// compress 10.2x and 16 KiB ones 9.3x.)
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
/// an open chunk, with the event's exact [`SimTime`] beside it as a varint
/// of its difference from the line before.  Before a line would take the
/// open chunk past 64 KiB, the chunk is sealed: its lines are compressed
/// by the crate's LZ77 codec, or kept as they are when that would not
/// shrink them (as is a lone line longer than a chunk).  Chunks hold whole
/// lines.  Eviction counts lines off the head of the oldest chunk,
/// unpacking it once to find their ends, and frees the chunk with its last
/// line, so the ring holds at most one chunk of evicted lines.
///
/// The codec is lossless and a chunk unpacks to exactly the bytes that
/// were sealed, so compression changes what the ring holds and never what
/// it exports: [`document`](Self::document) writes the bytes the lines
/// were rendered as, unpacking one chunk at a time into a fixed buffer,
/// and [`iter`](Self::iter) reads the retained events back as
/// [`TraceLine`]s, one unpacked chunk at a time: the exact time from the
/// chunk's index, and every field by [`TraceLine::field`]'s rule.
#[derive(Debug, Clone)]
pub struct FlightRecorder {
    capacity: usize,
    /// Sealed chunks, oldest first.
    sealed: VecDeque<Chunk>,
    /// The chunk being filled: whole lines, each ending in `\n`.
    open: String,
    /// The open chunk's line count and times.
    open_lines: usize,
    open_times: TimeIndex,
    /// Lines, and their bytes, already evicted from the front chunk: the
    /// oldest sealed one, or the open one when none is sealed.
    head_lines: usize,
    head_bytes: usize,
    /// Retained lines, and their bytes with newlines.
    len: usize,
    bytes: usize,
    dropped: u64,
    /// The next event's line, rendered before it joins a chunk.
    line: String,
}

/// A sealed run of whole lines.
#[derive(Debug, Clone)]
struct Chunk {
    text: ChunkText,
    lines: usize,
    /// The lines' times, as [`TimeIndex`] wrote them.
    times: Box<[u8]>,
}

/// A sealed chunk's lines.
#[derive(Debug, Clone)]
enum ChunkText {
    /// A codec block and the length of the lines it unpacks to (at most
    /// [`CHUNK`]).
    Packed { block: Box<[u8]>, len: usize },
    /// The lines as they are: a block would not have been shorter, or the
    /// chunk is being evicted from.
    Raw(Arc<str>),
}

impl ChunkText {
    /// Packs `text` when that shrinks it.
    fn seal(text: &str) -> ChunkText {
        if text.len() <= CHUNK {
            let mut block = Vec::with_capacity(text.len());
            codec::compress(text.as_bytes(), &mut block);
            if block.len() < text.len() {
                return ChunkText::Packed { block: Box::from(&block[..]), len: text.len() };
            }
        }
        ChunkText::Raw(text.into())
    }

    /// The lines, unpacked into a buffer of their own when packed.
    fn shared(&self) -> Arc<str> {
        match self {
            ChunkText::Raw(text) => Arc::clone(text),
            ChunkText::Packed { block, len } => Arc::from(unpack(block, *len, &mut vec![0; *len])),
        }
    }
}

/// Unpacks a sealed block of `len` bytes of lines into the front of `buf`.
fn unpack<'b>(block: &[u8], len: usize, buf: &'b mut [u8]) -> &'b str {
    let n = codec::decompress(block, buf).expect("a sealed block decodes");
    assert_eq!(n, len, "a sealed block decodes to the lines it was packed from");
    std::str::from_utf8(&buf[..n]).expect("a chunk holds whole UTF-8 lines")
}

/// The length of the line at `from`, with its newline.
fn line_len(text: &str, from: usize) -> usize {
    text[from..].find('\n').expect("every retained line ends in a newline") + 1
}

/// Exact line times, each the zigzag LEB128 varint of its difference from
/// the time before it (from zero for a chunk's first line).  The lines of
/// one fleet step share a time, so most take a single byte.
#[derive(Debug, Clone, Default)]
struct TimeIndex {
    bytes: Vec<u8>,
    last: u64,
}

impl TimeIndex {
    fn push(&mut self, time: SimTime) {
        let delta = time.as_nanos().wrapping_sub(self.last) as i64;
        self.last = time.as_nanos();
        let mut zigzag = ((delta << 1) ^ (delta >> 63)) as u64;
        while zigzag >= 0x80 {
            self.bytes.push(zigzag as u8 | 0x80);
            zigzag >>= 7;
        }
        self.bytes.push(zigzag as u8);
    }
}

/// Reads a [`TimeIndex`]'s times back, oldest first.
struct Times<'a> {
    bytes: &'a [u8],
    last: u64,
}

impl Iterator for Times<'_> {
    type Item = SimTime;

    fn next(&mut self) -> Option<SimTime> {
        let mut zigzag = 0u64;
        for shift in (0..64).step_by(7) {
            let (&byte, rest) = self.bytes.split_first()?;
            self.bytes = rest;
            zigzag |= u64::from(byte & 0x7f) << shift;
            if byte < 0x80 {
                break;
            }
        }
        let delta = (zigzag >> 1) as i64 ^ -((zigzag & 1) as i64);
        self.last = self.last.wrapping_add(delta as u64);
        Some(SimTime::from_nanos(self.last))
    }
}

/// The lines of one unpacked chunk from byte `at`, with their times.
struct ChunkLines<'a> {
    text: Arc<str>,
    at: usize,
    times: Times<'a>,
}

impl Iterator for ChunkLines<'_> {
    type Item = TraceLine;

    fn next(&mut self) -> Option<TraceLine> {
        let time = self.times.next()?;
        let start = self.at;
        self.at += line_len(&self.text, start);
        Some(TraceLine { time, chunk: Arc::clone(&self.text), start, end: self.at - 1 })
    }
}

impl FlightRecorder {
    /// A recorder holding at most `capacity` events (at least one).
    pub fn new(capacity: usize) -> Self {
        FlightRecorder {
            capacity: capacity.max(1),
            sealed: VecDeque::new(),
            open: String::new(),
            open_lines: 0,
            open_times: TimeIndex::default(),
            head_lines: 0,
            head_bytes: 0,
            len: 0,
            bytes: 0,
            dropped: 0,
            line: String::new(),
        }
    }

    /// Renders one event onto the ring, evicting the oldest if it is full.
    pub fn record(&mut self, event: TraceEvent) {
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
        if self.open.capacity() == 0 {
            self.open.reserve_exact(CHUNK);
        }
        self.open.push_str(&self.line);
        self.open_lines += 1;
        self.open_times.push(event.time());
        self.len += 1;
        self.bytes += self.line.len();
        // A line longer than a chunk is sealed on its own, kept raw.
        if self.open.len() > CHUNK {
            self.seal();
        }
    }

    /// Seals the open chunk, if it holds any line.
    fn seal(&mut self) {
        if self.open_lines == 0 {
            return;
        }
        self.sealed.push_back(Chunk {
            text: ChunkText::seal(&self.open),
            lines: self.open_lines,
            times: Box::from(&self.open_times.bytes[..]),
        });
        self.clear_open();
    }

    /// Empties the open chunk, keeping a chunk's room for the next lines.
    fn clear_open(&mut self) {
        self.open.clear();
        self.open.shrink_to(CHUNK);
        self.open_lines = 0;
        self.open_times.bytes.clear();
        self.open_times.last = 0;
    }

    fn evict_oldest(&mut self) {
        let line = match self.sealed.front_mut() {
            Some(chunk) => {
                let text = chunk.text.shared();
                let line = line_len(&text, self.head_bytes);
                chunk.text = ChunkText::Raw(text);
                line
            }
            None => line_len(&self.open, self.head_bytes),
        };
        self.head_bytes += line;
        self.head_lines += 1;
        self.bytes -= line;
        self.len -= 1;
        self.dropped += 1;
        if self.head_lines == self.sealed.front().map_or(self.open_lines, |chunk| chunk.lines) {
            if self.sealed.pop_front().is_none() {
                self.clear_open();
            }
            (self.head_lines, self.head_bytes) = (0, 0);
        }
    }

    /// Appends every event from `iter` in order.
    pub fn extend(&mut self, iter: impl IntoIterator<Item = TraceEvent>) {
        for event in iter {
            self.record(event);
        }
    }

    /// The retained events, oldest first, unpacking one chunk at a time.
    pub fn iter(&self) -> impl Iterator<Item = TraceLine> + '_ {
        let sealed = self.sealed.iter().map(|chunk| (chunk.text.shared(), &chunk.times[..]));
        let open = (self.open_lines > 0)
            .then(|| (Arc::from(self.open.as_str()), &self.open_times.bytes[..]));
        let mut head = Some((self.head_bytes, self.head_lines));
        sealed.chain(open).flat_map(move |(text, times)| {
            let (at, evicted) = head.take().unwrap_or_default();
            let mut times = Times { bytes: times, last: 0 };
            times.by_ref().take(evicted).for_each(drop);
            ChunkLines { text, at, times }
        })
    }

    /// Hands `f` the retained lines chunk by chunk, oldest first, each a
    /// run of whole newline-terminated lines.  A packed chunk is unpacked
    /// into one buffer on the stack, so this allocates nothing.
    fn try_for_each_chunk<E>(&self, mut f: impl FnMut(&str) -> Result<(), E>) -> Result<(), E> {
        let mut buf = [0u8; CHUNK];
        let mut head = self.head_bytes;
        for chunk in &self.sealed {
            let text = match &chunk.text {
                ChunkText::Raw(text) => text,
                ChunkText::Packed { block, len } => unpack(block, *len, &mut buf),
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
/// [`time`](Self::time) is exact: the recorder keeps it beside the line.
/// Everything else is read from the line by the crate's one parser
/// ([`Object::parse`]), so a `TraceLine` sees exactly what a reader of the
/// exported JSONL sees.  A line read from the recorder shares its unpacked
/// chunk with the chunk's other lines.
#[derive(Clone)]
pub struct TraceLine {
    time: SimTime,
    chunk: Arc<str>,
    /// The line's bytes in `chunk`, without its newline.
    start: usize,
    end: usize,
}

impl TraceLine {
    /// An event at `time` whose rendered line (without its newline) is
    /// `text`, say a line of an exported document.
    pub fn new(time: SimTime, text: &str) -> Self {
        TraceLine { time, chunk: Arc::from(text), start: 0, end: text.len() }
    }

    /// The rendered line, without its newline.
    fn text(&self) -> &str {
        &self.chunk[self.start..self.end]
    }

    /// The simulated time of the decision, exactly as recorded.
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

/// Two lines are equal when they hold the same time and text, wherever
/// their chunks are.
impl PartialEq for TraceLine {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.text() == other.text()
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

    /// The `i`-th event of a stream with fleet-shaped lines, a time that
    /// steps every 40 events and wobbles by nanoseconds (backwards too),
    /// and every 997th line longer than a chunk.
    fn varied(i: usize) -> TraceEvent {
        let t = 15_000_000_000 * (i / 40) as u64 + [3, 0, 6, 1, 5, 2, 4][i % 7];
        let event = TraceEvent::new(SimTime::from_nanos(t), "fleet", "wake")
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
            assert_eq!(line, TraceLine::new(*time, text));
            read += 1;
        }
        assert_eq!(read, reference.len());
        assert!(rec == rec.clone());
        rec
    }

    fn packed(rec: &FlightRecorder) -> usize {
        rec.sealed.iter().filter(|c| matches!(c.text, ChunkText::Packed { .. })).count()
    }

    #[test]
    fn a_lossless_recorder_packs_its_chunks_and_exports_every_byte() {
        let rec = matches_reference(3000, 3000);
        assert!(packed(&rec) >= 3, "{} of {} chunks packed", packed(&rec), rec.sealed.len());
        // Each line longer than a chunk is a raw chunk of its own.
        let raw: Vec<_> =
            rec.sealed.iter().filter(|c| matches!(c.text, ChunkText::Raw(_))).collect();
        assert_eq!(raw.len(), 3);
        assert!(raw.iter().all(|c| c.lines == 1));
        let (block_bytes, packed_lines) =
            rec.sealed.iter().fold((0, 0), |(bytes, lines), c| match &c.text {
                ChunkText::Packed { block, len } => (bytes + block.len(), lines + len),
                ChunkText::Raw(_) => (bytes, lines),
            });
        assert!(block_bytes * 4 < packed_lines, "{block_bytes} B packed from {packed_lines} B");
    }

    #[test]
    fn a_ring_evicting_mid_chunk_keeps_its_last_lines() {
        let rec = matches_reference(1000, 2700);
        assert!(rec.head_lines > 0, "the last eviction should land inside a chunk");
        assert!(rec.sealed.len() >= 3 && packed(&rec) >= 1);
        assert!(matches!(rec.sealed[0].text, ChunkText::Raw(_)), "the front chunk is unpacked");
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
}
