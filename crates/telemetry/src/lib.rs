//! Deterministic telemetry plane for the Heracles reproduction.
//!
//! Every layer of the stack makes decisions worth auditing — the per-server
//! controller's Algorithm 1 transitions, the placement store's admission
//! verdicts, the traffic plane's diverts, the elastic controller's buys and
//! drains — but the workspace's determinism contract forbids folding any
//! diagnostic state into the bit-compared result types.  This crate is the
//! shared answer:
//!
//! * [`TraceEvent`] — a structured, *sim-time-stamped* decision record.
//!   Events never carry wall-clock values, so two runs with the same seed
//!   produce byte-identical trace files.
//! * [`FlightRecorder`] — a bounded ring the fleet records its events
//!   into in deterministic order.  It holds each event as the JSONL
//!   line it exports as, rendered once on record, in chunks of whole lines:
//!   an open one being filled, and sealed ones of up to 64 KiB compressed
//!   by the crate's small codec (an LZ77 parse over DEFLATE's hash chains
//!   with 16-bit offsets, its symbols in per-block Huffman codes: about
//!   17x on a 14 MB fleet trace), or kept raw when that would not shrink
//!   them.  The lines are all it keeps: it reads retained events back as
//!   [`TraceLine`]s, one unpacked chunk at a time, each line's time from
//!   its own `t` (exact, since every recorded time is a whole number of
//!   microseconds and `t` holds six decimals).  Its export is
//!   a [`TraceDocument`]: the header line beside the recorder, written to
//!   a sink chunk by chunk through a fixed buffer.  The codec is lossless
//!   and a chunk unpacks to exactly the bytes sealed into it, so the
//!   exported bytes are the rendered lines, byte for byte, whether or not
//!   they were ever compressed.
//! * [`MetricsRegistry`] — named counters, gauges and distributions keyed
//!   by static metric ids, iterated in sorted order so the export is
//!   deterministic.  A distribution is a [`QuantileSketch`], the same
//!   estimator the [`HealthPlane`] keeps per cell, so its exported
//!   p50/p95/p99 carry the sketch's [`RELATIVE_ERROR`] bound.
//!
//! Both documents go through one writer and one reader.  The workspace
//! deliberately vendors no JSON library: every number and literal either
//! document holds is written by `TraceValue::write_json`, every string and
//! key escaped the same way, and [`Object::parse`] strictly reads either
//! one back, with typed reads that name a missing or mistyped key; the
//! validators check both schemas through it.
//! Neither artifact carries wall-clock time: simulator cost is measured
//! from outside the simulation.
//!
//! # Example
//!
//! ```
//! use heracles_sim::SimTime;
//! use heracles_telemetry::{TelemetryConfig, Telemetry, TraceEvent};
//!
//! let mut tel = Telemetry::new(TelemetryConfig::enabled()).expect("enabled");
//! tel.recorder.record(
//!     TraceEvent::new(SimTime::from_secs(15), "core", "be_state")
//!         .str("from", "disabled")
//!         .str("to", "enabled")
//!         .f64("slack", 0.42),
//! );
//! tel.metrics.inc("core.be_state_transitions");
//! let doc = tel.trace_jsonl(&[("seed", "7".into())]);
//! doc.validate().unwrap();
//! let mut file = Vec::new(); // say, a `std::fs::File`
//! doc.write_to(&mut file).unwrap();
//! assert_eq!(file.len(), doc.len());
//! ```

#![warn(missing_docs)]
#![warn(unreachable_pub)]
#![forbid(unsafe_code)]

mod codec;
mod config;
mod health;
mod json;
mod metrics;
mod recorder;
mod sketch;
mod trace;
mod validate;

pub use config::TelemetryConfig;
pub use health::{AlertEngine, AlertKind, CellSketches, HealthPlane};
pub use json::{Object, ReadError};
pub use metrics::MetricsRegistry;
pub use recorder::{FlightRecorder, Telemetry, TraceDocument, TraceLine};
pub use sketch::{QuantileSketch, RELATIVE_ERROR};
pub use trace::{TraceEvent, TraceValue};
pub use validate::{validate_metrics_json, TraceCheck, TRACE_SCHEMA};
