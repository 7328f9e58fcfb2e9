//! Deterministic simulation kernel for the Heracles reproduction.
//!
//! This crate provides the small set of primitives every other crate in the
//! workspace builds on:
//!
//! * [`SimTime`] / [`SimDuration`] — nanosecond-resolution simulated time,
//! * [`SimRng`] — a deterministic, fork-able random number generator with the
//!   distributions the workload models need (exponential, log-normal, Pareto),
//! * `stats` — latency recorders and percentile estimation used to compute
//!   tail latencies exactly the way the paper's controller consumes them,
//! * `queue` — a discrete-event multi-server FCFS queue used to turn a
//!   service-time model into a tail-latency distribution,
//! * `csv` — the CSV formatting/escaping helpers every exporter shares,
//! * `parallel` — scoped-thread fan-out used by the figure binaries and
//!   the fleet simulator to run independent cells/servers concurrently.
//!
//! Everything is deterministic given a seed: the same experiment run twice
//! produces bit-identical output, which the test suite relies on.
//!
//! # Example
//!
//! ```
//! use heracles_sim::{MultiServerQueue, SimRng};
//!
//! // Tail latency of an M/M/4 queue at 60% utilization.
//! let mut rng = SimRng::new(42);
//! let mean_service = 0.001; // 1 ms
//! let servers = 4;
//! let arrival_rate = 0.6 * servers as f64 / mean_service;
//! let sim = MultiServerQueue::new(servers);
//! let mut lat = sim.run(&mut rng, arrival_rate, 20_000, |rng| rng.exp(mean_service));
//! assert!(lat.quantile(0.99) > mean_service);
//! ```

#![warn(missing_docs)]
#![warn(unreachable_pub)]
#![forbid(unsafe_code)]

mod csv;
mod diffusion;
mod parallel;
mod queue;
mod rng;
mod stats;
mod time;

pub use csv::CsvRow;
pub use diffusion::{diffuse, diffuse_counts};
#[doc(hidden)]
pub use parallel::with_worker_threads;
pub use parallel::{parallel_map, parallel_map_mut};
pub use queue::MultiServerQueue;
pub use rng::{LogNormal, SimRng, StandardDraws};
pub use stats::LatencyRecorder;
pub use time::{SimDuration, SimTime};
