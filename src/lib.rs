//! Facade crate for the Heracles reproduction workspace.
//!
//! The actual implementation lives in the `crates/` workspace members; this
//! crate re-exports each of them under a stable module name so downstream
//! users (and the top-level `tests/` and `examples/`) can depend on a single
//! package.  The crate map:
//!
//! * [`sim`] — deterministic simulation kernel (time, RNG, queues, latency
//!   recorders),
//! * [`telemetry`] — decision tracing, metrics registry, flight recorder,
//! * [`hw`] — server hardware model (cores, LLC, DRAM, power, NIC),
//! * [`isolation`] — the DRAM bandwidth monitor,
//! * [`workloads`] — LC service and BE task models,
//! * [`core`] — the Heracles controller (Algorithms 1–4),
//! * [`baselines`] — `StaticLayout`, the fixed-allocation policy behind the
//!   LC-only / OS-only / static-partition baselines and the CFS delay model,
//! * [`colo`] — single-server colocation harness and characterization,
//! * [`cluster`] — the Barroso TCO model,
//! * [`fleet`] — cluster-wide BE job scheduler over per-server Heracles
//!   controllers (job queue, placement store, placement policies),
//! * [`autoscale`] — elastic fleet controller over [`fleet`]: buys, drains
//!   and live-migrates by marginal TCO,
//! * [`bench`](mod@bench) — shared helpers for the figure-reproduction binaries.

#![warn(missing_docs)]
#![warn(unreachable_pub)]
#![forbid(unsafe_code)]

pub use heracles_autoscale as autoscale;
pub use heracles_baselines as baselines;
pub use heracles_bench as bench;
pub use heracles_cluster as cluster;
pub use heracles_colo as colo;
pub use heracles_core as core;
pub use heracles_fleet as fleet;
pub use heracles_hw as hw;
pub use heracles_isolation as isolation;
pub use heracles_sim as sim;
pub use heracles_telemetry as telemetry;
pub use heracles_workloads as workloads;
