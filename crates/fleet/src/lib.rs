//! Fleet scheduler: cluster-wide BE job placement over per-server Heracles
//! controllers.
//!
//! The paper's cluster experiment (§5.3) hard-wires one BE task per leaf;
//! this crate asks the fleet-level question Heracles enables: given a stream
//! of best-effort jobs and a diurnally loaded LC fleet, where should the
//! work go, and how much machine utilization does the fleet recover?
//!
//! The subsystem follows the placement-store-plus-scheduler shape of cluster
//! managers:
//!
//! * `job` — the BE job model and the seeded arrival `JobQueue`: Poisson
//!   arrivals, bounded-Pareto core·second demands, workloads drawn from the
//!   paper's production or evaluation set,
//! * `generation` — hardware [`Generation`]s and the fleet's
//!   [`GenerationMix`]: real datacenters mix server generations, so
//!   placement has to reason about per-server capacity,
//! * `traffic` — the [`TrafficPlane`]: each LC service's aggregate
//!   diurnal demand (from a `ServiceCatalog`) is routed onto the
//!   in-service leaves every step by a pluggable [`LoadBalancer`]
//!   (capacity-weighted or slack-aware), conserving demand exactly — a
//!   retired leaf's share lands on the survivors as added load instead of
//!   silently evaporating,
//! * `store` — the [`PlacementStore`]: per-server capacity (cores, DRAM
//!   bandwidth, BE slots derived from core count, the (generation ×
//!   service) cell and its peak QPS) and BE slot occupancy plus the live
//!   signals the per-server Heracles controllers expose (LC load, latency
//!   slack, admission verdict, recent EMU),
//! * `policy` — pluggable [`PlacementPolicy`] implementations: Random,
//!   FirstFit, LeastLoaded and InterferenceAware (which consults the §3.2
//!   interference characterization, measured per (hardware generation, LC
//!   service) cell, to keep hostile antagonists away from near-knee LC
//!   services — iperf-like jobs off memkeyval leaves — and DRAM-hungry
//!   jobs on high-bandwidth boxes),
//! * `fleet` — the [`FleetSim`] discrete-time simulator: dispatch,
//!   parallel per-server stepping, job completion and preemption/requeue
//!   when a leaf's controller disables BE,
//! * `metrics` — [`FleetResult`]: BE throughput, queueing delay (with
//!   censored-job accounting), core-weighted fleet EMU, SLO violation rate
//!   and throughput/TCO via the paper's TCO model.
//!
//! # Example
//!
//! ```
//! use heracles_fleet::{FleetConfig, FleetSim, PolicyKind};
//! use heracles_hw::ServerConfig;
//!
//! let config = FleetConfig {
//!     servers: 4,
//!     steps: 6,
//!     ..FleetConfig::fast_test()
//! };
//! let result = FleetSim::new(config, ServerConfig::default_haswell(), PolicyKind::FirstFit).run();
//! assert_eq!(result.steps.len(), 6);
//! assert!(result.mean_fleet_emu() >= result.mean_lc_load());
//! ```

#![warn(missing_docs)]
#![warn(unreachable_pub)]
#![forbid(unsafe_code)]

mod fleet;
mod generation;
mod job;
mod metrics;
mod observe;
mod policy;
mod store;
mod traffic;

pub use fleet::{
    single_server_baseline_violations, FleetConfig, FleetSim, SimCore, MAX_FLEET_SERVERS,
};
pub use generation::{Generation, GenerationMix};
/// The load below which a leaf controller enables BE work, which the
/// store's admission envelope follows.
pub use heracles_core::LOAD_ENABLE_THRESHOLD;
pub use heracles_energy::{hour_of_day, EnergyConfig, EnergyMeter, EnergyPriceSchedule};
pub use heracles_telemetry::{Telemetry, TelemetryConfig};
pub use job::{BeJob, JobId, JobMix, JobStreamConfig};
pub use metrics::{
    core_weighted_mean, server_step_tco_dollars, FleetEvent, FleetEventKind, FleetResult,
    FleetStep, QueueingDelaySummary, ServerPlaneCounts,
};
pub use policy::{
    marginal_headroom_cores, FirstFit, InterferenceAware, InterferenceModel, LeastLoaded,
    PlacementPolicy, PolicyKind, RandomPlacement,
};
pub use store::{PlacementStore, ServerCapacity, ServerEntry, ServerId, ServerState};
pub use traffic::{BalancerKind, LeafView, LoadBalancer, RoutingStep, TrafficPlane};
