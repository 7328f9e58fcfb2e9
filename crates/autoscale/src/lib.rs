//! Elastic fleet controller: grow, shrink and re-shape the Heracles fleet
//! by marginal TCO.
//!
//! The paper's headline claim is economic — colocation raises effective
//! machine utilization and therefore cuts TCO at a fixed workload.  This
//! crate makes that claim *dynamic*: a fleet that grows and shrinks with
//! queue depth and diurnal phase should beat any static fleet on TCO per
//! unit of useful work.  It wraps the `heracles_fleet` scheduler in a
//! closed loop:
//!
//! * `policy` — the [`AutoscalePolicy`] trait and the built-in
//!   autoscaler, one decision procedure over named constants built per
//!   [`AutoscaleKind`]: the static baseline, reactive, diurnal-forecast
//!   predictive and energy-price-aware modes (see the module doc),
//! * `market` — the [`GenerationMarket`]: scale-out buys the hardware
//!   generation with the best marginal BE throughput per TCO dollar (core
//!   count, platform-floor cost scaling and per-generation interference
//!   hostility all priced in),
//! * `action` — [`ScaleAction`] / [`ScaleSignals`] / the audit-log
//!   [`ScaleEvent`]s,
//! * `elastic` — the [`ElasticFleet`] loop itself, including the drain
//!   pricer: scale-in drains a server by *live-migrating* its resident jobs
//!   to the destinations with the best marginal headroom (remaining demand
//!   preserved, a migration cost in core·seconds charged), requeueing only
//!   jobs whose residual demand is smaller than the migration overhead, and
//!   retires a server only once it is empty.
//!
//! # Example
//!
//! ```
//! use heracles_autoscale::{AutoscaleConfig, AutoscaleKind, ElasticFleet};
//! use heracles_fleet::PolicyKind;
//! use heracles_hw::ServerConfig;
//!
//! let mut config = AutoscaleConfig::fast_test();
//! config.fleet.steps = 6;
//! config.fleet.servers = 4;
//! config.min_servers = 2;
//! config.max_servers = 8;
//! let result = ElasticFleet::new(
//!     config,
//!     ServerConfig::default_haswell(),
//!     PolicyKind::LeastLoaded,
//!     AutoscaleKind::Reactive,
//! )
//! .run();
//! assert_eq!(result.fleet.steps.len(), 6);
//! assert!(result.fleet.total_tco_dollars() > 0.0);
//! ```

#![warn(missing_docs)]
#![warn(unreachable_pub)]
#![forbid(unsafe_code)]

mod action;
mod elastic;
mod market;
mod policy;

pub use action::{ScaleAction, ScaleEvent, ScaleEventKind, ScaleSignals};
pub use elastic::{AutoscaleConfig, AutoscaleResult, ElasticFleet, MIGRATION_COST_CORE_S};
pub use market::GenerationMarket;
pub use policy::{AutoscaleKind, AutoscalePolicy};
