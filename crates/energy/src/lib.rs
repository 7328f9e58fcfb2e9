//! The fleet-wide energy plane (paper §5, lifted from one leaf to the
//! whole fleet).
//!
//! The per-leaf power machinery — the package power model behind
//! `heracles_hw::Server::evaluate` and the Algorithm-3 power sub-controller —
//! already reproduces RAPL-guided DVFS on a single server.  This crate
//! adds the three fleet-level pieces the paper's TCO story needs:
//!
//! * [`EnergyPriceSchedule`] / [`EnergyConfig`] — time-of-day electricity
//!   pricing (flat, peak/off-peak, or a carbon-intensity curve) that turns
//!   joules into dollars beside amortized capex,
//! * [`EnergyMeter`] — deterministic per-leaf / per-(service × generation)
//!   pool / fleet joule ledgers, integrated from the package watts each
//!   measurement window reports.  Metering is a pure read-only shadow of
//!   the simulation: switching it on changes no simulated outcome,
//! * [`PowerCapCoordinator`] — distributes a cluster watt budget into
//!   per-leaf RAPL-style package caps (and a fleet BE-admission throttle
//!   when the budget is tight), shaving best-effort work first and
//!   defending latency-critical frequency last, mirroring Algorithm 3's
//!   ordering.
//!
//! Everything here is analytic and deterministic — no wall-clock, no RNG —
//! so energy ledgers are bitwise reproducible for a seed and identical
//! between the stepped and event-driven simulation cores.

#![warn(missing_docs)]
#![warn(unreachable_pub)]
#![forbid(unsafe_code)]

mod cap;
mod meter;
mod price;

pub use cap::{CapPlan, LeafCapAssignment, PowerCapCoordinator};
pub use meter::{EnergyLedger, EnergyMeter};
pub use price::{hour_of_day, joules_to_dollars, EnergyConfig, EnergyPriceSchedule};
