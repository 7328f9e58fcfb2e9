//! Server hardware model for the Heracles reproduction.
//!
//! The paper runs on dual-socket Haswell servers and controls four isolation
//! mechanisms: cpuset core pinning, Intel CAT way-partitioning of the LLC,
//! per-core DVFS guided by RAPL power readings, and HTB egress traffic
//! shaping.  This crate models the *hardware's* side of those mechanisms: it
//! turns a set of resource allocations plus the offered demands of the
//! colocated workloads into the effective resources each workload receives
//! (frequency, cache capacity, memory access latency, network bandwidth and
//! delay) and into the counter values the controller observes (DRAM bandwidth,
//! per-core bandwidth, RAPL power, core frequency, NIC bytes).
//!
//! The key property the model preserves — and the property Heracles' design
//! depends on (§4.2 of the paper) — is that every shared resource behaves
//! well below saturation and degrades non-linearly as it approaches
//! saturation.
//!
//! # Example
//!
//! ```
//! use heracles_hw::{Server, ServerConfig, ResourceDemand};
//!
//! let mut server = Server::new(ServerConfig::default_haswell());
//! server.allocations_mut().set_lc_cores(18);
//! server.allocations_mut().set_be_cores(18);
//! let outcome = server.evaluate(&ResourceDemand {
//!     lc_active_cores: 12.0,
//!     lc_compute_activity: 0.8,
//!     lc_dram_gbps: 20.0,
//!     lc_llc_footprint_mb: 30.0,
//!     lc_net_gbps: 0.5,
//!     be_active_cores: 18.0,
//!     be_compute_activity: 1.0,
//!     be_dram_gbps_per_core: 2.0,
//!     be_llc_footprint_mb: 40.0,
//!     be_net_offered_gbps: 0.0,
//!     smt_antagonist_intensity: 0.0,
//! });
//! assert!(outcome.lc_freq_ghz > 0.0);
//! assert!(outcome.dram_achieved_gbps <= 120.0);
//! ```

#![warn(missing_docs)]
#![warn(unreachable_pub)]
#![forbid(unsafe_code)]

mod cache;
mod config;
mod counters;
mod memory;
mod network;
mod power;
mod server;

pub use cache::{CacheSplit, LlcModel};
pub use config::ServerConfig;
pub use counters::CounterSnapshot;
pub use memory::{DramModel, DramOutcome};
pub use network::{NetOutcome, NicModel};
pub use power::{PowerModel, PowerOutcome};
pub use server::{Allocations, ContentionOutcome, ResourceDemand, Server};
