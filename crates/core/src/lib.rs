//! # Heracles
//!
//! Heracles is a real-time, feedback-based controller that lets a
//! latency-critical (LC) service share its servers with best-effort (BE)
//! batch tasks without violating the LC service's tail-latency SLO.  It
//! implements the *iso-latency* policy: as long as the measured tail latency
//! leaves positive slack against the SLO target, BE tasks may grow their share
//! of the machine; when slack shrinks or a shared resource approaches
//! saturation, BE tasks are throttled or evicted.
//!
//! The controller coordinates four isolation mechanisms — core pinning
//! (cpuset), LLC way-partitioning (Intel CAT), per-core DVFS guided by RAPL,
//! and HTB egress traffic shaping — through one top-level loop and three
//! sub-controllers, exactly as in Algorithms 1–4 of the paper:
//!
//! * [`Heracles`] — the top-level controller (Algorithm 1): polls tail
//!   latency and load every 15 s, disables colocation on SLO risk or high
//!   load, and tells the sub-controllers whether BE tasks may grow.
//! * `CoreMemoryController` — cores + cache (Algorithm 2): avoids DRAM
//!   bandwidth saturation using measured bandwidth and an
//!   [`OfflineDramModel`] of the LC workload, and grows the BE share by
//!   gradient descent, alternating between growing the BE cache partition
//!   and growing BE cores.
//! * `power::tick` — power (Algorithm 3): keeps the LC cores at their
//!   guaranteed frequency by lowering the BE cores' DVFS cap when the package
//!   approaches TDP.
//! * `network::tick` — network (Algorithm 4): caps BE egress bandwidth
//!   to what the link can spare after the LC traffic plus headroom.
//!
//! Every sub-controller actuates by writing the server's
//! [`Allocations`](heracles_hw::Allocations) directly, the same path the
//! baselines use.
//!
//! Baseline policies and the experiment harness implement
//! [`ColocationPolicy`], so Heracles and the baselines can be swapped in the
//! same experiments.
//!
//! # Example
//!
//! ```
//! use heracles_core::{Heracles, HeraclesConfig, Measurements, ColocationPolicy, OfflineDramModel};
//! use heracles_hw::{Server, ServerConfig};
//! use heracles_sim::SimTime;
//! use heracles_workloads::LcWorkload;
//!
//! let config = ServerConfig::default_haswell();
//! let websearch = LcWorkload::websearch();
//! let dram_model = OfflineDramModel::profile(&websearch, &config);
//! let mut server = Server::new(config);
//! let mut heracles = Heracles::new(HeraclesConfig::default(), websearch.slo(), dram_model);
//! heracles.init(&mut server);
//!
//! // One control epoch with a healthy latency reading.
//! let m = Measurements {
//!     tail_latency_s: 0.010,
//!     load: 0.45,
//!     be_progress: 0.0,
//!     counters: Default::default(),
//! };
//! heracles.tick(SimTime::from_secs(15), &mut server, &m);
//! assert!(heracles.be_enabled());
//! ```

#![warn(missing_docs)]
#![warn(unreachable_pub)]
#![forbid(unsafe_code)]

mod config;
mod controller;
mod core_mem;
mod dram_model;
mod dvfs;
mod measurements;
mod network;
mod policy;
mod power;

pub use config::{HeraclesConfig, LOAD_DISABLE_THRESHOLD, LOAD_ENABLE_THRESHOLD, POLL_PERIOD};
pub use controller::Heracles;

pub use dram_model::OfflineDramModel;
pub use measurements::Measurements;
pub use policy::ColocationPolicy;
