//! Workload models for the Heracles reproduction.
//!
//! The paper evaluates three production latency-critical (LC) services —
//! `websearch`, `ml_cluster` and `memkeyval` — colocated with production
//! batch jobs (`brain`, `streetview`) and synthetic antagonists that stress a
//! single shared resource (LLC streaming at three footprints, DRAM streaming,
//! a HyperThread spinloop, a CPU power virus, and iperf network streaming).
//! None of the production binaries or traces are available, so this crate
//! models each workload by the *pressure it puts on each shared resource* and
//! (for the LC services) by how its per-request service time responds to the
//! effective resources it receives.  The profiles are calibrated to the
//! qualitative descriptions in §3.1 of the paper and to the sensitivity
//! patterns of Figure 1.
//!
//! * [`LcWorkload`] — a latency-critical service: SLO, peak throughput,
//!   per-request compute / cache / memory / network demands, and a
//!   service-time model that is evaluated through a discrete-event queue to
//!   produce tail latencies.
//! * [`BeWorkload`] — a best-effort task: per-core DRAM/LLC/power/network
//!   pressure and a throughput model used for Effective Machine Utilization.
//! * [`DiurnalTrace`] — the synthetic 12-hour diurnal load trace used by the
//!   cluster experiment (Figure 8).
//! * [`LcService`] / [`ServiceCatalog`] — first-class LC services: each
//!   service owns an aggregate diurnal demand curve, an SLO and a fleet
//!   share, so a fleet's traffic plane routes *service* demand onto leaves
//!   instead of every server privately owning a trace.
//! * [`Slo`] — SLO bookkeeping (target, percentile, normalized latency).
//!
//! # Example
//!
//! ```
//! use heracles_workloads::{LcWorkload, BeWorkload};
//! let lc = LcWorkload::websearch();
//! let be = BeWorkload::brain();
//! assert_eq!(lc.name(), "websearch");
//! assert!(lc.slo().target_s > 0.001);
//! assert_eq!(be.name(), "brain");
//! ```

#![warn(missing_docs)]
#![warn(unreachable_pub)]
#![forbid(unsafe_code)]

mod be;
mod lc;
mod service;
mod slo;
mod trace;

pub use be::{BeKind, BeWorkload};
pub use lc::{LcKind, LcWorkload, WindowResult};
pub use service::{LcService, ServiceCatalog, ServiceMix, NUM_SERVICES};
pub use slo::Slo;
pub use trace::DiurnalTrace;
