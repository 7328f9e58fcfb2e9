//! Cluster-level evaluation: the websearch fan-out cluster of §5.3 and the
//! TCO analysis.
//!
//! * [`WebsearchCluster`] — a root node fanning every query out to tens of
//!   leaf servers.  Each leaf runs its own [`ColoRunner`] (websearch plus a
//!   production BE task) under its own per-server Heracles instance, exactly
//!   as the paper deploys it; the root-level latency is derived from the leaf
//!   latencies and compared against an SLO set from the 90%-load baseline.
//! * [`TcoModel`] — the Barroso et al. total-cost-of-ownership calculator
//!   with the parameters of the paper's case study, used to turn utilization
//!   gains into throughput/TCO improvements.
//!
//! [`ColoRunner`]: heracles_colo::ColoRunner

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod cluster;
pub mod tco;

pub use cluster::{ClusterConfig, ClusterResult, ClusterStep, WebsearchCluster};
pub use tco::{TcoModel, FACILITY_PUE};
