//! The TCO analysis: [`TcoModel`], the Barroso et al.
//! total-cost-of-ownership calculator with the parameters of the paper's
//! case study, used to turn utilization gains into throughput/TCO
//! improvements, and [`FACILITY_PUE`], the facility overhead it assumes.
//!
//! Figure 8's websearch fan-out cluster runs in the `fig8_cluster` binary.

#![warn(missing_docs)]
#![warn(unreachable_pub)]
#![forbid(unsafe_code)]

mod tco;

pub use tco::{TcoModel, FACILITY_PUE};
