//! The DRAM bandwidth monitor Heracles reads.
//!
//! Heracles' four isolation mechanisms (cpuset, CAT, DVFS, HTB) are plain
//! writes to a [`heracles_hw::Server`]'s allocations, made by the
//! sub-controllers in `heracles_core` the same way every baseline makes them.
//! This crate holds the one piece that carries state of its own:
//! [`DramBwMonitor`], total and per-class DRAM bandwidth plus the bandwidth
//! derivative Algorithm 2 uses to predict the next step.
//!
//! # Example
//!
//! ```
//! use heracles_hw::CounterSnapshot;
//! use heracles_isolation::DramBwMonitor;
//!
//! let mut monitor = DramBwMonitor::new();
//! let counters = CounterSnapshot {
//!     dram_total_gbps: 60.0,
//!     dram_be_gbps: 20.0,
//!     dram_peak_gbps: 120.0,
//!     ..CounterSnapshot::default()
//! };
//! let reading = monitor.measure(&counters);
//! assert_eq!(reading.lc_gbps, 40.0);
//! ```

#![warn(missing_docs)]
#![warn(unreachable_pub)]
#![forbid(unsafe_code)]

mod dram_monitor;

pub use dram_monitor::{DramBwMonitor, DramBwReading};
