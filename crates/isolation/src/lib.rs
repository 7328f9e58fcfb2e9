//! The DRAM bandwidth monitor Heracles reads, and the OS-only baseline
//! mechanism.
//!
//! Heracles' four isolation mechanisms (cpuset, CAT, DVFS, HTB) are plain
//! writes to a [`heracles_hw::Server`]'s allocations, made by the
//! sub-controllers in `heracles_core` the same way every baseline makes them.
//! This crate holds the two pieces that carry state or behaviour of their
//! own:
//!
//! * [`DramBwMonitor`] — total and per-class DRAM bandwidth, plus the
//!   bandwidth derivative Algorithm 2 uses to predict the next step,
//! * [`CfsShares`] — the OS-only baseline (no pinning, CFS `shares`), which
//!   the paper shows is insufficient for colocation.
//!
//! # Example
//!
//! ```
//! use heracles_hw::CounterSnapshot;
//! use heracles_isolation::{CfsShares, DramBwMonitor};
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
//! assert!(CfsShares::new(1024, 2).lc_time_fraction() > 0.99);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod cfs;
pub mod dram_monitor;

pub use cfs::CfsShares;
pub use dram_monitor::{DramBwMonitor, DramBwReading};
