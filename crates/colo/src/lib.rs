//! Single-server colocation harness.
//!
//! This crate wires everything together for one server: an LC workload model,
//! an optional BE workload, the hardware model, and a [`ColocationPolicy`]
//! (Heracles or a baseline).  Time advances in measurement windows; each
//! window the harness
//!
//! 1. derives the offered resource demands from the LC load and the BE task's
//!    profile under the *current* allocations,
//! 2. asks the hardware model for the effective resources and counters,
//! 3. simulates the LC request stream through a discrete-event queue to get
//!    the window's tail latency,
//! 4. computes the BE task's progress (for Effective Machine Utilization),
//! 5. hands the measurements to the policy, which may adjust the allocations
//!    for the next window.
//!
//! The figure-reproduction binaries drive this harness:
//!
//! * `characterize` — the fixed-allocation interference characterization of
//!   Figure 1 and the cores×LLC convexity sweep of Figure 3, each cell laid
//!   out by a [`StaticLayout`], the baselines' fixed-allocation policy,
//! * [`ColoRunner`] — the policy-driven colocation experiments of
//!   Figures 4–7,
//! * the cluster crate stacks many runners into the Figure 8 experiment.
//!
//! A runner keeps no per-window history: its state is the last window's
//! record plus the latency tail one SLO measurement can read, each window
//! cut to its top pick count of samples (61 of a fleet leaf's 1200 for a
//! p99 over five windows) whatever the run length, so a fleet leaf can run
//! indefinitely.  The records each window returns are
//! the caller's to keep or drop; [`ColoSummary::from_records`] summarises
//! any slice of them.
//!
//! [`ColocationPolicy`]: heracles_core::ColocationPolicy
//! [`StaticLayout`]: heracles_baselines::StaticLayout

#![warn(missing_docs)]
#![warn(unreachable_pub)]
#![forbid(unsafe_code)]

mod characterize;
mod config;
mod record;
mod runner;

pub use characterize::{characterize_cell, max_load_under_slo, CharacterizationCell, CELL_WINDOWS};
pub use config::ColoConfig;
pub use record::{ColoSummary, WindowRecord};
pub use runner::{ColoRunner, LeafAdvance, SharedDraws};
