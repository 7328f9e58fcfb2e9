//! Baseline colocation policies the paper compares against (implicitly or
//! explicitly).  Each is one fixed setting of the four isolation mechanisms,
//! so each is a value of one type, [`StaticLayout`], which writes its
//! [`Layout`] once at `init` and never changes it:
//!
//! * [`StaticLayout::lc_only`] — no colocation at all: the LC workload owns
//!   the whole server.  This is the "baseline" series in Figures 4–8 and the
//!   reference point for Effective Machine Utilization.
//! * [`StaticLayout::os_only`] — colocation with nothing but OS-level
//!   isolation: both workloads run in containers, the BE task gets a very
//!   low CFS share, and no pinning, CAT, DVFS or traffic shaping is used.
//!   This reproduces the `brain` rows of Figure 1, which motivate the need
//!   for stronger isolation; [`SchedulingDelay`] samples the
//!   scheduling delays it inflicts on LC requests.
//! * [`StaticLayout::static_partition`] — a fixed, load-independent split
//!   of cores, cache ways and network bandwidth.  The paper argues (§3.3)
//!   that any static policy is either too conservative or causes SLO
//!   violations; this policy lets the ablation benchmarks quantify that.
//!
//! The single-server characterization of Figures 1 and 3 pins its layouts
//! through the same type.

#![warn(missing_docs)]
#![warn(unreachable_pub)]
#![forbid(unsafe_code)]

mod cfs;
mod lc_only;
mod os_only;
mod static_partition;

pub use cfs::SchedulingDelay;

use heracles_core::{ColocationPolicy, Decisions, Measurements};
use heracles_hw::Server;
use heracles_sim::SimTime;

/// One fixed setting of the four isolation mechanisms.  The package power
/// cap is not part of it: a layout leaves the cap as it finds it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Layout {
    /// Cores pinned to the LC workload (clamped to the machine, so
    /// `usize::MAX` means every core).
    pub lc_cores: usize,
    /// Cores BE tasks run on (clamped to the cores the LC workload leaves
    /// free, or to the machine when they share the LC cores).
    pub be_cores: usize,
    /// Whether BE tasks may share the LC cores (their sibling HyperThreads,
    /// or unpinned OS scheduling).
    pub be_shares_lc_cores: bool,
    /// The CAT way split `(lc_ways, be_ways)` (clamped to at least one way
    /// per class), or `None` for a shared LLC.
    pub cat: Option<(usize, usize)>,
    /// The DVFS cap on BE cores, in GHz.
    pub be_freq_cap_ghz: Option<f64>,
    /// The HTB egress ceiling on the BE class, in Gbps.
    pub be_net_ceil_gbps: Option<f64>,
}

/// A colocation policy that applies one [`Layout`] at `init` and never
/// changes it.
///
/// # Example
///
/// ```
/// use heracles_baselines::{Layout, StaticLayout};
/// use heracles_core::ColocationPolicy;
/// use heracles_hw::{Server, ServerConfig};
/// let mut server = Server::new(ServerConfig::default_haswell());
/// let layout = Layout {
///     lc_cores: 30,
///     be_cores: 6,
///     be_shares_lc_cores: false,
///     cat: Some((16, 4)),
///     be_freq_cap_ghz: None,
///     be_net_ceil_gbps: Some(1.0),
/// };
/// let mut policy = StaticLayout::new("pinned", layout, true);
/// policy.init(&mut server);
/// assert_eq!(server.allocations().be_cores(), 6);
/// assert_eq!(server.allocations().be_ways(), 4);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct StaticLayout {
    name: &'static str,
    layout: Layout,
    be_enabled: bool,
}

impl StaticLayout {
    /// A policy named `name` that applies `layout`; `be_enabled` is what it
    /// reports to the harness (whether BE tasks run at all).
    pub fn new(name: &'static str, layout: Layout, be_enabled: bool) -> Self {
        StaticLayout { name, layout, be_enabled }
    }
}

impl ColocationPolicy for StaticLayout {
    fn name(&self) -> &str {
        self.name
    }

    /// Writes every mechanism but the package cap.  Sharing is set before
    /// the core counts, so the result does not depend on the allocation the
    /// server had before.
    fn init(&mut self, server: &mut Server) {
        let layout = self.layout;
        let alloc = server.allocations_mut();
        alloc.set_be_shares_lc_cores(layout.be_shares_lc_cores);
        alloc.set_lc_cores(layout.lc_cores);
        alloc.set_be_cores(layout.be_cores);
        match layout.cat {
            Some((lc_ways, be_ways)) => alloc.set_cat(lc_ways, be_ways),
            None => alloc.clear_cat(),
        }
        alloc.set_be_freq_cap_ghz(layout.be_freq_cap_ghz);
        alloc.set_be_net_ceil_gbps(layout.be_net_ceil_gbps);
    }

    /// A fixed layout decides nothing.
    fn tick(&mut self, _: SimTime, _: &mut Server, _: &Measurements) -> Decisions {
        Decisions::default()
    }

    fn be_enabled(&self) -> bool {
        self.be_enabled
    }
}
