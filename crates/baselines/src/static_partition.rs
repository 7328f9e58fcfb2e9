//! A static, load-independent partitioning of the server.
//!
//! The paper's interference analysis (§3.3) concludes that any static policy
//! is either too conservative (leaving utilization on the table) or overly
//! optimistic (causing SLO violations as load changes).  This policy gives
//! BE tasks a fixed fraction of the cores, cache ways and network bandwidth,
//! never adapting, so the ablation benchmarks can quantify that trade-off.

use heracles_core::{ColocationPolicy, Measurements};
use heracles_hw::Server;
use heracles_sim::SimTime;
use serde::{Deserialize, Serialize};

/// A fixed split of the machine between the LC workload and BE tasks.
///
/// # Example
///
/// ```
/// use heracles_baselines::StaticPartition;
/// use heracles_core::ColocationPolicy;
/// use heracles_hw::{Server, ServerConfig};
/// let mut server = Server::new(ServerConfig::default_haswell());
/// let mut policy = StaticPartition::half_and_half();
/// policy.init(&mut server);
/// assert_eq!(server.allocations().be_cores(), 18);
/// assert!(server.allocations().cat_enabled());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StaticPartition {
    /// Fraction of physical cores given to BE tasks.
    pub be_core_fraction: f64,
    /// Fraction of LLC ways given to BE tasks.
    pub be_llc_fraction: f64,
    /// Fraction of the NIC line rate BE tasks may use.
    pub be_net_fraction: f64,
    /// DVFS cap applied to BE cores, in GHz (None = uncapped).
    pub be_freq_cap_ghz: Option<f64>,
}

impl StaticPartition {
    /// An even split of cores and cache, 30% of the link, no DVFS cap.
    pub fn half_and_half() -> Self {
        StaticPartition {
            be_core_fraction: 0.5,
            be_llc_fraction: 0.5,
            be_net_fraction: 0.3,
            be_freq_cap_ghz: None,
        }
    }

    /// A conservative split: BE gets a quarter of the cores and cache, 10% of
    /// the link, and is pinned at a low frequency.
    pub fn conservative() -> Self {
        StaticPartition {
            be_core_fraction: 0.25,
            be_llc_fraction: 0.25,
            be_net_fraction: 0.10,
            be_freq_cap_ghz: Some(1.5),
        }
    }

    /// Creates a custom split.
    ///
    /// # Panics
    ///
    /// Panics if any fraction is outside `[0, 1]`.
    pub fn new(be_core_fraction: f64, be_llc_fraction: f64, be_net_fraction: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&be_core_fraction)
                && (0.0..=1.0).contains(&be_llc_fraction)
                && (0.0..=1.0).contains(&be_net_fraction),
            "fractions must be in [0, 1]"
        );
        StaticPartition {
            be_core_fraction,
            be_llc_fraction,
            be_net_fraction,
            be_freq_cap_ghz: None,
        }
    }
}

impl ColocationPolicy for StaticPartition {
    fn name(&self) -> &str {
        "static-partition"
    }

    fn init(&mut self, server: &mut Server) {
        let total_cores = server.config().total_cores();
        let total_ways = server.config().llc_ways;
        let link = server.config().nic_gbps;
        let be_cores = ((total_cores as f64 * self.be_core_fraction).round() as usize)
            .clamp(0, total_cores.saturating_sub(1));
        let be_ways =
            ((total_ways as f64 * self.be_llc_fraction).round() as usize).clamp(1, total_ways - 1);
        let alloc = server.allocations_mut();
        alloc.set_be_shares_lc_cores(false);
        alloc.set_lc_cores(total_cores - be_cores);
        alloc.set_be_cores(be_cores);
        alloc.set_cat(total_ways - be_ways, be_ways);
        alloc.set_be_freq_cap_ghz(self.be_freq_cap_ghz);
        alloc.set_be_net_ceil_gbps(Some(link * self.be_net_fraction));
    }

    fn tick(&mut self, _now: SimTime, _server: &mut Server, _measurements: &Measurements) {
        // Static by definition.
    }

    fn be_enabled(&self) -> bool {
        self.be_core_fraction > 0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use heracles_hw::ServerConfig;

    #[test]
    fn half_and_half_splits_evenly() {
        let mut server = Server::new(ServerConfig::default_haswell());
        let mut policy = StaticPartition::half_and_half();
        policy.init(&mut server);
        let alloc = server.allocations();
        assert_eq!(alloc.lc_cores(), 18);
        assert_eq!(alloc.be_cores(), 18);
        assert_eq!(alloc.lc_ways(), 10);
        assert_eq!(alloc.be_ways(), 10);
        assert_eq!(alloc.be_net_ceil_gbps(), Some(3.0));
    }

    #[test]
    fn conservative_caps_be_frequency() {
        let mut server = Server::new(ServerConfig::default_haswell());
        let mut policy = StaticPartition::conservative();
        policy.init(&mut server);
        assert_eq!(server.allocations().be_freq_cap_ghz(), Some(1.5));
        assert_eq!(server.allocations().be_cores(), 9);
    }

    #[test]
    fn zero_be_fraction_disables_be() {
        let mut server = Server::new(ServerConfig::default_haswell());
        let mut policy = StaticPartition::new(0.0, 0.1, 0.1);
        policy.init(&mut server);
        assert_eq!(server.allocations().be_cores(), 0);
        assert!(!policy.be_enabled());
    }

    #[test]
    #[should_panic]
    fn invalid_fraction_panics() {
        let _ = StaticPartition::new(1.5, 0.5, 0.5);
    }

    #[test]
    fn allocation_never_changes_at_runtime() {
        let mut server = Server::new(ServerConfig::default_haswell());
        let mut policy = StaticPartition::half_and_half();
        policy.init(&mut server);
        let before = server.allocations().clone();
        for t in 0..100 {
            policy.tick(SimTime::from_secs(t), &mut server, &Measurements::default());
        }
        assert_eq!(*server.allocations(), before);
    }
}
