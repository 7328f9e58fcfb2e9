//! A static, load-independent partitioning of the server.
//!
//! The paper's interference analysis (§3.3) concludes that any static policy
//! is either too conservative (leaving utilization on the table) or overly
//! optimistic (causing SLO violations as load changes).  This policy gives
//! BE tasks a fixed fraction of the cores, cache ways and network bandwidth,
//! never adapting, so the ablation benchmarks can quantify that trade-off.

use heracles_hw::ServerConfig;

use crate::{Layout, StaticLayout};

impl StaticLayout {
    /// The `static-partition` policy for a server built from `config`: BE
    /// tasks get `be_core_fraction` of the cores (at least one core stays
    /// with the LC workload), `be_llc_fraction` of the LLC ways (at least
    /// one way per class), `be_net_fraction` of the line rate as their HTB
    /// ceiling, and the DVFS cap `be_freq_cap_ghz`.  BE tasks are enabled
    /// whenever `be_core_fraction` is positive.
    ///
    /// # Panics
    ///
    /// Panics if any fraction is outside `[0, 1]`.
    ///
    /// # Example
    ///
    /// ```
    /// use heracles_baselines::StaticLayout;
    /// use heracles_core::ColocationPolicy;
    /// use heracles_hw::{Server, ServerConfig};
    /// let config = ServerConfig::default_haswell();
    /// let mut server = Server::new(config.clone());
    /// let mut policy = StaticLayout::half_and_half(&config);
    /// policy.init(&mut server);
    /// assert_eq!(server.allocations().be_cores(), 18);
    /// assert!(server.allocations().cat_enabled());
    /// ```
    pub fn static_partition(
        config: &ServerConfig,
        be_core_fraction: f64,
        be_llc_fraction: f64,
        be_net_fraction: f64,
        be_freq_cap_ghz: Option<f64>,
    ) -> Self {
        assert!(
            (0.0..=1.0).contains(&be_core_fraction)
                && (0.0..=1.0).contains(&be_llc_fraction)
                && (0.0..=1.0).contains(&be_net_fraction),
            "fractions must be in [0, 1]"
        );
        let total_cores = config.total_cores();
        let total_ways = config.llc_ways;
        let be_cores = ((total_cores as f64 * be_core_fraction).round() as usize)
            .min(total_cores.saturating_sub(1));
        let be_ways =
            ((total_ways as f64 * be_llc_fraction).round() as usize).clamp(1, total_ways - 1);
        let layout = Layout {
            lc_cores: total_cores - be_cores,
            be_cores,
            be_shares_lc_cores: false,
            cat: Some((total_ways - be_ways, be_ways)),
            be_freq_cap_ghz,
            be_net_ceil_gbps: Some(config.nic_gbps * be_net_fraction),
        };
        StaticLayout::new("static-partition", layout, be_core_fraction > 0.0)
    }

    /// An even split of cores and cache, 30% of the link, no DVFS cap.
    pub fn half_and_half(config: &ServerConfig) -> Self {
        Self::static_partition(config, 0.5, 0.5, 0.3, None)
    }

    /// A conservative split: BE gets a quarter of the cores and cache, 10% of
    /// the link, and is pinned at a low frequency.
    pub fn conservative(config: &ServerConfig) -> Self {
        Self::static_partition(config, 0.25, 0.25, 0.10, Some(1.5))
    }
}

#[cfg(test)]
mod tests {
    use heracles_core::{ColocationPolicy, Measurements};
    use heracles_hw::{Server, ServerConfig};
    use heracles_sim::SimTime;

    use crate::StaticLayout;

    fn init(policy: &mut StaticLayout) -> Server {
        let mut server = Server::new(ServerConfig::default_haswell());
        policy.init(&mut server);
        server
    }

    #[test]
    fn half_and_half_splits_evenly() {
        let server = init(&mut StaticLayout::half_and_half(&ServerConfig::default_haswell()));
        let alloc = server.allocations();
        assert_eq!(alloc.lc_cores(), 18);
        assert_eq!(alloc.be_cores(), 18);
        assert_eq!(alloc.lc_ways(), 10);
        assert_eq!(alloc.be_ways(), 10);
        assert_eq!(alloc.be_net_ceil_gbps(), Some(3.0));
    }

    #[test]
    fn conservative_caps_be_frequency() {
        let server = init(&mut StaticLayout::conservative(&ServerConfig::default_haswell()));
        assert_eq!(server.allocations().be_freq_cap_ghz(), Some(1.5));
        assert_eq!(server.allocations().be_cores(), 9);
    }

    #[test]
    fn zero_be_fraction_disables_be() {
        let config = ServerConfig::default_haswell();
        let mut policy = StaticLayout::static_partition(&config, 0.0, 0.1, 0.1, None);
        let server = init(&mut policy);
        assert_eq!(server.allocations().be_cores(), 0);
        assert!(!policy.be_enabled());
    }

    #[test]
    #[should_panic]
    fn invalid_fraction_panics() {
        let _ =
            StaticLayout::static_partition(&ServerConfig::default_haswell(), 1.5, 0.5, 0.5, None);
    }

    #[test]
    fn allocation_never_changes_at_runtime() {
        let mut policy = StaticLayout::half_and_half(&ServerConfig::default_haswell());
        let mut server = init(&mut policy);
        let before = server.allocations().clone();
        for t in 0..100 {
            policy.tick(SimTime::from_secs(t), &mut server, &Measurements::default());
        }
        assert_eq!(*server.allocations(), before);
    }
}
