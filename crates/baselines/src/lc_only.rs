//! The no-colocation baseline: the LC workload owns the whole machine.

use crate::{Layout, StaticLayout};

impl StaticLayout {
    /// The `lc-only` policy: every core to the LC workload, no BE tasks, and
    /// no CAT, DVFS cap or HTB ceiling.
    ///
    /// # Example
    ///
    /// ```
    /// use heracles_baselines::StaticLayout;
    /// use heracles_core::ColocationPolicy;
    /// use heracles_hw::{Server, ServerConfig};
    /// let mut server = Server::new(ServerConfig::default_haswell());
    /// let mut policy = StaticLayout::lc_only();
    /// policy.init(&mut server);
    /// assert_eq!(server.allocations().be_cores(), 0);
    /// assert!(!policy.be_enabled());
    /// ```
    pub fn lc_only() -> Self {
        let layout = Layout {
            lc_cores: usize::MAX,
            be_cores: 0,
            be_shares_lc_cores: false,
            cat: None,
            be_freq_cap_ghz: None,
            be_net_ceil_gbps: None,
        };
        StaticLayout::new("lc-only", layout, false)
    }
}

#[cfg(test)]
mod tests {
    use heracles_core::{ColocationPolicy, Measurements};
    use heracles_hw::{Server, ServerConfig};
    use heracles_sim::SimTime;

    use crate::StaticLayout;

    #[test]
    fn gives_everything_to_the_lc_workload() {
        let mut server = Server::new(ServerConfig::default_haswell());
        // Start from a dirty allocation.
        server.allocations_mut().set_lc_cores(10);
        server.allocations_mut().set_be_cores(20);
        server.allocations_mut().set_cat(10, 10);
        let mut policy = StaticLayout::lc_only();
        policy.init(&mut server);
        assert_eq!(server.allocations().lc_cores(), 36);
        assert_eq!(server.allocations().be_cores(), 0);
        assert!(!server.allocations().cat_enabled());
    }

    #[test]
    fn tick_changes_nothing() {
        let mut server = Server::new(ServerConfig::default_haswell());
        let mut policy = StaticLayout::lc_only();
        policy.init(&mut server);
        let before = server.allocations().clone();
        policy.tick(SimTime::from_secs(100), &mut server, &Measurements::default());
        assert_eq!(*server.allocations(), before);
    }
}
