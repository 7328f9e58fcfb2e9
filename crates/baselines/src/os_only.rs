//! The OS-only isolation baseline: CFS shares, nothing else.
//!
//! This is the configuration the paper uses to show that existing OS
//! mechanisms are insufficient (§3.2, §3.3): the LC workload and the BE task
//! run in two containers, the BE task gets a very low CFS share, and both may
//! run on any core or HyperThread.  No CAT, no DVFS caps, no traffic shaping.
//! The scheduling delays this inflicts on LC requests are sampled by
//! [`crate::scheduling_delay_s`].

use crate::{Layout, StaticLayout};

impl StaticLayout {
    /// The `os-only` policy: no pinning (the LC workload and BE tasks both
    /// run on every core), no CAT, no DVFS cap, no traffic shaping.
    ///
    /// # Example
    ///
    /// ```
    /// use heracles_baselines::StaticLayout;
    /// use heracles_core::ColocationPolicy;
    /// use heracles_hw::{Server, ServerConfig};
    /// let mut server = Server::new(ServerConfig::default_haswell());
    /// let mut policy = StaticLayout::os_only();
    /// policy.init(&mut server);
    /// assert!(server.allocations().be_shares_lc_cores());
    /// assert!(policy.be_enabled());
    /// ```
    pub fn os_only() -> Self {
        let layout = Layout {
            lc_cores: usize::MAX,
            be_cores: usize::MAX,
            be_shares_lc_cores: true,
            cat: None,
            be_freq_cap_ghz: None,
            be_net_ceil_gbps: None,
        };
        StaticLayout::new("os-only", layout, true)
    }
}

#[cfg(test)]
mod tests {
    use heracles_core::ColocationPolicy;
    use heracles_hw::{Server, ServerConfig};

    use crate::StaticLayout;

    #[test]
    fn init_removes_all_hardware_isolation() {
        let mut server = Server::new(ServerConfig::default_haswell());
        // Start from a pinned, fully isolated allocation.
        server.allocations_mut().set_lc_cores(20);
        server.allocations_mut().set_be_cores(8);
        server.allocations_mut().set_cat(12, 8);
        server.allocations_mut().set_be_freq_cap_ghz(Some(1.5));
        server.allocations_mut().set_be_net_ceil_gbps(Some(1.0));
        let mut policy = StaticLayout::os_only();
        policy.init(&mut server);
        let alloc = server.allocations();
        assert!(alloc.be_shares_lc_cores());
        assert!(!alloc.cat_enabled());
        assert_eq!(alloc.be_freq_cap_ghz(), None);
        assert_eq!(alloc.be_net_ceil_gbps(), None);
        assert_eq!(alloc.be_cores(), 36);
    }
}
