//! The OS-only isolation baseline: CFS shares, nothing else.
//!
//! This is the configuration the paper uses to show that existing OS
//! mechanisms are insufficient (§3.2, §3.3): the LC workload and the BE task
//! run in two containers, the BE task gets a very low CFS share, and both may
//! run on any core or HyperThread.  No CAT, no DVFS caps, no traffic shaping.

use heracles_core::{ColocationPolicy, Measurements};
use heracles_hw::Server;
use heracles_isolation::CfsShares;
use heracles_sim::SimTime;

/// A policy that colocates BE tasks with nothing but a low CFS share.
///
/// # Example
///
/// ```
/// use heracles_baselines::OsOnly;
/// use heracles_core::ColocationPolicy;
/// use heracles_hw::{Server, ServerConfig};
/// let mut server = Server::new(ServerConfig::default_haswell());
/// let mut policy = OsOnly::new();
/// policy.init(&mut server);
/// assert!(server.allocations().be_shares_lc_cores());
/// assert!(policy.be_enabled());
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OsOnly {
    shares: CfsShares,
    be_threads: usize,
}

impl OsOnly {
    /// Creates the baseline with the characterization's share weights and the
    /// BE task allowed on every core.
    pub fn new() -> Self {
        OsOnly { shares: CfsShares::characterization_default(), be_threads: usize::MAX }
    }

    /// Creates the baseline with explicit share weights and BE thread count.
    pub fn with_shares(shares: CfsShares, be_threads: usize) -> Self {
        OsOnly { shares, be_threads }
    }

    /// The CFS share configuration.
    pub fn shares(&self) -> CfsShares {
        self.shares
    }
}

impl Default for OsOnly {
    fn default() -> Self {
        Self::new()
    }
}

impl ColocationPolicy for OsOnly {
    fn name(&self) -> &str {
        "os-only"
    }

    fn init(&mut self, server: &mut Server) {
        let threads = self.be_threads.min(server.config().total_cores());
        self.shares.configure(server, threads);
    }

    fn tick(&mut self, _now: SimTime, _server: &mut Server, _measurements: &Measurements) {
        // CFS needs no runtime decisions from user space; the (lack of)
        // isolation is entirely static.
    }

    fn be_enabled(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use heracles_hw::ServerConfig;

    #[test]
    fn init_removes_all_hardware_isolation() {
        let mut server = Server::new(ServerConfig::default_haswell());
        server.allocations_mut().set_cat(12, 8);
        server.allocations_mut().set_be_freq_cap_ghz(Some(1.5));
        server.allocations_mut().set_be_net_ceil_gbps(Some(1.0));
        let mut policy = OsOnly::new();
        policy.init(&mut server);
        let alloc = server.allocations();
        assert!(alloc.be_shares_lc_cores());
        assert!(!alloc.cat_enabled());
        assert_eq!(alloc.be_freq_cap_ghz(), None);
        assert_eq!(alloc.be_net_ceil_gbps(), None);
        assert_eq!(alloc.be_cores(), 36);
    }

    #[test]
    fn custom_thread_count_is_respected() {
        let mut server = Server::new(ServerConfig::default_haswell());
        let mut policy = OsOnly::with_shares(CfsShares::new(1024, 2), 8);
        policy.init(&mut server);
        assert_eq!(server.allocations().be_cores(), 8);
    }

    #[test]
    fn lc_retains_nearly_all_cpu_time_by_shares() {
        let policy = OsOnly::new();
        assert!(policy.shares().lc_time_fraction() > 0.99);
    }
}
