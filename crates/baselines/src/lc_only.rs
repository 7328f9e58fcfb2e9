//! The no-colocation baseline: the LC workload owns the whole machine.

use heracles_core::{ColocationPolicy, Measurements};
use heracles_hw::Server;
use heracles_sim::SimTime;

/// A policy that never runs BE tasks.
///
/// # Example
///
/// ```
/// use heracles_baselines::LcOnly;
/// use heracles_core::ColocationPolicy;
/// use heracles_hw::{Server, ServerConfig};
/// let mut server = Server::new(ServerConfig::default_haswell());
/// let mut policy = LcOnly::new();
/// policy.init(&mut server);
/// assert_eq!(server.allocations().be_cores(), 0);
/// assert!(!policy.be_enabled());
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LcOnly;

impl LcOnly {
    /// Creates the policy.
    pub fn new() -> Self {
        LcOnly
    }
}

impl ColocationPolicy for LcOnly {
    fn name(&self) -> &str {
        "lc-only"
    }

    fn init(&mut self, server: &mut Server) {
        let total = server.config().total_cores();
        let alloc = server.allocations_mut();
        alloc.set_be_shares_lc_cores(false);
        alloc.set_lc_cores(total);
        alloc.set_be_cores(0);
        alloc.clear_cat();
        alloc.set_be_freq_cap_ghz(None);
        alloc.set_be_net_ceil_gbps(None);
    }

    fn tick(&mut self, _now: SimTime, _server: &mut Server, _measurements: &Measurements) {}

    fn be_enabled(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use heracles_hw::ServerConfig;

    #[test]
    fn gives_everything_to_the_lc_workload() {
        let mut server = Server::new(ServerConfig::default_haswell());
        // Start from a dirty allocation.
        server.allocations_mut().set_lc_cores(10);
        server.allocations_mut().set_be_cores(20);
        server.allocations_mut().set_cat(10, 10);
        let mut policy = LcOnly::new();
        policy.init(&mut server);
        assert_eq!(server.allocations().lc_cores(), 36);
        assert_eq!(server.allocations().be_cores(), 0);
        assert!(!server.allocations().cat_enabled());
    }

    #[test]
    fn tick_changes_nothing() {
        let mut server = Server::new(ServerConfig::default_haswell());
        let mut policy = LcOnly::new();
        policy.init(&mut server);
        let before = server.allocations().clone();
        policy.tick(SimTime::from_secs(100), &mut server, &Measurements::default());
        assert_eq!(*server.allocations(), before);
    }
}
