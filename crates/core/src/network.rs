//! The network sub-controller (Algorithm 4).
//!
//! Once a second it measures the egress bandwidth of the LC workload's flows
//! and sets the HTB ceiling of all other (BE) flows to
//! `LinkRate − LCBandwidth − max(0.05·LinkRate, 0.10·LCBandwidth)`, leaving
//! headroom for load spikes.  The LC flows are never limited.  The
//! sub-controller keeps no state.

use heracles_hw::{CounterSnapshot, Server};

/// Runs one network control cycle: installs the Algorithm 4 ceiling for
/// the measured LC transmit bandwidth.
pub fn tick(server: &mut Server, counters: &CounterSnapshot) {
    let ceil = be_ceiling_gbps(server.config().nic_gbps, counters.nic_lc_gbps);
    server.allocations_mut().set_be_net_ceil_gbps(Some(ceil));
}

/// The BE egress ceiling of Algorithm 4 for a link of `link_gbps` carrying
/// `lc_tx_gbps` of LC traffic, clamped to `[0, link_gbps]`.
fn be_ceiling_gbps(link_gbps: f64, lc_tx_gbps: f64) -> f64 {
    let headroom = (0.05 * link_gbps).max(0.10 * lc_tx_gbps);
    (link_gbps - lc_tx_gbps - headroom).clamp(0.0, link_gbps)
}

#[cfg(test)]
mod tests {
    use super::*;
    use heracles_hw::ServerConfig;

    fn counters(lc_gbps: f64) -> CounterSnapshot {
        CounterSnapshot { nic_lc_gbps: lc_gbps, nic_link_gbps: 10.0, ..CounterSnapshot::default() }
    }

    #[test]
    fn ceiling_formula_matches_algorithm_4() {
        // Low LC bandwidth: the 5%-of-link headroom dominates.
        assert!((be_ceiling_gbps(10.0, 1.0) - (10.0 - 1.0 - 0.5)).abs() < 1e-9);
        // 6 Gbps of LC traffic: 10 − 6 − max(0.5, 0.6) = 3.4 Gbps.
        assert!((be_ceiling_gbps(10.0, 6.0) - 3.4).abs() < 1e-9);
        // High LC bandwidth: the 10%-of-LC headroom dominates.
        assert!((be_ceiling_gbps(10.0, 8.0) - (10.0 - 8.0 - 0.8)).abs() < 1e-9);
        // Saturated LC traffic: BE gets nothing (clamped at zero).
        assert_eq!(be_ceiling_gbps(10.0, 9.9), 0.0);
    }

    #[test]
    fn ceiling_tracks_lc_bandwidth() {
        let mut server = Server::new(ServerConfig::default_haswell());
        tick(&mut server, &counters(2.0));
        let low_lc = server.allocations().be_net_ceil_gbps().unwrap();
        tick(&mut server, &counters(7.0));
        let high_lc = server.allocations().be_net_ceil_gbps().unwrap();
        assert!(high_lc < low_lc);
        assert_eq!(high_lc, be_ceiling_gbps(10.0, 7.0));
    }

    #[test]
    fn saturated_lc_leaves_be_nothing() {
        let mut server = Server::new(ServerConfig::default_haswell());
        tick(&mut server, &counters(9.8));
        assert_eq!(server.allocations().be_net_ceil_gbps(), Some(0.0));
    }
}
