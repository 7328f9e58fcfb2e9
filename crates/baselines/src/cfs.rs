//! The OS-only baseline's CFS model: scheduling delays under low `shares`.
//!
//! The paper's characterization (§3.2, the `brain` rows of Figure 1) runs the
//! LC workload and a BE task in two containers where the BE task merely gets
//! a very low CFS share.  Both workloads may run on any core or HyperThread.
//! Even so, the BE task induces scheduling delays of many milliseconds on the
//! LC threads — CFS's wake-up and load-balancing behaviour does not protect
//! tail latency — which is why stronger isolation mechanisms are needed.
//!
//! [`StaticLayout::os_only`](crate::StaticLayout::os_only) is that
//! baseline's allocation, and [`scheduling_delay_s`] samples the delay spikes
//! colocated LC requests experience under it.

use heracles_sim::SimRng;

/// Samples the scheduling delay a single LC request suffers when the BE
/// task is runnable on the same cores, in seconds.
///
/// Most requests are unaffected, but a fraction that grows with how busy
/// the machine is land behind a running BE thread and wait out its
/// timeslice (or a load-balancing interval) — delays of one to tens of
/// milliseconds, matching the behaviour reported in the paper and in
/// Leverich & Kozyrakis (EuroSys'14).
pub fn scheduling_delay_s(rng: &mut SimRng, be_cpu_pressure: f64) -> f64 {
    let pressure = be_cpu_pressure.clamp(0.0, 1.0);
    // Probability that this request's thread has to wait behind a BE thread.
    let p_interfered = 0.05 + 0.45 * pressure;
    if !rng.chance(p_interfered) {
        return 0.0;
    }
    // Waiting out a CFS timeslice (or several): 1–30 ms, heavier under
    // higher pressure.
    let base_ms = 1.0 + 9.0 * pressure;
    rng.lognormal(base_ms * 1e-3, 1.2)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::StaticLayout;
    use heracles_core::ColocationPolicy;
    use heracles_hw::{Server, ServerConfig};

    #[test]
    fn configure_removes_all_isolation() {
        let mut server = Server::new(ServerConfig::default_haswell());
        server.allocations_mut().set_cat(10, 10);
        server.allocations_mut().set_be_freq_cap_ghz(Some(1.5));
        server.allocations_mut().set_be_net_ceil_gbps(Some(1.0));
        StaticLayout::os_only().init(&mut server);
        let alloc = server.allocations();
        assert!(alloc.be_shares_lc_cores());
        assert!(!alloc.cat_enabled());
        assert_eq!(alloc.be_freq_cap_ghz(), None);
        assert_eq!(alloc.be_net_ceil_gbps(), None);
        assert_eq!(alloc.lc_cores(), 36);
        assert_eq!(alloc.be_cores(), 36);
    }

    #[test]
    fn scheduling_delays_grow_with_pressure() {
        let mut rng = SimRng::new(11);
        let mean = |pressure: f64, rng: &mut SimRng| {
            (0..20_000).map(|_| scheduling_delay_s(rng, pressure)).sum::<f64>() / 20_000.0
        };
        let light = mean(0.1, &mut rng);
        let heavy = mean(0.9, &mut rng);
        assert!(heavy > light, "heavy {heavy} <= light {light}");
        // Heavy pressure should induce multi-millisecond average delays.
        assert!(heavy > 2e-3);
    }

    #[test]
    fn many_requests_are_undisturbed() {
        let mut rng = SimRng::new(12);
        let undisturbed = (0..10_000).filter(|_| scheduling_delay_s(&mut rng, 0.5) == 0.0).count();
        assert!(undisturbed > 5_000);
    }
}
