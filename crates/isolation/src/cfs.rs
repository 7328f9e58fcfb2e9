//! The OS-only baseline: Linux CFS `shares` with no other isolation.
//!
//! The paper's characterization (§3.2, the `brain` rows of Figure 1) runs the
//! LC workload and a BE task in two containers where the BE task merely gets
//! a very low CFS share.  Both workloads may run on any core or HyperThread.
//! Even so, the BE task induces scheduling delays of many milliseconds on the
//! LC threads — CFS's wake-up and load-balancing behaviour does not protect
//! tail latency — which is why stronger isolation mechanisms are needed.
//!
//! [`CfsShares`] models that baseline: it computes the CPU-time fraction each
//! class receives from its shares, and samples the scheduling-delay spikes
//! that colocated LC requests experience.

use heracles_hw::Server;
use heracles_sim::SimRng;
use serde::{Deserialize, Serialize};

/// CFS share-based (non-)isolation between the two classes.
///
/// # Example
///
/// ```
/// use heracles_isolation::CfsShares;
/// let cfs = CfsShares::new(1024, 2);
/// assert!(cfs.lc_time_fraction() > 0.99);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CfsShares {
    lc_shares: u32,
    be_shares: u32,
}

impl CfsShares {
    /// Creates the baseline with the given share weights (the paper gives the
    /// BE task "very few shares" relative to the LC workload).
    pub fn new(lc_shares: u32, be_shares: u32) -> Self {
        CfsShares { lc_shares: lc_shares.max(1), be_shares }
    }

    /// The default weights used in the characterization: 1024 shares for the
    /// LC workload, 2 for the BE task.
    pub fn characterization_default() -> Self {
        CfsShares::new(1024, 2)
    }

    /// Fraction of CPU time the LC class receives under contention.
    pub fn lc_time_fraction(&self) -> f64 {
        self.lc_shares as f64 / (self.lc_shares + self.be_shares) as f64
    }

    /// Fraction of CPU time the BE class receives under contention.
    pub fn be_time_fraction(&self) -> f64 {
        1.0 - self.lc_time_fraction()
    }

    /// Configures a server for this baseline: no pinning (both classes may
    /// run anywhere), no CAT, no DVFS caps, no traffic shaping.
    pub fn configure(&self, server: &mut Server, be_threads: usize) {
        let total = server.config().total_cores();
        let alloc = server.allocations_mut();
        alloc.set_lc_cores(total);
        alloc.set_be_shares_lc_cores(true);
        alloc.set_be_cores(be_threads.min(total));
        alloc.clear_cat();
        alloc.set_be_freq_cap_ghz(None);
        alloc.set_be_net_ceil_gbps(None);
    }

    /// Samples the scheduling delay a single LC request suffers when the BE
    /// task is runnable on the same cores, in seconds.
    ///
    /// Most requests are unaffected, but a fraction that grows with how busy
    /// the machine is land behind a running BE thread and wait out its
    /// timeslice (or a load-balancing interval) — delays of one to tens of
    /// milliseconds, matching the behaviour reported in the paper and in
    /// Leverich & Kozyrakis (EuroSys'14).
    pub fn scheduling_delay_s(&self, rng: &mut SimRng, be_cpu_pressure: f64) -> f64 {
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
}

impl Default for CfsShares {
    fn default() -> Self {
        Self::characterization_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use heracles_hw::ServerConfig;

    #[test]
    fn share_fractions() {
        let cfs = CfsShares::new(1024, 1024);
        assert!((cfs.lc_time_fraction() - 0.5).abs() < 1e-12);
        let skewed = CfsShares::characterization_default();
        assert!(skewed.lc_time_fraction() > 0.99);
        assert!(skewed.be_time_fraction() < 0.01);
    }

    #[test]
    fn zero_lc_shares_are_clamped() {
        let cfs = CfsShares::new(0, 10);
        assert!(cfs.lc_time_fraction() > 0.0);
    }

    #[test]
    fn configure_removes_all_isolation() {
        let mut server = Server::new(ServerConfig::default_haswell());
        server.allocations_mut().set_cat(10, 10);
        server.allocations_mut().set_be_freq_cap_ghz(Some(1.5));
        CfsShares::default().configure(&mut server, 36);
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
        let cfs = CfsShares::default();
        let mut rng = SimRng::new(11);
        let mean = |pressure: f64, rng: &mut SimRng| {
            (0..20_000).map(|_| cfs.scheduling_delay_s(rng, pressure)).sum::<f64>() / 20_000.0
        };
        let light = mean(0.1, &mut rng);
        let heavy = mean(0.9, &mut rng);
        assert!(heavy > light, "heavy {heavy} <= light {light}");
        // Heavy pressure should induce multi-millisecond average delays.
        assert!(heavy > 2e-3);
    }

    #[test]
    fn many_requests_are_undisturbed() {
        let cfs = CfsShares::default();
        let mut rng = SimRng::new(12);
        let undisturbed =
            (0..10_000).filter(|_| cfs.scheduling_delay_s(&mut rng, 0.5) == 0.0).count();
        assert!(undisturbed > 5_000);
    }
}
