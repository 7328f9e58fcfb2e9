//! The assembled server: allocation state plus the shared-resource models.
//!
//! A [`Server`] owns the LLC, DRAM, power and NIC models together with the
//! current resource *allocations* (which cores belong to which class, the CAT
//! way split, the BE DVFS cap, the HTB ceiling, the package cap).  The
//! allocations are the only copy of that state: the models hold the
//! hardware's static parameters and are handed the allocation's settings at
//! each evaluation.  Colocation policies — Heracles' sub-controllers and the
//! baselines alike — write the allocations through
//! [`Server::allocations_mut`]; the colocation harness asks the server to
//! [`evaluate`](Server::evaluate) the offered demands of the colocated
//! workloads under those allocations, producing the effective resources each
//! class receives plus the counters the controller observes.

use std::sync::Arc;

use serde::{Deserialize, Serialize};

use crate::cache::{CacheSplit, LlcModel};
use crate::config::ServerConfig;
use crate::counters::CounterSnapshot;
use crate::memory::{DramModel, DramOutcome};
use crate::network::{NetOutcome, NicModel};
use crate::power::{PowerModel, PowerOutcome};

/// Resource allocation state: everything the four isolation mechanisms can
/// change.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Allocations {
    total_cores: usize,
    total_ways: usize,
    lc_cores: usize,
    be_cores: usize,
    be_shares_lc_cores: bool,
    cat_enabled: bool,
    lc_ways: usize,
    be_ways: usize,
    be_freq_cap_ghz: Option<f64>,
    be_net_ceil_gbps: Option<f64>,
    package_cap_w: Option<f64>,
}

impl Allocations {
    fn new(config: &ServerConfig) -> Self {
        Allocations {
            total_cores: config.total_cores(),
            total_ways: config.llc_ways,
            lc_cores: config.total_cores(),
            be_cores: 0,
            be_shares_lc_cores: false,
            cat_enabled: false,
            lc_ways: config.llc_ways,
            be_ways: 0,
            be_freq_cap_ghz: None,
            be_net_ceil_gbps: None,
            package_cap_w: None,
        }
    }

    /// Cores currently dedicated to the LC workload.
    pub fn lc_cores(&self) -> usize {
        self.lc_cores
    }

    /// Cores currently dedicated to BE tasks.
    pub fn be_cores(&self) -> usize {
        self.be_cores
    }

    /// Total physical cores in the machine.
    pub fn total_cores(&self) -> usize {
        self.total_cores
    }

    /// True if BE tasks are allowed to run on the LC cores' sibling
    /// HyperThreads (or time-share the same cores, as in the OS-only
    /// baseline).
    pub fn be_shares_lc_cores(&self) -> bool {
        self.be_shares_lc_cores
    }

    /// True if CAT way-partitioning is active.
    pub fn cat_enabled(&self) -> bool {
        self.cat_enabled
    }

    /// Ways assigned to the LC partition (when CAT is active).
    pub fn lc_ways(&self) -> usize {
        self.lc_ways
    }

    /// Ways assigned to the BE partition (when CAT is active).
    pub fn be_ways(&self) -> usize {
        self.be_ways
    }

    /// The per-core DVFS frequency cap on BE cores, if any.
    pub fn be_freq_cap_ghz(&self) -> Option<f64> {
        self.be_freq_cap_ghz
    }

    /// The HTB egress ceiling on the BE class, if any.
    pub fn be_net_ceil_gbps(&self) -> Option<f64> {
        self.be_net_ceil_gbps
    }

    /// The RAPL-style package power cap, if any.
    pub fn package_cap_w(&self) -> Option<f64> {
        self.package_cap_w
    }

    /// Sets the number of cores pinned to the LC workload (clamped to the
    /// machine size).  Cores not assigned to either class stay idle.
    pub fn set_lc_cores(&mut self, cores: usize) {
        self.lc_cores = cores.min(self.total_cores);
        self.be_cores = self.be_cores.min(self.total_cores - self.lc_cores);
    }

    /// Sets the number of cores pinned to BE tasks (clamped so the two
    /// classes never overlap unless [`set_be_shares_lc_cores`] is enabled).
    ///
    /// [`set_be_shares_lc_cores`]: Allocations::set_be_shares_lc_cores
    pub fn set_be_cores(&mut self, cores: usize) {
        if self.be_shares_lc_cores {
            self.be_cores = cores.min(self.total_cores);
        } else {
            self.be_cores = cores.min(self.total_cores.saturating_sub(self.lc_cores));
        }
    }

    /// Allows or forbids BE tasks to share the LC cores (HyperThread sharing
    /// or unpinned OS scheduling).  Heracles always forbids this; the OS-only
    /// baseline and the HyperThread antagonist experiment enable it.
    pub fn set_be_shares_lc_cores(&mut self, shared: bool) {
        self.be_shares_lc_cores = shared;
        if !shared {
            self.be_cores = self.be_cores.min(self.total_cores.saturating_sub(self.lc_cores));
        }
    }

    /// Sets the CAT way split.  Values are clamped to keep at least one way
    /// per class (a validated config has at least two) and at most the
    /// number of ways in the LLC.
    pub fn set_cat(&mut self, lc_ways: usize, be_ways: usize) {
        let lc = lc_ways.clamp(1, self.total_ways - 1);
        let be = be_ways.clamp(1, self.total_ways - lc);
        self.cat_enabled = true;
        self.lc_ways = lc;
        self.be_ways = be;
    }

    /// Disables CAT partitioning.
    pub fn clear_cat(&mut self) {
        self.cat_enabled = false;
        self.lc_ways = self.total_ways;
        self.be_ways = 0;
    }

    /// Sets (or clears) the per-core DVFS cap for BE cores.
    pub fn set_be_freq_cap_ghz(&mut self, cap: Option<f64>) {
        self.be_freq_cap_ghz = cap.map(|c| c.max(0.0));
    }

    /// Sets (or clears) the HTB egress ceiling for the BE class.
    pub fn set_be_net_ceil_gbps(&mut self, ceil: Option<f64>) {
        self.be_net_ceil_gbps = ceil.map(|c| c.max(0.0));
    }

    /// Sets (or clears) the RAPL-style package power cap.  The power model
    /// treats it as an effective-TDP override, so capping a package below
    /// TDP lowers both classes' frequencies the way RAPL's balancer would.
    pub fn set_package_cap_w(&mut self, cap: Option<f64>) {
        self.package_cap_w = cap.map(|c| c.max(0.0));
    }
}

/// The offered demands of the colocated workloads for one measurement window.
///
/// All fields are plain `pub` data: this is the narrow waist between the
/// workload models (which produce demands from load and profiles) and the
/// hardware models (which turn demands into effective resources).
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct ResourceDemand {
    /// Number of LC cores that are actually busy (≤ allocated LC cores).
    pub lc_active_cores: f64,
    /// Per-core activity factor of the LC workload (0–1.3).
    pub lc_compute_activity: f64,
    /// DRAM bandwidth demanded by the LC workload, in GB/s.
    pub lc_dram_gbps: f64,
    /// LLC footprint the LC workload would like to keep resident, in MB.
    pub lc_llc_footprint_mb: f64,
    /// Egress bandwidth of LC responses, in Gbps.
    pub lc_net_gbps: f64,
    /// Number of BE cores that are busy.
    pub be_active_cores: f64,
    /// Per-core activity factor of the BE tasks (a power virus exceeds 1).
    pub be_compute_activity: f64,
    /// DRAM bandwidth demanded by the BE tasks per busy core, in GB/s.
    pub be_dram_gbps_per_core: f64,
    /// LLC footprint the BE tasks generate, in MB.
    pub be_llc_footprint_mb: f64,
    /// Egress bandwidth the BE tasks try to send, in Gbps.
    pub be_net_offered_gbps: f64,
    /// Intensity (0–1) of a HyperThread antagonist sharing the LC cores;
    /// only meaningful when the allocation allows core sharing.
    pub smt_antagonist_intensity: f64,
}

/// Effective resources and counters resulting from one evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ContentionOutcome {
    /// Frequency of LC cores, in GHz.
    pub lc_freq_ghz: f64,
    /// Frequency of BE cores, in GHz.
    pub be_freq_ghz: f64,
    /// Turbo limit at the current active-core count, in GHz.
    pub turbo_limit_ghz: f64,
    /// RAPL-visible package power, in watts.
    pub package_power_w: f64,
    /// LLC capacity effectively available to the LC workload, in MB.
    pub lc_cache_mb: f64,
    /// LLC capacity effectively available to BE tasks, in MB.
    pub be_cache_mb: f64,
    /// Total offered DRAM demand divided by peak bandwidth.
    pub dram_demand_ratio: f64,
    /// DRAM bandwidth achieved in total, in GB/s.
    pub dram_achieved_gbps: f64,
    /// DRAM bandwidth achieved by the LC class, in GB/s.
    pub lc_dram_achieved_gbps: f64,
    /// DRAM bandwidth achieved by the BE class, in GB/s.
    pub be_dram_achieved_gbps: f64,
    /// Multiplier on uncontended memory access latency.
    pub mem_latency_multiplier: f64,
    /// Egress bandwidth achieved by the LC class, in Gbps.
    pub lc_net_achieved_gbps: f64,
    /// Egress bandwidth achieved by the BE class, in Gbps.
    pub be_net_achieved_gbps: f64,
    /// Egress link utilization (0–1).
    pub net_utilization: f64,
    /// Extra per-response transmit delay for the LC class, in seconds.
    pub lc_net_extra_delay_s: f64,
    /// Multiplicative slowdown of LC compute from HyperThread sharing.
    pub smt_slowdown: f64,
    /// Fraction of the machine's cores that are busy.
    pub cpu_utilization: f64,
    /// Fraction of the LC workload's allocated cores that are busy.
    pub lc_pool_utilization: f64,
}

/// A simulated server: configuration, shared-resource models and the current
/// resource allocations.  The configuration is static, so servers built from
/// one [`Arc`] share it.
#[derive(Debug, Clone)]
pub struct Server {
    config: Arc<ServerConfig>,
    llc: LlcModel,
    dram: DramModel,
    power: PowerModel,
    nic: NicModel,
    allocations: Allocations,
}

impl Server {
    /// Builds a server from a configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails `ServerConfig::validate`.
    pub fn new(config: impl Into<Arc<ServerConfig>>) -> Self {
        let config = config.into();
        if let Err(e) = config.validate() {
            panic!("invalid server configuration: {e}");
        }
        Server {
            llc: LlcModel::new(&config),
            dram: DramModel::new(&config),
            power: PowerModel::new(&config),
            nic: NicModel::new(&config),
            allocations: Allocations::new(&config),
            config,
        }
    }

    /// The static configuration.
    pub fn config(&self) -> &ServerConfig {
        &self.config
    }

    /// The current allocations.
    pub fn allocations(&self) -> &Allocations {
        &self.allocations
    }

    /// Mutable access to the allocations (used by the isolation mechanisms).
    pub fn allocations_mut(&mut self) -> &mut Allocations {
        &mut self.allocations
    }

    /// The power model.
    pub fn power(&self) -> &PowerModel {
        &self.power
    }

    /// The LLC capacity split the current allocation gives each class for the
    /// stated footprints, without evaluating the other resources.
    pub fn cache_split(&self, lc_footprint_mb: f64, be_footprint_mb: f64) -> CacheSplit {
        let alloc = &self.allocations;
        // `set_cat` is the only writer of an enabled split, and it keeps
        // `lc_ways ∈ [1, ways − 1]` and `be_ways ∈ [1, ways − lc_ways]`, so
        // the split always fits the cache.
        let cat_ways = alloc.cat_enabled.then_some((alloc.lc_ways, alloc.be_ways));
        self.llc.split(lc_footprint_mb, be_footprint_mb, cat_ways)
    }

    /// Evaluates the offered demands under the current allocations.
    pub fn evaluate(&self, demand: &ResourceDemand) -> ContentionOutcome {
        let alloc = &self.allocations;

        let cache = self.cache_split(demand.lc_llc_footprint_mb, demand.be_llc_footprint_mb);

        // Package power and frequencies.
        let lc_active = demand.lc_active_cores.clamp(0.0, alloc.lc_cores as f64);
        let be_core_limit =
            if alloc.be_shares_lc_cores { alloc.total_cores as f64 } else { alloc.be_cores as f64 };
        let be_active = demand.be_active_cores.clamp(0.0, be_core_limit);
        let power: PowerOutcome = self.power.solve(
            lc_active,
            demand.lc_compute_activity.max(0.0),
            be_active,
            demand.be_compute_activity.max(0.0),
            alloc.be_freq_cap_ghz,
            alloc.package_cap_w,
        );

        // DRAM bandwidth. BE demand scales with how fast its cores actually run.
        let be_freq_scale = if self.power.nominal_ghz() > 0.0 {
            power.be_freq_ghz / self.power.nominal_ghz()
        } else {
            1.0
        };
        let be_dram = demand.be_dram_gbps_per_core * be_active * be_freq_scale;
        let dram: DramOutcome = self.dram.offer(demand.lc_dram_gbps, be_dram);

        // Network egress.
        let net: NetOutcome =
            self.nic.offer(demand.lc_net_gbps, demand.be_net_offered_gbps, alloc.be_net_ceil_gbps);

        // HyperThread interference.
        let smt_slowdown = if alloc.be_shares_lc_cores && demand.smt_antagonist_intensity > 0.0 {
            let t = demand.smt_antagonist_intensity.clamp(0.0, 1.0);
            self.config.smt_min_penalty
                + (self.config.smt_max_penalty - self.config.smt_min_penalty) * t
        } else {
            1.0
        };

        let busy = if alloc.be_shares_lc_cores {
            (lc_active + be_active).min(alloc.total_cores as f64)
        } else {
            lc_active + be_active
        };

        let lc_pool_utilization = if alloc.lc_cores > 0 {
            (lc_active / alloc.lc_cores as f64).clamp(0.0, 1.0)
        } else {
            0.0
        };

        ContentionOutcome {
            lc_freq_ghz: power.lc_freq_ghz,
            be_freq_ghz: power.be_freq_ghz,
            turbo_limit_ghz: power.turbo_limit_ghz,
            package_power_w: power.package_power_w,
            lc_cache_mb: cache.lc_mb,
            be_cache_mb: cache.be_mb,
            dram_demand_ratio: dram.demand_ratio,
            dram_achieved_gbps: dram.achieved_gbps,
            lc_dram_achieved_gbps: dram.lc_achieved_gbps,
            be_dram_achieved_gbps: dram.be_achieved_gbps,
            mem_latency_multiplier: dram.latency_multiplier,
            lc_net_achieved_gbps: net.lc_achieved_gbps,
            be_net_achieved_gbps: net.be_achieved_gbps,
            net_utilization: net.utilization,
            lc_net_extra_delay_s: net.lc_extra_delay_s,
            smt_slowdown,
            cpu_utilization: (busy / alloc.total_cores as f64).clamp(0.0, 1.0),
            lc_pool_utilization,
        }
    }

    /// The counters the controller observes for a given outcome.
    pub fn counters(&self, outcome: &ContentionOutcome) -> CounterSnapshot {
        CounterSnapshot {
            dram_total_gbps: outcome.dram_achieved_gbps,
            dram_be_gbps: outcome.be_dram_achieved_gbps,
            dram_peak_gbps: self.dram.peak_gbps(),
            lc_freq_ghz: outcome.lc_freq_ghz,
            be_freq_ghz: outcome.be_freq_ghz,
            package_power_w: outcome.package_power_w,
            tdp_w: self.power.tdp_w(),
            cpu_utilization: outcome.cpu_utilization,
            lc_cpu_utilization: outcome.lc_pool_utilization,
            nic_lc_gbps: outcome.lc_net_achieved_gbps,
            nic_be_gbps: outcome.be_net_achieved_gbps,
            nic_link_gbps: self.nic.link_gbps(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demand() -> ResourceDemand {
        ResourceDemand {
            lc_active_cores: 12.0,
            lc_compute_activity: 0.8,
            lc_dram_gbps: 20.0,
            lc_llc_footprint_mb: 30.0,
            lc_net_gbps: 0.5,
            be_active_cores: 18.0,
            be_compute_activity: 1.0,
            be_dram_gbps_per_core: 2.0,
            be_llc_footprint_mb: 40.0,
            be_net_offered_gbps: 0.0,
            smt_antagonist_intensity: 0.0,
        }
    }

    fn server() -> Server {
        let mut s = Server::new(ServerConfig::default_haswell());
        s.allocations_mut().set_lc_cores(18);
        s.allocations_mut().set_be_cores(18);
        s
    }

    #[test]
    fn allocations_are_clamped() {
        let mut s = Server::new(ServerConfig::default_haswell());
        s.allocations_mut().set_lc_cores(100);
        assert_eq!(s.allocations().lc_cores(), 36);
        s.allocations_mut().set_lc_cores(30);
        s.allocations_mut().set_be_cores(100);
        assert_eq!(s.allocations().be_cores(), 6);
    }

    #[test]
    fn cat_way_split_is_clamped() {
        let mut s = Server::new(ServerConfig::default_haswell());
        s.allocations_mut().set_cat(100, 100);
        assert!(s.allocations().cat_enabled());
        assert_eq!(s.allocations().lc_ways() + s.allocations().be_ways(), 20);
        s.allocations_mut().set_cat(0, 0);
        assert_eq!(s.allocations().lc_ways(), 1);
        assert_eq!(s.allocations().be_ways(), 1);
    }

    #[test]
    fn clear_cat_restores_sharing() {
        let mut s = Server::new(ServerConfig::default_haswell());
        s.allocations_mut().set_cat(10, 10);
        s.allocations_mut().clear_cat();
        assert!(!s.allocations().cat_enabled());
        assert_eq!((s.allocations().lc_ways(), s.allocations().be_ways()), (20, 0));
    }

    #[test]
    fn evaluation_is_internally_consistent() {
        let s = server();
        let out = s.evaluate(&demand());
        assert!(out.lc_freq_ghz >= s.config().min_freq_ghz);
        assert!(out.lc_cache_mb > 0.0);
        assert!(out.dram_achieved_gbps <= s.config().dram_peak_gbps() + 1e-9);
        assert!(out.cpu_utilization <= 1.0);
        assert_eq!(out.smt_slowdown, 1.0);
    }

    #[test]
    fn cat_protects_lc_cache_in_evaluation() {
        let mut s = server();
        let mut d = demand();
        d.be_llc_footprint_mb = 500.0;
        let shared = s.evaluate(&d);
        s.allocations_mut().set_cat(14, 6);
        let isolated = s.evaluate(&d);
        assert!(isolated.lc_cache_mb > shared.lc_cache_mb);
    }

    #[test]
    fn dvfs_cap_shows_up_in_outcome() {
        let mut s = server();
        s.allocations_mut().set_be_freq_cap_ghz(Some(1.3));
        let out = s.evaluate(&demand());
        assert!(out.be_freq_ghz <= 1.3 + 1e-9);
        assert!(out.lc_freq_ghz >= out.be_freq_ghz);
    }

    #[test]
    fn htb_ceiling_shows_up_in_outcome() {
        let mut s = server();
        let mut d = demand();
        d.lc_net_gbps = 5.0;
        d.be_net_offered_gbps = 20.0;
        let unshaped = s.evaluate(&d);
        s.allocations_mut().set_be_net_ceil_gbps(Some(2.0));
        let shaped = s.evaluate(&d);
        assert!(shaped.lc_net_achieved_gbps > unshaped.lc_net_achieved_gbps - 1e-9);
        assert!(shaped.be_net_achieved_gbps <= 2.0 + 1e-9);
        assert!(shaped.lc_net_extra_delay_s < unshaped.lc_net_extra_delay_s);
    }

    #[test]
    fn smt_sharing_penalty_applies_only_when_shared() {
        let mut s = server();
        let mut d = demand();
        d.smt_antagonist_intensity = 1.0;
        assert_eq!(s.evaluate(&d).smt_slowdown, 1.0);
        s.allocations_mut().set_be_shares_lc_cores(true);
        let out = s.evaluate(&d);
        assert!(out.smt_slowdown >= s.config().smt_max_penalty - 1e-9);
    }

    #[test]
    fn counters_reflect_outcome() {
        let s = server();
        let out = s.evaluate(&demand());
        let c = s.counters(&out);
        assert_eq!(c.dram_total_gbps, out.dram_achieved_gbps);
        assert_eq!(c.lc_freq_ghz, out.lc_freq_ghz);
        assert!(c.dram_utilization() > 0.0);
    }

    #[test]
    #[should_panic]
    fn invalid_config_panics() {
        let mut cfg = ServerConfig::default_haswell();
        cfg.sockets = 0;
        let _ = Server::new(cfg);
    }
}
