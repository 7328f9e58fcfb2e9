//! Best-effort workloads and single-resource antagonists.
//!
//! A best-effort (BE) task matters to the controller only through the
//! pressure it puts on each shared resource — cores, LLC capacity, DRAM
//! bandwidth, package power and network egress — and through the throughput
//! it achieves (which feeds Effective Machine Utilization).  Each profile
//! here captures those pressures for one of the paper's BE workloads:
//!
//! * the synthetic antagonists of §3.2 (LLC streaming at small/medium/big
//!   footprints, DRAM streaming, a HyperThread spinloop, a CPU power virus,
//!   and iperf network streaming), and
//! * the production batch jobs of §5.1 (`brain`, a deep-learning image
//!   labeller that is compute- and LLC-hungry with high DRAM bandwidth, and
//!   `streetview`, an image-stitching job that hammers the DRAM subsystem).

use heracles_hw::{ResourceDemand, Server, ServerConfig};
use serde::{Deserialize, Serialize};

/// Which best-effort workload a profile describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum BeKind {
    /// Streams through a quarter-LLC-sized array (`LLC (small)` antagonist).
    LlcSmall,
    /// Streams through a half-LLC-sized array (`LLC (med)` / `stream-LLC`).
    LlcMedium,
    /// Streams through a nearly LLC-sized array (`LLC (big)` antagonist).
    LlcBig,
    /// Streams through an array far larger than the LLC (`DRAM` /
    /// `stream-DRAM`).
    StreamDram,
    /// A register-only spinloop pinned on the LC cores' sibling HyperThreads.
    Spinloop,
    /// A CPU power virus that maximises per-core power draw.
    CpuPwr,
    /// iperf-style network streaming with many low-bandwidth "mice" flows.
    Iperf,
    /// Google brain: deep learning on images (production batch workload).
    Brain,
    /// Google Street View panorama stitching (production batch workload).
    Streetview,
}

/// A best-effort workload profile.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BeWorkload {
    kind: BeKind,
    name: &'static str,
    /// Data footprint the task streams through / keeps hot, in MB.
    llc_footprint_mb: f64,
    /// How aggressively it competes for unpartitioned LLC capacity relative
    /// to a latency-critical workload's accesses (streaming ≫ 1).
    llc_pressure_weight: f64,
    /// DRAM bandwidth per busy core when it holds all the cache it wants, GB/s.
    dram_gbps_per_core_min: f64,
    /// DRAM bandwidth per busy core when fully cache-starved, GB/s.
    dram_gbps_per_core_max: f64,
    /// Per-core activity factor (power model input; a power virus exceeds 1).
    compute_activity: f64,
    /// Egress bandwidth generated per busy core, in Gbps.
    net_gbps_per_core: f64,
    /// Intensity of interference on a shared HyperThread (0 = the minimal
    /// spinloop of the characterization, 1 = maximally demanding sibling).
    smt_intensity: f64,
    /// Fraction of throughput lost when fully cache-starved.
    cache_sensitivity: f64,
    /// Fraction of throughput governed by achieved DRAM bandwidth.
    memory_intensity: f64,
}

impl BeWorkload {
    /// The `LLC (small)` antagonist: streams through about a quarter of the LLC.
    pub fn llc_small() -> Self {
        BeWorkload {
            kind: BeKind::LlcSmall,
            name: "LLC (small)",
            llc_footprint_mb: 22.0,
            llc_pressure_weight: 3.0,
            dram_gbps_per_core_min: 0.25,
            dram_gbps_per_core_max: 2.0,
            compute_activity: 0.60,
            net_gbps_per_core: 0.0,
            smt_intensity: 0.6,
            cache_sensitivity: 0.30,
            memory_intensity: 0.6,
        }
    }

    /// The `LLC (med)` antagonist (also the `stream-LLC` BE task of §5.1):
    /// streams through about half of the LLC.
    pub fn llc_medium() -> Self {
        BeWorkload {
            kind: BeKind::LlcMedium,
            name: "LLC (med)",
            llc_footprint_mb: 45.0,
            llc_pressure_weight: 3.5,
            dram_gbps_per_core_min: 0.4,
            dram_gbps_per_core_max: 3.0,
            compute_activity: 0.65,
            net_gbps_per_core: 0.0,
            smt_intensity: 0.7,
            cache_sensitivity: 0.40,
            memory_intensity: 0.7,
        }
    }

    /// `stream-LLC` from the evaluation (§5.1) — the same as [`llc_medium`].
    ///
    /// [`llc_medium`]: BeWorkload::llc_medium
    pub fn stream_llc() -> Self {
        let mut w = Self::llc_medium();
        w.name = "stream-LLC";
        w
    }

    /// The `LLC (big)` antagonist: streams through almost the whole LLC.
    /// In practice its refill traffic behaves nearly like DRAM streaming,
    /// which is why the paper's Figure 1 rows for `LLC (big)` and `DRAM`
    /// look alike.
    pub fn llc_big() -> Self {
        BeWorkload {
            kind: BeKind::LlcBig,
            name: "LLC (big)",
            llc_footprint_mb: 85.0,
            llc_pressure_weight: 4.0,
            dram_gbps_per_core_min: 2.5,
            dram_gbps_per_core_max: 4.0,
            compute_activity: 0.70,
            net_gbps_per_core: 0.0,
            smt_intensity: 0.8,
            cache_sensitivity: 0.30,
            memory_intensity: 0.8,
        }
    }

    /// The `DRAM` streaming antagonist (also `stream-DRAM` in §5.1): streams
    /// through an array far larger than the LLC, saturating memory bandwidth
    /// when given enough cores.
    pub fn stream_dram() -> Self {
        BeWorkload {
            kind: BeKind::StreamDram,
            name: "stream-DRAM",
            llc_footprint_mb: 2_000.0,
            llc_pressure_weight: 4.0,
            dram_gbps_per_core_min: 4.0,
            dram_gbps_per_core_max: 4.2,
            compute_activity: 0.70,
            net_gbps_per_core: 0.0,
            smt_intensity: 0.9,
            cache_sensitivity: 0.05,
            memory_intensity: 1.0,
        }
    }

    /// The HyperThread antagonist: a tight register-only spinloop pinned on
    /// the sibling HyperThreads of the LC cores (the *lower bound* of
    /// HyperThread interference).
    pub fn spinloop() -> Self {
        BeWorkload {
            kind: BeKind::Spinloop,
            name: "HyperThread",
            llc_footprint_mb: 0.01,
            llc_pressure_weight: 1.0,
            dram_gbps_per_core_min: 0.0,
            dram_gbps_per_core_max: 0.0,
            compute_activity: 0.35,
            net_gbps_per_core: 0.0,
            smt_intensity: 0.20,
            cache_sensitivity: 0.0,
            memory_intensity: 0.0,
        }
    }

    /// The CPU power virus: maximises switching activity and power draw.
    pub fn cpu_pwr() -> Self {
        BeWorkload {
            kind: BeKind::CpuPwr,
            name: "CPU power",
            llc_footprint_mb: 1.0,
            llc_pressure_weight: 1.0,
            dram_gbps_per_core_min: 0.05,
            dram_gbps_per_core_max: 0.1,
            compute_activity: 1.40,
            net_gbps_per_core: 0.0,
            smt_intensity: 1.0,
            cache_sensitivity: 0.0,
            memory_intensity: 0.05,
        }
    }

    /// iperf: saturates the egress link with many low-bandwidth "mice" flows
    /// from a single core.
    pub fn iperf() -> Self {
        BeWorkload {
            kind: BeKind::Iperf,
            name: "iperf",
            llc_footprint_mb: 2.0,
            llc_pressure_weight: 1.0,
            dram_gbps_per_core_min: 0.1,
            dram_gbps_per_core_max: 0.2,
            compute_activity: 0.35,
            net_gbps_per_core: 9.2,
            smt_intensity: 0.4,
            cache_sensitivity: 0.0,
            memory_intensity: 0.1,
        }
    }

    /// Google brain: deep learning on images.  Very compute intensive,
    /// sensitive to LLC size, high DRAM bandwidth requirements.
    pub fn brain() -> Self {
        BeWorkload {
            kind: BeKind::Brain,
            name: "brain",
            llc_footprint_mb: 55.0,
            llc_pressure_weight: 2.5,
            dram_gbps_per_core_min: 1.2,
            dram_gbps_per_core_max: 2.8,
            compute_activity: 1.05,
            net_gbps_per_core: 0.02,
            smt_intensity: 0.85,
            cache_sensitivity: 0.45,
            memory_intensity: 0.5,
        }
    }

    /// Google Street View panorama stitching.  Highly demanding on the DRAM
    /// subsystem.
    pub fn streetview() -> Self {
        BeWorkload {
            kind: BeKind::Streetview,
            name: "streetview",
            llc_footprint_mb: 25.0,
            llc_pressure_weight: 3.0,
            dram_gbps_per_core_min: 3.6,
            dram_gbps_per_core_max: 4.4,
            compute_activity: 0.80,
            net_gbps_per_core: 0.02,
            smt_intensity: 0.85,
            cache_sensitivity: 0.15,
            memory_intensity: 0.9,
        }
    }

    /// The eight interference sources of the Figure 1 characterization, in
    /// the order the paper's rows list them (brain is run under the OS-only
    /// baseline).
    pub fn characterization_antagonists() -> Vec<BeWorkload> {
        vec![
            Self::llc_small(),
            Self::llc_medium(),
            Self::llc_big(),
            Self::stream_dram(),
            Self::spinloop(),
            Self::cpu_pwr(),
            Self::iperf(),
            Self::brain(),
        ]
    }

    /// The BE workloads used in the single-server evaluation (§5.1/§5.2).
    pub fn evaluation_set() -> Vec<BeWorkload> {
        vec![
            Self::stream_llc(),
            Self::stream_dram(),
            Self::cpu_pwr(),
            Self::brain(),
            Self::streetview(),
            Self::iperf(),
        ]
    }

    /// The production BE workloads used for the EMU and cluster results.
    pub fn production_set() -> Vec<BeWorkload> {
        vec![Self::brain(), Self::streetview()]
    }

    /// The workload's kind.
    pub fn kind(&self) -> BeKind {
        self.kind
    }

    /// The workload's name as used in the paper's figures.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// The footprint weighted by how aggressively the task competes for
    /// unpartitioned cache capacity (used as the contention pressure passed
    /// to the cache model).
    pub fn contention_footprint_mb(&self) -> f64 {
        self.llc_footprint_mb * self.llc_pressure_weight
    }

    /// Per-core activity factor.
    pub fn compute_activity(&self) -> f64 {
        self.compute_activity
    }

    /// Fraction of the task's throughput governed by achieved DRAM bandwidth
    /// (1.0 for pure streaming, 0.0 for compute-bound tasks).  Placement uses
    /// this to prefer high-bandwidth server generations for DRAM-hungry jobs.
    pub fn memory_intensity(&self) -> f64 {
        self.memory_intensity
    }

    /// True if this task's interference comes purely through HyperThread
    /// sharing (the spinloop antagonist).
    pub fn is_smt_antagonist(&self) -> bool {
        self.kind == BeKind::Spinloop
    }

    /// True if this task generates enough egress traffic to contend for the
    /// NIC.
    pub fn is_network_antagonist(&self) -> bool {
        self.net_gbps_per_core > 1.0
    }

    /// Fraction of the task's working set that does not fit in `cache_mb`.
    pub(crate) fn cache_deficit(&self, cache_mb: f64) -> f64 {
        if self.llc_footprint_mb <= 0.0 {
            return 0.0;
        }
        (1.0 - cache_mb.max(0.0) / self.llc_footprint_mb).clamp(0.0, 1.0)
    }

    /// DRAM bandwidth demanded per busy core given how much cache it has, GB/s.
    pub(crate) fn dram_gbps_per_core(&self, cache_mb: f64) -> f64 {
        let deficit = self.cache_deficit(cache_mb);
        self.dram_gbps_per_core_min
            + (self.dram_gbps_per_core_max - self.dram_gbps_per_core_min) * deficit
    }

    /// Egress bandwidth offered by `cores` busy cores, in Gbps.
    pub(crate) fn network_gbps(&self, cores: usize) -> f64 {
        self.net_gbps_per_core * cores as f64
    }

    /// The best-effort half of a [`ResourceDemand`] for a measurement window,
    /// given how many cores the task runs on and the LLC capacity it
    /// currently enjoys.
    pub fn demand(&self, cores: usize, cache_mb: f64) -> ResourceDemand {
        ResourceDemand {
            be_active_cores: cores as f64,
            be_compute_activity: self.compute_activity,
            be_dram_gbps_per_core: self.dram_gbps_per_core(cache_mb),
            be_llc_footprint_mb: self.contention_footprint_mb(),
            be_net_offered_gbps: self.network_gbps(cores),
            smt_antagonist_intensity: self.smt_intensity,
            ..ResourceDemand::default()
        }
    }

    /// Progress achieved in one window, in core-equivalents: the number of
    /// cores the task runs on, scaled by how fast those cores run relative to
    /// nominal and by how much cache capacity / memory bandwidth / network
    /// bandwidth shortfalls slow it down.
    ///
    /// Dividing this by the progress the task achieves when it runs alone on
    /// the whole machine gives the normalized BE throughput used in the
    /// paper's Effective Machine Utilization metric.
    pub fn progress(
        &self,
        cores: usize,
        be_freq_ghz: f64,
        be_cache_mb: f64,
        be_dram_achieved_gbps: f64,
        be_net_achieved_gbps: f64,
        config: &ServerConfig,
    ) -> f64 {
        if cores == 0 {
            return 0.0;
        }
        let freq_scale = (be_freq_ghz / config.nominal_freq_ghz).max(0.0);
        let cache_eff = 1.0 - self.cache_sensitivity * self.cache_deficit(be_cache_mb);
        let dram_demanded = self.dram_gbps_per_core(be_cache_mb) * cores as f64 * freq_scale;
        let dram_ratio = if dram_demanded > 0.0 {
            (be_dram_achieved_gbps / dram_demanded).clamp(0.0, 1.0)
        } else {
            1.0
        };
        let mem_eff = (1.0 - self.memory_intensity) + self.memory_intensity * dram_ratio;
        let net_offered = self.network_gbps(cores);
        let net_eff = if net_offered > 0.0 {
            (be_net_achieved_gbps / net_offered).clamp(0.0, 1.0).max(0.05)
        } else {
            1.0
        };
        let net_eff = if self.is_network_antagonist() { net_eff } else { 1.0 };
        cores as f64 * freq_scale * cache_eff * mem_eff * net_eff
    }

    /// Progress the task achieves running *alone* on the whole machine (all
    /// cores, the whole LLC, no colocated LC workload).  This is the
    /// normalization denominator of the EMU metric.
    pub fn alone_progress(&self, config: &ServerConfig) -> f64 {
        let mut server = Server::new(config.clone());
        let total = config.total_cores();
        {
            let alloc = server.allocations_mut();
            alloc.set_lc_cores(0);
            alloc.set_be_cores(total);
            alloc.clear_cat();
            alloc.set_be_freq_cap_ghz(None);
            alloc.set_be_net_ceil_gbps(None);
        }
        let cache = server.cache_split(0.0, self.contention_footprint_mb());
        let demand = self.demand(total, cache.be_mb);
        let outcome = server.evaluate(&demand);
        self.progress(
            total,
            outcome.be_freq_ghz,
            outcome.be_cache_mb,
            outcome.be_dram_achieved_gbps,
            outcome.be_net_achieved_gbps,
            config,
        )
        .max(1e-9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config() -> ServerConfig {
        ServerConfig::default_haswell()
    }

    #[test]
    fn antagonist_set_matches_figure_1_rows() {
        let rows = BeWorkload::characterization_antagonists();
        assert_eq!(rows.len(), 8);
        let names: Vec<&str> = rows.iter().map(|w| w.name()).collect();
        assert_eq!(
            names,
            vec![
                "LLC (small)",
                "LLC (med)",
                "LLC (big)",
                "stream-DRAM",
                "HyperThread",
                "CPU power",
                "iperf",
                "brain"
            ]
        );
    }

    #[test]
    fn llc_antagonist_footprints_are_ordered() {
        let small = BeWorkload::llc_small().llc_footprint_mb;
        let med = BeWorkload::llc_medium().llc_footprint_mb;
        let big = BeWorkload::llc_big().llc_footprint_mb;
        let total = config().llc_total_mb();
        assert!(small < med && med < big);
        assert!((small - total / 4.0).abs() < total * 0.05);
        assert!((med - total / 2.0).abs() < total * 0.05);
        assert!(big > total * 0.9);
        assert!(BeWorkload::stream_dram().llc_footprint_mb > total * 5.0);
    }

    #[test]
    fn dram_demand_grows_when_cache_starved() {
        for w in BeWorkload::characterization_antagonists() {
            let starved = w.dram_gbps_per_core(0.0);
            let satisfied = w.dram_gbps_per_core(w.llc_footprint_mb);
            assert!(starved >= satisfied, "{}", w.name());
        }
        // A starved stream-DRAM task saturates the machine with ~30 cores.
        let dram = BeWorkload::stream_dram();
        assert!(dram.dram_gbps_per_core(0.0) * 30.0 > config().dram_peak_gbps());
    }

    #[test]
    fn power_virus_is_the_most_power_hungry() {
        let virus = BeWorkload::cpu_pwr();
        for w in BeWorkload::characterization_antagonists() {
            assert!(virus.compute_activity() >= w.compute_activity());
        }
        assert!(virus.compute_activity() > 1.0);
    }

    #[test]
    fn iperf_saturates_the_link_from_one_core() {
        let iperf = BeWorkload::iperf();
        assert!(iperf.is_network_antagonist());
        assert!(iperf.network_gbps(1) > 9.0);
        assert!(!BeWorkload::brain().is_network_antagonist());
    }

    #[test]
    fn spinloop_is_the_minimal_smt_antagonist() {
        let spin = BeWorkload::spinloop();
        assert!(spin.is_smt_antagonist());
        assert!(spin.llc_footprint_mb < 0.1);
        for w in BeWorkload::characterization_antagonists() {
            if !w.is_smt_antagonist() {
                assert!(w.smt_intensity >= spin.smt_intensity, "{}", w.name());
            }
        }
    }

    #[test]
    fn progress_scales_with_cores_and_frequency() {
        let cfg = config();
        let brain = BeWorkload::brain();
        let p8 = brain.progress(8, 2.3, 50.0, 20.0, 1.0, &cfg);
        let p16 = brain.progress(16, 2.3, 50.0, 45.0, 1.0, &cfg);
        assert!(p16 > p8 * 1.5);
        let slow = brain.progress(8, 1.2, 50.0, 20.0, 1.0, &cfg);
        assert!(slow < p8);
        assert_eq!(brain.progress(0, 2.3, 50.0, 20.0, 1.0, &cfg), 0.0);
    }

    #[test]
    fn cache_starvation_hurts_brain_more_than_streetview() {
        let cfg = config();
        let brain = BeWorkload::brain();
        let sv = BeWorkload::streetview();
        let brain_loss = 1.0
            - brain.progress(8, 2.3, 0.0, 100.0, 1.0, &cfg)
                / brain.progress(8, 2.3, 100.0, 100.0, 1.0, &cfg);
        let sv_loss = 1.0
            - sv.progress(8, 2.3, 0.0, 100.0, 1.0, &cfg)
                / sv.progress(8, 2.3, 100.0, 100.0, 1.0, &cfg);
        assert!(brain_loss > sv_loss);
    }

    #[test]
    fn dram_shortfall_limits_memory_bound_progress() {
        let cfg = config();
        let sv = BeWorkload::streetview();
        let full = sv.progress(30, 2.3, 25.0, 30.0 * sv.dram_gbps_per_core(25.0), 1.0, &cfg);
        let limited = sv.progress(30, 2.3, 25.0, 60.0, 1.0, &cfg);
        assert!(limited < full * 0.75, "limited {limited} vs full {full}");
    }

    #[test]
    fn alone_progress_is_positive_and_bounded() {
        let cfg = config();
        for w in BeWorkload::evaluation_set() {
            let alone = w.alone_progress(&cfg);
            assert!(alone > 0.0, "{}", w.name());
            // Cannot exceed the machine's core count times the max turbo ratio.
            assert!(alone <= cfg.total_cores() as f64 * 1.5, "{}", w.name());
        }
        // A DRAM-bound task running alone is limited by bandwidth, not cores.
        let sv_alone = BeWorkload::streetview().alone_progress(&cfg);
        assert!(sv_alone < cfg.total_cores() as f64 * 0.95);
        // A compute-bound task running alone uses essentially every core.
        let pwr_alone = BeWorkload::cpu_pwr().alone_progress(&cfg);
        assert!(pwr_alone > cfg.total_cores() as f64 * 0.5);
    }

    #[test]
    fn demand_reflects_profile() {
        let brain = BeWorkload::brain();
        let d = brain.demand(12, 10.0);
        assert_eq!(d.be_active_cores, 12.0);
        assert!(d.be_dram_gbps_per_core > brain.dram_gbps_per_core(brain.llc_footprint_mb));
        assert!(d.be_llc_footprint_mb > brain.llc_footprint_mb);
        assert_eq!(d.lc_active_cores, 0.0);
    }
}
