//! The websearch fan-out cluster (Figure 8).
//!
//! A root node fans each user query out to every leaf and combines the
//! replies, so the slowest leaves dominate the root latency.  Each leaf is a
//! full single-server colocation experiment: websearch plus a production BE
//! task (brain on half of the leaves, streetview on the other half, as in the
//! paper), managed by a per-leaf Heracles instance.  Load follows a 12-hour
//! diurnal trace.  The cluster SLO is defined at the root, set from the
//! latency observed at 90% load without any colocation.

use heracles_baselines::StaticLayout;
use heracles_colo::{ColoConfig, ColoRunner};
use heracles_core::{ColocationPolicy, Heracles, HeraclesConfig, OfflineDramModel};
use heracles_hw::ServerConfig;
use heracles_sim::SimTime;
use heracles_workloads::{BeWorkload, DiurnalTrace, LcWorkload, Slo};

/// Which policy manages the leaves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClusterPolicy {
    /// No colocation: every leaf runs websearch alone.
    Baseline,
    /// Per-leaf Heracles instances colocating production BE tasks.
    Heracles,
}

/// Configuration of the cluster experiment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClusterConfig {
    /// Number of leaf servers (the paper uses "tens of servers").
    pub leaves: usize,
    /// Which policy manages the leaves.
    pub policy: ClusterPolicy,
    /// Per-leaf harness configuration.
    pub colo: ColoConfig,
    /// Number of harness windows per trace step (the trace is sampled once
    /// per step; controllers tick every window).
    pub windows_per_step: usize,
    /// Number of trace steps to simulate.
    pub steps: usize,
    /// Seed for the trace and the per-leaf random streams.
    pub seed: u64,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            leaves: 12,
            policy: ClusterPolicy::Heracles,
            colo: ColoConfig { requests_per_window: 1_200, ..ColoConfig::default() },
            windows_per_step: 6,
            steps: 144, // 12 h at 5-minute steps
            seed: 42,
        }
    }
}

/// One step of the cluster experiment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClusterStep {
    /// Simulated time at the end of the step.
    pub time: SimTime,
    /// Websearch load during the step (fraction of peak).
    pub load: f64,
    /// Root latency as a fraction of the cluster SLO.
    pub normalized_root_latency: f64,
    /// Mean Effective Machine Utilization across the leaves.
    pub emu: f64,
    /// Mean BE throughput across the leaves (normalized to BE-alone).
    pub(crate) be_throughput: f64,
}

/// The result of a cluster run.
#[derive(Debug, Clone)]
pub struct ClusterResult {
    /// The per-step records.
    pub steps: Vec<ClusterStep>,
}

impl ClusterResult {
    /// Fraction of steps that violated the cluster SLO.
    pub fn violation_fraction(&self) -> f64 {
        if self.steps.is_empty() {
            return 0.0;
        }
        self.steps.iter().filter(|s| s.normalized_root_latency > 1.0).count() as f64
            / self.steps.len() as f64
    }

    /// Mean Effective Machine Utilization over the run.
    pub fn mean_emu(&self) -> f64 {
        if self.steps.is_empty() {
            return 0.0;
        }
        self.steps.iter().map(|s| s.emu).sum::<f64>() / self.steps.len() as f64
    }

    /// Minimum Effective Machine Utilization over the run.
    ///
    /// Returns 0.0 for an empty run (rather than the fold identity `+inf`),
    /// matching the other aggregates' empty-run behaviour.
    pub fn min_emu(&self) -> f64 {
        if self.steps.is_empty() {
            return 0.0;
        }
        self.steps.iter().map(|s| s.emu).fold(f64::INFINITY, f64::min)
    }
}

/// The websearch cluster simulation.
#[derive(Debug)]
pub struct WebsearchCluster {
    config: ClusterConfig,
    server_config: ServerConfig,
    trace: DiurnalTrace,
    slo_target_s: f64,
}

impl WebsearchCluster {
    /// Creates a cluster experiment.  The cluster SLO target is calibrated as
    /// the root latency at 90% load with no colocation (the paper's
    /// definition).
    pub fn new(config: ClusterConfig, server_config: ServerConfig) -> Self {
        let trace = DiurnalTrace::websearch_12h(config.seed);
        let slo_target_s = Self::calibrate_slo(&config, &server_config);
        WebsearchCluster { config, server_config, trace, slo_target_s }
    }

    fn calibrate_slo(config: &ClusterConfig, server_config: &ServerConfig) -> f64 {
        // Root latency at 90% load without colocation.
        let mut leaves: Vec<ColoRunner> = (0..config.leaves.max(1))
            .map(|i| {
                ColoRunner::new(
                    server_config.clone(),
                    LcWorkload::websearch(),
                    None,
                    Box::new(StaticLayout::lc_only()),
                    config.colo.with_seed(config.seed ^ (0x5EAF + i as u64)),
                )
            })
            .collect();
        let mut worst_mean = 0.0_f64;
        for _ in 0..config.windows_per_step.max(2) {
            let mut sum = 0.0;
            for leaf in &mut leaves {
                sum += leaf.step(0.90).tail_latency_s;
            }
            worst_mean = worst_mean.max(sum / leaves.len() as f64);
        }
        worst_mean
    }

    fn make_leaf(&self, index: usize) -> ColoRunner {
        let websearch = LcWorkload::websearch();
        let seed = self.config.seed ^ (0xC1A5 + index as u64 * 7919);
        let colo = self.config.colo.with_seed(seed);
        match self.config.policy {
            ClusterPolicy::Baseline => ColoRunner::new(
                self.server_config.clone(),
                websearch,
                None,
                Box::new(StaticLayout::lc_only()),
                colo,
            ),
            ClusterPolicy::Heracles => {
                // brain on half of the leaves, streetview on the other half,
                // as in the paper's cluster experiment.
                let be = if index.is_multiple_of(2) {
                    BeWorkload::brain()
                } else {
                    BeWorkload::streetview()
                };
                // All leaves share one offline DRAM model even though each
                // serves a different shard (the paper does the same and notes
                // the controller tolerates the resulting model error).
                let dram_model = OfflineDramModel::profile(&websearch, &self.server_config);
                // Every leaf defends a uniform tail-latency target chosen so
                // that the root meets the cluster SLO (§5.3): since the root
                // latency is the average of the leaf tails, the per-leaf
                // target is the cluster target itself.
                let leaf_slo = Slo::new(self.slo_target_s, websearch.slo().percentile);
                let policy: Box<dyn ColocationPolicy> =
                    Box::new(Heracles::new(HeraclesConfig::default(), leaf_slo, dram_model));
                ColoRunner::new(self.server_config.clone(), websearch, Some(be), policy, colo)
            }
        }
    }

    /// Runs the experiment and returns the per-step results.
    pub fn run(&self) -> ClusterResult {
        let mut leaves: Vec<ColoRunner> =
            (0..self.config.leaves.max(1)).map(|i| self.make_leaf(i)).collect();
        let step_duration = self.config.colo.window * self.config.windows_per_step as u64;
        let mut steps = Vec::with_capacity(self.config.steps);
        for step_idx in 0..self.config.steps {
            let time = SimTime::ZERO + step_duration * (step_idx as u64 + 1);
            let load = self.trace.load_at(time);
            let mut latency_sum = 0.0;
            let mut emu_sum = 0.0;
            let mut be_sum = 0.0;
            for leaf in leaves.iter_mut() {
                let mut last_latency = 0.0;
                let mut last_emu = 0.0;
                let mut last_be = 0.0;
                for _ in 0..self.config.windows_per_step {
                    let record = leaf.step(load);
                    last_latency = record.tail_latency_s;
                    last_emu = record.emu;
                    last_be = record.be_throughput;
                }
                latency_sum += last_latency;
                emu_sum += last_emu;
                be_sum += last_be;
            }
            let n = leaves.len() as f64;
            steps.push(ClusterStep {
                time,
                load,
                normalized_root_latency: (latency_sum / n) / self.slo_target_s,
                emu: emu_sum / n,
                be_throughput: be_sum / n,
            });
        }
        ClusterResult { steps }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A scaled-down configuration.
    fn fast_test() -> ClusterConfig {
        ClusterConfig {
            leaves: 4,
            colo: ColoConfig::fast_test(),
            windows_per_step: 4,
            steps: 24,
            ..ClusterConfig::default()
        }
    }

    #[test]
    fn slo_target_is_calibrated_from_ninety_percent_load() {
        let cluster = WebsearchCluster::new(fast_test(), ServerConfig::default_haswell());
        let target = cluster.slo_target_s;
        // Root latency at 90% load is positive and below the per-leaf SLO.
        assert!(target > 0.001);
        assert!(target < LcWorkload::websearch().slo().target_s);
    }

    #[test]
    fn baseline_cluster_meets_its_slo_and_tracks_load() {
        let config = ClusterConfig { policy: ClusterPolicy::Baseline, ..fast_test() };
        let result = WebsearchCluster::new(config, ServerConfig::default_haswell()).run();
        assert_eq!(result.steps.len(), config.steps);
        assert_eq!(result.violation_fraction(), 0.0);
        // Without colocation EMU equals the websearch load.
        for step in &result.steps {
            assert!((step.emu - step.load).abs() < 1e-9);
            assert_eq!(step.be_throughput, 0.0);
        }
    }

    #[test]
    fn heracles_cluster_raises_emu_without_slo_violations() {
        let config = ClusterConfig { steps: 30, ..fast_test() };
        let baseline_cfg = ClusterConfig { policy: ClusterPolicy::Baseline, ..config };
        let server = ServerConfig::default_haswell();
        let heracles = WebsearchCluster::new(config, server.clone()).run();
        let baseline = WebsearchCluster::new(baseline_cfg, server).run();
        // The root-derived per-leaf latency target leaves less room for
        // colocation than the standalone per-leaf SLO, so the EMU gain in
        // this short run is modest — but it must be a gain, with zero
        // violations (see EXPERIMENTS.md for the discussion).
        assert!(
            heracles.mean_emu() > baseline.mean_emu() + 0.02,
            "heracles EMU {:.2} vs baseline {:.2}",
            heracles.mean_emu(),
            baseline.mean_emu()
        );
        assert_eq!(
            heracles.violation_fraction(),
            0.0,
            "violations in {:?}",
            heracles
                .steps
                .iter()
                .filter(|s| s.normalized_root_latency > 1.0)
                .map(|s| s.normalized_root_latency)
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn empty_result_aggregates_are_zero_not_nan() {
        let empty = ClusterResult { steps: Vec::new() };
        assert_eq!(empty.mean_emu(), 0.0);
        assert_eq!(empty.min_emu(), 0.0);
        assert_eq!(empty.violation_fraction(), 0.0);
        assert!(empty.mean_emu().is_finite());
        assert!(empty.min_emu().is_finite());
    }
}
