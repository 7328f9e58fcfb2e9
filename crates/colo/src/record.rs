//! Per-window records and experiment summaries.

use heracles_hw::{ContentionOutcome, CounterSnapshot};
use heracles_sim::SimTime;
use serde::{Deserialize, Serialize};

/// Everything measured in one harness window.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WindowRecord {
    /// Simulated time at the end of the window.
    pub(crate) time: SimTime,
    /// Tail latency at the LC workload's SLO percentile, in seconds.
    pub tail_latency_s: f64,
    /// Tail latency normalized to the SLO target (1.0 = exactly at SLO).
    pub normalized_latency: f64,
    /// True if the window met the SLO.
    pub slo_met: bool,
    /// BE throughput normalized to the BE task running alone on this server.
    pub be_throughput: f64,
    /// Effective Machine Utilization for the window (LC + BE throughput).
    pub emu: f64,
    /// Cores allocated to the LC workload at the end of the window.
    pub lc_cores: usize,
    /// Cores allocated to BE tasks at the end of the window.
    pub be_cores: usize,
    /// LLC ways allocated to BE tasks at the end of the window (0 if CAT off).
    pub be_ways: usize,
    /// Hardware counters observed during the window.
    pub counters: CounterSnapshot,
    /// The effective resources the window was evaluated under.
    pub outcome: ContentionOutcome,
}

/// Summary statistics over a sequence of windows.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ColoSummary {
    /// Number of windows summarised.
    pub windows: usize,
    /// Worst-case normalized tail latency (the paper reports worst-case over
    /// the SLO evaluation window).
    pub worst_normalized_latency: f64,
    /// Mean normalized tail latency.
    pub(crate) mean_normalized_latency: f64,
    /// Fraction of windows that violated the SLO.
    pub slo_violation_fraction: f64,
    /// Mean Effective Machine Utilization.
    pub mean_emu: f64,
    /// Minimum Effective Machine Utilization.
    pub(crate) min_emu: f64,
    /// Mean BE throughput (normalized to BE running alone).
    pub mean_be_throughput: f64,
    /// Mean DRAM bandwidth utilization (fraction of peak).
    pub mean_dram_utilization: f64,
    /// Mean CPU utilization (fraction of cores busy).
    pub mean_cpu_utilization: f64,
    /// Mean package power as a fraction of TDP.
    pub mean_power_fraction: f64,
    /// Mean LC egress bandwidth in Gbps.
    pub mean_lc_net_gbps: f64,
    /// Mean BE egress bandwidth in Gbps.
    pub mean_be_net_gbps: f64,
}

impl ColoSummary {
    /// Summarises a sequence of windows.
    ///
    /// Returns a zeroed summary if `records` is empty.
    pub fn from_records(records: &[WindowRecord]) -> Self {
        if records.is_empty() {
            return ColoSummary {
                windows: 0,
                worst_normalized_latency: 0.0,
                mean_normalized_latency: 0.0,
                slo_violation_fraction: 0.0,
                mean_emu: 0.0,
                min_emu: 0.0,
                mean_be_throughput: 0.0,
                mean_dram_utilization: 0.0,
                mean_cpu_utilization: 0.0,
                mean_power_fraction: 0.0,
                mean_lc_net_gbps: 0.0,
                mean_be_net_gbps: 0.0,
            };
        }
        let n = records.len() as f64;
        let mean = |f: &dyn Fn(&WindowRecord) -> f64| records.iter().map(f).sum::<f64>() / n;
        ColoSummary {
            windows: records.len(),
            worst_normalized_latency: records
                .iter()
                .map(|r| r.normalized_latency)
                .fold(0.0, f64::max),
            mean_normalized_latency: mean(&|r| r.normalized_latency),
            slo_violation_fraction: records.iter().filter(|r| !r.slo_met).count() as f64 / n,
            mean_emu: mean(&|r| r.emu),
            min_emu: records.iter().map(|r| r.emu).fold(f64::INFINITY, f64::min),
            mean_be_throughput: mean(&|r| r.be_throughput),
            mean_dram_utilization: mean(&|r| r.counters.dram_utilization()),
            mean_cpu_utilization: mean(&|r| r.counters.cpu_utilization),
            mean_power_fraction: mean(&|r| r.counters.power_fraction()),
            mean_lc_net_gbps: mean(&|r| r.counters.nic_lc_gbps),
            mean_be_net_gbps: mean(&|r| r.counters.nic_be_gbps),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use heracles_hw::{ResourceDemand, Server, ServerConfig};

    fn record(normalized: f64, emu: f64) -> WindowRecord {
        let server = Server::new(ServerConfig::default_haswell());
        let outcome = server.evaluate(&ResourceDemand::default());
        WindowRecord {
            time: SimTime::ZERO,
            tail_latency_s: normalized * 0.025,
            normalized_latency: normalized,
            slo_met: normalized <= 1.0,
            be_throughput: emu - 0.5,
            emu,
            lc_cores: 20,
            be_cores: 16,
            be_ways: 4,
            counters: server.counters(&outcome),
            outcome,
        }
    }

    #[test]
    fn empty_summary_is_zeroed() {
        let s = ColoSummary::from_records(&[]);
        assert_eq!(s.windows, 0);
        assert_eq!(s.mean_emu, 0.0);
    }

    #[test]
    fn summary_aggregates_correctly() {
        let records = vec![record(0.5, 0.8), record(0.9, 1.0), record(1.2, 0.9)];
        let s = ColoSummary::from_records(&records);
        assert_eq!(s.windows, 3);
        assert!((s.worst_normalized_latency - 1.2).abs() < 1e-12);
        assert!((s.mean_normalized_latency - (0.5 + 0.9 + 1.2) / 3.0).abs() < 1e-12);
        assert!((s.slo_violation_fraction - 1.0 / 3.0).abs() < 1e-12);
        assert!((s.mean_emu - 0.9).abs() < 1e-12);
        assert!((s.min_emu - 0.8).abs() < 1e-12);
    }
}
