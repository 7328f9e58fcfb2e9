//! DRAM bandwidth monitoring.
//!
//! There is no commercial hardware mechanism to *limit* per-core DRAM
//! bandwidth, but the memory controllers expose counters that track total
//! bandwidth, and per-core traffic counters allow an estimate of how much of
//! it the BE tasks are responsible for.  Heracles' core & memory
//! sub-controller uses these readings (together with the offline model of the
//! LC workload's bandwidth needs) to decide when BE tasks must give back
//! cores to avoid saturating DRAM.

use heracles_hw::CounterSnapshot;

/// One DRAM bandwidth measurement.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DramBwReading {
    /// Total bandwidth observed at the memory controllers, in GB/s.
    pub total_gbps: f64,
    /// Estimated bandwidth of the BE tasks, in GB/s.
    pub be_gbps: f64,
    /// Estimated bandwidth of the LC workload, in GB/s.
    pub lc_gbps: f64,
    /// Peak streaming bandwidth of the machine, in GB/s.
    pub(crate) peak_gbps: f64,
}

impl DramBwReading {
    /// Estimated per-core bandwidth of the BE tasks, in GB/s.
    pub fn be_gbps_per_core(&self, be_cores: usize) -> f64 {
        if be_cores == 0 {
            0.0
        } else {
            self.be_gbps / be_cores as f64
        }
    }
}

/// Tracks DRAM bandwidth readings and their derivative between measurements.
///
/// The derivative is what Algorithm 2 uses to predict whether the *next*
/// cache/core growth step would push the memory system over the limit, and to
/// roll back LLC growth that increased bandwidth pressure.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct DramBwMonitor {
    last_total_gbps: Option<f64>,
    derivative_gbps: f64,
}

impl DramBwMonitor {
    /// Creates the monitor.
    pub fn new() -> Self {
        DramBwMonitor::default()
    }

    /// Takes a measurement from the hardware counters.
    pub fn measure(&mut self, counters: &CounterSnapshot) -> DramBwReading {
        let reading = DramBwReading {
            total_gbps: counters.dram_total_gbps,
            be_gbps: counters.dram_be_gbps,
            lc_gbps: counters.dram_lc_gbps(),
            peak_gbps: counters.dram_peak_gbps,
        };
        self.derivative_gbps = match self.last_total_gbps {
            Some(prev) => reading.total_gbps - prev,
            None => 0.0,
        };
        self.last_total_gbps = Some(reading.total_gbps);
        reading
    }

    /// Change in total bandwidth since the previous measurement, in GB/s.
    pub fn derivative_gbps(&self) -> f64 {
        self.derivative_gbps
    }

    /// Forgets past measurements (used when the controller re-enables BE
    /// tasks after a cooldown, so stale derivatives do not leak in).
    pub fn reset(&mut self) {
        *self = DramBwMonitor::new();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn counters(total: f64, be: f64) -> CounterSnapshot {
        CounterSnapshot {
            dram_total_gbps: total,
            dram_be_gbps: be,
            dram_peak_gbps: 120.0,
            ..CounterSnapshot::default()
        }
    }

    #[test]
    fn reading_derives_lc_share_and_be_bandwidth_per_core() {
        let mut mon = DramBwMonitor::new();
        let r = mon.measure(&counters(90.0, 60.0));
        assert_eq!(r.lc_gbps, 30.0);
        assert!((r.be_gbps_per_core(12) - 5.0).abs() < 1e-12);
        assert_eq!(r.be_gbps_per_core(0), 0.0);
    }

    #[test]
    fn derivative_tracks_consecutive_measurements() {
        let mut mon = DramBwMonitor::new();
        mon.measure(&counters(50.0, 20.0));
        assert_eq!(mon.derivative_gbps(), 0.0);
        mon.measure(&counters(65.0, 30.0));
        assert!((mon.derivative_gbps() - 15.0).abs() < 1e-12);
        mon.measure(&counters(60.0, 30.0));
        assert!((mon.derivative_gbps() + 5.0).abs() < 1e-12);
    }

    #[test]
    fn reset_clears_history() {
        let mut mon = DramBwMonitor::new();
        mon.measure(&counters(50.0, 20.0));
        mon.reset();
        mon.measure(&counters(80.0, 20.0));
        assert_eq!(mon.derivative_gbps(), 0.0);
    }
}
