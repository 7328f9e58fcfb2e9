//! The counters the controller is allowed to observe.
//!
//! Heracles deliberately uses only information available on production
//! servers: tail latency and load reported by the LC service itself, DRAM
//! bandwidth from the memory-controller counters, an estimate of per-core
//! memory traffic, RAPL package power, per-core frequency, and NIC transmit
//! bytes.  [`CounterSnapshot`] is exactly that observable surface — the
//! controller never sees the model's internal state (e.g. the true latency
//! multiplier), mirroring the information asymmetry of the real system.

/// One measurement window's worth of hardware counter readings.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct CounterSnapshot {
    /// Total DRAM bandwidth observed at the memory controllers, in GB/s.
    pub dram_total_gbps: f64,
    /// Estimated DRAM bandwidth of the best-effort class, in GB/s (derived
    /// from per-core traffic counters).
    pub dram_be_gbps: f64,
    /// Peak streaming DRAM bandwidth of the machine, in GB/s.
    pub dram_peak_gbps: f64,
    /// Average frequency of the cores running the LC workload, in GHz.
    pub lc_freq_ghz: f64,
    /// Average frequency of the cores running BE tasks, in GHz.
    pub be_freq_ghz: f64,
    /// RAPL package power (all sockets), in watts.
    pub package_power_w: f64,
    /// Package TDP (all sockets), in watts.
    pub tdp_w: f64,
    /// Fraction of the server's cores that are busy (0–1).
    pub cpu_utilization: f64,
    /// Fraction of the LC workload's *allocated* cores that are busy (0–1),
    /// as reported by cgroup CPU accounting for the LC container.
    pub lc_cpu_utilization: f64,
    /// NIC transmit bandwidth of the LC class, in Gbps.
    pub nic_lc_gbps: f64,
    /// NIC transmit bandwidth of the BE class, in Gbps.
    pub nic_be_gbps: f64,
    /// NIC line rate, in Gbps.
    pub nic_link_gbps: f64,
}

impl CounterSnapshot {
    /// DRAM bandwidth as a fraction of peak.
    pub fn dram_utilization(&self) -> f64 {
        if self.dram_peak_gbps > 0.0 {
            self.dram_total_gbps / self.dram_peak_gbps
        } else {
            0.0
        }
    }

    /// Estimated DRAM bandwidth of the LC class, in GB/s.
    pub fn dram_lc_gbps(&self) -> f64 {
        (self.dram_total_gbps - self.dram_be_gbps).max(0.0)
    }

    /// Package power as a fraction of TDP.
    pub fn power_fraction(&self) -> f64 {
        if self.tdp_w > 0.0 {
            self.package_power_w / self.tdp_w
        } else {
            0.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snapshot() -> CounterSnapshot {
        CounterSnapshot {
            dram_total_gbps: 60.0,
            dram_be_gbps: 36.0,
            dram_peak_gbps: 120.0,
            lc_freq_ghz: 2.3,
            be_freq_ghz: 1.8,
            package_power_w: 200.0,
            tdp_w: 290.0,
            cpu_utilization: 0.75,
            lc_cpu_utilization: 0.6,
            nic_lc_gbps: 4.0,
            nic_be_gbps: 2.0,
            nic_link_gbps: 10.0,
        }
    }

    #[test]
    fn derived_ratios() {
        let s = snapshot();
        assert!((s.dram_utilization() - 0.5).abs() < 1e-12);
        assert!((s.dram_lc_gbps() - 24.0).abs() < 1e-12);
        assert!((s.power_fraction() - 200.0 / 290.0).abs() < 1e-12);
    }

    #[test]
    fn zero_capacity_ratios_are_zero() {
        let s = CounterSnapshot::default();
        assert_eq!(s.dram_utilization(), 0.0);
        assert_eq!(s.power_fraction(), 0.0);
    }

    #[test]
    fn lc_dram_never_negative() {
        let mut s = snapshot();
        s.dram_be_gbps = 100.0;
        assert_eq!(s.dram_lc_gbps(), 0.0);
    }
}
