//! Server hardware configuration.
//!
//! The defaults mirror the machines used in the paper's evaluation:
//! dual-socket Intel Xeon (Haswell) servers with a high core count, 2.3 GHz
//! nominal frequency, 2.5 MB of LLC per core, CAT way-partitioning support,
//! RAPL power monitoring and a 10 Gbps NIC.

/// Static description of the simulated server.
///
/// All rates are aggregate over the whole server unless stated otherwise.
///
/// # Example
///
/// ```
/// use heracles_hw::ServerConfig;
/// let cfg = ServerConfig::default_haswell();
/// assert_eq!(cfg.total_cores(), 36);
/// assert!(cfg.llc_total_mb() > 80.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ServerConfig {
    /// Number of CPU sockets.
    pub(crate) sockets: usize,
    /// Physical cores per socket.
    pub(crate) cores_per_socket: usize,
    /// Hardware threads (HyperThreads) per physical core.
    pub(crate) threads_per_core: usize,
    /// Nominal (guaranteed, non-Turbo) core frequency in GHz.
    pub nominal_freq_ghz: f64,
    /// Maximum single-core Turbo frequency in GHz.
    pub max_turbo_freq_ghz: f64,
    /// Minimum DVFS frequency in GHz.
    pub min_freq_ghz: f64,
    /// DVFS step size in GHz (the paper's chips step in 100 MHz increments).
    pub freq_step_ghz: f64,
    /// Number of LLC ways per socket (CAT partitions at way granularity).
    pub llc_ways: usize,
    /// Capacity of one LLC way in MB.
    pub(crate) llc_way_mb: f64,
    /// Peak streaming DRAM bandwidth per socket in GB/s.
    pub(crate) dram_peak_gbps_per_socket: f64,
    /// Uncontended DRAM access latency in nanoseconds.
    pub dram_base_latency_ns: f64,
    /// Thermal design power per socket in watts.
    pub(crate) tdp_w_per_socket: f64,
    /// Idle (uncore + package) power per socket in watts.
    pub(crate) idle_w_per_socket: f64,
    /// Dynamic power of one fully-active core at nominal frequency, in watts.
    pub(crate) core_dyn_w_nominal: f64,
    /// Exponent relating frequency to dynamic power (`P ∝ f^k`).
    pub(crate) freq_power_exponent: f64,
    /// NIC line rate in Gbps (egress, full duplex).
    pub nic_gbps: f64,
    /// Typical network packet/response serialization unit in bytes, used by
    /// the egress queueing-delay model.
    pub(crate) nic_mtu_bytes: f64,
    /// Multiplicative slowdown of a thread when the sibling HyperThread runs
    /// a minimal (register-spinloop) antagonist.
    pub(crate) smt_min_penalty: f64,
    /// Multiplicative slowdown of a thread when the sibling HyperThread runs
    /// a maximally demanding antagonist.
    pub(crate) smt_max_penalty: f64,
}

impl ServerConfig {
    /// The dual-socket Haswell-class configuration used throughout the
    /// evaluation (matches the qualitative description in §3.2 of the paper).
    pub fn default_haswell() -> Self {
        ServerConfig {
            sockets: 2,
            cores_per_socket: 18,
            threads_per_core: 2,
            nominal_freq_ghz: 2.3,
            max_turbo_freq_ghz: 3.3,
            min_freq_ghz: 1.2,
            freq_step_ghz: 0.1,
            llc_ways: 20,
            llc_way_mb: 2.25, // 45 MB per socket = 2.5 MB per core
            dram_peak_gbps_per_socket: 60.0,
            dram_base_latency_ns: 90.0,
            tdp_w_per_socket: 145.0,
            idle_w_per_socket: 28.0,
            core_dyn_w_nominal: 5.5,
            freq_power_exponent: 2.4,
            nic_gbps: 10.0,
            nic_mtu_bytes: 1500.0,
            smt_min_penalty: 1.12,
            smt_max_penalty: 1.65,
        }
    }

    /// An older-generation (Sandy-Bridge-class) server: half the cores of
    /// the Haswell box, a smaller LLC and markedly lower DRAM bandwidth
    /// (4-channel DDR3 vs DDR4).  Real datacenters run mixed generations for
    /// the whole amortization window, so the fleet experiments place over
    /// these alongside the paper's Haswells.
    pub fn older_sandy_bridge() -> Self {
        ServerConfig {
            cores_per_socket: 8,
            nominal_freq_ghz: 2.0,
            max_turbo_freq_ghz: 2.8,
            llc_way_mb: 1.0, // 20 MB per socket = 2.5 MB per core
            dram_peak_gbps_per_socket: 40.0,
            dram_base_latency_ns: 100.0,
            tdp_w_per_socket: 115.0,
            idle_w_per_socket: 32.0,
            core_dyn_w_nominal: 7.0,
            smt_min_penalty: 1.15,
            smt_max_penalty: 1.70,
            ..Self::default_haswell()
        }
    }

    /// A newer-generation (Skylake-class) server: a third more cores than
    /// the Haswell box and much higher DRAM bandwidth (6-channel DDR4),
    /// with the shallower per-core LLC of the newer parts.
    pub fn newer_skylake() -> Self {
        ServerConfig {
            cores_per_socket: 24,
            nominal_freq_ghz: 2.4,
            max_turbo_freq_ghz: 3.5,
            llc_way_mb: 1.65, // 33 MB per socket = 1.375 MB per core
            dram_peak_gbps_per_socket: 100.0,
            dram_base_latency_ns: 85.0,
            tdp_w_per_socket: 165.0,
            idle_w_per_socket: 30.0,
            core_dyn_w_nominal: 5.0,
            nic_gbps: 25.0,
            smt_min_penalty: 1.10,
            smt_max_penalty: 1.60,
            ..Self::default_haswell()
        }
    }

    /// A small single-socket configuration used by fast unit tests.
    pub fn small_test() -> Self {
        ServerConfig {
            sockets: 1,
            cores_per_socket: 8,
            threads_per_core: 2,
            llc_ways: 12,
            llc_way_mb: 1.5,
            dram_peak_gbps_per_socket: 40.0,
            tdp_w_per_socket: 95.0,
            idle_w_per_socket: 18.0,
            ..Self::default_haswell()
        }
    }

    /// Total number of physical cores in the server.
    pub fn total_cores(&self) -> usize {
        self.sockets * self.cores_per_socket
    }

    /// Total LLC capacity across all sockets, in MB.
    pub fn llc_total_mb(&self) -> f64 {
        self.sockets as f64 * self.llc_ways as f64 * self.llc_way_mb
    }

    /// LLC capacity of a single way aggregated over all sockets, in MB.
    ///
    /// The controller programs the same way mask on every socket, so one
    /// "way" of allocation buys `sockets * llc_way_mb` of capacity.
    pub fn llc_mb_per_way(&self) -> f64 {
        self.sockets as f64 * self.llc_way_mb
    }

    /// Peak streaming DRAM bandwidth across all sockets, in GB/s.
    pub fn dram_peak_gbps(&self) -> f64 {
        self.sockets as f64 * self.dram_peak_gbps_per_socket
    }

    /// Total thermal design power across all sockets, in watts.
    pub fn tdp_w(&self) -> f64 {
        self.sockets as f64 * self.tdp_w_per_socket
    }

    /// Total idle power across all sockets, in watts.
    pub(crate) fn idle_w(&self) -> f64 {
        self.sockets as f64 * self.idle_w_per_socket
    }

    /// The Turbo frequency limit with `active_cores` cores busy, in GHz:
    /// the single-core Turbo bin at one active core, falling linearly to
    /// the all-core bin (never below nominal).
    pub(crate) fn turbo_limit_ghz(&self, active_cores: f64) -> f64 {
        let total = self.total_cores() as f64;
        if total <= 1.0 {
            return self.max_turbo_freq_ghz;
        }
        let fraction_active = (active_cores.max(1.0) - 1.0) / (total - 1.0);
        let span = self.max_turbo_freq_ghz - self.nominal_freq_ghz;
        // All-core turbo retains roughly 40% of the single-core turbo headroom.
        let limit = self.max_turbo_freq_ghz - span * 0.6 * fraction_active.clamp(0.0, 1.0);
        limit.max(self.nominal_freq_ghz)
    }

    /// Validates internal consistency of the configuration.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first inconsistency found
    /// (e.g. a zero core count or a Turbo frequency below nominal).
    pub(crate) fn validate(&self) -> Result<(), String> {
        if self.sockets == 0 || self.cores_per_socket == 0 || self.threads_per_core == 0 {
            return Err("server must have at least one socket, core and thread".into());
        }
        if self.min_freq_ghz <= 0.0
            || self.nominal_freq_ghz < self.min_freq_ghz
            || self.max_turbo_freq_ghz < self.nominal_freq_ghz
        {
            return Err(format!(
                "frequencies must satisfy 0 < min ({}) <= nominal ({}) <= turbo ({})",
                self.min_freq_ghz, self.nominal_freq_ghz, self.max_turbo_freq_ghz
            ));
        }
        if self.freq_step_ghz <= 0.0 {
            return Err(format!("DVFS step ({} GHz) must be positive", self.freq_step_ghz));
        }
        // CAT keeps at least one way per class.
        if self.llc_ways < 2 || self.llc_way_mb <= 0.0 {
            return Err("LLC must have at least two ways of positive capacity".into());
        }
        if self.dram_peak_gbps_per_socket <= 0.0 {
            return Err("DRAM peak bandwidth must be positive".into());
        }
        if self.tdp_w_per_socket <= self.idle_w_per_socket {
            return Err("TDP must exceed idle power".into());
        }
        if self.nic_gbps <= 0.0 {
            return Err("NIC rate must be positive".into());
        }
        if self.smt_min_penalty < 1.0 || self.smt_max_penalty < self.smt_min_penalty {
            return Err("SMT penalties must satisfy 1 <= min <= max".into());
        }
        Ok(())
    }
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self::default_haswell()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_valid() {
        assert!(ServerConfig::default_haswell().validate().is_ok());
        assert!(ServerConfig::small_test().validate().is_ok());
        assert!(ServerConfig::older_sandy_bridge().validate().is_ok());
        assert!(ServerConfig::newer_skylake().validate().is_ok());
    }

    #[test]
    fn generations_order_capacity_around_the_haswell_baseline() {
        let older = ServerConfig::older_sandy_bridge();
        let haswell = ServerConfig::default_haswell();
        let newer = ServerConfig::newer_skylake();
        assert!(older.total_cores() < haswell.total_cores());
        assert!(haswell.total_cores() < newer.total_cores());
        assert!(older.dram_peak_gbps() < haswell.dram_peak_gbps());
        assert!(haswell.dram_peak_gbps() < newer.dram_peak_gbps());
        assert!(older.nominal_freq_ghz < haswell.nominal_freq_ghz);
        assert!(haswell.nominal_freq_ghz < newer.nominal_freq_ghz);
    }

    #[test]
    fn derived_totals() {
        let cfg = ServerConfig::default_haswell();
        assert_eq!(cfg.total_cores(), 36);
        assert!((cfg.llc_total_mb() - 90.0).abs() < 1e-9);
        assert!((cfg.dram_peak_gbps() - 120.0).abs() < 1e-9);
        assert!((cfg.tdp_w() - 290.0).abs() < 1e-9);
    }

    #[test]
    fn turbo_limit_decreases_with_active_cores() {
        let cfg = ServerConfig::default_haswell();
        let one = cfg.turbo_limit_ghz(1.0);
        let all = cfg.turbo_limit_ghz(cfg.total_cores() as f64);
        assert_eq!(one, cfg.max_turbo_freq_ghz);
        assert!(all < one);
        assert!(all >= cfg.nominal_freq_ghz);
    }

    #[test]
    fn validation_catches_bad_configs() {
        let mut cfg = ServerConfig::default_haswell();
        cfg.sockets = 0;
        assert!(cfg.validate().is_err());

        let mut cfg = ServerConfig::default_haswell();
        cfg.max_turbo_freq_ghz = 1.0;
        assert!(cfg.validate().is_err());

        let mut cfg = ServerConfig::default_haswell();
        cfg.llc_ways = 0;
        assert!(cfg.validate().is_err());

        let mut cfg = ServerConfig::default_haswell();
        cfg.llc_ways = 1;
        assert!(cfg.validate().is_err());

        let mut cfg = ServerConfig::default_haswell();
        cfg.freq_step_ghz = 0.0;
        assert!(cfg.validate().is_err());

        let mut cfg = ServerConfig::default_haswell();
        cfg.idle_w_per_socket = 200.0;
        assert!(cfg.validate().is_err());
    }
}
