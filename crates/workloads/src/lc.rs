//! Latency-critical workload models.
//!
//! Each LC service is described by a per-request resource profile (compute
//! time, cache footprint, memory traffic, response size) and an SLO.  Given
//! the effective resources the hardware model grants for a measurement window
//! (frequency, cache capacity, memory latency inflation, network delay), the
//! model produces a service-time distribution and runs it through a
//! discrete-event M/G/c queue to obtain the tail latency the controller
//! observes — the same black-box relationship the real controller has with
//! the real services.
//!
//! The three profiles are calibrated to §3.1 of the paper:
//!
//! * **websearch** — compute-intensive leaf with a large DRAM-resident index;
//!   moderate DRAM bandwidth (~40% of peak at full load), small hot working
//!   set, tens-of-ms 99%-ile SLO, negligible network bandwidth.
//! * **ml_cluster** — real-time text clustering against an in-memory model;
//!   more memory-bandwidth-intensive (~60% at peak), slightly less compute
//!   intensive, small per-request working set that adds up with load,
//!   tens-of-ms 95%-ile SLO.
//! * **memkeyval** — in-memory key-value store; hundreds of thousands of
//!   requests per second, hundreds-of-microseconds 99%-ile SLO, low DRAM
//!   bandwidth (~20% at peak) but network-bound at high load.

use heracles_hw::{ContentionOutcome, ResourceDemand, ServerConfig};
use heracles_sim::{LatencyRecorder, LogNormal, MultiServerQueue, SimRng, StandardDraws};

use crate::slo::Slo;

/// Which of the three production LC services a profile describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LcKind {
    /// The query-serving leaf of a production web search service.
    Websearch,
    /// A real-time text-clustering (machine-learning inference) service.
    MlCluster,
    /// An in-memory key-value store (memcached-like caching service).
    Memkeyval,
}

impl LcKind {
    /// All service kinds, in catalog (index) order.
    pub fn all() -> [LcKind; 3] {
        [LcKind::Websearch, LcKind::MlCluster, LcKind::Memkeyval]
    }

    /// The kind's index into per-service tables (0 = websearch,
    /// 1 = ml_cluster, 2 = memkeyval).
    pub fn index(self) -> usize {
        match self {
            LcKind::Websearch => 0,
            LcKind::MlCluster => 1,
            LcKind::Memkeyval => 2,
        }
    }

    /// The service's name as used in the paper.
    pub fn name(self) -> &'static str {
        match self {
            LcKind::Websearch => "websearch",
            LcKind::MlCluster => "ml_cluster",
            LcKind::Memkeyval => "memkeyval",
        }
    }
}

impl std::str::FromStr for LcKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "websearch" => Ok(LcKind::Websearch),
            "ml_cluster" => Ok(LcKind::MlCluster),
            "memkeyval" => Ok(LcKind::Memkeyval),
            other => Err(format!(
                "unknown LC service {other:?} (expected websearch, ml_cluster or memkeyval)"
            )),
        }
    }
}

/// A latency-critical workload profile.
#[derive(Debug, Clone, PartialEq)]
pub struct LcWorkload {
    name: &'static str,
    slo: Slo,
    /// Requests per second at 100% load on one server.
    peak_qps: f64,
    /// Pure compute time per request at nominal frequency, in seconds.
    core_time_s: f64,
    /// Coefficient of variation of the per-request service time.
    service_cov: f64,
    /// Per-core activity factor while serving (power model input).
    compute_activity: f64,
    /// Footprint of instructions and shared data, in MB.
    static_footprint_mb: f64,
    /// Additional LLC footprint per in-flight request, in MB.
    per_request_footprint_mb: f64,
    /// DRAM traffic per request with a warm cache, in bytes.
    dram_bytes_base: f64,
    /// Additional DRAM traffic per request when fully cache-starved, in bytes.
    dram_bytes_capacity: f64,
    /// Average number of overlapping outstanding misses (memory-level
    /// parallelism), which divides the per-miss stall penalty.
    memory_level_parallelism: f64,
    /// Egress bytes per response.
    response_bytes: f64,
    /// Minimum number of cores the service is ever given.
    min_cores: usize,
    /// Core-allocation utilization target used when sizing "enough cores to
    /// satisfy the SLO at a given load" (§3.2 characterization setup).
    sizing_utilization: f64,
}

/// The result of simulating one measurement window of an LC workload.
#[derive(Debug, Clone)]
pub struct WindowResult {
    /// All per-request latencies observed in the window.  The caller
    /// selects the tail it measures: a leaf reads its SLO quantile over
    /// several windows at once.
    pub latencies: LatencyRecorder,
    /// Offered queries per second.
    pub qps: f64,
}

impl LcWorkload {
    /// The websearch leaf-node profile.
    pub fn websearch() -> Self {
        LcWorkload {
            name: "websearch",
            slo: Slo::new(0.025, 0.99),
            peak_qps: 2_900.0,
            core_time_s: 8.0e-3,
            service_cov: 0.20,
            compute_activity: 0.95,
            static_footprint_mb: 14.0,
            per_request_footprint_mb: 0.65,
            dram_bytes_base: 17.0e6,
            dram_bytes_capacity: 11.0e6,
            memory_level_parallelism: 9.0,
            response_bytes: 12_000.0,
            min_cores: 2,
            sizing_utilization: 0.70,
        }
    }

    /// The ml_cluster text-clustering profile.
    pub fn ml_cluster() -> Self {
        LcWorkload {
            name: "ml_cluster",
            slo: Slo::new(0.020, 0.95),
            peak_qps: 3_950.0,
            core_time_s: 4.5e-3,
            service_cov: 0.25,
            compute_activity: 0.75,
            static_footprint_mb: 8.0,
            per_request_footprint_mb: 1.25,
            dram_bytes_base: 19.0e6,
            dram_bytes_capacity: 16.0e6,
            memory_level_parallelism: 8.0,
            response_bytes: 2_000.0,
            min_cores: 2,
            sizing_utilization: 0.70,
        }
    }

    /// The memkeyval in-memory key-value store profile.
    pub fn memkeyval() -> Self {
        LcWorkload {
            name: "memkeyval",
            slo: Slo::new(500.0e-6, 0.99),
            peak_qps: 570_000.0,
            core_time_s: 45.0e-6,
            service_cov: 0.55,
            compute_activity: 0.95,
            static_footprint_mb: 10.0,
            per_request_footprint_mb: 0.45,
            dram_bytes_base: 45.0e3,
            dram_bytes_capacity: 90.0e3,
            memory_level_parallelism: 6.0,
            response_bytes: 1_800.0,
            min_cores: 2,
            sizing_utilization: 0.70,
        }
    }

    /// All three production LC workloads, in the order the paper lists them.
    pub fn all() -> Vec<LcWorkload> {
        vec![Self::websearch(), Self::ml_cluster(), Self::memkeyval()]
    }

    /// The profile of one service kind.
    pub fn of_kind(kind: LcKind) -> Self {
        match kind {
            LcKind::Websearch => Self::websearch(),
            LcKind::MlCluster => Self::ml_cluster(),
            LcKind::Memkeyval => Self::memkeyval(),
        }
    }

    /// The workload's name as used in the paper.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// The workload's SLO.
    pub fn slo(&self) -> Slo {
        self.slo
    }

    /// Requests per second at 100% load.
    pub fn peak_qps(&self) -> f64 {
        self.peak_qps
    }

    /// The same service with its peak QPS scaled by `ratio`, modelling a
    /// capacity-weighted front-end load balancer: a server with half the
    /// compute of the reference machine is sent half the traffic, so a load
    /// fraction keeps meaning "fraction of what *this* box can serve".
    ///
    /// # Panics
    ///
    /// Panics unless `ratio` is positive and finite.
    pub fn scaled_to_capacity(&self, ratio: f64) -> Self {
        assert!(ratio.is_finite() && ratio > 0.0, "capacity ratio must be positive, got {ratio}");
        LcWorkload { peak_qps: self.peak_qps * ratio, ..self.clone() }
    }

    /// Queries per second at a given load fraction.
    pub(crate) fn qps(&self, load: f64) -> f64 {
        self.peak_qps * load.max(0.0)
    }

    /// Baseline per-request service time (nominal frequency, warm cache, no
    /// contention), in seconds.
    pub(crate) fn base_service_time_s(&self, config: &ServerConfig) -> f64 {
        self.core_time_s + self.memory_stall_s(self.dram_bytes_base, 1.0, config)
    }

    fn memory_stall_s(&self, bytes: f64, latency_multiplier: f64, config: &ServerConfig) -> f64 {
        let misses = bytes / 64.0;
        misses * config.dram_base_latency_ns * 1e-9 * latency_multiplier
            / self.memory_level_parallelism
    }

    /// The LLC footprint the service would like to keep resident at a given
    /// load, in MB.  The per-request component grows with the number of
    /// requests in flight, which is how a workload with a tiny per-request
    /// working set still builds up large cache pressure at high load (§3.1's
    /// description of ml_cluster).
    pub fn footprint_mb(&self, load: f64, config: &ServerConfig) -> f64 {
        let inflight = self.qps(load) * self.base_service_time_s(config);
        self.static_footprint_mb + self.per_request_footprint_mb * inflight
    }

    /// Fraction of the working set that does not fit in the given cache
    /// capacity (0 = fits entirely, 1 = completely starved).
    pub fn cache_deficit(&self, load: f64, cache_mb: f64, config: &ServerConfig) -> f64 {
        let footprint = self.footprint_mb(load, config);
        if footprint <= 0.0 {
            return 0.0;
        }
        (1.0 - cache_mb.max(0.0) / footprint).clamp(0.0, 1.0)
    }

    /// DRAM bandwidth the service generates at a given load and cache
    /// deficit, in GB/s.
    pub fn dram_gbps(&self, load: f64, cache_deficit: f64) -> f64 {
        let bytes = self.dram_bytes_base + self.dram_bytes_capacity * cache_deficit.clamp(0.0, 1.0);
        self.qps(load) * bytes / 1e9
    }

    /// Egress network bandwidth of responses at a given load, in Gbps.
    pub(crate) fn network_gbps(&self, load: f64) -> f64 {
        self.qps(load) * self.response_bytes * 8.0 / 1e9
    }

    /// Number of cores that are kept busy serving at a given load (core-seconds
    /// of demand per second), before any allocation cap.
    pub(crate) fn cpu_demand_cores(&self, load: f64, config: &ServerConfig) -> f64 {
        self.qps(load) * self.base_service_time_s(config)
    }

    /// "Enough cores to satisfy the SLO at this load": the allocation used by
    /// the characterization experiments (§3.2), sized for a target utilization
    /// with a small safety margin.
    pub fn cores_needed(&self, load: f64, config: &ServerConfig) -> usize {
        let demand = self.cpu_demand_cores(load, config) / self.sizing_utilization;
        (demand.ceil() as usize).clamp(self.min_cores, config.total_cores())
    }

    /// The resource demand this workload contributes for a measurement
    /// window, given its load and the cache capacity it currently enjoys.
    pub fn demand(
        &self,
        load: f64,
        allocated_cores: usize,
        cache_mb: f64,
        config: &ServerConfig,
    ) -> ResourceDemand {
        let deficit = self.cache_deficit(load, cache_mb, config);
        ResourceDemand {
            lc_active_cores: self.cpu_demand_cores(load, config).min(allocated_cores as f64),
            lc_compute_activity: self.compute_activity,
            lc_dram_gbps: self.dram_gbps(load, deficit),
            lc_llc_footprint_mb: self.footprint_mb(load, config),
            lc_net_gbps: self.network_gbps(load),
            ..ResourceDemand::default()
        }
    }

    /// Mean per-request service time under the effective resources of a
    /// window, in seconds.
    pub fn service_time_s(
        &self,
        load: f64,
        outcome: &ContentionOutcome,
        config: &ServerConfig,
    ) -> f64 {
        let freq_scale = if outcome.lc_freq_ghz > 0.0 {
            config.nominal_freq_ghz / outcome.lc_freq_ghz
        } else {
            1.0
        };
        let compute = self.core_time_s * freq_scale * outcome.smt_slowdown;
        let deficit = self.cache_deficit(load, outcome.lc_cache_mb, config);
        let bytes = self.dram_bytes_base + self.dram_bytes_capacity * deficit;
        let stall = self.memory_stall_s(bytes, outcome.mem_latency_multiplier, config);
        compute + stall
    }

    /// Simulates one measurement window: `requests` arrivals at the offered
    /// load are served by `serving_cores` cores under the effective resources
    /// in `outcome`, and each response additionally experiences the window's
    /// network transmit delay plus an optional per-request extra delay
    /// (used for the OS-only baseline's scheduling interference).
    ///
    /// Returns the window's latency distribution.
    ///
    /// Every window starts with an empty queue, so a leaf recovers at each
    /// window boundary and its tail reads low once the queue's utilization
    /// ρ nears 1.  Measured on a standalone copy of the queue (log-normal
    /// service at CoV 0.2 and 0.55, 1,200 requests per window, 8, 18 and 36
    /// servers), the empty start's p99 over that of a queue carried from
    /// the previous window is:
    ///
    /// | ρ    | empty-start p99 ÷ carried p99 |
    /// |------|-------------------------------|
    /// | 0.6  | 0.999–1.000 |
    /// | 0.8  | 0.993–1.000 |
    /// | 0.9  | 0.964–0.993 |
    /// | 0.95 | 0.918–0.971 |
    /// | 1.0  | 0.06–0.34   |
    ///
    /// So the empty start hides sustained overload, and only that.
    #[allow(clippy::too_many_arguments)]
    pub fn simulate_window(
        &self,
        rng: &mut SimRng,
        load: f64,
        serving_cores: usize,
        outcome: &ContentionOutcome,
        config: &ServerConfig,
        requests: usize,
        extra_delay: Option<&mut dyn FnMut(&mut SimRng) -> f64>,
    ) -> WindowResult {
        self.simulate_window_with(
            rng,
            None,
            load,
            serving_cores,
            outcome,
            config,
            requests,
            extra_delay,
        )
    }

    /// [`simulate_window`](Self::simulate_window) with the window's
    /// [`StandardDraws`] handed in: `draws`, when given, are what `rng`
    /// would draw for the window's queue, which then scales them instead of
    /// drawing and leaves `rng` where drawing would have left it (see
    /// [`MultiServerQueue::run_lognormal`]).  The result, and every draw
    /// the extra delays take after the queue, are bit for bit the private
    /// draw's.
    ///
    /// # Panics
    ///
    /// Panics if `draws` covers another request count than `requests`.
    #[allow(clippy::too_many_arguments)]
    pub fn simulate_window_with(
        &self,
        rng: &mut SimRng,
        draws: Option<&StandardDraws>,
        load: f64,
        serving_cores: usize,
        outcome: &ContentionOutcome,
        config: &ServerConfig,
        requests: usize,
        extra_delay: Option<&mut dyn FnMut(&mut SimRng) -> f64>,
    ) -> WindowResult {
        let qps = self.qps(load);
        let serving_cores = serving_cores.max(1);
        let mean_service = self.service_time_s(load, outcome, config);
        let service = LogNormal::new(mean_service, self.service_cov);
        let queue = MultiServerQueue::new(serving_cores);
        let net = outcome.lc_net_extra_delay_s;
        let latencies = match extra_delay {
            None => queue.run_lognormal(rng, qps, requests, service, net, draws),
            Some(extra) => {
                // The extra delays draw from `rng` after the whole queue, in
                // sample order.
                let mut latencies = queue.run_lognormal(rng, qps, requests, service, 0.0, draws);
                latencies.map_in_place(|sample| sample + net + extra(rng));
                latencies
            }
        };
        WindowResult { latencies, qps }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use heracles_hw::{Server, ServerConfig};

    fn config() -> ServerConfig {
        ServerConfig::default_haswell()
    }

    /// The window's tail at the service's SLO percentile, normalized to the
    /// SLO target (1.0 = exactly at SLO).
    fn normalized_tail(lc: &LcWorkload, mut window: WindowResult) -> f64 {
        lc.slo().normalized(window.latencies.quantile(lc.slo().percentile))
    }

    fn uncontended_outcome(server: &Server, lc: &LcWorkload, load: f64) -> ContentionOutcome {
        let cache = server.cache_split(lc.footprint_mb(load, server.config()), 0.0);
        let demand = lc.demand(load, server.config().total_cores(), cache.lc_mb, server.config());
        server.evaluate(&demand)
    }

    #[test]
    fn profiles_match_paper_descriptions() {
        let ws = LcWorkload::websearch();
        let ml = LcWorkload::ml_cluster();
        let kv = LcWorkload::memkeyval();
        // SLOs: tens of ms at 99%/95% for websearch/ml_cluster, hundreds of us for memkeyval.
        assert!(ws.slo().target_s >= 0.010 && ws.slo().target_s <= 0.060);
        assert_eq!(ws.slo().percentile, 0.99);
        assert!(ml.slo().target_s >= 0.010 && ml.slo().target_s <= 0.060);
        assert_eq!(ml.slo().percentile, 0.95);
        assert!(kv.slo().target_s < 0.001);
        // memkeyval serves hundreds of thousands of QPS.
        assert!(kv.peak_qps() > 100_000.0);
        // DRAM bandwidth at peak load: websearch ~40%, ml_cluster ~60%, memkeyval ~20% of 120 GB/s.
        let cfg = config();
        let peak = cfg.dram_peak_gbps();
        assert!((ws.dram_gbps(1.0, 0.0) / peak - 0.40).abs() < 0.05);
        assert!((ml.dram_gbps(1.0, 0.0) / peak - 0.60).abs() < 0.07);
        assert!((kv.dram_gbps(1.0, 0.0) / peak - 0.20).abs() < 0.05);
        // memkeyval is network-bound at peak (well over half the 10 Gbps link).
        assert!(kv.network_gbps(1.0) > 6.0);
        // websearch and ml_cluster are not.
        assert!(ws.network_gbps(1.0) < 1.0);
        assert!(ml.network_gbps(1.0) < 1.0);
    }

    #[test]
    fn footprint_grows_with_load() {
        let cfg = config();
        for lc in LcWorkload::all() {
            assert!(lc.footprint_mb(0.9, &cfg) > lc.footprint_mb(0.1, &cfg));
        }
    }

    #[test]
    fn cache_deficit_behaviour() {
        let cfg = config();
        let ws = LcWorkload::websearch();
        assert_eq!(ws.cache_deficit(0.5, 1_000.0, &cfg), 0.0);
        assert!(ws.cache_deficit(0.5, 1.0, &cfg) > 0.8);
        assert!(ws.cache_deficit(0.5, 0.0, &cfg) <= 1.0);
    }

    #[test]
    fn cores_needed_is_monotone_and_bounded() {
        let cfg = config();
        for lc in LcWorkload::all() {
            let mut prev = 0;
            for load in [0.05, 0.25, 0.5, 0.75, 0.95] {
                let cores = lc.cores_needed(load, &cfg);
                assert!(cores >= prev, "{} cores decreased with load", lc.name());
                assert!(cores >= 2 && cores <= cfg.total_cores());
                prev = cores;
            }
            // At full load the service needs most of the machine.
            assert!(lc.cores_needed(1.0, &cfg) > cfg.total_cores() * 3 / 4);
        }
    }

    #[test]
    fn peak_load_fits_on_the_machine() {
        let cfg = config();
        for lc in LcWorkload::all() {
            let demand = lc.cpu_demand_cores(1.0, &cfg);
            assert!(
                demand < cfg.total_cores() as f64 * 0.92,
                "{} needs {demand:.1} cores at peak",
                lc.name()
            );
        }
    }

    #[test]
    fn unloaded_latency_meets_slo_with_room_to_spare() {
        let cfg = config();
        let server = Server::new(cfg.clone());
        let mut rng = SimRng::new(1);
        for lc in LcWorkload::all() {
            let out = uncontended_outcome(&server, &lc, 0.3);
            let window =
                lc.simulate_window(&mut rng, 0.3, cfg.total_cores(), &out, &cfg, 4000, None);
            let tail = normalized_tail(&lc, window);
            assert!(
                tail < 0.85,
                "{} at 30% load on the whole machine is at {:.0}% of SLO",
                lc.name(),
                tail * 100.0
            );
        }
    }

    #[test]
    fn saturating_memory_latency_violates_slo() {
        let cfg = config();
        let server = Server::new(cfg.clone());
        let mut rng = SimRng::new(2);
        let ws = LcWorkload::websearch();
        let mut out = uncontended_outcome(&server, &ws, 0.4);
        out.mem_latency_multiplier = 12.0;
        let cores = ws.cores_needed(0.4, &cfg);
        let window = ws.simulate_window(&mut rng, 0.4, cores, &out, &cfg, 4000, None);
        let tail = normalized_tail(&ws, window);
        assert!(tail > 1.5, "got {tail:.2}");
    }

    #[test]
    fn network_delay_is_added_to_every_response() {
        let cfg = config();
        let server = Server::new(cfg.clone());
        let mut rng = SimRng::new(3);
        let kv = LcWorkload::memkeyval();
        let mut out = uncontended_outcome(&server, &kv, 0.3);
        out.lc_net_extra_delay_s = 0.004;
        let cores = kv.cores_needed(0.3, &cfg);
        let window = kv.simulate_window(&mut rng, 0.3, cores, &out, &cfg, 3000, None);
        // 4 ms of network delay on a 500 us SLO is a massive violation.
        assert!(normalized_tail(&kv, window) > 3.0);
    }

    #[test]
    fn extra_delay_hook_is_applied() {
        let cfg = config();
        let server = Server::new(cfg.clone());
        let mut rng = SimRng::new(4);
        let ws = LcWorkload::websearch();
        let out = uncontended_outcome(&server, &ws, 0.2);
        let cores = ws.cores_needed(0.2, &cfg);
        let mut add = |_: &mut SimRng| 0.050;
        let with = ws.simulate_window(&mut rng, 0.2, cores, &out, &cfg, 2000, Some(&mut add));
        assert!(normalized_tail(&ws, with) > 2.0);
    }

    #[test]
    fn capacity_scaling_scales_qps_and_core_demand() {
        let cfg = config();
        let ws = LcWorkload::websearch();
        let half = ws.scaled_to_capacity(0.5);
        assert!((half.peak_qps() - ws.peak_qps() * 0.5).abs() < 1e-9);
        assert!((half.qps(0.8) - ws.qps(0.8) * 0.5).abs() < 1e-9);
        // Core demand at the same load fraction halves with the traffic.
        let full_demand = ws.cpu_demand_cores(0.6, &cfg);
        let half_demand = half.cpu_demand_cores(0.6, &cfg);
        assert!((half_demand - full_demand * 0.5).abs() < 1e-9);
        // The SLO itself is unchanged: it is a property of the service.
        assert_eq!(half.slo(), ws.slo());
    }

    #[test]
    #[should_panic(expected = "capacity ratio")]
    fn capacity_scaling_rejects_nonpositive_ratio() {
        LcWorkload::websearch().scaled_to_capacity(0.0);
    }

    #[test]
    fn window_result_is_deterministic_for_a_seed() {
        let cfg = config();
        let server = Server::new(cfg.clone());
        let ws = LcWorkload::websearch();
        let out = uncontended_outcome(&server, &ws, 0.5);
        let run = |seed| {
            let mut rng = SimRng::new(seed);
            let mut window = ws.simulate_window(&mut rng, 0.5, 20, &out, &cfg, 3000, None);
            window.latencies.quantile(ws.slo().percentile)
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }
}
