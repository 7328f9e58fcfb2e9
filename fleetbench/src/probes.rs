//! Layer probes for the traced run.
//!
//! Each probe times one public call of one layer from outside, on the live
//! fleet's state (read through `&FleetSim`) or on standalone leaves driven
//! at the loads the fleet recorded.  Probes own their policy, traffic
//! plane, market, meter and leaves, so the fleet itself is never mutated
//! and its result stays bit-identical to an unprobed run.

use std::collections::{BTreeMap, VecDeque};
use std::hint::black_box;
use std::time::Instant;

use heracles_autoscale::GenerationMarket;
use heracles_colo::{ColoConfig, ColoRunner};
use heracles_core::{ColocationPolicy, Heracles, HeraclesConfig, Measurements, OfflineDramModel};
use heracles_fleet::{
    EnergyMeter, FleetSim, FleetStep, Generation, InterferenceAware, InterferenceModel,
    LeastLoaded, PlacementPolicy, PolicyKind, TrafficPlane,
};
use heracles_hw::{Server, ServerConfig};
use heracles_sim::{parallel_map_mut, LatencyRecorder, SimDuration, SimRng, SimTime};
use heracles_workloads::{BeWorkload, LcKind, LcWorkload};

use crate::json::Metric;
use crate::stats::median;

/// Leaf-probe rounds a run aims for (the cadence is derived from it, so a
/// long plateau run is not probed more heavily than a diurnal day).
const LEAF_ROUNDS: usize = 144;
/// Calls per timing of the sub-microsecond layers, so one timing spans
/// well above the clock's resolution.
const BATCH: u32 = 64;
/// Recent arrivals each step's placement probe scores.
const PLACE_JOBS: usize = 8;
/// How far ahead the autoscaler forecasts (`AutoscaleConfig`'s default).
const FORECAST_LEAD_STEPS: usize = 6;

/// Seconds since `started`, in microseconds.
fn us(started: Instant) -> f64 {
    started.elapsed().as_secs_f64() * 1e6
}

/// The probes of one traced run.
pub struct Probes {
    samples: BTreeMap<&'static str, Vec<f64>>,
    plane: TrafficPlane,
    policy: Box<dyn PlacementPolicy>,
    market: GenerationMarket,
    meter: EnergyMeter,
    rng: SimRng,
    leaves: Vec<ProbeLeaf>,
    cadence: usize,
}

impl Probes {
    /// Sets up the probes for `sim`'s fleet, timing the set-up layers
    /// (offline DRAM profiling and interference characterization) once per
    /// (generation × service) cell present in the fleet.
    pub fn new(sim: &FleetSim, policy: PolicyKind) -> Probes {
        let config = sim.config();
        let baseline = ServerConfig::default_haswell();
        let mut samples: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        let mut cells: Vec<(usize, LcKind)> =
            sim.store().servers().iter().map(|s| (s.generation, s.service)).collect();
        cells.sort_by_key(|&(g, s)| (g, s.index()));
        cells.dedup();
        let cells: Vec<(usize, LcKind, LcWorkload, ServerConfig)> = cells
            .into_iter()
            .map(|(g, service)| {
                let generation = Generation::all()[g];
                let hw = generation.server_config(&baseline);
                let ratio = hw.total_cores() as f64 / baseline.total_cores() as f64;
                let lc = if generation == Generation::Haswell {
                    LcWorkload::of_kind(service)
                } else {
                    LcWorkload::of_kind(service).scaled_to_capacity(ratio)
                };
                (g, service, lc, hw)
            })
            .collect();
        let be_mix = config.jobs.mix.workloads();
        let characterize = ColoConfig { requests_per_window: 1_000, ..ColoConfig::default() }
            .with_seed(config.seed ^ 0xCAFE);
        let started = Instant::now();
        let model = InterferenceModel::characterize(&be_mix, &cells, &characterize);
        samples.entry("colo.characterize_ms").or_default().push(us(started) / 1e3);
        let leaves = cells
            .iter()
            .map(|(g, service, lc, hw)| {
                let started = Instant::now();
                let dram = OfflineDramModel::profile(lc, hw);
                samples.entry("core.dram_profile_ms").or_default().push(us(started) / 1e3);
                let cell = (g * LcKind::all().len() + service.index()) as u64;
                let colo = config.colo.with_seed(config.seed ^ 0x9B0B ^ cell);
                ProbeLeaf::new(*service, lc, hw, dram, colo, be_mix.first().cloned())
            })
            .collect();
        let placement: Box<dyn PlacementPolicy> = match policy {
            PolicyKind::InterferenceAware => Box::new(InterferenceAware::new(model)),
            _ => Box::new(LeastLoaded::default()),
        };
        let fleet_plane = sim.traffic_plane();
        let provisioned = LcKind::all().map(|k| fleet_plane.provisioned_peak_qps(k));
        Probes {
            samples,
            plane: TrafficPlane::new(
                fleet_plane.catalog().clone(),
                config.balancer.build(),
                provisioned,
                config.time_compression,
            ),
            policy: placement,
            market: GenerationMarket::new(config, &baseline, InterferenceModel::from_scores([])),
            meter: EnergyMeter::new(),
            rng: SimRng::new(config.seed).fork(0xBE7C),
            leaves,
            cadence: config.steps.div_ceil(LEAF_ROUNDS).max(1),
        }
    }

    fn push(&mut self, name: &'static str, value: f64) {
        self.samples.entry(name).or_default().push(value);
    }

    /// The control-plane probes, on the state the next step will read:
    /// routing, the placement round plan and single placements, the
    /// autoscaler's sell-first ranking, load forecast and post-shed price,
    /// and one step's worth of energy-ledger charges.
    pub fn before_step(&mut self, sim: &FleetSim) {
        let store = sim.store();
        let config = sim.config();
        let step = config.step_duration();
        let next = sim.current_step() as u64;
        let hold = config.demand_hold_steps.max(1) as u64;
        let now = SimTime::ZERO + step * (next + 1);
        let demand_now = SimTime::ZERO + step * ((next / hold) * hold + 1);

        let started = Instant::now();
        black_box(self.plane.route_held(demand_now, now, store));
        self.push("fleet.route_us", us(started));

        let started = Instant::now();
        self.policy.begin_round(store);
        self.push("fleet.plan_us", us(started));
        for job in sim.jobs().iter().rev().take(PLACE_JOBS) {
            let started = Instant::now();
            black_box(self.policy.place(job, store, &mut self.rng));
            self.push("fleet.place_us", us(started));
        }

        let started = Instant::now();
        let candidate = self.market.sell_first(store);
        self.push("autoscale.sell_first_us", us(started));

        let started = Instant::now();
        black_box(sim.forecast_mean_load(FORECAST_LEAD_STEPS));
        self.push("autoscale.forecast_us", us(started));

        if let Some(victim) = candidate {
            let started = Instant::now();
            black_box(
                sim.post_retire_pool_load(victim, 0)
                    .max(sim.post_retire_pool_load(victim, FORECAST_LEAD_STEPS)),
            );
            self.push("autoscale.post_shed_us", us(started));
        }

        let started = Instant::now();
        for s in store.servers().iter().filter(|s| s.in_service()) {
            self.meter.observe_leaf(
                s.id as u64,
                s.service.name(),
                Generation::all()[s.generation].name(),
                1.0,
                1e-6,
            );
        }
        self.push("energy.meter_us", us(started));
    }

    /// The leaf-layer probes (every `cadence`-th step): each probe leaf
    /// advances at its service's load from the step just recorded, and the
    /// server-plane fan-out is timed over as many items as leaves stepped.
    pub fn after_step(&mut self, index: usize, step: &FleetStep) {
        if !index.is_multiple_of(self.cadence) {
            return;
        }
        let mut leaves = std::mem::take(&mut self.leaves);
        for leaf in &mut leaves {
            let load = step.service_load[leaf.service.index()];
            leaf.probe(load, self);
        }
        self.leaves = leaves;
        let mut items = vec![0u64; step.in_service_servers];
        let started = Instant::now();
        black_box(parallel_map_mut(&mut items, |x| {
            *x += 1;
            *x
        }));
        self.push("sim.fanout_us", us(started));
    }

    /// The median of a probe's samples (0 when it never fired, e.g. a fast
    /// window on a leaf that never went steady).
    pub fn median(&self, name: &str) -> f64 {
        self.samples.get(name).map_or(0.0, |v| median(v))
    }

    /// Every probe's median, with its unit.
    pub fn metrics(&self) -> Vec<Metric> {
        PROBE_METRICS
            .iter()
            .map(|&(name, unit)| Metric::new(name, self.median(name), unit))
            .collect()
    }
}

/// Every metric the probes report, with its unit.
pub const PROBE_METRICS: [(&str, &str); 16] = [
    ("colo.full_window_us", "us"),
    ("colo.fast_window_us", "us"),
    ("workloads.simulate_window_us", "us"),
    ("sim.tail_us", "us"),
    ("hw.evaluate_us", "us"),
    ("core.tick_us", "us"),
    ("sim.fanout_us", "us"),
    ("fleet.route_us", "us"),
    ("fleet.plan_us", "us"),
    ("fleet.place_us", "us"),
    ("autoscale.sell_first_us", "us"),
    ("autoscale.forecast_us", "us"),
    ("autoscale.post_shed_us", "us"),
    ("energy.meter_us", "us"),
    ("core.dram_profile_ms", "ms"),
    ("colo.characterize_ms", "ms"),
];

/// A standalone leaf of one (generation × service) cell, built like the
/// fleet's leaves: the workload's `ColoConfig` and `HeraclesConfig::fast()`
/// over the cell's offline DRAM model, colocating the job mix's first
/// workload.
struct ProbeLeaf {
    service: LcKind,
    lc: LcWorkload,
    hw: ServerConfig,
    requests: usize,
    slo_windows: usize,
    /// Stepped at the fleet's recorded load: every window runs in full.
    full: ColoRunner,
    /// Held at the first load it saw, so it goes steady and fast-forwards.
    steady: ColoRunner,
    steady_load: Option<f64>,
    /// A controller and server of its own for the tick probe.
    controller: Heracles,
    controller_server: Server,
    controller_now: SimTime,
    window: SimDuration,
    recent: VecDeque<LatencyRecorder>,
    rng: SimRng,
}

impl ProbeLeaf {
    fn new(
        service: LcKind,
        lc: &LcWorkload,
        hw: &ServerConfig,
        dram: OfflineDramModel,
        colo: ColoConfig,
        be: Option<BeWorkload>,
    ) -> ProbeLeaf {
        let runner = |stream: u64| {
            ColoRunner::new(
                hw.clone(),
                lc.clone(),
                be.clone(),
                Box::new(Heracles::new(HeraclesConfig::fast(), lc.slo(), dram.clone())),
                colo.with_seed(colo.seed ^ stream),
            )
        };
        let mut controller = Heracles::new(HeraclesConfig::fast(), lc.slo(), dram.clone());
        let mut controller_server = Server::new(hw.clone());
        controller.init(&mut controller_server);
        ProbeLeaf {
            service,
            lc: lc.clone(),
            hw: hw.clone(),
            requests: colo.requests_per_window,
            slo_windows: colo.slo_window_count.max(1),
            full: runner(1),
            steady: runner(2),
            steady_load: None,
            controller,
            controller_server,
            controller_now: SimTime::ZERO,
            window: colo.window,
            recent: VecDeque::new(),
            rng: SimRng::new(colo.seed).fork(3),
        }
    }

    fn probe(&mut self, load: f64, probes: &mut Probes) {
        // colo: one full window, and one window of the steady twin (timed
        // as a fast window only when it actually took the fast path).
        let started = Instant::now();
        let record = self.full.step(load);
        probes.push("colo.full_window_us", us(started));
        let steady_load = *self.steady_load.get_or_insert(load);
        let fast_before = self.steady.window_counts().1;
        let started = Instant::now();
        black_box(self.steady.run_steady(steady_load, 1));
        let elapsed = us(started);
        if self.steady.window_counts().1 > fast_before {
            probes.push("colo.fast_window_us", elapsed);
        }

        // hw: the contention model under the full leaf's allocations.
        let server = self.full.server();
        let alloc = server.allocations();
        let cache = server.cache_split(self.lc.footprint_mb(load, &self.hw), 0.0);
        let demand = self.lc.demand(load, alloc.lc_cores(), cache.lc_mb, &self.hw);
        let started = Instant::now();
        let mut outcome = server.evaluate(&demand);
        for _ in 1..BATCH {
            outcome = server.evaluate(black_box(&demand));
        }
        probes.push("hw.evaluate_us", us(started) / f64::from(BATCH));

        // workloads: the M/G/c window at the fleet's request sample.
        let started = Instant::now();
        let window = self.lc.simulate_window(
            &mut self.rng,
            load,
            alloc.lc_cores(),
            &outcome,
            &self.hw,
            self.requests,
            None,
        );
        probes.push("workloads.simulate_window_us", us(started));

        // sim: the tail estimate over the SLO window deque.
        self.recent.push_back(window.latencies);
        while self.recent.len() > self.slo_windows {
            self.recent.pop_front();
        }
        let started = Instant::now();
        let mut merged = LatencyRecorder::new();
        for recorder in &self.recent {
            merged.merge(recorder);
        }
        black_box(merged.quantile(self.lc.slo().percentile));
        probes.push("sim.tail_us", us(started));

        // core: the controller tick on the full leaf's last measurements.
        let measurements = Measurements {
            tail_latency_s: record.tail_latency_s,
            load,
            be_progress: 0.0,
            counters: record.counters,
        };
        let started = Instant::now();
        for _ in 0..BATCH {
            self.controller_now += self.window;
            self.controller.tick(self.controller_now, &mut self.controller_server, &measurements);
        }
        probes.push("core.tick_us", us(started) / f64::from(BATCH));
    }
}
