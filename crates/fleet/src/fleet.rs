//! The discrete-time fleet simulator.
//!
//! A fleet is N servers, each a leaf of one LC service under its own
//! per-server Heracles controller (a [`ColoRunner`] leaf, exactly the
//! harness the single-server experiments use), plus one fleet-level
//! scheduler placing a stream of BE jobs onto the servers' BE slots.  LC
//! demand belongs to the *services*, not the servers: a
//! [`ServiceCatalog`] owns each service's aggregate diurnal demand curve,
//! and the [`TrafficPlane`]'s [`LoadBalancer`](crate::LoadBalancer) routes
//! it onto the in-service leaves every step.  Services peak at different
//! phases (the catalog spreads them by `load_spread`), so a mixed-service
//! fleet spans the load range at any instant — some leaves are
//! colocation-friendly, others near their latency knee.
//!
//! The fleet may mix hardware generations (a [`GenerationMix`]) *and*
//! services (a [`ServiceMix`]): each (generation × service) cell runs its
//! own [`ServerConfig`] and capacity-scaled workload, and exposes its core
//! count, DRAM bandwidth and peak QPS to the placement store.  Fleet-level
//! EMU and the TCO comparison are core-weighted: a 48-core box at 80%
//! contributes three times the machine time of a 16-core box at the same
//! fraction.
//!
//! Each step the simulator:
//!
//! 1. routes every service's offered QPS across its in-service leaves via
//!    the traffic plane (demand is conserved: what a retired leaf used to
//!    serve lands on the survivors as added load),
//! 2. admits this step's job arrivals into the queue,
//! 3. dispatches queued jobs through the [`PlacementPolicy`] against the
//!    [`PlacementStore`],
//! 4. advances every in-service server by `windows_per_step` measurement
//!    windows — in parallel across servers via [`parallel_map_mut`], since
//!    servers only interact through the scheduler between steps,
//! 5. credits BE progress to resident jobs, completes jobs whose demand is
//!    served, and preempts/requeues jobs whose server kept BE disabled
//!    beyond the grace period (the controller's verdict is final: Heracles
//!    defends the local SLO, the scheduler routes around it),
//! 6. refreshes the store with each server's slack, EMU and admission
//!    verdict, and charges the step's amortized TCO to the in-service
//!    servers.
//!
//! The step loop is exposed piecewise ([`FleetSim::step_once`] /
//! [`FleetSim::into_result`]) so the elastic controller in
//! `heracles_autoscale` can interleave scale actions between steps:
//! [`FleetSim::add_server`] commissions a freshly purchased box mid-run,
//! [`FleetSim::begin_drain`] / [`FleetSim::retire_server`] decommission one,
//! and [`FleetSim::migrate_job`] live-migrates a resident job (preserving
//! its remaining demand and charging a migration cost in core·seconds)
//! instead of requeueing it from scratch.  [`FleetSim::run`] is the
//! static-fleet convenience loop.
//!
//! Everything is a pure function of the seed: the job stream, the traces,
//! every per-server RNG and the policy's tie-breaking all derive from it,
//! so identical seeds give identical schedules — and identical scale-action
//! sequences give identical elastic schedules.

use heracles_cluster::TcoModel;
use heracles_colo::{ColoConfig, ColoRunner};
use heracles_core::{ColocationPolicy, Heracles, HeraclesConfig, OfflineDramModel};
use heracles_energy::{
    hour_of_day, joules_to_dollars, EnergyConfig, EnergyMeter, PowerCapCoordinator,
};
use heracles_hw::ServerConfig;
use heracles_sim::{parallel_map_mut, Scheduler, SimDuration, SimRng, SimTime, WakeReason};
use heracles_telemetry::{AlertKind, Telemetry, TelemetryConfig, TraceEvent};
use heracles_workloads::{
    BeWorkload, LcKind, LcWorkload, ServiceCatalog, ServiceMix, NUM_SERVICES,
};
use serde::{Deserialize, Serialize};

use crate::generation::{Generation, GenerationMix};
use crate::job::{BeJob, JobId, JobQueue, JobStreamConfig};
use crate::metrics::{
    core_weighted_mean, server_step_tco_dollars, FleetEvent, FleetEventKind, FleetResult,
    FleetStep, ServerPlaneCounts,
};
use crate::policy::{
    FirstFit, InterferenceAware, InterferenceModel, LeastLoaded, PlacementPolicy, PolicyKind,
    RandomPlacement,
};
use crate::store::{PlacementStore, ServerCapacity, ServerId};
use crate::traffic::{BalancerKind, TrafficPlane};

/// Which server-plane stepping core a fleet run uses.
///
/// Both cores produce bit-identical [`FleetResult`]s (pinned by property
/// tests); they differ only in wall-clock cost.  `Stepped` is kept as the
/// oracle: every leaf simulates every measurement window in full.
/// `EventDriven` lets a leaf whose window inputs are provably unchanged
/// satisfy its windows through the [`ColoRunner`] steady-state fast path,
/// and tracks per-leaf wake reasons through the [`Scheduler`] for the
/// trace's wake-attribution section.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum SimCore {
    /// Every in-service leaf simulates every window in full (the oracle).
    #[default]
    Stepped,
    /// Steady leaves fast-forward; wakes are tracked and attributed.
    EventDriven,
}

impl SimCore {
    /// The core's name as reported in benchmarks and traces.
    pub fn name(self) -> &'static str {
        match self {
            SimCore::Stepped => "stepped",
            SimCore::EventDriven => "event",
        }
    }
}

impl std::str::FromStr for SimCore {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "stepped" => Ok(SimCore::Stepped),
            "event" | "event-driven" => Ok(SimCore::EventDriven),
            other => Err(format!("unknown sim core '{other}' (expected 'stepped' or 'event')")),
        }
    }
}

fn default_demand_hold_steps() -> usize {
    1
}

/// Configuration of a fleet run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FleetConfig {
    /// Number of servers in the fleet.
    pub servers: usize,
    /// BE job slots per *reference-capacity* (Haswell, 36-core) server.
    /// Other generations scale this with their core count (rounded, floor
    /// of one): a 48-core box hosts proportionally more jobs, a 16-core box
    /// fewer.
    pub be_slots_per_server: usize,
    /// Number of scheduler steps to simulate.
    pub steps: usize,
    /// Measurement windows each server advances per step.
    pub windows_per_step: usize,
    /// Seed for the job stream, demand curves and every per-server random
    /// stream.
    pub seed: u64,
    /// Fraction of the diurnal period the *service* demand phases span
    /// (1.0 spreads the catalog's services across the whole cycle — search
    /// peaking while the cache tier is in its valley; 0.0 makes every
    /// service peak together).  Inert for a single-service catalog: leaves
    /// of one service share its demand curve through the balancer.
    pub load_spread: f64,
    /// How many seconds of diurnal (and TCO) wall time one simulated second
    /// represents (1.0 by default: no compression).
    ///
    /// A measurement window is already a statistical sample standing in for
    /// a longer production interval, so a run does not need to simulate
    /// every second of a 12-hour day to traverse its load cycle: with
    /// compression C, trace lookups advance C× faster and each step's
    /// amortized TCO charge covers C× the simulated wall time.  This is
    /// what lets a `--fast` elastic run sweep a whole diurnal peak and
    /// valley — the regime where autoscaling earns or loses its keep —
    /// in seconds of simulation.  Job demands and BE progress stay in
    /// simulated core·seconds, so the work ledger is unaffected.
    pub time_compression: f64,
    /// The blend of hardware generations across the fleet (homogeneous by
    /// default: every server runs the baseline configuration).
    pub mix: GenerationMix,
    /// The blend of LC services across the fleet (websearch-only by
    /// default).  The catalog built from this mix owns each service's
    /// aggregate demand; leaves are provisioned per service by error
    /// diffusion, interleaved with the generation assignment.
    pub services: ServiceMix,
    /// Which front-end load balancer routes each service's offered QPS
    /// across its leaves (capacity-weighted by default).
    pub balancer: BalancerKind,
    /// Steps a server may sit occupied with BE disabled before its jobs are
    /// preempted and requeued.
    pub preemption_grace_steps: usize,
    /// The cost model behind the per-step amortized TCO series (the paper's
    /// case-study parameters by default).
    pub tco: TcoModel,
    /// Per-server harness configuration.
    pub colo: ColoConfig,
    /// The job arrival process.
    pub jobs: JobStreamConfig,
    /// The telemetry plane (disabled by default).  Enabling it records
    /// structured decision traces and metrics without
    /// perturbing the run: telemetry-on and telemetry-off runs of the same
    /// seed produce bit-identical [`FleetResult`]s.
    pub telemetry: TelemetryConfig,
    /// Which server-plane stepping core runs the leaves (the stepped oracle
    /// by default).  Results are bit-identical either way; `EventDriven`
    /// fast-forwards steady leaves and attributes wakes.
    #[serde(default)]
    pub sim_core: SimCore,
    /// How many consecutive steps share one diurnal demand sample (1 by
    /// default: demand re-samples every step, the pre-event-core behavior).
    /// Holding demand for several steps is what lets leaves actually
    /// quiesce between inflections — the diurnal curves move slowly
    /// relative to a step, so re-sampling every step perturbs every leaf's
    /// load by a hair and wakes the whole fleet for nothing.  Affects the
    /// demand model identically under both sim cores.
    #[serde(default = "default_demand_hold_steps")]
    pub demand_hold_steps: usize,
    /// The energy plane (metering off, no power cap by default).  Metering
    /// is a pure read-only shadow like telemetry: energy-on and energy-off
    /// runs of the same seed produce bit-identical [`FleetResult`]s — the
    /// per-step energy columns are always populated either way, because
    /// they are a pure function of the simulation records.  A cluster
    /// power cap, by contrast, is an explicit behavioral knob: the
    /// [`PowerCapCoordinator`] splits the watt budget into per-leaf RAPL
    /// caps and (under a tight budget) stops BE admission fleet-wide.
    #[serde(default)]
    pub energy: EnergyConfig,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            servers: 50,
            be_slots_per_server: 2,
            steps: 144,
            windows_per_step: 4,
            seed: 42,
            load_spread: 1.0,
            time_compression: 1.0,
            mix: GenerationMix::homogeneous(),
            services: ServiceMix::websearch_only(),
            balancer: BalancerKind::CapacityWeighted,
            preemption_grace_steps: 2,
            tco: TcoModel::paper_case_study(),
            colo: ColoConfig { requests_per_window: 1_200, ..ColoConfig::default() },
            jobs: JobStreamConfig { arrivals_per_step: 5.0, ..JobStreamConfig::default() },
            telemetry: TelemetryConfig::default(),
            sim_core: SimCore::Stepped,
            demand_hold_steps: default_demand_hold_steps(),
            energy: EnergyConfig::default(),
        }
    }
}

impl FleetConfig {
    /// A scaled-down configuration for tests and `--fast` runs.
    ///
    /// The window sample count stays at 1500 requests: the p99 estimate of
    /// a smaller sample is noisy enough that single-window excursions past
    /// the SLO dominate the violation counts, drowning the placement
    /// signal the fast configuration exists to demonstrate.  The seed is
    /// tuned, as it always has been: a compressed 45-step run sits inside
    /// the statistical margins the full-size experiments resolve cleanly,
    /// so the integration suites pin a seed whose draw is representative
    /// rather than averaging many runs on every `cargo test`.
    pub fn fast_test() -> Self {
        FleetConfig {
            servers: 8,
            steps: 45,
            windows_per_step: 3,
            seed: 69,
            colo: ColoConfig { requests_per_window: 1_500, ..ColoConfig::fast_test() },
            jobs: JobStreamConfig { arrivals_per_step: 1.0, ..JobStreamConfig::default() },
            ..Self::default()
        }
    }

    /// The `fast_test` configuration over the mixed-generation datacenter
    /// (a quarter older boxes, a quarter newer, the rest Haswell).
    pub fn fast_mixed() -> Self {
        FleetConfig { mix: GenerationMix::mixed_datacenter(), ..Self::fast_test() }
    }

    /// The `fast_test` configuration over the mixed-service front end
    /// (half websearch, the rest split between memkeyval and ml_cluster),
    /// with the run compressed onto one diurnal cycle so the phase-spread
    /// service demands actually sweep their curves — on an uncompressed
    /// short run every service would be frozen at one point of its trace.
    pub fn fast_services() -> Self {
        let base = Self::fast_test();
        let horizon_s =
            base.steps as f64 * base.windows_per_step as f64 * base.colo.window.as_secs_f64();
        FleetConfig {
            services: ServiceMix::mixed_frontend(),
            time_compression: 12.0 * 3600.0 / horizon_s,
            // Pinned independently of `fast_test`: the service-catalog
            // suites and the elastic suites are separate experiments, and
            // each pins the representative draw for its own claims.
            seed: 425,
            ..base
        }
    }

    /// Validates the configuration, returning a human-readable description
    /// of the first violation.
    ///
    /// Degenerate configurations (zero servers or steps, a phase spread
    /// outside `[0, 1]`, generation fractions that do not describe a fleet,
    /// an impossible job stream) used to slip through and silently produce
    /// empty or nonsensical runs; every constructor now rejects them with a
    /// message naming the offending field.
    pub fn validate(&self) -> Result<(), String> {
        if self.servers == 0 {
            return Err("a fleet needs at least one server (servers = 0)".into());
        }
        if self.be_slots_per_server == 0 {
            return Err("servers need at least one BE slot (be_slots_per_server = 0)".into());
        }
        if self.steps == 0 || self.windows_per_step == 0 {
            return Err(format!(
                "steps must be positive (steps = {}, windows_per_step = {})",
                self.steps, self.windows_per_step
            ));
        }
        if !self.load_spread.is_finite() || !(0.0..=1.0).contains(&self.load_spread) {
            return Err(format!("load_spread must be in [0, 1] (got {})", self.load_spread));
        }
        if !self.time_compression.is_finite() || self.time_compression <= 0.0 {
            return Err(format!(
                "time_compression must be finite and positive (got {})",
                self.time_compression
            ));
        }
        self.mix.validate()?;
        self.services.validate()?;
        // Every active service must actually get a leaf: a skewed mix on a
        // small fleet can pass the share checks and still error-diffuse an
        // active service down to zero leaves — whose demand would then
        // silently never be offered, the exact evaporation the service
        // catalog exists to rule out.
        let leaf_counts = self.services.leaf_counts(self.servers);
        for (kind, (&share, &leaves)) in
            LcKind::all().into_iter().zip(self.services.shares().iter().zip(&leaf_counts))
        {
            if share > 0.0 && leaves == 0 {
                return Err(format!(
                    "a fleet of {} servers gives service {} (share {share}) zero leaves — \
                     grow the fleet or drop the service from the mix",
                    self.servers,
                    kind.name()
                ));
            }
        }
        if !self.jobs.arrivals_per_step.is_finite() || self.jobs.arrivals_per_step < 0.0 {
            return Err(format!(
                "arrivals_per_step must be finite and non-negative (got {})",
                self.jobs.arrivals_per_step
            ));
        }
        let (demand_min, demand_max) = (self.jobs.demand_min_core_s, self.jobs.demand_max_core_s);
        if !demand_min.is_finite()
            || !demand_max.is_finite()
            || demand_min <= 0.0
            || demand_max < demand_min
        {
            return Err(format!(
                "job demand bounds must be finite and satisfy 0 < min <= max \
                 (got {demand_min}..{demand_max})"
            ));
        }
        if !self.jobs.demand_alpha.is_finite() || self.jobs.demand_alpha <= 0.0 {
            return Err(format!(
                "demand_alpha must be finite and positive (got {})",
                self.jobs.demand_alpha
            ));
        }
        if self.demand_hold_steps == 0 {
            return Err("demand_hold_steps must be at least 1 (got 0)".into());
        }
        if !self.energy.pue.is_finite() || self.energy.pue < 1.0 {
            return Err(format!(
                "energy.pue must be finite and at least 1.0 (got {})",
                self.energy.pue
            ));
        }
        if let Some(cap) = self.energy.power_cap_w {
            if !cap.is_finite() || cap <= 0.0 {
                return Err(format!(
                    "energy.power_cap_w must be finite and positive when set (got {cap})"
                ));
            }
        }
        self.telemetry.validate()?;
        Ok(())
    }

    /// Duration of one scheduler step.
    pub fn step_duration(&self) -> heracles_sim::SimDuration {
        self.colo.window * self.windows_per_step as u64
    }
}

/// Observation returned by one server's step (computed on a worker thread).
struct StepObservation {
    last_emu: f64,
    last_be_throughput: f64,
    worst_normalized_latency: f64,
    mean_normalized_latency: f64,
    progress_core_s: f64,
    be_enabled: bool,
    /// Windows this leaf simulated in full this step (0 ⇒ the leaf was
    /// quiescent: every window took the steady-state fast path).
    full_windows: u64,
    /// Windows satisfied by the fast path this step.
    fast_windows: u64,
    /// Package energy this leaf drew over the step's windows, in joules of
    /// *simulated* time (per-window watts × window seconds; the recorder
    /// scales by time compression when charging represented energy).
    energy_j: f64,
    /// The leaf's maximum per-window package power this step, in watts —
    /// the per-leaf term of the fleet's conservative peak-draw bound.
    max_power_w: f64,
}

/// The fleet simulator: servers, the traffic plane, scheduler state and
/// the job stream.
pub struct FleetSim {
    config: FleetConfig,
    /// The front-end traffic plane: routes each catalog service's offered
    /// QPS across its in-service leaves every step.
    plane: TrafficPlane,
    runners: Vec<ColoRunner>,
    store: PlacementStore,
    queue: JobQueue,
    policy: Box<dyn PlacementPolicy>,
    rng: SimRng,
    /// True per-(generation × service) (LC workload, hardware) profiles,
    /// indexed `[generation][service]` — the source of truth for mid-run
    /// purchases of cells absent from the initial fleet.
    profiles: Vec<Vec<(LcWorkload, ServerConfig)>>,
    /// One offline DRAM model per (generation × service) cell, profiled
    /// lazily: present cells at construction, purchased ones on first
    /// `add_server`.
    dram_models: Vec<Vec<Option<OfflineDramModel>>>,
    steps: Vec<FleetStep>,
    events: Vec<FleetEvent>,
    completed_total: usize,
    step_idx: usize,
    /// Migrations committed since the last recorded step (folded into the
    /// next [`FleetStep`]).
    pending_migrations: usize,
    /// The woken/quiescent and full/fast-window split of the server plane
    /// — kept outside [`FleetStep`] because it differs between the cores.
    server_counts: ServerPlaneCounts,
    /// Typed per-leaf wake events (`EventDriven` core only): every producer
    /// of change schedules a wake here, and the step drains everything due
    /// to attribute why each woken leaf woke.
    wakes: Scheduler<ServerId>,
    /// Each leaf's routed load from the previous step, as exact bits
    /// (`EventDriven` core only; `None` until a leaf first routes).  A wake
    /// fires on any bit change — no epsilon: any change to the demand a
    /// leaf serves is a real change.
    prev_load_bits: Vec<Option<u64>>,
    /// The telemetry plane (`None` when `config.telemetry` is disabled):
    /// the flight recorder every traced component drains into and the
    /// metrics registry.  It lives outside the bit-compared result types.
    telemetry: Option<Telemetry>,
    /// Per-server admission verdicts after the previous step (telemetry
    /// only): the baseline the next step diffs so only verdict flips reach
    /// the recorder.  Empty when telemetry is off.
    admission_baseline: Vec<bool>,
    /// Per-server clock offset (telemetry only): a leaf commissioned
    /// mid-run starts its local clock at zero, so its trace events are
    /// rebased by its commissioning time to land on the fleet clock.
    /// Empty when telemetry is off.
    runner_epochs: Vec<SimDuration>,
    /// The energy meter's ledgers (`None` unless `config.energy.metering`).
    /// A pure read-only shadow: it is charged from the same per-leaf
    /// observations the always-on step columns sum, so installing it
    /// changes no simulated outcome.
    meter: Option<EnergyMeter>,
    /// The cluster power-cap coordinator (`None` unless
    /// `config.energy.power_cap_w` is set).  Unlike the meter this is a
    /// behavioral knob: it imposes per-leaf RAPL caps and a fleet
    /// BE-admission throttle every step.
    cap_coordinator: Option<PowerCapCoordinator>,
}

impl FleetSim {
    /// True per-(generation × service) (LC workload, hardware) profiles,
    /// indexed `[generation][service]`.
    ///
    /// Every leaf serves its service with the traffic share scaled to its
    /// compute capacity (the balancers weight traffic by peak QPS, so a
    /// load fraction keeps meaning "fraction of what this box can serve").
    fn true_profiles(baseline: &ServerConfig) -> Vec<Vec<(LcWorkload, ServerConfig)>> {
        Generation::all()
            .into_iter()
            .map(|g| {
                let gen_config = g.server_config(baseline);
                let ratio = gen_config.total_cores() as f64 / baseline.total_cores() as f64;
                LcKind::all()
                    .into_iter()
                    .map(|svc| {
                        let base = LcWorkload::of_kind(svc);
                        let lc = if g == Generation::Haswell {
                            base
                        } else {
                            base.scaled_to_capacity(ratio)
                        };
                        (lc, gen_config.clone())
                    })
                    .collect()
            })
            .collect()
    }

    /// The catalog and the per-server generation/service assignments, each
    /// a pure function of the configuration — computed once per
    /// construction and threaded through, so the characterization, the
    /// DRAM-model cache and the store can never disagree about who serves
    /// what.
    fn provisioning(config: &FleetConfig) -> (ServiceCatalog, Vec<Generation>, Vec<LcKind>) {
        let generations = config.mix.assignments(config.servers);
        let catalog = ServiceCatalog::build(config.services, config.seed, config.load_spread);
        let services = catalog.assignments(config.servers);
        (catalog, generations, services)
    }

    /// The (generation, service) cells present in the initial assignment,
    /// in deterministic order — what the characterization measures (absent
    /// cells fall back to the model's cautious default until purchased).
    fn present_cells(generations: &[Generation], services: &[LcKind]) -> Vec<(usize, LcKind)> {
        let mut present: Vec<(usize, LcKind)> = Vec::new();
        for (g, s) in generations.iter().zip(services) {
            let cell = (g.index(), *s);
            if !present.contains(&cell) {
                present.push(cell);
            }
        }
        present.sort_by_key(|&(g, s)| (g, s.index()));
        present
    }

    /// Creates a fleet under one of the built-in placement policies.
    ///
    /// For [`PolicyKind::InterferenceAware`] this runs the §3.2
    /// characterization cells for the job mix's workloads (in parallel)
    /// to measure their hostility scores — once per distinct
    /// (hardware generation, LC service) cell in the fleet.
    pub fn new(config: FleetConfig, server_config: ServerConfig, policy: PolicyKind) -> Self {
        config.validate().unwrap_or_else(|e| panic!("invalid fleet config: {e}"));
        let (catalog, generations, services) = Self::provisioning(&config);
        let policy: Box<dyn PlacementPolicy> = match policy {
            PolicyKind::Random => Box::new(RandomPlacement::default()),
            PolicyKind::FirstFit => Box::new(FirstFit::default()),
            PolicyKind::LeastLoaded => Box::new(LeastLoaded::default()),
            PolicyKind::InterferenceAware => {
                let probe = ColoConfig { requests_per_window: 1_000, ..ColoConfig::default() }
                    .with_seed(config.seed ^ 0xCAFE);
                let profiles = Self::true_profiles(&server_config);
                let cells: Vec<(usize, LcKind, LcWorkload, ServerConfig)> =
                    Self::present_cells(&generations, &services)
                        .into_iter()
                        .map(|(g, s)| {
                            let (lc, cfg) = &profiles[g][s.index()];
                            (g, s, lc.clone(), cfg.clone())
                        })
                        .collect();
                let model =
                    InterferenceModel::characterize(&config.jobs.mix.workloads(), &cells, &probe);
                Box::new(InterferenceAware::new(model))
            }
        };
        Self::build(config, server_config, policy, catalog, generations, services)
    }

    /// Creates a fleet under a caller-supplied placement policy.
    ///
    /// # Panics
    ///
    /// Panics if [`FleetConfig::validate`] rejects the configuration.
    pub fn with_policy(
        config: FleetConfig,
        server_config: ServerConfig,
        policy: Box<dyn PlacementPolicy>,
    ) -> Self {
        config.validate().unwrap_or_else(|e| panic!("invalid fleet config: {e}"));
        let (catalog, generations, services) = Self::provisioning(&config);
        Self::build(config, server_config, policy, catalog, generations, services)
    }

    /// The shared constructor body: every entry point computes the
    /// provisioning exactly once and hands it in.
    fn build(
        config: FleetConfig,
        server_config: ServerConfig,
        policy: Box<dyn PlacementPolicy>,
        catalog: ServiceCatalog,
        generations: Vec<Generation>,
        services: Vec<LcKind>,
    ) -> Self {
        // The store's admission envelope mirrors the leaf controllers'
        // load hysteresis; fail fast if the two ever drift apart (placement
        // would silently dispatch jobs the controllers park at zero
        // progress — the bug class the admission predicate exists to stop).
        let leaf_config = HeraclesConfig::fast();
        assert_eq!(
            leaf_config.load_enable_threshold,
            crate::store::ADMISSION_LOAD_CEILING,
            "admission ceiling desynced from the controllers' enable threshold"
        );
        assert_eq!(
            leaf_config.load_disable_threshold,
            crate::store::ADMISSION_LOAD_DISABLE,
            "admission disable line desynced from the controllers' disable threshold"
        );
        let profiles = Self::true_profiles(&server_config);
        // One offline DRAM model per (generation × service) cell serves all
        // of its leaves (the paper shares one across the cluster too; the
        // controller tolerates the model error).  Absent cells get none
        // until an autoscaler purchases one.
        let present = Self::present_cells(&generations, &services);
        let dram_models: Vec<Vec<Option<OfflineDramModel>>> = Generation::all()
            .into_iter()
            .map(|g| {
                LcKind::all()
                    .into_iter()
                    .map(|svc| {
                        let (lc, gen_config) = &profiles[g.index()][svc.index()];
                        present
                            .contains(&(g.index(), svc))
                            .then(|| OfflineDramModel::profile(lc, gen_config))
                    })
                    .collect()
            })
            .collect();
        let telemetry = Telemetry::new(config.telemetry);
        let mut runners: Vec<ColoRunner> = (0..config.servers)
            .map(|i| {
                let (g, svc) = (generations[i].index(), services[i]);
                let (lc, gen_config) = &profiles[g][svc.index()];
                let dram_model =
                    dram_models[g][svc.index()].clone().expect("present cells have a DRAM model");
                let leaf_policy: Box<dyn ColocationPolicy> =
                    Box::new(Heracles::new(HeraclesConfig::fast(), lc.slo(), dram_model));
                ColoRunner::new(
                    gen_config.clone(),
                    lc.clone(),
                    None,
                    leaf_policy,
                    config.colo.with_seed(config.seed ^ (0xF1EE7 + i as u64 * 7919)),
                )
            })
            .collect();
        if telemetry.is_some() {
            for runner in &mut runners {
                runner.set_trace(true);
            }
        }
        let capacities: Vec<ServerCapacity> = generations
            .iter()
            .zip(&services)
            .map(|(g, &svc)| {
                let (lc, gen_config) = &profiles[g.index()][svc.index()];
                ServerCapacity::for_service(
                    gen_config,
                    config.be_slots_per_server,
                    g.index(),
                    svc,
                    lc.peak_qps(),
                )
            })
            .collect();
        // Each service is provisioned with its initial pool's aggregate
        // peak: that is the demand denominator for the whole run — demand
        // is exogenous, so scale-in shrinks the pool but never the offered
        // traffic.
        let mut provisioned = [0.0f64; NUM_SERVICES];
        for cap in &capacities {
            provisioned[cap.service.index()] += cap.peak_qps;
        }
        let mut plane = TrafficPlane::new(
            catalog,
            config.balancer.build(),
            provisioned,
            config.time_compression,
        );
        if telemetry.is_some() {
            plane.set_trace(true);
        }
        let store = PlacementStore::heterogeneous(&capacities);
        let admission_baseline =
            if telemetry.is_some() { store.admission_verdicts() } else { Vec::new() };
        let runner_epochs =
            if telemetry.is_some() { vec![SimDuration::ZERO; runners.len()] } else { Vec::new() };
        FleetSim {
            plane,
            runners,
            store,
            queue: JobQueue::new(config.jobs, config.seed),
            policy,
            rng: SimRng::new(config.seed).fork(0x9C4ED),
            profiles,
            dram_models,
            steps: Vec::with_capacity(config.steps),
            events: Vec::new(),
            completed_total: 0,
            step_idx: 0,
            pending_migrations: 0,
            server_counts: ServerPlaneCounts::default(),
            wakes: Scheduler::new(),
            prev_load_bits: vec![None; config.servers],
            telemetry,
            admission_baseline,
            runner_epochs,
            meter: config.energy.metering.then(EnergyMeter::new),
            cap_coordinator: config.energy.power_cap_w.map(PowerCapCoordinator::new),
            config,
        }
    }

    /// The configuration this fleet runs under.
    pub fn config(&self) -> &FleetConfig {
        &self.config
    }

    /// The placement policy's name.
    pub fn policy_name(&self) -> &str {
        self.policy.name()
    }

    /// The scheduler's live view of the fleet.
    pub fn store(&self) -> &PlacementStore {
        &self.store
    }

    /// Every job the arrival stream has produced so far.
    pub fn jobs(&self) -> &[BeJob] {
        self.queue.jobs()
    }

    /// One job by id.
    ///
    /// # Panics
    ///
    /// Panics if `id` was never issued.
    pub fn job(&self, id: JobId) -> &BeJob {
        self.queue.job(id)
    }

    /// Number of jobs currently waiting in the queue.
    pub fn queue_depth(&self) -> usize {
        self.queue.pending_len()
    }

    /// Ids of the jobs currently waiting in the queue, in dispatch order.
    ///
    /// Between steps this is exactly the set of jobs that are neither
    /// resident nor complete, so controllers can scan the queue (bounded by
    /// its depth) instead of the whole job ledger (which grows with run
    /// length) when counting stranded work.
    pub fn pending_job_ids(&self) -> impl Iterator<Item = JobId> + '_ {
        self.queue.pending_ids()
    }

    /// The server plane's woken/quiescent and full/fast-window split over
    /// the steps run so far.  Pure observability, outside [`FleetStep`].
    pub fn server_plane_counts(&self) -> &ServerPlaneCounts {
        &self.server_counts
    }

    /// Schedules a wake for leaf `id` at the end of the step about to run
    /// (a no-op under the stepped core, which never sleeps anyone).  Wakes
    /// are conservative attribution, not the correctness gate — each
    /// runner's own window-input comparison decides whether it may
    /// fast-forward — so waking a leaf that turns out steady costs nothing
    /// but the wake.
    fn wake(&mut self, id: ServerId, reason: WakeReason) {
        if self.config.sim_core != SimCore::EventDriven {
            return;
        }
        let due = SimTime::ZERO + self.config.step_duration() * (self.step_idx as u64 + 1);
        self.wakes.schedule(due, id, reason);
    }

    /// The telemetry plane, when the configuration enabled it.
    pub fn telemetry(&self) -> Option<&Telemetry> {
        self.telemetry.as_ref()
    }

    /// Mutable access to the telemetry plane (external controllers record
    /// their own metrics through it).
    pub fn telemetry_mut(&mut self) -> Option<&mut Telemetry> {
        self.telemetry.as_mut()
    }

    /// Detaches the telemetry plane (for writing its artifacts after a run
    /// consumed the simulator's result separately).
    pub fn take_telemetry(&mut self) -> Option<Telemetry> {
        self.telemetry.take()
    }

    /// True when the telemetry plane is collecting.
    pub fn telemetry_enabled(&self) -> bool {
        self.telemetry.is_some()
    }

    /// Records `event` into the flight recorder, if telemetry is enabled
    /// (a no-op otherwise).  External controllers — the autoscaler — use
    /// this to thread their decision events into the same time-ordered
    /// stream as the fleet's own.
    pub fn emit_trace(&mut self, event: TraceEvent) {
        if let Some(t) = self.telemetry.as_mut() {
            t.recorder.record(event);
        }
    }

    /// Records the health plane's end-of-run summary — per-cell sketch
    /// percentiles and the top-k unhealthiest leaves — into the flight
    /// recorder at the current sim time.  A no-op when the health plane is
    /// off.  Callers writing trace artifacts invoke this once, after the
    /// last step and before [`FleetSim::take_telemetry`].
    pub fn emit_health_summary(&mut self) {
        let now = self.now();
        if let Some(t) = self.telemetry.as_mut() {
            if let Some(h) = t.health.as_ref() {
                let events = h.summary_events(now);
                t.recorder.extend(events);
            }
        }
    }

    /// The energy meter's ledgers, when `config.energy.metering` is on.
    pub fn meter(&self) -> Option<&EnergyMeter> {
        self.meter.as_ref()
    }

    /// Detaches the energy meter (for writing energy artifacts after a run
    /// consumed the simulator's result separately).
    pub fn take_meter(&mut self) -> Option<EnergyMeter> {
        self.meter.take()
    }

    /// Records the energy plane's end-of-run summary into the flight
    /// recorder at the current sim time: the fleet ledger with its
    /// conservation residual, one event per (service × generation) pool
    /// ledger, and the top-5 energy-hungriest leaves.  A no-op when
    /// metering or telemetry is off.  Callers writing trace artifacts
    /// invoke this once, after the last step and before
    /// [`FleetSim::take_telemetry`].
    pub fn emit_energy_summary(&mut self) {
        let now = self.now();
        let Some(meter) = self.meter.as_ref() else { return };
        let Some(t) = self.telemetry.as_mut() else { return };
        let fleet = meter.fleet();
        t.recorder.record(
            TraceEvent::new(now, "energy", "summary")
                .f64("fleet_joules", fleet.joules)
                .f64("fleet_dollars", fleet.dollars)
                .u64("observations", meter.observations())
                .f64("conservation_error_j", meter.conservation_error()),
        );
        for ((service, generation), ledger) in meter.pools() {
            t.recorder.record(
                TraceEvent::new(now, "energy", "pool")
                    .str("service", service)
                    .str("generation", generation)
                    .f64("joules", ledger.joules)
                    .f64("dollars", ledger.dollars),
            );
        }
        for (leaf, ledger) in meter.top_leaves(5) {
            t.recorder.record(
                TraceEvent::new(now, "energy", "top_leaf")
                    .u64("server", leaf)
                    .f64("joules", ledger.joules)
                    .f64("dollars", ledger.dollars),
            );
        }
    }

    /// Index of the next step to run (also: how many steps have run).
    pub fn current_step(&self) -> usize {
        self.step_idx
    }

    /// Simulated time at the end of the most recent step (`ZERO` before the
    /// first).
    pub fn now(&self) -> SimTime {
        SimTime::ZERO + self.config.step_duration() * self.step_idx as u64
    }

    /// The steps recorded so far.
    pub fn steps_so_far(&self) -> &[FleetStep] {
        &self.steps
    }

    /// The traffic plane routing the catalog's demand onto the fleet.
    pub fn traffic_plane(&self) -> &TrafficPlane {
        &self.plane
    }

    /// Server `id`'s *expected* LC load at `time`: its service's offered
    /// QPS divided by the service's current in-service pool capacity (the
    /// capacity-weighted estimate; a slack-aware balancer may skew the live
    /// per-leaf fractions, but it conserves the same total).  This is the
    /// forecast signal capacity planners use — the diurnal demand curves
    /// are known inputs.
    pub fn server_load(&self, id: ServerId, time: SimTime) -> f64 {
        let service = self.store.server(id).service;
        self.plane.expected_pool_load(service, time, &self.store)
    }

    /// The extra load fraction `dest` would absorb if `victim` left the
    /// fleet and its currently routed traffic were re-divided across the
    /// surviving leaves of its service (capacity-weighted).  Zero when the
    /// two serve different services — a drained websearch leaf's traffic
    /// never lands on a memkeyval box.
    ///
    /// This is what makes scale-in physical: the drain pricer adds this to
    /// a destination's projected load *before* ranking its headroom, and
    /// the autoscaling policies price the same quantity as SLO risk before
    /// shedding.
    pub fn reroute_load_increase(&self, victim: ServerId, dest: ServerId) -> f64 {
        let v = self.store.server(victim);
        let d = self.store.server(dest);
        if v.service != d.service || !v.in_service() {
            return 0.0;
        }
        // The store's per-service leaf index lists exactly the in-service
        // leaves of the victim's service, ascending by id — the same
        // members (and the same float summation order) as the full-fleet
        // filter it replaces, without touching the other services' leaves.
        let survivors: f64 = self
            .store
            .service_leaf_ids(v.service)
            .iter()
            .filter(|&&id| id != victim)
            .map(|&id| self.store.server(id).peak_qps)
            .sum();
        if survivors <= 0.0 {
            return 0.0;
        }
        // The victim's routed QPS lands on the survivors in proportion to
        // capacity; dest's share, as a fraction of its own peak, is the
        // victim's load scaled by the peak ratio.
        v.lc_load * v.peak_qps / survivors
    }

    /// The load fraction `victim`'s service pool would run at,
    /// `lead_steps` scheduler steps ahead, if `victim` were retired now
    /// and its share re-routed across the surviving leaves
    /// (capacity-weighted).  Infinite when the victim is its service's
    /// last leaf — there would be nowhere for the traffic to go.
    ///
    /// This is the SLO-risk price of a scale-in: a pool projected past the
    /// leaves' latency knee guarantees the re-routed share buys violations,
    /// and the autoscaling policies refuse to shed into it.
    pub fn post_retire_pool_load(&self, victim: ServerId, lead_steps: usize) -> f64 {
        let v = self.store.server(victim);
        let t =
            SimTime::ZERO + self.config.step_duration() * (self.step_idx + 1 + lead_steps) as u64;
        let remaining = self.store.in_service_peak_qps(v.service) - v.peak_qps;
        if remaining <= 0.0 {
            return f64::INFINITY;
        }
        self.plane.offered_qps(v.service, t) / remaining
    }

    /// Core-weighted mean LC load across in-service servers `lead_steps`
    /// scheduler steps ahead of the step about to run.  The diurnal trace
    /// is a known input (capacity planners have yesterday's traffic), so a
    /// predictive autoscaler may legitimately look ahead; `lead_steps = 0`
    /// is the load the very next step will sample.
    pub fn forecast_mean_load(&self, lead_steps: usize) -> f64 {
        let t =
            SimTime::ZERO + self.config.step_duration() * (self.step_idx + 1 + lead_steps) as u64;
        // The expected pool load is a per-*service* quantity: memoize it
        // once per service instead of recomputing the catalog lookup for
        // every leaf.  The accumulation order (and hence the float result)
        // is identical to the per-server scan this replaces.
        let mut pool_load: [Option<f64>; NUM_SERVICES] = [None; NUM_SERVICES];
        let (mut weighted, mut cores) = (0.0f64, 0.0f64);
        for s in self.store.servers().iter().filter(|s| s.in_service()) {
            let load = *pool_load[s.service.index()]
                .get_or_insert_with(|| self.plane.expected_pool_load(s.service, t, &self.store));
            weighted += load * s.cores as f64;
            cores += s.cores as f64;
        }
        if cores > 0.0 {
            weighted / cores
        } else {
            0.0
        }
    }

    /// The catalog service a newly purchased leaf should serve: the one
    /// whose in-service pool has been depleted the furthest below its
    /// provisioned capacity (ties break towards the lower service index).
    /// Scale-out thereby replenishes exactly the pool scale-in strained.
    fn most_depleted_service(&self) -> LcKind {
        let depletion = |k: LcKind| {
            let provisioned = self.plane.provisioned_peak_qps(k);
            if provisioned <= 0.0 {
                f64::INFINITY
            } else {
                self.store.in_service_peak_qps(k) / provisioned
            }
        };
        self.plane
            .catalog()
            .services()
            .iter()
            .map(|s| s.kind())
            .min_by(|&a, &b| {
                depletion(a)
                    .partial_cmp(&depletion(b))
                    .expect("depletion is finite or infinite, never NaN")
                    .then(a.index().cmp(&b.index()))
            })
            .expect("the catalog has at least one service")
    }

    /// Commissions a new server of `generation` (autoscaler scale-out) and
    /// returns its id.  The box arrives empty and active, its Heracles
    /// controller cold, and joins the leaf pool of the catalog's most
    /// depleted service — where the balancer immediately dilutes every
    /// sibling's load fraction.  Its DRAM model is profiled on first
    /// purchase of a (generation × service) cell absent from the initial
    /// fleet and cached for subsequent ones.
    pub fn add_server(&mut self, generation: Generation) -> ServerId {
        let id = self.runners.len();
        let gi = generation.index();
        let service = self.most_depleted_service();
        let si = service.index();
        if self.dram_models[gi][si].is_none() {
            let (lc, gen_config) = &self.profiles[gi][si];
            self.dram_models[gi][si] = Some(OfflineDramModel::profile(lc, gen_config));
        }
        let (lc, gen_config) = &self.profiles[gi][si];
        let dram_model = self.dram_models[gi][si].clone().expect("just profiled");
        let leaf_policy: Box<dyn ColocationPolicy> =
            Box::new(Heracles::new(HeraclesConfig::fast(), lc.slo(), dram_model));
        self.runners.push(ColoRunner::new(
            gen_config.clone(),
            lc.clone(),
            None,
            leaf_policy,
            self.config.colo.with_seed(self.config.seed ^ (0xF1EE7 + id as u64 * 7919)),
        ));
        let capacity = ServerCapacity::for_service(
            gen_config,
            self.config.be_slots_per_server,
            gi,
            service,
            lc.peak_qps(),
        );
        let store_id = self.store.add_server(capacity);
        debug_assert_eq!(store_id, id, "store and runner ids diverged");
        self.prev_load_bits.push(None);
        self.wake(id, WakeReason::Lifecycle);
        if self.telemetry.is_some() {
            self.runners[id].set_trace(true);
            self.admission_baseline.push(true);
            // The fresh runner's clock starts at zero; rebase its events
            // by the commissioning time so they land on the fleet clock.
            self.runner_epochs.push(self.now().saturating_since(SimTime::ZERO));
            let now = self.now();
            let event = TraceEvent::new(now, "store", "server_added")
                .u64("server", id as u64)
                .u64("generation", gi as u64)
                .str("service", service.name())
                .u64("cores", self.store.server(id).cores as u64);
            self.emit_trace(event);
        }
        id
    }

    /// Marks a server as draining (autoscaler scale-in, phase one): no new
    /// BE work, residents to be migrated away.
    pub fn begin_drain(&mut self, id: ServerId) {
        self.store.begin_drain(id);
        self.wake(id, WakeReason::Lifecycle);
        if self.telemetry.is_some() {
            let event = TraceEvent::new(self.now(), "store", "drain_started")
                .u64("server", id as u64)
                .u64("residents", self.store.server(id).resident.len() as u64);
            self.emit_trace(event);
        }
    }

    /// Returns a draining server to active service (a cancelled scale-in).
    pub fn reactivate_server(&mut self, id: ServerId) {
        self.store.reactivate(id);
        self.wake(id, WakeReason::Lifecycle);
        if self.telemetry.is_some() {
            let event =
                TraceEvent::new(self.now(), "store", "reactivated").u64("server", id as u64);
            self.emit_trace(event);
        }
    }

    /// Retires a drained server (autoscaler scale-in, phase two): it stops
    /// stepping and stops costing TCO from the next step on, and its share
    /// of its service's traffic is re-routed onto the surviving leaves by
    /// the balancer from the next step's routing.
    ///
    /// # Panics
    ///
    /// Panics if the server still hosts resident jobs — retiring a box with
    /// unmigrated work is exactly the bug the drain protocol exists to
    /// prevent, and the autoscaler's property tests lean on this assert —
    /// or if it is the last in-service leaf of its service: the service's
    /// offered traffic would have nowhere to go, and demand conservation is
    /// the traffic plane's contract.
    pub fn retire_server(&mut self, id: ServerId) {
        let entry = self.store.server(id);
        if entry.in_service() {
            let service = entry.service;
            assert!(
                self.store.in_service_leaves(service) > 1,
                "cannot retire server {id}: it is the last in-service {} leaf",
                service.name()
            );
        }
        self.store.retire(id);
        if let Some(c) = self.cap_coordinator.as_mut() {
            c.forget(id as u64);
        }
        if self.telemetry.is_some() {
            let event = TraceEvent::new(self.now(), "store", "retired").u64("server", id as u64);
            self.emit_trace(event);
        }
    }

    /// Live-migrates a resident job from `from` to `to`, preserving its
    /// remaining demand and charging `cost_core_s` of migration overhead
    /// (moving memory/state costs destination compute, modeled in the same
    /// core·second currency as the demand itself).  The job never passes
    /// through the queue and keeps its first-start timestamp.
    ///
    /// # Panics
    ///
    /// Panics if the job is not resident on `from`, `to` is retired or has
    /// no free slot, or the cost is negative or non-finite.
    pub fn migrate_job(&mut self, job: JobId, from: ServerId, to: ServerId, cost_core_s: f64) {
        assert!(
            cost_core_s.is_finite() && cost_core_s >= 0.0,
            "migration cost must be finite and non-negative (got {cost_core_s})"
        );
        assert!(self.store.server(to).in_service(), "migration target {to} is retired");
        self.store.migrate(job, from, to);
        let entry = self.queue.job_mut(job);
        entry.remaining_core_s += cost_core_s;
        entry.migration_overhead_core_s += cost_core_s;
        entry.migrations += 1;
        self.pending_migrations += 1;
        self.events.push(FleetEvent {
            step: self.step_idx,
            job,
            server: to,
            kind: FleetEventKind::Migrated,
        });
        self.sync_attachment(from);
        self.sync_attachment(to);
        self.wake(from, WakeReason::JobCompletion);
        self.wake(to, WakeReason::JobArrival);
        if let Some(t) = self.telemetry.as_mut() {
            t.metrics.inc("fleet.jobs_migrated");
        }
        if self.telemetry.is_some() {
            let event = TraceEvent::new(self.now(), "fleet", "migrate")
                .u64("job", job as u64)
                .u64("from", from as u64)
                .u64("to", to as u64)
                .f64("cost_core_s", cost_core_s);
            self.emit_trace(event);
        }
    }

    /// Preempts a resident job back to the front of the queue — the drain
    /// pricer's fallback when a migration costs more than the job has left.
    /// Counts as a preemption in the job ledger.
    pub fn requeue_job(&mut self, job: JobId, from: ServerId) {
        self.store.release(job, from);
        self.queue.requeue_front(job);
        self.events.push(FleetEvent {
            step: self.step_idx,
            job,
            server: from,
            kind: FleetEventKind::Preempted,
        });
        self.sync_attachment(from);
        self.wake(from, WakeReason::JobCompletion);
        if let Some(t) = self.telemetry.as_mut() {
            t.metrics.inc("fleet.jobs_preempted");
        }
        if self.telemetry.is_some() {
            let event = TraceEvent::new(self.now(), "fleet", "requeue")
                .u64("job", job as u64)
                .u64("from", from as u64);
            self.emit_trace(event);
        }
    }

    /// Points the runner's BE workload at its head resident job (or detaches
    /// it).  Jobs of the same kind share a profile, so a swap between them
    /// is a no-op.
    ///
    /// When several jobs share a server, the head job's profile stands in
    /// for the whole BE slice: the co-residents share the slice's
    /// throughput (see the progress crediting in [`FleetSim::step_once`])
    /// but do not add their own contention to the hardware model.  This
    /// approximation understates interference when a hostile job hides
    /// behind a benign head — one reason the informed policies' occupancy
    /// penalty steers away from double-packing, and the first candidate to
    /// refine if multi-slot fidelity starts to matter.
    fn sync_attachment(&mut self, id: ServerId) {
        let head: Option<BeWorkload> =
            self.store.server(id).resident.first().map(|&job| self.queue.job(job).workload.clone());
        let current = self.runners[id].be().map(|b| b.kind());
        if current != head.as_ref().map(|w| w.kind()) {
            self.runners[id].set_be(head);
        }
        let attached = self.runners[id].be().map(|b| b.kind());
        self.store.set_attached_kind(id, attached);
    }

    /// Runs one scheduler step over the in-service fleet and returns the
    /// recorded step.  Retired servers neither step nor cost TCO; an
    /// elastic controller interleaves scale actions between calls.
    pub fn step_once(&mut self) -> &FleetStep {
        let step_duration = self.config.step_duration();
        let window_s = self.config.colo.window.as_secs_f64();
        let step_idx = self.step_idx;
        let now = SimTime::ZERO + step_duration * (step_idx as u64 + 1);

        let in_service: Vec<ServerId> =
            self.store.servers().iter().filter(|s| s.in_service()).map(|s| s.id).collect();

        // 1. Route every service's offered QPS across its in-service
        // leaves.  Conservation is the traffic plane's contract — what a
        // retired leaf used to serve must land on the survivors, never
        // evaporate — so the imbalance is asserted every step, not only in
        // the property tests.
        // Telemetry is observation only: events for the step are buffered
        // here and committed to the flight recorder once, stably sorted by
        // simulated time (leaf controller events carry mid-step window
        // times; fleet-level events carry the step's end time), so the
        // recorded stream is non-decreasing in `t` — the trace schema's
        // contract.  None of this branches on wall-clock or perturbs the
        // seeded state, which is what keeps telemetry-on and telemetry-off
        // runs bit-identical.
        let tracing = self.telemetry.is_some();
        let mut step_events: Vec<TraceEvent> = Vec::new();
        // The health plane is taken out of the bundle for the step so its
        // observation taps can run alongside borrows of the store, plane
        // and queue; it is reinstalled in the final telemetry block.  Like
        // the recorder it is a read-only shadow: nothing below branches on
        // it, so health-on and health-off runs stay bit-identical.
        let mut health = self.telemetry.as_mut().and_then(|t| t.health.take());

        // 0. Cluster power capping (only when a budget is configured):
        // split the watt budget into per-leaf RAPL caps proportional to
        // TDP, and throttle BE admission fleet-wide when the budget is
        // tight — Algorithm 3's ordering lifted to the fleet: BE work is
        // shaved first (admission, then each leaf's DVFS walk-down), LC
        // guaranteed frequency is touched last, and only as far as each
        // leaf's own cap requires.  The cap participates in each leaf's
        // window-input signature, so a changed cap forces full simulation
        // windows — capping is a behavioral knob, never silently replayed.
        if let Some(mut coordinator) = self.cap_coordinator.take() {
            let roster: Vec<(u64, f64)> = in_service
                .iter()
                .map(|&id| (id as u64, self.runners[id].server().power().tdp_w()))
                .collect();
            let plan = coordinator.plan(&roster);
            if self.store.power_throttled() != plan.throttle_be {
                self.store.set_power_throttled(plan.throttle_be);
                if tracing {
                    step_events.push(
                        TraceEvent::new(now, "energy", "be_throttle")
                            .bool("throttled", plan.throttle_be)
                            .f64("budget_w", plan.budget_w)
                            .f64("total_tdp_w", plan.total_tdp_w),
                    );
                }
            }
            // Assignments are in roster order (= ascending in-service id),
            // or empty when the budget clears the whole roster's TDP.
            for (i, &id) in in_service.iter().enumerate() {
                let cap = plan.assignments.get(i).map(|a| {
                    debug_assert_eq!(a.leaf, id as u64, "cap plan order diverged");
                    a.cap_w
                });
                self.runners[id].set_package_cap_w(cap);
                if coordinator.note_applied(id as u64, cap) {
                    self.wake(id, WakeReason::Lifecycle);
                    if tracing {
                        step_events.push(
                            TraceEvent::new(now, "energy", "cap")
                                .u64("server", id as u64)
                                .bool("capped", cap.is_some())
                                .f64("cap_w", cap.unwrap_or(0.0))
                                .f64("budget_w", plan.budget_w),
                        );
                    }
                }
            }
            self.cap_coordinator = Some(coordinator);
        }

        // Demand is sampled on a hold grid: with `demand_hold_steps = n` the
        // diurnal curve is re-read every n steps and held flat in between,
        // so a steady fleet's routed loads are bit-stable across the held
        // span and the leaves can quiesce.  Routing itself still runs every
        // step (placements and drains shift shares mid-hold); only the
        // *time* the demand model sees is quantized.  `n = 1` reproduces
        // the old per-step sampling exactly.
        let hold = self.config.demand_hold_steps.max(1) as u64;
        let route_now = SimTime::ZERO + step_duration * ((step_idx as u64 / hold) * hold + 1);
        // Demand is sampled at the held `route_now`; trace events carry the
        // step's own end time so the recorded stream stays monotone.
        let routing = self.plane.route_held(route_now, now, &self.store);
        assert!(
            routing.max_imbalance() < 1e-9,
            "traffic plane failed to conserve demand: routed {:?} of offered {:?}",
            routing.routed_qps,
            routing.offered_qps
        );
        let loads: Vec<f64> = in_service.iter().map(|&id| routing.loads[id]).collect();
        for (&id, &load) in in_service.iter().zip(&loads) {
            self.store.set_load(id, load);
        }
        if tracing {
            step_events.extend(self.plane.take_trace());
        }
        if let Some(h) = health.as_mut() {
            let (shed, _) = self.plane.divert_counts();
            h.observe_signal(AlertKind::DivertStorm, shed as f64 / in_service.len().max(1) as f64);
        }

        // 2. Arrivals.
        self.queue.arrive(now);

        // 3. Dispatch: FIFO with skipping, planned as one batch round — the
        // policy scores the fleet once per step instead of once per job.
        let pending = self.queue.take_pending();
        let round_jobs = pending.len();
        if !pending.is_empty() {
            self.policy.begin_round(&self.store);
        }
        let mut unplaced = Vec::new();
        for job_id in pending {
            match self.policy.place(self.queue.job(job_id), &self.store, &mut self.rng) {
                Some(server) => {
                    self.store.place(job_id, server);
                    let job = self.queue.job_mut(job_id);
                    if job.first_start.is_none() {
                        job.first_start = Some(now);
                    }
                    self.events.push(FleetEvent {
                        step: step_idx,
                        job: job_id,
                        server,
                        kind: FleetEventKind::Placed,
                    });
                    self.wake(server, WakeReason::JobArrival);
                    if let Some(t) = self.telemetry.as_mut() {
                        t.metrics.inc("fleet.jobs_placed");
                        let entry = self.store.server(server);
                        step_events.push(
                            TraceEvent::new(now, "fleet", "place")
                                .u64("job", job_id as u64)
                                .u64("server", server as u64)
                                .str("service", entry.service.name())
                                .u64("generation", entry.generation as u64)
                                .f64("load", entry.lc_load)
                                .f64("slack", entry.slack)
                                .u64("residents", entry.resident.len() as u64),
                        );
                    }
                }
                None => {
                    if let Some(t) = self.telemetry.as_mut() {
                        t.metrics.inc("fleet.jobs_unplaced");
                        step_events.push(
                            TraceEvent::new(now, "fleet", "unplaced").u64("job", job_id as u64),
                        );
                    }
                    unplaced.push(job_id);
                }
            }
        }
        if tracing && round_jobs > 0 {
            let mut event = TraceEvent::new(now, "fleet", "dispatch_round")
                .u64("jobs", round_jobs as u64)
                .u64("placed", (round_jobs - unplaced.len()) as u64)
                .u64("unplaced", unplaced.len() as u64);
            if let Some(candidates) = self.policy.round_candidates() {
                event = event.u64("plan_candidates", candidates as u64);
            }
            step_events.push(event);
        }
        self.queue.restore_pending(unplaced);
        // Attachment sync commits the round's placements onto the runners.
        for &id in &in_service {
            self.sync_attachment(id);
        }

        // 4. Advance every in-service server, in parallel.  Retired runners
        // stay in place (ids must remain dense) but never step.  The
        // mask-filtered runner iterator ascends by id — exactly the order
        // of `in_service` and `loads` (and of `observations` below), so
        // the zip aligns loads with their runners.
        let windows = self.config.windows_per_step;
        let in_service_mask: Vec<bool> =
            self.store.servers().iter().map(|s| s.in_service()).collect();
        // Event core: drain the wake scheduler up to this step's end and
        // fold in load deltas (exact bit comparison — no epsilon) to build
        // the per-leaf wake-reason bitmask.  The mask is *attribution*, not
        // the correctness gate: every leaf still advances through
        // [`ColoRunner::advance`], whose fast path re-verifies its own
        // steady-state preconditions bit-exactly and falls back to full
        // windows whenever any controller could act.  A leaf that stepped
        // fully without a scheduled reason is attributed to the
        // controller's own poll cadence below.
        let event_core = self.config.sim_core == SimCore::EventDriven;
        let mut wake_reasons: Vec<u8> = vec![0; self.runners.len()];
        if event_core {
            for (id, reason) in self.wakes.advance_to(now) {
                if in_service_mask.get(id).copied().unwrap_or(false) {
                    wake_reasons[id] |= 1 << reason.index();
                }
            }
            for (&id, &load) in in_service.iter().zip(&loads) {
                if self.prev_load_bits[id] != Some(load.to_bits()) {
                    wake_reasons[id] |= 1 << WakeReason::LoadDelta.index();
                }
                self.prev_load_bits[id] = Some(load.to_bits());
            }
        }
        let mut paired: Vec<(f64, &mut ColoRunner)> = self
            .runners
            .iter_mut()
            .enumerate()
            .filter(|(id, _)| in_service_mask[*id])
            .zip(loads.iter().copied())
            .map(|((_, runner), load)| (load, runner))
            .collect();
        debug_assert_eq!(paired.len(), in_service.len());
        let observations: Vec<StepObservation> = parallel_map_mut(&mut paired, |entry| {
            let (load, runner) = (entry.0, &mut *entry.1);
            let adv = runner.advance(load, windows, event_core);
            StepObservation {
                last_emu: adv.last_emu,
                last_be_throughput: adv.last_be_throughput,
                worst_normalized_latency: adv.worst_normalized_latency,
                mean_normalized_latency: adv.mean_normalized_latency,
                progress_core_s: adv.be_progress_core_s,
                be_enabled: adv.be_enabled,
                full_windows: adv.full_windows,
                fast_windows: adv.fast_windows,
                energy_j: adv.energy_j,
                max_power_w: adv.max_power_w,
            }
        });
        if tracing {
            // Drain each leaf controller's decision events, in ascending
            // server-id order (the parallel section buffered them inside
            // each policy, so drain order — not worker scheduling — fixes
            // the recorded order), annotating each with its server id.
            for (&id, entry) in in_service.iter().zip(paired.iter_mut()) {
                let epoch = self.runner_epochs.get(id).copied().unwrap_or(SimDuration::ZERO);
                for event in entry.1.take_trace() {
                    step_events.push(event.shifted(epoch).u64("server", id as u64));
                }
            }
        }
        // Wake attribution: any leaf that ran a full window with no
        // scheduled reason woke on its controller's own poll cadence
        // (steady-state recertification, SLO deque warm-up, a sub-controller
        // changing an allocation).  After this pass every woken leaf has at
        // least one recorded reason — the trace report's invariant.
        let woken = observations.iter().filter(|o| o.full_windows > 0).count() as u64;
        let quiescent = observations.len() as u64 - woken;
        let full_windows_total: u64 = observations.iter().map(|o| o.full_windows).sum();
        let fast_windows_total: u64 = observations.iter().map(|o| o.fast_windows).sum();
        self.server_counts.record_step(woken, quiescent, full_windows_total, fast_windows_total);
        if event_core {
            for (&id, obs) in in_service.iter().zip(&observations) {
                if obs.full_windows > 0 && wake_reasons[id] == 0 {
                    wake_reasons[id] |= 1 << WakeReason::ControllerPoll.index();
                }
            }
            if tracing {
                for (&id, obs) in in_service.iter().zip(&observations) {
                    if obs.full_windows == 0 {
                        continue;
                    }
                    let mask = wake_reasons[id];
                    let names: Vec<&'static str> = WakeReason::ALL
                        .iter()
                        .filter(|r| mask & (1 << r.index()) != 0)
                        .map(|r| r.name())
                        .collect();
                    step_events.push(
                        TraceEvent::new(now, "fleet", "wake")
                            .u64("server", id as u64)
                            .str("reasons", &names.join("+"))
                            .u64("full_windows", obs.full_windows)
                            .u64("fast_windows", obs.fast_windows),
                    );
                }
            }
        }
        if event_core {
            if let Some(t) = self.telemetry.as_mut() {
                t.metrics.add("fleet.woken_leaf_steps", woken);
                t.metrics.add("fleet.quiescent_leaf_steps", quiescent);
            }
        }
        if event_core {
            if let Some(h) = health.as_mut() {
                h.observe_signal(
                    AlertKind::WakeStorm,
                    woken as f64 / (woken + quiescent).max(1) as f64,
                );
            }
        }
        // 5. Credit progress, complete, preempt; 6. refresh the store.
        let mut step_progress = 0.0;
        for (&id, obs) in in_service.iter().zip(&observations) {
            let resident = self.store.server(id).resident.clone();
            // Split the step's progress evenly across residents,
            // redistributing overshoot past a job's remaining demand to
            // its co-residents; only work actually absorbed counts as
            // served.
            let mut budget = obs.progress_core_s;
            if !resident.is_empty() {
                let mut open = resident.clone();
                while budget > 1e-9 && !open.is_empty() {
                    let share = budget / open.len() as f64;
                    budget = 0.0;
                    let mut still_open = Vec::with_capacity(open.len());
                    for job_id in open {
                        let job = self.queue.job_mut(job_id);
                        let take = share.min(job.remaining_core_s.max(0.0));
                        job.remaining_core_s -= take;
                        step_progress += take;
                        if take < share {
                            budget += share - take;
                        } else if !job.is_complete() {
                            still_open.push(job_id);
                        }
                    }
                    open = still_open;
                }
            }
            for &job_id in &resident {
                if self.queue.job(job_id).is_complete() {
                    self.queue.job_mut(job_id).completion = Some(now);
                    self.store.release(job_id, id);
                    self.completed_total += 1;
                    self.events.push(FleetEvent {
                        step: step_idx,
                        job: job_id,
                        server: id,
                        kind: FleetEventKind::Completed,
                    });
                    if let Some(t) = self.telemetry.as_mut() {
                        t.metrics.inc("fleet.jobs_completed");
                        step_events.push(
                            TraceEvent::new(now, "fleet", "complete")
                                .u64("job", job_id as u64)
                                .u64("server", id as u64),
                        );
                    }
                }
            }
            self.store.observe(
                id,
                now,
                1.0 - obs.worst_normalized_latency,
                obs.last_emu,
                obs.last_be_throughput,
                obs.be_enabled,
            );
            if self.store.server(id).disabled_streak > self.config.preemption_grace_steps {
                // The server's controller has kept BE parked past the
                // grace period: route the jobs elsewhere.  Requeue in
                // reverse so the earliest resident ends up frontmost.
                let evicted = self.store.server(id).resident.clone();
                for &job_id in evicted.iter().rev() {
                    self.store.release(job_id, id);
                    self.queue.requeue_front(job_id);
                    self.events.push(FleetEvent {
                        step: step_idx,
                        job: job_id,
                        server: id,
                        kind: FleetEventKind::Preempted,
                    });
                    if let Some(t) = self.telemetry.as_mut() {
                        t.metrics.inc("fleet.jobs_preempted");
                        step_events.push(
                            TraceEvent::new(now, "fleet", "preempt")
                                .u64("job", job_id as u64)
                                .u64("server", id as u64)
                                .u64(
                                    "disabled_streak",
                                    self.store.server(id).disabled_streak as u64,
                                ),
                        );
                    }
                }
            }
            self.sync_attachment(id);
        }

        // 7. Record the step.  Utilization aggregates are core-weighted
        // over the in-service fleet: on a mixed fleet a big box's windows
        // represent more machine time than a small box's, and a retired
        // box represents none.  The TCO column charges each in-service
        // server its amortized capex plus energy at its achieved EMU, over
        // the wall time the step *represents* (see
        // [`FleetConfig::time_compression`]).
        let step_s = window_s * windows as f64 * self.config.time_compression;
        let cores: Vec<usize> = in_service.iter().map(|&id| self.store.server(id).cores).collect();
        let emus: Vec<f64> = observations.iter().map(|o| o.last_emu).collect();
        let violating = observations.iter().filter(|o| o.worst_normalized_latency > 1.0).count();
        // Per-service aggregation: load is core-weighted within each
        // service's leaf pool, violations are counted per pool — the
        // auditable view of which service's SLO paid for a scheduling or
        // scale decision.
        let mut service_load_weighted = [0.0f64; NUM_SERVICES];
        let mut service_cores = [0.0f64; NUM_SERVICES];
        let mut violating_by_service = [0usize; NUM_SERVICES];
        // Energy is recorded unconditionally — like the TCO column it is a
        // pure function of the simulation records, so the metering knob
        // cannot perturb the result.  Each leaf's simulated joule integral
        // is scaled to the wall time the step *represents*, and the step's
        // $/kWh comes from the time-of-day tariff at the represented hour.
        let energy_price = self
            .config
            .energy
            .price
            .price_at(hour_of_day(now.as_secs_f64() * self.config.time_compression));
        let mut energy_joules = 0.0f64;
        let mut gen_energy_j = [0.0f64; 3];
        for ((&id, obs), &load) in in_service.iter().zip(&observations).zip(&loads) {
            let entry = self.store.server(id);
            let si = entry.service.index();
            service_load_weighted[si] += load * entry.cores as f64;
            service_cores[si] += entry.cores as f64;
            let leaf_joules = obs.energy_j * self.config.time_compression;
            energy_joules += leaf_joules;
            gen_energy_j[entry.generation] += leaf_joules;
            if let Some(m) = self.meter.as_mut() {
                let leaf_dollars =
                    joules_to_dollars(leaf_joules, energy_price, self.config.energy.pue);
                m.observe_leaf(
                    id as u64,
                    entry.service.name(),
                    Generation::all()[entry.generation].name(),
                    leaf_joules,
                    leaf_dollars,
                );
            }
            if let Some(h) = health.as_mut() {
                h.observe_cell(
                    si as u8,
                    entry.generation as u8,
                    obs.worst_normalized_latency,
                    obs.mean_normalized_latency,
                    load,
                );
                h.observe_leaf(id as u32, obs.worst_normalized_latency, obs.full_windows as f64);
            }
            if obs.worst_normalized_latency > 1.0 {
                violating_by_service[si] += 1;
                if tracing {
                    // The attribution record the trace report aggregates:
                    // every violating server-step names its service, its
                    // hardware generation and what the balancer did to it
                    // this step — the (service, generation, decision)
                    // cause cell.
                    step_events.push(
                        TraceEvent::new(now, "fleet", "violation")
                            .u64("server", id as u64)
                            .str("service", entry.service.name())
                            .u64("generation", entry.generation as u64)
                            .str("balancer", self.plane.decision(id))
                            .f64("normalized_latency", obs.worst_normalized_latency)
                            .f64("load", load)
                            .u64("residents", entry.resident.len() as u64),
                    );
                }
            }
        }
        let mut service_load = [0.0f64; NUM_SERVICES];
        for i in 0..NUM_SERVICES {
            if service_cores[i] > 0.0 {
                service_load[i] = service_load_weighted[i] / service_cores[i];
            }
        }
        let tco_dollars = in_service
            .iter()
            .zip(&observations)
            .map(|(&id, o)| {
                server_step_tco_dollars(
                    &self.config.tco,
                    self.store.server(id).cores,
                    o.last_emu,
                    step_s,
                )
            })
            .sum();
        let energy_dollars = joules_to_dollars(energy_joules, energy_price, self.config.energy.pue);
        // A conservative instantaneous bound: every leaf at its own worst
        // window simultaneously.  A power-capped run proves budget
        // compliance by keeping even this bound at or under the budget.
        let peak_power_w: f64 = observations.iter().map(|o| o.max_power_w).sum();
        self.steps.push(FleetStep {
            time: now,
            mean_load: core_weighted_mean(&loads, &cores),
            fleet_emu: core_weighted_mean(&emus, &cores),
            worst_normalized_latency: observations
                .iter()
                .map(|o| o.worst_normalized_latency)
                .fold(0.0, f64::max),
            violating_server_fraction: violating as f64 / in_service.len().max(1) as f64,
            violating_servers: violating,
            in_service_servers: in_service.len(),
            in_service_cores: cores.iter().sum(),
            in_service_by_generation: self.store.in_service_by_generation(),
            in_service_by_service: self.store.in_service_by_service(),
            offered_qps: routing.offered_qps,
            routed_qps: routing.routed_qps,
            service_load,
            violating_by_service,
            migrations: std::mem::take(&mut self.pending_migrations),
            tco_dollars,
            energy_joules,
            energy_dollars,
            peak_power_w,
            queued_jobs: self.queue.pending_len(),
            running_jobs: self.store.running_jobs(),
            completed_jobs: self.completed_total,
            be_progress_core_s: step_progress,
        });
        self.step_idx += 1;
        if tracing {
            // Admission verdicts settle once the observe loop above has
            // absorbed the step: record only the flips against the previous
            // step's baseline (a purchased server extends the baseline as
            // admitting, matching its cold-start verdict).
            let verdicts = self.store.admission_verdicts();
            for (id, &verdict) in verdicts.iter().enumerate() {
                if self.admission_baseline.get(id).copied().unwrap_or(true) != verdict {
                    step_events.push(self.store.server(id).admission_trace(now));
                    if let Some(t) = self.telemetry.as_mut() {
                        t.metrics.inc("fleet.admission_flips");
                    }
                }
            }
            self.admission_baseline = verdicts;
        }
        let recorded = self.steps.last().expect("just pushed");
        if let Some(h) = health.as_mut() {
            // SLO burn: the fraction of in-service leaves violating this
            // step — the attainment complement the burn-rate windows watch.
            h.observe_signal(AlertKind::SloBurn, violating as f64 / in_service.len().max(1) as f64);
            // Queue censorship: pending jobs that have waited beyond the
            // horizon (8 steps) — work the dispatcher keeps skipping.
            let pending = self.queue.pending_len();
            if pending > 0 {
                let horizon = step_duration * 8;
                let censored = self
                    .queue
                    .pending_ids()
                    .filter(|&jid| now > self.queue.job(jid).arrival + horizon)
                    .count();
                h.observe_signal(AlertKind::QueueCensorship, censored as f64 / pending as f64);
            }
            // Per-service attainment: one event per populated service so a
            // report can draw the attainment curve without re-aggregating
            // violation events (which the recorder may have dropped).
            for (si, &leaves) in recorded.in_service_by_service.iter().enumerate() {
                if leaves == 0 {
                    continue;
                }
                let violating_s = violating_by_service[si];
                step_events.push(
                    TraceEvent::new(now, "health", "attainment")
                        .str("service", LcKind::all()[si].name())
                        .u64("leaves", leaves as u64)
                        .u64("violating", violating_s as u64)
                        .f64("attainment", 1.0 - violating_s as f64 / leaves as f64),
                );
            }
            let alert_events = h.step(now);
            if let Some(t) = self.telemetry.as_mut() {
                for event in &alert_events {
                    match event.kind() {
                        "firing" => t.metrics.inc("health.alerts_fired"),
                        "resolved" => t.metrics.inc("health.alerts_resolved"),
                        _ => {}
                    }
                }
            }
            step_events.extend(alert_events);
        }
        if let Some(t) = self.telemetry.as_mut() {
            t.health = health.take();
        }
        if let Some(t) = self.telemetry.as_mut() {
            let mut step_event = TraceEvent::new(now, "fleet", "step")
                .u64("step", step_idx as u64)
                .u64("in_service", recorded.in_service_servers as u64)
                .u64("violating", recorded.violating_servers as u64)
                .f64("mean_load", recorded.mean_load)
                .f64("fleet_emu", recorded.fleet_emu)
                .f64("worst_normalized_latency", recorded.worst_normalized_latency)
                .u64("queued", recorded.queued_jobs as u64)
                .u64("running", recorded.running_jobs as u64)
                .u64("completed", recorded.completed_jobs as u64)
                .u64("migrations", recorded.migrations as u64)
                .f64("tco_dollars", recorded.tco_dollars)
                .f64("be_progress_core_s", recorded.be_progress_core_s)
                .f64("energy_joules", recorded.energy_joules)
                .f64("energy_dollars", recorded.energy_dollars)
                .f64("peak_power_w", recorded.peak_power_w)
                .f64("watts_sandy_bridge", gen_energy_j[0] / step_s)
                .f64("watts_haswell", gen_energy_j[1] / step_s)
                .f64("watts_skylake", gen_energy_j[2] / step_s)
                // The represented step duration the watts are averaged
                // over: trace timestamps tick raw simulation seconds, so a
                // time-compressed run needs this to integrate watts back
                // into joules (the doctor's conservation cross-check).
                .f64("step_represented_s", step_s);
            if event_core {
                step_event = step_event.u64("woken", woken).u64("quiescent", quiescent);
            }
            step_events.push(step_event);
            t.metrics.add("fleet.violation_server_steps", recorded.violating_servers as u64);
            t.metrics.set_gauge("fleet.queue_depth", recorded.queued_jobs as f64);
            t.metrics.set_gauge("fleet.running_jobs", recorded.running_jobs as f64);
            t.metrics.set_gauge("fleet.in_service_servers", recorded.in_service_servers as f64);
            t.metrics.observe("fleet.step_tco_dollars", recorded.tco_dollars);
            t.metrics.set_gauge_with_unit("fleet.peak_power_w", recorded.peak_power_w, "W");
            t.metrics.set_gauge_with_unit(
                "fleet.mean_power_w",
                recorded.energy_joules / step_s,
                "W",
            );
            t.metrics.observe("fleet.step_energy_joules", recorded.energy_joules);
            for obs in &observations {
                t.metrics.observe("fleet.normalized_latency", obs.worst_normalized_latency);
            }
            // One stable sort restores global time order: leaf events carry
            // mid-step window times, fleet events the step's end time, and
            // ties keep their emission order — deterministic whatever the
            // worker threads did.
            step_events.sort_by_key(|e| e.time());
            t.recorder.extend(step_events);
        }
        recorded
    }

    /// Consumes the simulator into its final result.
    pub fn into_result(self) -> FleetResult {
        FleetResult {
            policy: self.policy.name().to_string(),
            server_cores: self.store.servers().iter().map(|s| s.cores).collect(),
            server_generations: self.store.servers().iter().map(|s| s.generation).collect(),
            server_services: self.store.servers().iter().map(|s| s.service.index()).collect(),
            steps: self.steps,
            jobs: self.queue.into_jobs(),
            events: self.events,
        }
    }

    /// Runs the fleet to the configured horizon and returns the result
    /// (the static-fleet convenience loop over [`step_once`]).
    ///
    /// [`step_once`]: FleetSim::step_once
    pub fn run(mut self) -> FleetResult {
        while self.step_idx < self.config.steps {
            self.step_once();
        }
        self.into_result()
    }
}

impl std::fmt::Debug for FleetSim {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FleetSim")
            .field("servers", &self.runners.len())
            .field("policy", &self.policy.name())
            .field("step", &self.step_idx)
            .field("queued", &self.queue.pending_len())
            .finish()
    }
}

/// SLO violation fraction of the paper's single-server Heracles deployment
/// over the same diurnal trace: one websearch server colocating brain under
/// Heracles, stepped like a fleet member at phase 0.  This is the bar the
/// fleet scheduler must not regress — fleet-level placement may add and
/// remove jobs, but each server's controller still defends its SLO.
pub fn single_server_baseline_violations(config: &FleetConfig, server: &ServerConfig) -> f64 {
    let websearch = LcWorkload::websearch();
    let dram_model = OfflineDramModel::profile(&websearch, server);
    let policy: Box<dyn ColocationPolicy> =
        Box::new(Heracles::new(HeraclesConfig::fast(), websearch.slo(), dram_model));
    let mut runner = ColoRunner::new(
        server.clone(),
        websearch,
        Some(BeWorkload::brain()),
        policy,
        config.colo.with_seed(config.seed ^ 0xBA5E),
    );
    // The same websearch demand curve a catalog fleet serves (phase 0), so
    // the baseline and the fleet face the identical traffic.
    let catalog = ServiceCatalog::build(ServiceMix::websearch_only(), config.seed, 0.0);
    let demand = catalog.get(LcKind::Websearch).expect("websearch catalog");
    let step_duration = config.colo.window * config.windows_per_step as u64;
    let mut violating_steps = 0usize;
    for step_idx in 0..config.steps {
        let now = SimTime::ZERO + step_duration * (step_idx as u64 + 1);
        let load = demand.demand_fraction(now.as_secs_f64() * config.time_compression);
        let worst = (0..config.windows_per_step)
            .map(|_| runner.step(load).normalized_latency)
            .fold(0.0, f64::max);
        if worst > 1.0 {
            violating_steps += 1;
        }
    }
    violating_steps as f64 / config.steps.max(1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> FleetConfig {
        FleetConfig {
            servers: 4,
            steps: 10,
            windows_per_step: 2,
            colo: ColoConfig { requests_per_window: 600, ..ColoConfig::fast_test() },
            jobs: JobStreamConfig { arrivals_per_step: 1.0, ..JobStreamConfig::default() },
            ..FleetConfig::fast_test()
        }
    }

    #[test]
    fn leaves_of_one_service_share_their_load_and_services_span_the_range() {
        // Single service: the balancer gives every leaf the same fraction
        // of its own capacity — the fleet moves with its service.
        let sim = FleetSim::new(tiny(), ServerConfig::default_haswell(), PolicyKind::FirstFit);
        let t = SimTime::from_secs(60);
        let loads: Vec<f64> = (0..4).map(|i| sim.server_load(i, t)).collect();
        for l in &loads {
            assert!((l - loads[0]).abs() < 1e-12, "websearch leaves diverged: {loads:?}");
            assert!((0.0..=1.0).contains(l));
        }

        // Mixed services with full phase spread: the fleet spans the load
        // range because the *services* peak at different times.
        let cfg = FleetConfig { services: ServiceMix::mixed_frontend(), ..tiny() };
        let sim = FleetSim::new(cfg, ServerConfig::default_haswell(), PolicyKind::FirstFit);
        let loads: Vec<f64> = (0..4).map(|i| sim.server_load(i, t)).collect();
        let min = loads.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = loads.iter().cloned().fold(0.0, f64::max);
        assert!(max - min > 0.2, "mixed-service loads did not span the range: {loads:?}");
    }

    #[test]
    fn fleet_runs_place_serve_and_complete_jobs() {
        let result =
            FleetSim::new(tiny(), ServerConfig::default_haswell(), PolicyKind::LeastLoaded).run();
        assert_eq!(result.steps.len(), 10);
        assert!(!result.jobs.is_empty(), "the stream produced no jobs");
        assert!(
            result.events.iter().any(|e| e.kind == FleetEventKind::Placed),
            "nothing was ever placed"
        );
        assert!(result.be_core_s_served() > 0.0, "no BE progress at all");
        // EMU must exceed pure LC load once BE work is being served.
        assert!(result.mean_fleet_emu() >= result.mean_lc_load());
        // Step records are internally consistent.
        for step in &result.steps {
            assert!(step.fleet_emu >= 0.0 && step.worst_normalized_latency >= 0.0);
            assert!(step.running_jobs <= 4 * 2, "slot capacity exceeded");
            assert_eq!(step.in_service_servers, 4);
            assert_eq!(step.in_service_cores, 4 * 36);
            assert_eq!(step.migrations, 0);
            assert!(step.tco_dollars > 0.0, "a static fleet always costs money");
        }
        assert!(result.total_tco_dollars() > 0.0);
        assert!(result.tco_per_be_core_s().is_finite());
    }

    #[test]
    fn mixed_fleet_carries_per_generation_capacity_end_to_end() {
        let cfg = FleetConfig { mix: GenerationMix::mixed_datacenter(), ..tiny() };
        let result =
            FleetSim::new(cfg, ServerConfig::default_haswell(), PolicyKind::LeastLoaded).run();
        // counts(4) = [1, 2, 1]: one Sandy Bridge, two Haswells, one Skylake.
        let mut cores = result.server_cores.clone();
        cores.sort_unstable();
        assert_eq!(cores, vec![16, 36, 36, 48]);
        assert_eq!(result.total_cores(), 136);
        assert_eq!(result.steps.len(), 10);
        assert_eq!(result.steps[0].in_service_by_generation, [1, 2, 1]);
        assert_eq!(result.server_generations.iter().filter(|&&g| g == 2).count(), 1);
        assert!(result.mean_fleet_emu() >= result.mean_lc_load());
        assert!(result.mean_fleet_emu() > 0.0 && result.mean_fleet_emu() <= 2.0);
    }

    #[test]
    fn identical_seeds_give_identical_schedules() {
        let run = |seed| {
            let cfg = FleetConfig { seed, ..tiny() };
            FleetSim::new(cfg, ServerConfig::default_haswell(), PolicyKind::Random).run()
        };
        let a = run(3);
        let b = run(3);
        assert_eq!(a.events, b.events);
        assert_eq!(a.jobs, b.jobs);
        assert_eq!(a.steps, b.steps);
        let c = run(4);
        assert!(a.events != c.events || a.jobs != c.jobs, "different seeds identical");
    }

    #[test]
    fn baseline_violation_fraction_is_a_fraction() {
        let cfg = tiny();
        let v = single_server_baseline_violations(&cfg, &ServerConfig::default_haswell());
        assert!((0.0..=1.0).contains(&v));
    }

    #[test]
    fn time_compression_sweeps_the_diurnal_cycle_within_a_run() {
        // Uncompressed, a server's load barely moves over a short run; with
        // the run compressed onto the whole 12-hour trace it must sweep a
        // large share of the diurnal swing.
        let horizon_s = 10.0 * 2.0; // steps × step seconds for `tiny`
        let compressed =
            FleetConfig { load_spread: 0.0, time_compression: 12.0 * 3600.0 / horizon_s, ..tiny() };
        let swing = |cfg: FleetConfig| {
            let sim = FleetSim::new(cfg, ServerConfig::default_haswell(), PolicyKind::FirstFit);
            let loads: Vec<f64> =
                (1..=10).map(|step| sim.server_load(0, SimTime::from_secs(step * 2))).collect();
            loads.iter().cloned().fold(0.0, f64::max)
                - loads.iter().cloned().fold(f64::INFINITY, f64::min)
        };
        assert!(swing(FleetConfig { load_spread: 0.0, ..tiny() }) < 0.1);
        assert!(swing(compressed) > 0.4, "compressed run missed the diurnal swing");
    }

    #[test]
    fn validation_rejects_degenerate_configs() {
        assert!(tiny().validate().is_ok());
        let cases = [
            FleetConfig { servers: 0, ..tiny() },
            FleetConfig { be_slots_per_server: 0, ..tiny() },
            FleetConfig { steps: 0, ..tiny() },
            FleetConfig { windows_per_step: 0, ..tiny() },
            FleetConfig { load_spread: 1.5, ..tiny() },
            FleetConfig { load_spread: f64::NAN, ..tiny() },
            FleetConfig { time_compression: 0.0, ..tiny() },
            FleetConfig { time_compression: f64::INFINITY, ..tiny() },
            FleetConfig { mix: GenerationMix { older: 0.8, newer: 0.8 }, ..tiny() },
            FleetConfig {
                services: ServiceMix { websearch: 0.5, ml_cluster: 0.0, memkeyval: 0.0 },
                ..tiny()
            },
            FleetConfig {
                // Three services cannot fit on a two-server fleet.
                servers: 2,
                services: ServiceMix::mixed_frontend(),
                ..tiny()
            },
            FleetConfig {
                // A heavily skewed mix on a small fleet error-diffuses the
                // minority services down to zero leaves: their demand
                // would silently never be offered.
                servers: 6,
                services: ServiceMix { websearch: 0.9, ml_cluster: 0.05, memkeyval: 0.05 },
                ..tiny()
            },
            FleetConfig {
                jobs: JobStreamConfig { arrivals_per_step: -1.0, ..JobStreamConfig::default() },
                ..tiny()
            },
            FleetConfig {
                jobs: JobStreamConfig {
                    demand_min_core_s: 10.0,
                    demand_max_core_s: 5.0,
                    ..JobStreamConfig::default()
                },
                ..tiny()
            },
            FleetConfig {
                jobs: JobStreamConfig { demand_alpha: 0.0, ..JobStreamConfig::default() },
                ..tiny()
            },
        ];
        for bad in cases {
            let err = bad.validate().expect_err("degenerate config accepted");
            assert!(!err.is_empty());
        }
    }

    #[test]
    #[should_panic(expected = "invalid fleet config")]
    fn constructors_reject_invalid_configs() {
        let cfg = FleetConfig { load_spread: 2.0, ..tiny() };
        FleetSim::new(cfg, ServerConfig::default_haswell(), PolicyKind::FirstFit);
    }

    #[test]
    fn retiring_a_leaf_reroutes_its_share_onto_the_survivors() {
        // No BE arrivals: this test watches pure LC traffic movement.
        let cfg = FleetConfig {
            jobs: JobStreamConfig { arrivals_per_step: 0.0, ..JobStreamConfig::default() },
            ..tiny()
        };
        let mut sim = FleetSim::new(cfg, ServerConfig::default_haswell(), PolicyKind::FirstFit);
        let before = *sim.step_once();
        assert!(
            (before.routed_qps[0] - before.offered_qps[0]).abs() < 1e-6 * before.offered_qps[0],
            "routed {:?} != offered {:?}",
            before.routed_qps,
            before.offered_qps
        );
        let survivor_load = sim.store().server(1).lc_load;
        // Retire one of four websearch leaves: the remaining three absorb
        // its share, so each survivor's load rises by a third.
        sim.begin_drain(0);
        sim.retire_server(0);
        let after = *sim.step_once();
        let rerouted = sim.store().server(1).lc_load;
        assert!(
            rerouted > survivor_load * 1.2,
            "survivor load {rerouted:.3} did not absorb the retired share ({survivor_load:.3})"
        );
        // Conservation: the routed volume did not shrink with the fleet.
        assert!(
            (after.routed_qps[0] - after.offered_qps[0]).abs() < 1e-6 * after.offered_qps[0],
            "routed {:?} != offered {:?}",
            after.routed_qps,
            after.offered_qps
        );
        assert_eq!(after.in_service_by_service, [3, 0, 0]);
    }

    #[test]
    #[should_panic(expected = "last in-service websearch leaf")]
    fn retiring_the_last_leaf_of_a_service_panics() {
        let cfg = FleetConfig { servers: 4, services: ServiceMix::mixed_frontend(), ..tiny() };
        let mut sim = FleetSim::new(cfg, ServerConfig::default_haswell(), PolicyKind::FirstFit);
        // mixed_frontend over 4 servers: two websearch leaves, one each of
        // the others.  Retiring both websearch leaves must be refused at
        // the second.
        let ws: Vec<ServerId> = sim
            .store()
            .servers()
            .iter()
            .filter(|s| s.service == LcKind::Websearch)
            .map(|s| s.id)
            .collect();
        assert_eq!(ws.len(), 2);
        sim.begin_drain(ws[0]);
        sim.retire_server(ws[0]);
        sim.begin_drain(ws[1]);
        sim.retire_server(ws[1]);
    }

    #[test]
    fn purchased_servers_join_the_most_depleted_pool() {
        let cfg = FleetConfig { servers: 8, services: ServiceMix::mixed_frontend(), ..tiny() };
        let mut sim = FleetSim::new(cfg, ServerConfig::default_haswell(), PolicyKind::FirstFit);
        // Retire one memkeyval leaf: its pool is now the furthest below
        // its provisioned capacity, so the next purchase must replenish it
        // — even though websearch has the lower service index.
        let kv: Vec<ServerId> = sim
            .store()
            .servers()
            .iter()
            .filter(|s| s.service == LcKind::Memkeyval)
            .map(|s| s.id)
            .collect();
        assert!(kv.len() >= 2, "{kv:?}");
        sim.begin_drain(kv[0]);
        sim.retire_server(kv[0]);
        let id = sim.add_server(Generation::Haswell);
        assert_eq!(sim.store().server(id).service, LcKind::Memkeyval);
    }

    #[test]
    fn stepwise_api_matches_the_batch_run() {
        let cfg = tiny();
        let batch =
            FleetSim::new(cfg, ServerConfig::default_haswell(), PolicyKind::LeastLoaded).run();
        let mut sim = FleetSim::new(cfg, ServerConfig::default_haswell(), PolicyKind::LeastLoaded);
        for expected_steps in 1..=cfg.steps {
            sim.step_once();
            assert_eq!(sim.current_step(), expected_steps);
        }
        let stepped = sim.into_result();
        assert_eq!(batch.steps, stepped.steps);
        assert_eq!(batch.events, stepped.events);
        assert_eq!(batch.jobs, stepped.jobs);
    }

    #[test]
    fn elastic_hooks_commission_migrate_and_retire() {
        let cfg = tiny();
        let mut sim = FleetSim::new(cfg, ServerConfig::default_haswell(), PolicyKind::LeastLoaded);
        // Run until some server hosts a job.
        let mut host = None;
        for _ in 0..cfg.steps {
            sim.step_once();
            if let Some(s) = sim.store().servers().iter().find(|s| !s.resident.is_empty()) {
                host = Some(s.id);
                break;
            }
        }
        let host = host.expect("no job was ever resident");
        let job = sim.store().server(host).resident[0];
        let before = sim.job(job).remaining_core_s;

        // Buy a Skylake box mid-run: dense id, true capacity, active state.
        let new_id = sim.add_server(Generation::Newer);
        assert_eq!(new_id, 4);
        assert_eq!(sim.store().server(new_id).cores, 48);
        assert!(sim.store().server(new_id).is_active());

        // Drain the host: its job migrates to the new box with its demand
        // preserved plus the migration surcharge.
        sim.begin_drain(host);
        sim.migrate_job(job, host, new_id, 15.0);
        assert_eq!(sim.store().server(new_id).resident, vec![job]);
        assert!((sim.job(job).remaining_core_s - before - 15.0).abs() < 1e-9);
        assert_eq!(sim.job(job).migrations, 1);
        assert!((sim.job(job).migration_overhead_core_s - 15.0).abs() < 1e-9);

        // The drained box retires; the next step runs without it.
        sim.retire_server(host);
        let step = *sim.step_once();
        assert_eq!(step.in_service_servers, 4, "4 originals - 1 retired + 1 bought");
        assert_eq!(step.migrations, 1);
        let result = sim.into_result();
        assert_eq!(result.server_cores.len(), 5);
        assert!(result.events.iter().any(|e| e.kind == FleetEventKind::Migrated));
        assert_eq!(result.migrations(), 1);
    }

    #[test]
    fn traced_runs_emit_decision_events_and_metrics() {
        let cfg = FleetConfig { telemetry: TelemetryConfig::enabled(), ..tiny() };
        let mut sim = FleetSim::new(cfg, ServerConfig::default_haswell(), PolicyKind::LeastLoaded);
        for _ in 0..cfg.steps {
            sim.step_once();
        }
        let telemetry = sim.take_telemetry().expect("telemetry was enabled");
        let events: Vec<&TraceEvent> = telemetry.recorder.iter().collect();
        assert!(!events.is_empty(), "a traced run recorded nothing");
        // Time never decreases along the trace.
        for pair in events.windows(2) {
            assert!(pair[1].time() >= pair[0].time(), "trace time went backwards");
        }
        let kinds: std::collections::BTreeSet<&str> = events.iter().map(|e| e.kind()).collect();
        for required in ["route", "conservation", "dispatch_round", "place", "step"] {
            assert!(kinds.contains(required), "no {required:?} event in {kinds:?}");
        }
        assert!(telemetry.metrics.counter("fleet.jobs_placed") > 0);
        let jsonl = telemetry.trace_jsonl(&[("policy", "least-loaded".to_string())]);
        heracles_telemetry::validate_trace_jsonl(&jsonl).expect("trace fails its own schema");
    }
}
