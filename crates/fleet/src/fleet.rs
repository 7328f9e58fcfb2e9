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
//! Each step ([`FleetSim::step_once`]) runs a fixed sequence of phases,
//! each a private method returning what it decided:
//!
//! 1. **cap** — splits a cluster watt budget, if set, into per-leaf RAPL
//!    caps and throttles BE admission when it is tight,
//! 2. **route** — routes every service's offered QPS across its in-service
//!    leaves (demand is conserved: a retired leaf's share lands on the
//!    survivors),
//! 3. **dispatch** — admits job arrivals and places queued jobs through the
//!    [`PlacementPolicy`] against the [`PlacementStore`],
//! 4. **advance** — steps every in-service server `windows_per_step`
//!    windows, in parallel via [`parallel_map_mut`],
//! 5. **settle** — credits BE progress, completes served jobs, refreshes
//!    the store, and preempts the jobs of servers that kept BE disabled
//!    past the grace period (Heracles defends the local SLO; the scheduler
//!    routes around it),
//! 6. **record** — appends the step's [`FleetStep`].
//!
//! Then one **observe** pass gives the observers — decision tracing, the
//! health plane and the energy meter — the step's view with shared borrows
//! of the store, queue and policy.  No phase names an observer and no
//! observer can write simulation state, so runs with any of them on are
//! bit-identical to runs with them off.  The phases keep no trace-only
//! state either: the tracer renders the route's `traffic` lines from the
//! routing it returned, the leaf controllers' `core` lines from the
//! decisions their advances returned, and derives why each leaf woke from
//! the step's view.  Only the scale actions between steps (commission, drain,
//! migrate, requeue) hand the tracer their wake reasons, and only when
//! tracing.  The power cap is a phase, not an observer: it changes the
//! simulation.
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

use std::sync::Arc;

use heracles_cluster::{TcoModel, FACILITY_PUE};
use heracles_colo::{ColoConfig, ColoRunner, LeafAdvance};
use heracles_core::{ColocationPolicy, Heracles, HeraclesConfig, OfflineDramModel};
use heracles_energy::{
    hour_of_day, joules_to_dollars, EnergyConfig, EnergyMeter, PowerCapCoordinator,
};
use heracles_hw::ServerConfig;
use heracles_sim::{parallel_map_mut, SimRng, SimTime};
use heracles_telemetry::{Telemetry, TelemetryConfig, TraceEvent};
use heracles_workloads::{
    BeWorkload, LcKind, LcWorkload, ServiceCatalog, ServiceMix, NUM_SERVICES,
};

use crate::generation::{Generation, GenerationMix};
use crate::job::{BeJob, JobId, JobQueue, JobStreamConfig};
use crate::metrics::{
    core_weighted_mean, server_step_tco_dollars, FleetEvent, FleetEventKind, FleetResult,
    FleetStep, ServerPlaneCounts,
};
use crate::observe::{self, Observed, Placement, Settled, StepView, Tracer, WakeReason};
use crate::policy::{
    FirstFit, InterferenceAware, InterferenceModel, LeastLoaded, PlacementPolicy, PolicyKind,
    RandomPlacement,
};
use crate::store::{PlacementStore, ServerCapacity, ServerId};
use crate::traffic::{BalancerKind, RoutingStep, TrafficPlane};

/// Which server-plane stepping core a fleet run uses.
///
/// Both cores produce bit-identical [`FleetResult`]s (pinned by property
/// tests); they differ only in wall-clock cost.  `Stepped` is kept as the
/// oracle: every leaf simulates every measurement window in full.
/// `EventDriven` lets a leaf whose window inputs are provably unchanged
/// satisfy its windows through the [`ColoRunner`] steady-state fast path:
/// the runner's own window-input comparison decides, not the fleet.  Why a
/// woken leaf may have changed is the tracer's business: it derives each
/// step's wake reasons from what the step decided, for the trace's
/// wake-attribution section.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SimCore {
    /// Every in-service leaf simulates every window in full (the oracle).
    #[default]
    Stepped,
    /// Steady leaves fast-forward; full windows are attributed to wakes.
    EventDriven,
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

/// Steps a server may sit occupied with BE disabled before its jobs are
/// preempted and requeued.
pub(crate) const PREEMPTION_GRACE_STEPS: usize = 2;

/// The largest fleet [`FleetConfig::validate`] accepts.  Far past any fleet
/// the simulator can hold in memory (each leaf carries its own Heracles
/// controller and SLO window), and small enough that validating the
/// service leaf counts stays a bounded loop instead of an allocation abort.
pub const MAX_FLEET_SERVERS: usize = 1_000_000;

/// Configuration of a fleet run.
#[derive(Debug, Clone, Copy, PartialEq)]
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
    /// fast-forwards leaves whose window inputs repeat, and its trace
    /// attributes each full window to the step's wake reasons.
    pub sim_core: SimCore,
    /// How many consecutive steps share one diurnal demand sample (1 by
    /// default: demand re-samples every step, the pre-event-core behavior).
    /// Holding demand for several steps is what lets leaves actually
    /// quiesce between inflections — the diurnal curves move slowly
    /// relative to a step, so re-sampling every step perturbs every leaf's
    /// load by a hair and wakes the whole fleet for nothing.  Affects the
    /// demand model identically under both sim cores.
    pub demand_hold_steps: usize,
    /// The energy plane (metering off, no power cap by default).  Metering
    /// is a pure read-only shadow like telemetry: energy-on and energy-off
    /// runs of the same seed produce bit-identical [`FleetResult`]s — the
    /// per-step energy columns are always populated either way, because
    /// they are a pure function of the simulation records.  A cluster
    /// power cap, by contrast, is an explicit behavioral knob: the
    /// [`PowerCapCoordinator`] splits the watt budget into per-leaf RAPL
    /// caps and (under a tight budget) stops BE admission fleet-wide.
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
            colo: ColoConfig { requests_per_window: 1_200, ..ColoConfig::default() },
            jobs: JobStreamConfig { arrivals_per_step: 5.0, ..JobStreamConfig::default() },
            telemetry: TelemetryConfig::default(),
            sim_core: SimCore::Stepped,
            demand_hold_steps: 1,
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
        if self.servers > MAX_FLEET_SERVERS {
            return Err(format!(
                "a fleet may have at most {MAX_FLEET_SERVERS} servers (got {})",
                self.servers
            ));
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
        if self.demand_hold_steps == 0 {
            return Err("demand_hold_steps must be at least 1 (got 0)".into());
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

    /// The wall-clock seconds one step represents (its simulated seconds
    /// times [`time_compression`](Self::time_compression)).
    pub(crate) fn represented_step_s(&self) -> f64 {
        self.colo.window.as_secs_f64() * self.windows_per_step as f64 * self.time_compression
    }

    /// The tariff, in $/kWh, at the represented hour of sim time `now`.
    pub(crate) fn energy_price_at(&self, now: SimTime) -> f64 {
        self.energy.price.price_at(hour_of_day(now.as_secs_f64() * self.time_compression))
    }
}

/// What every leaf of one (generation × service) cell shares: one copy
/// each, behind handles, however many leaves the cell has.
struct CellProfile {
    /// The service's true LC profile on this generation.
    lc: Arc<LcWorkload>,
    /// The generation's hardware.
    hardware: Arc<ServerConfig>,
    /// The offline DRAM model every leaf's Heracles reads, profiled lazily:
    /// present cells at construction, purchased ones on first
    /// [`FleetSim::add_server`].
    dram_model: Option<OfflineDramModel>,
}

impl CellProfile {
    /// The cell's DRAM model, profiled on first use.
    fn dram_model(&mut self) -> OfflineDramModel {
        let (lc, hardware) = (&self.lc, &self.hardware);
        self.dram_model.get_or_insert_with(|| OfflineDramModel::profile(lc, hardware)).clone()
    }
}

/// What a caller that reaches a retired leaf's runner has got wrong: only
/// in-service leaves step, route, cap or host jobs.
const RETIRED_RUNNER: &str = "a retired leaf has no runner";

/// The fleet simulator: servers, the traffic plane, scheduler state and
/// the job stream.
pub struct FleetSim {
    config: FleetConfig,
    /// The front-end traffic plane: routes each catalog service's offered
    /// QPS across its in-service leaves every step.
    plane: TrafficPlane,
    /// Each leaf's runner by server id; `None` once the leaf is retired, so
    /// a retired leaf holds no window state, controller or workload, and
    /// its slot is one pointer.
    runners: Vec<Option<Box<ColoRunner>>>,
    store: PlacementStore,
    queue: JobQueue,
    policy: Box<dyn PlacementPolicy>,
    rng: SimRng,
    /// What each (generation × service) cell's leaves share, indexed
    /// `[generation][service]` — also the source of truth for mid-run
    /// purchases of cells absent from the initial fleet.
    cells: Vec<Vec<CellProfile>>,
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
    /// The telemetry bundle and its fleet-side state (`None` when
    /// `config.telemetry` is disabled); an observer, outside the results.
    tracer: Option<Tracer>,
    /// The energy meter's ledgers (`None` unless `config.energy.metering`);
    /// an observer, so installing it changes no simulated outcome.
    meter: Option<EnergyMeter>,
    /// The cluster power-cap coordinator (`None` unless a budget is set);
    /// unlike the meter a behavioral knob, applied in the cap phase.
    cap_coordinator: Option<PowerCapCoordinator>,
}

impl FleetSim {
    /// Every (generation × service) cell with its true LC profile and
    /// hardware, indexed `[generation][service]`, none profiled yet.
    ///
    /// Every leaf serves its service with the traffic share scaled to its
    /// compute capacity (the balancers weight traffic by peak QPS, so a
    /// load fraction keeps meaning "fraction of what this box can serve").
    fn true_cells(baseline: &ServerConfig) -> Vec<Vec<CellProfile>> {
        Generation::all()
            .into_iter()
            .map(|g| {
                let hardware = Arc::new(g.server_config(baseline));
                let ratio = hardware.total_cores() as f64 / baseline.total_cores() as f64;
                LcKind::all()
                    .into_iter()
                    .map(|svc| {
                        let base = LcWorkload::of_kind(svc);
                        let lc = if g == Generation::Haswell {
                            base
                        } else {
                            base.scaled_to_capacity(ratio)
                        };
                        CellProfile {
                            lc: Arc::new(lc),
                            hardware: hardware.clone(),
                            dram_model: None,
                        }
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
                let profiles = Self::true_cells(&server_config);
                let cells: Vec<(usize, LcKind, LcWorkload, ServerConfig)> =
                    Self::present_cells(&generations, &services)
                        .into_iter()
                        .map(|(g, s)| {
                            let cell = &profiles[g][s.index()];
                            (g, s, (*cell.lc).clone(), (*cell.hardware).clone())
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

    /// Leaf `id` of the (`generation`, `service`) cell: its runner under a
    /// cold Heracles controller on a stream forked from the fleet seed,
    /// sharing the cell's profiles, and its capacity as the store sees it.
    fn new_leaf(
        config: &FleetConfig,
        cell: &mut CellProfile,
        id: ServerId,
        generation: usize,
        service: LcKind,
    ) -> (Box<ColoRunner>, ServerCapacity) {
        let leaf_policy: Box<dyn ColocationPolicy> =
            Box::new(Heracles::new(HeraclesConfig::fast(), cell.lc.slo(), cell.dram_model()));
        let seed = config.seed ^ (0xF1EE7 + id as u64 * 7919);
        let runner = ColoRunner::new(
            cell.hardware.clone(),
            cell.lc.clone(),
            None,
            leaf_policy,
            config.colo.with_seed(seed),
        );
        let capacity = ServerCapacity::for_service(
            &cell.hardware,
            config.be_slots_per_server,
            generation,
            service,
            cell.lc.peak_qps(),
        );
        (Box::new(runner), capacity)
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
        // One offline DRAM model per (generation × service) cell serves all
        // of its leaves (the paper shares one across the cluster too; the
        // controller tolerates the model error).  A cell is profiled when
        // its first leaf is built, so absent cells get none until an
        // autoscaler purchases one.
        let mut cells = Self::true_cells(&server_config);
        let (runners, capacities): (Vec<_>, Vec<_>) = (0..config.servers)
            .map(|id| {
                let (g, svc) = (generations[id].index(), services[id]);
                let cell = &mut cells[g][svc.index()];
                let (runner, capacity) = Self::new_leaf(&config, cell, id, g, svc);
                (Some(runner), capacity)
            })
            .unzip();
        // Each service is provisioned with its initial pool's aggregate
        // peak: that is the demand denominator for the whole run — demand
        // is exogenous, so scale-in shrinks the pool but never the offered
        // traffic.
        let mut provisioned = [0.0f64; NUM_SERVICES];
        for cap in &capacities {
            provisioned[cap.service.index()] += cap.peak_qps;
        }
        let plane = TrafficPlane::new(
            catalog,
            config.balancer.build(),
            provisioned,
            config.time_compression,
        );
        let store = PlacementStore::heterogeneous(&capacities);
        FleetSim {
            tracer: Tracer::new(config.telemetry, &store),
            plane,
            runners,
            store,
            queue: JobQueue::new(config.jobs, config.seed),
            policy,
            rng: SimRng::new(config.seed).fork(0x9C4ED),
            cells,
            steps: Vec::with_capacity(config.steps),
            events: Vec::new(),
            completed_total: 0,
            step_idx: 0,
            pending_migrations: 0,
            server_counts: ServerPlaneCounts::default(),
            meter: config.energy.metering.then(EnergyMeter::new),
            cap_coordinator: config.energy.power_cap_w.map(PowerCapCoordinator::new),
            config,
        }
    }

    /// The configuration this fleet runs under.
    pub fn config(&self) -> &FleetConfig {
        &self.config
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

    /// Mutable access to the telemetry plane (external controllers record
    /// their own metrics through it).
    pub fn telemetry_mut(&mut self) -> Option<&mut Telemetry> {
        self.tracer.as_mut().map(|t| &mut t.telemetry)
    }

    /// Detaches the telemetry plane (for writing its artifacts after a run
    /// consumed the simulator's result separately).
    pub fn take_telemetry(&mut self) -> Option<Telemetry> {
        self.tracer.take().map(|t| t.telemetry)
    }

    /// Records the event `make` renders into the flight recorder when
    /// tracing; the event is never built otherwise.  External controllers —
    /// the autoscaler — use this to thread their decision events into the
    /// same time-ordered stream as the fleet's own.
    pub fn trace(&mut self, make: impl FnOnce(&Self) -> TraceEvent) {
        if self.tracer.is_some() {
            let event = make(self);
            if let Some(t) = self.telemetry_mut() {
                t.recorder.record(event);
            }
        }
    }

    /// Records the health plane's end-of-run summary — per-cell sketch
    /// percentiles and the top-k unhealthiest leaves — into the flight
    /// recorder at the current sim time.  A no-op when the health plane is
    /// off.  Callers writing trace artifacts invoke this once, after the
    /// last step and before [`FleetSim::take_telemetry`].
    pub fn emit_health_summary(&mut self) {
        let now = self.now();
        if let Some(Telemetry { recorder, health: Some(h), .. }) = self.telemetry_mut() {
            recorder.extend(h.summary_events(now));
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
        let Some(t) = self.tracer.as_mut().map(|t| &mut t.telemetry) else { return };
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

    /// The extra load fraction each surviving leaf of `victim`'s service
    /// would absorb if `victim` left the fleet and its currently routed
    /// traffic were re-divided across them (capacity-weighted).  Leaves of
    /// other services absorb none — a drained websearch leaf's traffic
    /// never lands on a memkeyval box — and a victim already retired
    /// re-routes nothing.
    ///
    /// This is what makes scale-in physical: the drain pricer adds this to
    /// the projected load of every destination of the victim's service
    /// *before* ranking its headroom, and the autoscaling policies price
    /// the same quantity as SLO risk before shedding.
    pub fn reroute_load_increase(&self, victim: ServerId) -> f64 {
        let v = self.store.server(victim);
        if !v.in_service() {
            return 0.0;
        }
        let survivors: f64 =
            self.store.service_pool(v.service).filter(|s| s.id != victim).map(|s| s.peak_qps).sum();
        if survivors <= 0.0 {
            return 0.0;
        }
        // The victim's routed QPS lands on the survivors in proportion to
        // capacity; each one's share, as a fraction of its own peak, is the
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
    /// fleet and shared by subsequent ones.
    pub fn add_server(&mut self, generation: Generation) -> ServerId {
        let id = self.runners.len();
        let gi = generation.index();
        let service = self.most_depleted_service();
        let cell = &mut self.cells[gi][service.index()];
        let (runner, capacity) = Self::new_leaf(&self.config, cell, id, gi, service);
        self.runners.push(Some(runner));
        let store_id = self.store.add_server(capacity);
        debug_assert_eq!(store_id, id, "store and runner ids diverged");
        if let Some(t) = self.tracer.as_mut() {
            t.wake(id, WakeReason::Lifecycle);
        }
        self.trace(|s| {
            TraceEvent::new(s.now(), "store", "server_added")
                .u64("server", id as u64)
                .u64("generation", gi as u64)
                .str("service", service.name())
                .u64("cores", s.store.server(id).cores as u64)
        });
        id
    }

    /// Marks a server as draining (autoscaler scale-in, phase one): no new
    /// BE work, residents to be migrated away.
    pub fn begin_drain(&mut self, id: ServerId) {
        self.store.begin_drain(id);
        if let Some(t) = self.tracer.as_mut() {
            t.wake(id, WakeReason::Lifecycle);
        }
        self.trace(|s| {
            TraceEvent::new(s.now(), "store", "drain_started")
                .u64("server", id as u64)
                .u64("residents", s.store.server(id).resident.len() as u64)
        });
    }

    /// Retires a drained server (autoscaler scale-in, phase two): it stops
    /// stepping and stops costing TCO from the next step on, and its share
    /// of its service's traffic is re-routed onto the surviving leaves by
    /// the balancer from the next step's routing.  Its runner (SLO tails,
    /// last record, controller) is dropped, so an elastic fleet's memory
    /// follows its leaves in service, not its cumulative purchases.
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
        self.runners[id] = None;
        if let Some(c) = self.cap_coordinator.as_mut() {
            c.forget(id as u64);
        }
        self.trace(|s| TraceEvent::new(s.now(), "store", "retired").u64("server", id as u64));
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
        self.log_job(FleetEventKind::Migrated, job, to);
        self.sync_attachment(from);
        self.sync_attachment(to);
        if let Some(t) = self.tracer.as_mut() {
            t.wake(from, WakeReason::JobCompletion);
            t.wake(to, WakeReason::JobArrival);
            t.telemetry.metrics.inc("fleet.jobs_migrated");
        }
        self.trace(|s| {
            TraceEvent::new(s.now(), "fleet", "migrate")
                .u64("job", job as u64)
                .u64("from", from as u64)
                .u64("to", to as u64)
                .f64("cost_core_s", cost_core_s)
        });
    }

    /// Preempts a resident job back to the front of the queue — the drain
    /// pricer's fallback when a migration costs more than the job has left.
    /// Counts as a preemption in the job ledger.
    pub fn requeue_job(&mut self, job: JobId, from: ServerId) {
        self.store.release(job, from);
        self.queue.requeue_front(job);
        self.log_job(FleetEventKind::Preempted, job, from);
        self.sync_attachment(from);
        if let Some(t) = self.tracer.as_mut() {
            t.wake(from, WakeReason::JobCompletion);
            t.telemetry.metrics.inc("fleet.jobs_preempted");
        }
        self.trace(|s| {
            TraceEvent::new(s.now(), "fleet", "requeue")
                .u64("job", job as u64)
                .u64("from", from as u64)
        });
    }

    /// Appends a job-ledger event at the current step.
    fn log_job(&mut self, kind: FleetEventKind, job: JobId, server: ServerId) {
        self.events.push(FleetEvent { step: self.step_idx, job, server, kind });
    }

    /// Points the runner's BE workload at its head resident job (or detaches
    /// it).  Jobs of the same kind share a profile, so a swap between them
    /// is a no-op.
    ///
    /// When several jobs share a server, the head job's profile stands in
    /// for the whole BE slice: the co-residents share the slice's
    /// throughput (see the settle phase of [`FleetSim::step_once`])
    /// but do not add their own contention to the hardware model.  This
    /// approximation understates interference when a hostile job hides
    /// behind a benign head — one reason the informed policies' occupancy
    /// penalty steers away from double-packing, and the first candidate to
    /// refine if multi-slot fidelity starts to matter.
    fn sync_attachment(&mut self, id: ServerId) {
        let head: Option<BeWorkload> =
            self.store.server(id).resident.first().map(|&job| self.queue.job(job).workload.clone());
        let runner = self.runners[id].as_mut().expect(RETIRED_RUNNER);
        if runner.be().map(|b| b.kind()) != head.as_ref().map(|w| w.kind()) {
            runner.set_be(head);
        }
        let attached = runner.be().map(|b| b.kind());
        self.store.set_attached_kind(id, attached);
    }

    /// Runs one scheduler step over the in-service fleet and returns the
    /// recorded step.  Retired servers neither step nor cost TCO; an
    /// elastic controller interleaves scale actions between calls.
    ///
    /// The simulation phases (see the module docs) each return what they
    /// decided; one read-only observe pass follows.
    pub fn step_once(&mut self) -> &FleetStep {
        let step = self.step_idx;
        let now = SimTime::ZERO + self.config.step_duration() * (step as u64 + 1);
        let in_service: Vec<ServerId> =
            self.store.servers().iter().filter(|s| s.in_service()).map(|s| s.id).collect();
        let cap = self.cap(&in_service);
        let routing = self.route(now, &in_service);
        let dispatched = self.dispatch(now, &in_service);
        let leaves = self.advance(now, &in_service, &routing);
        let (progress, settled) = self.settle(now, &in_service, &leaves);
        let recorded = self.record(now, &in_service, &routing, &leaves, progress);
        self.observe(StepView {
            step,
            in_service,
            cap,
            routing,
            dispatched,
            leaves,
            settled,
            recorded,
        });
        self.steps.last().expect("just recorded")
    }

    /// Cap: per-leaf RAPL caps proportional to TDP, plus the fleet BE
    /// throttle — Algorithm 3's ordering lifted to the fleet: BE is shaved
    /// first, LC guaranteed frequency last.  A changed cap is one of its
    /// leaf's window inputs, so the leaf's next window runs in full.
    fn cap(&mut self, in_service: &[ServerId]) -> Option<observe::CapOutcome> {
        let coordinator = self.cap_coordinator.as_mut()?;
        let roster: Vec<(u64, f64)> = in_service
            .iter()
            .map(|&id| {
                let runner = self.runners[id].as_ref().expect(RETIRED_RUNNER);
                (id as u64, runner.server().config().tdp_w())
            })
            .collect();
        let plan = coordinator.plan(&roster);
        let throttle_flipped = self.store.power_throttled() != plan.throttle_be;
        if throttle_flipped {
            self.store.set_power_throttled(plan.throttle_be);
        }
        // Assignments are in roster order (= ascending in-service id), or
        // empty when the budget clears the whole roster's TDP.
        let mut changed = Vec::new();
        for (i, &id) in in_service.iter().enumerate() {
            let cap = plan.assignments.get(i).map(|a| {
                debug_assert_eq!(a.leaf, id as u64, "cap plan order diverged");
                a.cap_w
            });
            self.runners[id].as_mut().expect(RETIRED_RUNNER).set_package_cap_w(cap);
            if coordinator.note_applied(id as u64, cap) {
                changed.push((id, cap));
            }
        }
        Some(observe::CapOutcome { plan, throttle_flipped, changed })
    }

    /// Route: divides every service's offered QPS across its in-service
    /// leaves, conserving it (asserted every step), and returns the
    /// routing.  Demand is sampled on a hold grid: with
    /// `demand_hold_steps = n` the diurnal curve is re-read every n steps
    /// and held flat in between, so a steady fleet's loads are bit-stable
    /// and its leaves can quiesce.
    fn route(&mut self, now: SimTime, in_service: &[ServerId]) -> RoutingStep {
        let hold = self.config.demand_hold_steps as u64;
        let held_step = (self.step_idx as u64 / hold) * hold + 1;
        let demand_now = SimTime::ZERO + self.config.step_duration() * held_step;
        let routing = self.plane.route_held(demand_now, now, &self.store);
        assert!(
            routing.max_imbalance() < 1e-9,
            "traffic plane failed to conserve demand: routed {:?} of offered {:?}",
            routing.routed_qps,
            routing.offered_qps
        );
        for &id in in_service {
            self.store.set_load(id, routing.loads[id]);
        }
        routing
    }

    /// Dispatch: places the queue FIFO with skipping as one batch round
    /// (the policy scores the fleet once per step) and commits the
    /// placements onto the runners.
    fn dispatch(&mut self, now: SimTime, in_service: &[ServerId]) -> Vec<observe::Dispatched> {
        self.queue.arrive(now);
        let pending = self.queue.take_pending();
        if !pending.is_empty() {
            self.policy.begin_round(&self.store);
        }
        let mut dispatched = Vec::with_capacity(pending.len());
        let mut unplaced = Vec::new();
        for job_id in pending {
            let Some(server) =
                self.policy.place(self.queue.job(job_id), &self.store, &mut self.rng)
            else {
                unplaced.push(job_id);
                dispatched.push((job_id, None));
                continue;
            };
            self.store.place(job_id, server);
            self.queue.job_mut(job_id).first_start.get_or_insert(now);
            self.log_job(FleetEventKind::Placed, job_id, server);
            let entry = self.store.server(server);
            let placed = Placement { server, slack: entry.slack, residents: entry.resident.len() };
            dispatched.push((job_id, Some(placed)));
        }
        self.queue.restore_pending(unplaced);
        for &id in in_service {
            self.sync_attachment(id);
        }
        dispatched
    }

    /// Advance: steps every in-service leaf by `windows_per_step` windows,
    /// in parallel (retired leaves keep their dense ids but no runner).
    /// Returns the leaves' advances, with their controllers' decisions
    /// timed on the fleet's clock.  Under the event core each leaf
    /// advances through [`ColoRunner::advance`], whose fast path
    /// re-verifies its own steady-state preconditions bit-exactly.
    fn advance(
        &mut self,
        now: SimTime,
        in_service: &[ServerId],
        routing: &RoutingStep,
    ) -> Vec<LeafAdvance> {
        let event_core = self.config.sim_core == SimCore::EventDriven;
        let windows = self.config.windows_per_step;
        let mut paired: Vec<(f64, &mut ColoRunner)> = self
            .runners
            .iter_mut()
            .enumerate()
            .filter_map(|(id, runner)| Some((routing.loads[id], runner.as_deref_mut()?)))
            .collect();
        debug_assert_eq!(paired.len(), in_service.len());
        let leaves: Vec<LeafAdvance> = parallel_map_mut(&mut paired, |(load, runner)| {
            let mut leaf = runner.advance(*load, windows, event_core);
            // A leaf commissioned mid-run keeps its own clock, offset from
            // the fleet's by its commissioning time.
            let offset = now.saturating_since(runner.now());
            leaf.decisions.iter_mut().for_each(|(time, _)| *time += offset);
            leaf
        });
        self.server_counts.record_step(&leaves);
        leaves
    }

    /// Settle: credits BE progress, completes and preempts jobs, refreshes
    /// the store.  Returns the progress absorbed and the job outcomes.
    fn settle(
        &mut self,
        now: SimTime,
        in_service: &[ServerId],
        leaves: &[LeafAdvance],
    ) -> (f64, Vec<Settled>) {
        let mut step_progress = 0.0;
        let mut settled = Vec::new();
        for (&id, leaf) in in_service.iter().zip(leaves) {
            let resident = self.store.server(id).resident.clone();
            // Split the step's progress evenly across residents,
            // redistributing overshoot past a job's remaining demand to
            // its co-residents; only work actually absorbed counts as
            // served.
            let mut budget = leaf.be_progress_core_s;
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
            for &job_id in &resident {
                if self.queue.job(job_id).is_complete() {
                    self.queue.job_mut(job_id).completion = Some(now);
                    self.store.release(job_id, id);
                    self.completed_total += 1;
                    self.log_job(FleetEventKind::Completed, job_id, id);
                    settled.push(Settled { job: job_id, server: id, preempted_streak: None });
                }
            }
            self.store.observe(id, 1.0 - leaf.worst_normalized_latency, leaf.be_enabled);
            if self.store.server(id).disabled_streak > PREEMPTION_GRACE_STEPS {
                // Requeue in reverse so the earliest resident ends up
                // frontmost.
                let evicted = self.store.server(id).resident.clone();
                for &job_id in evicted.iter().rev() {
                    self.store.release(job_id, id);
                    self.queue.requeue_front(job_id);
                    self.log_job(FleetEventKind::Preempted, job_id, id);
                    let streak = Some(self.store.server(id).disabled_streak);
                    settled.push(Settled { job: job_id, server: id, preempted_streak: streak });
                }
            }
            self.sync_attachment(id);
        }
        (step_progress, settled)
    }

    /// Record: appends the step's [`FleetStep`] and returns a copy.
    /// Aggregates are core-weighted over the in-service fleet (a retired
    /// box represents no machine time), per service as well as fleet-wide.
    /// TCO and energy are charged over the wall time the step *represents*
    /// (see [`FleetConfig::time_compression`]), energy at the time-of-day
    /// tariff — pure functions of the leaves' advances.
    fn record(
        &mut self,
        now: SimTime,
        in_service: &[ServerId],
        routing: &RoutingStep,
        leaves: &[LeafAdvance],
        be_progress_core_s: f64,
    ) -> FleetStep {
        let step_s = self.config.represented_step_s();
        let loads: Vec<f64> = in_service.iter().map(|&id| routing.loads[id]).collect();
        let cores: Vec<usize> = in_service.iter().map(|&id| self.store.server(id).cores).collect();
        let emus: Vec<f64> = leaves.iter().map(|l| l.last_emu).collect();
        let violating = leaves.iter().filter(|l| l.worst_normalized_latency > 1.0).count();
        let mut service_load_weighted = [0.0f64; NUM_SERVICES];
        let mut service_cores = [0.0f64; NUM_SERVICES];
        let mut violating_by_service = [0usize; NUM_SERVICES];
        let mut energy_joules = 0.0f64;
        for ((&id, leaf), &load) in in_service.iter().zip(leaves).zip(&loads) {
            let entry = self.store.server(id);
            let si = entry.service.index();
            service_load_weighted[si] += load * entry.cores as f64;
            service_cores[si] += entry.cores as f64;
            energy_joules += leaf.energy_j * self.config.time_compression;
            if leaf.worst_normalized_latency > 1.0 {
                violating_by_service[si] += 1;
            }
        }
        let service_load: [f64; NUM_SERVICES] = std::array::from_fn(|i| {
            if service_cores[i] > 0.0 {
                service_load_weighted[i] / service_cores[i]
            } else {
                0.0
            }
        });
        // The case study's costs, with electricity at the price the step's
        // `energy_dollars` uses: the configured tariff at this represented
        // hour.
        let price = self.config.energy_price_at(now);
        let tco = TcoModel { electricity_per_kwh: price, ..TcoModel::paper_case_study() };
        let tco_dollars = cores
            .iter()
            .zip(leaves)
            .map(|(&c, l)| server_step_tco_dollars(&tco, c, l.last_emu, step_s))
            .sum();
        self.steps.push(FleetStep {
            time: now,
            mean_load: core_weighted_mean(&loads, &cores),
            fleet_emu: core_weighted_mean(&emus, &cores),
            worst_normalized_latency: leaves
                .iter()
                .map(|l| l.worst_normalized_latency)
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
            energy_dollars: joules_to_dollars(energy_joules, price, FACILITY_PUE),
            // A conservative instantaneous bound: every leaf at its own
            // worst window at once.  A power-capped run proves budget
            // compliance by keeping even this bound under the budget.
            peak_power_w: leaves.iter().map(|l| l.max_power_w).sum(),
            queued_jobs: self.queue.pending_len(),
            running_jobs: self.store.running_jobs(),
            completed_jobs: self.completed_total,
            be_progress_core_s,
        });
        self.step_idx += 1;
        *self.steps.last().expect("just pushed")
    }

    /// Observe: the one read-only pass.  Metering, tracing and the health
    /// plane see the step's [`StepView`] and *shared* borrows of the store,
    /// queue and policy — a split borrow of `self` — so nothing they do can
    /// reach back into the simulation.
    fn observe(&mut self, view: StepView) {
        let FleetSim { config, store, queue, policy, tracer, meter, .. } = self;
        let sim = Observed { config, store, queue, policy: policy.as_ref() };
        if let Some(meter) = meter {
            observe::meter_step(meter, &sim, &view);
        }
        if let Some(tracer) = tracer {
            tracer.observe(&sim, view);
        }
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

    /// Server `id`'s expected LC load at `time`: its service's offered QPS
    /// over the service's in-service pool capacity.
    fn server_load(sim: &FleetSim, id: ServerId, time: SimTime) -> f64 {
        sim.plane.expected_pool_load(sim.store.server(id).service, time, &sim.store)
    }

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
        let loads: Vec<f64> = (0..4).map(|i| server_load(&sim, i, t)).collect();
        for l in &loads {
            assert!((l - loads[0]).abs() < 1e-12, "websearch leaves diverged: {loads:?}");
            assert!((0.0..=1.0).contains(l));
        }

        // Mixed services with full phase spread: the fleet spans the load
        // range because the *services* peak at different times.
        let cfg = FleetConfig { services: ServiceMix::mixed_frontend(), ..tiny() };
        let sim = FleetSim::new(cfg, ServerConfig::default_haswell(), PolicyKind::FirstFit);
        let loads: Vec<f64> = (0..4).map(|i| server_load(&sim, i, t)).collect();
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
                (1..=10).map(|step| server_load(&sim, 0, SimTime::from_secs(step * 2))).collect();
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
        let events: Vec<_> = telemetry.recorder.iter().collect();
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
        let doc = telemetry.trace_jsonl(&[("policy", "least-loaded".to_string())]);
        doc.validate().expect("trace fails its own schema");
    }
}
