//! The closed-loop elastic fleet: an [`AutoscalePolicy`] driving the fleet
//! scheduler's elastic hooks step by step.
//!
//! Each step the controller (1) assembles the [`ScaleSignals`] — queue and
//! censored-job state, in-service counts, the diurnal forecast, and the
//! market's current best buy / first sell, (2) applies the policy's
//! [`ScaleAction`] (guarding the min/max fleet bounds regardless of what
//! the policy asked for), (3) runs the drain pricer over every draining
//! server — live-migrating residents to the destination with the best
//! marginal headroom, or requeueing the rare job whose residual demand is
//! smaller than the migration overhead — and retiring servers that drained
//! empty, then (4) advances the fleet one scheduler step.
//!
//! LC traffic is re-routed, not assumed away: the fleet's traffic plane
//! conserves each service's offered QPS, so a retired box's share lands on
//! the surviving leaves as *added load*.  Scale-in therefore carries SLO
//! risk — the re-routed share can push survivors over their latency knee —
//! and the policies price it: [`ScaleSignals::post_shed_load`] is the
//! candidate pool's projected load after the re-route, and a shed is
//! refused when it exceeds the policy's ceiling.  The comparison the
//! controller is judged on is BE-side — completed core·seconds per
//! amortized TCO dollar — with the SLO-violation count pinning that
//! elasticity never buys throughput with latency compliance.

use heracles_fleet::{
    marginal_headroom_cores, FleetResult, FleetSim, InterferenceModel, JobId, PolicyKind,
    ServerEntry, ServerId, ServerPlaneCounts, ServerState,
};
use heracles_hw::ServerConfig;
use heracles_telemetry::TraceEvent;

use crate::action::{ScaleAction, ScaleEvent, ScaleEventKind, ScaleSignals};
use crate::market::GenerationMarket;
use crate::policy::{AutoscaleKind, AutoscalePolicy};

/// How far ahead (in steps) the drain pricer projects a destination's load
/// trend when ranking migration targets — the same horizon `LeastLoaded`
/// uses for placements, since a migration *is* a placement the job already
/// paid for once.
const DRAIN_TREND_HORIZON: f64 = 4.0;

/// Modeled cost of live-migrating one job, in core·seconds: the destination
/// compute spent moving and warming the job's state.  Charged onto the
/// job's remaining demand, so the work ledger stays honest
/// (`served == demand + overhead` for completed jobs).
pub const MIGRATION_COST_CORE_S: f64 = 15.0;

/// How far ahead (in steps) the controller forecasts the fleet's mean load
/// for the predictive policy's `load_ahead` signal and a drain's post-shed
/// pool load.
pub(crate) const FORECAST_LEAD_STEPS: usize = 6;

/// Configuration of an elastic fleet run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AutoscaleConfig {
    /// The wrapped fleet configuration (`fleet.servers` is the *initial*
    /// fleet size — and the static baseline's fixed size).
    pub fleet: heracles_fleet::FleetConfig,
    /// The controller never drains the active fleet below this floor.
    pub min_servers: usize,
    /// The controller never buys past this in-service ceiling.
    pub max_servers: usize,
}

impl AutoscaleConfig {
    /// The canonical elastic scenario: the given fleet with its run
    /// compressed onto one full diurnal cycle (so the run sweeps a real
    /// peak and valley — the regime where an autoscaler earns or loses its
    /// keep) and a phase-coherent fleet (small spread: the fleet peaks
    /// *together*, which is what makes elasticity pay; a fully
    /// phase-spread fleet has constant aggregate headroom and nothing for
    /// an autoscaler to chase).
    pub fn diurnal(base: heracles_fleet::FleetConfig) -> Self {
        let horizon_s =
            base.steps as f64 * base.windows_per_step as f64 * base.colo.window.as_secs_f64();
        let fleet = heracles_fleet::FleetConfig {
            load_spread: 0.15,
            time_compression: 12.0 * 3600.0 / horizon_s,
            // Size the stream so the fleet is moderately subscribed: a
            // saturated fleet gives an autoscaler only one direction —
            // buy — while this rate makes it shed through the valley and
            // provision for the peak, which is the claim under test.  The
            // rate also keeps leaves *occupied* when the early-valley
            // sheds fire, so scale-in is consolidation (live-migrate, then
            // retire) rather than the free shedding of empty boxes.
            jobs: heracles_fleet::JobStreamConfig {
                arrivals_per_step: 0.06 * base.servers as f64,
                demand_min_core_s: 100.0,
                demand_max_core_s: 800.0,
                ..base.jobs
            },
            ..base
        };
        // The fleet may grow to double its initial size, and shrink to a
        // quarter of it: the valley should force *consolidation* — drains
        // of still-occupied servers whose residents must live-migrate — not
        // just the free shedding of empty boxes.
        AutoscaleConfig {
            fleet,
            min_servers: (fleet.servers / 4).max(1),
            max_servers: fleet.servers * 2,
        }
    }

    /// The deterministic `--fast` elastic scenario the integration tests
    /// and CI smoke pin: [`diurnal`](Self::diurnal) over
    /// `FleetConfig::fast_test()`.
    pub fn fast_test() -> Self {
        Self::diurnal(heracles_fleet::FleetConfig::fast_test())
    }

    /// Validates the configuration, returning a human-readable description
    /// of the first violation.
    pub fn validate(&self) -> Result<(), String> {
        self.fleet.validate()?;
        if self.min_servers == 0 {
            return Err("min_servers must be at least 1".into());
        }
        if self.min_servers > self.fleet.servers || self.fleet.servers > self.max_servers {
            return Err(format!(
                "fleet bounds must satisfy min <= initial <= max (got {} <= {} <= {})",
                self.min_servers, self.fleet.servers, self.max_servers
            ));
        }
        Ok(())
    }
}

/// The result of one elastic fleet run.
#[derive(Debug, Clone, PartialEq)]
pub struct AutoscaleResult {
    /// The autoscaling policy that produced this run.
    pub autoscaler: String,
    /// The underlying fleet result (steps carry the time-varying fleet
    /// size, migration counts and the amortized TCO series).
    pub fleet: FleetResult,
    /// The controller's audit log: purchases, drains, migrations,
    /// retirements, in order.
    pub events: Vec<ScaleEvent>,
}

impl AutoscaleResult {
    /// Servers purchased over the run.
    pub fn scale_outs(&self) -> usize {
        self.events.iter().filter(|e| matches!(e.kind, ScaleEventKind::Bought { .. })).count()
    }

    /// Drains started over the run.
    pub fn scale_ins(&self) -> usize {
        self.events.iter().filter(|e| matches!(e.kind, ScaleEventKind::DrainStarted { .. })).count()
    }

    /// Servers retired over the run.
    pub fn retirements(&self) -> usize {
        self.events.iter().filter(|e| matches!(e.kind, ScaleEventKind::Retired { .. })).count()
    }

    /// Jobs live-migrated by drains over the run.
    pub fn drain_migrations(&self) -> usize {
        self.events.iter().filter(|e| matches!(e.kind, ScaleEventKind::Migrated { .. })).count()
    }

    /// Jobs the drain pricer chose to requeue instead of migrate.
    pub fn drain_requeues(&self) -> usize {
        self.events
            .iter()
            .filter(|e| matches!(e.kind, ScaleEventKind::DrainRequeued { .. }))
            .count()
    }
}

/// The closed-loop elastic fleet controller.
pub struct ElasticFleet {
    sim: FleetSim,
    policy: Box<dyn AutoscalePolicy>,
    market: GenerationMarket,
    config: AutoscaleConfig,
    events: Vec<ScaleEvent>,
    /// Step of the most recent purchase (rebuy-thrash detection).
    last_buy_step: Option<usize>,
    /// Step of the most recent drain start (rebuy-thrash detection).
    last_drain_step: Option<usize>,
}

/// A buy within this many steps of a drain (or vice versa) counts as one
/// thrash pulse for the health plane's rebuy-thrash alert: the controller
/// is reversing itself faster than a server's drain can possibly pay off.
const REBUY_THRASH_WINDOW_STEPS: usize = 8;

impl ElasticFleet {
    /// Creates an elastic fleet under built-in placement and autoscaling
    /// policies, with an uncharacterized market (cores-per-dollar pricing
    /// at the fleet's energy tariff).
    ///
    /// # Panics
    ///
    /// Panics if [`AutoscaleConfig::validate`] rejects the configuration.
    pub fn new(
        config: AutoscaleConfig,
        server: ServerConfig,
        placement: PolicyKind,
        autoscaler: AutoscaleKind,
    ) -> Self {
        config.validate().unwrap_or_else(|e| panic!("invalid autoscale config: {e}"));
        let market =
            GenerationMarket::new(&config.fleet, &server, InterferenceModel::from_scores([]));
        let sim = FleetSim::new(config.fleet, server, placement);
        ElasticFleet {
            sim,
            policy: autoscaler.build(),
            market,
            config,
            events: Vec::new(),
            last_buy_step: None,
            last_drain_step: None,
        }
    }

    /// Replaces the autoscaling policy: the seam that lets a test drive the
    /// loop with its own [`AutoscalePolicy`] (the built-in kinds come from
    /// [`AutoscaleKind::build`]).
    pub fn with_autoscaler(mut self, policy: Box<dyn AutoscalePolicy>) -> Self {
        self.policy = policy;
        self
    }

    /// The signal bundle the policy sees this step.
    fn signals(&self) -> ScaleSignals {
        let store = self.sim.store();
        let now = self.sim.now();
        let step_s = self.sim.config().step_duration().as_secs_f64();
        let mut stranded = 0usize;
        let mut oldest_wait_steps = 0usize;
        // Between steps, every job that has never started is sitting in the
        // pending queue (placement is the only thing that sets
        // `first_start`), so scanning the queue counts exactly the jobs the
        // old full-ledger scan did — without walking every completed job
        // the run has ever produced (which made long runs quadratic).
        for job_id in self.sim.pending_job_ids() {
            let job = self.sim.job(job_id);
            if job.first_start.is_none() {
                let waited = now.saturating_since(job.arrival).as_secs_f64();
                let waited_steps = (waited / step_s).floor() as usize;
                if waited_steps >= 1 {
                    stranded += 1;
                    oldest_wait_steps = oldest_wait_steps.max(waited_steps);
                }
            }
        }
        let drain_candidate = self.market.sell_first(store);
        let free_slots_elsewhere = store
            .servers()
            .iter()
            .filter(|s| s.admits_be() && Some(s.id) != drain_candidate)
            .map(|s| s.free_slots())
            .sum();
        // The SLO price of shedding the candidate: its service pool's load
        // after the re-route, at the worst of "right now" and the forecast
        // horizon (a shed that looks safe in the valley can strand the
        // shrunken pool over its knee when the peak arrives).
        let post_shed_load = drain_candidate
            .map(|id| {
                self.sim
                    .post_retire_pool_load(id, 0)
                    .max(self.sim.post_retire_pool_load(id, FORECAST_LEAD_STEPS))
            })
            .unwrap_or(0.0);
        // The energy price the step about to run will be billed at: the
        // configured schedule sampled at the *represented* hour of day
        // (wall-clock compressed onto the diurnal cycle), plus its daily
        // mean as the cheap/expensive reference.
        let energy = &self.sim.config().energy;
        let represented_hour =
            heracles_fleet::hour_of_day(now.as_secs_f64() * self.sim.config().time_compression);
        ScaleSignals {
            step: self.sim.current_step(),
            queued_jobs: self.sim.queue_depth(),
            stranded_jobs: stranded,
            oldest_wait_steps,
            active_servers: store.active_servers(),
            draining_servers: store.draining_servers(),
            free_slots_elsewhere,
            drain_candidate_residents: drain_candidate
                .map(|id| store.server(id).resident.len())
                .unwrap_or(0),
            mean_load: self.sim.forecast_mean_load(0),
            load_ahead: self.sim.forecast_mean_load(FORECAST_LEAD_STEPS),
            min_servers: self.config.min_servers,
            max_servers: self.config.max_servers,
            best_buy: self.market.best_buy(),
            drain_candidate,
            post_shed_load,
            energy_price_per_kwh: energy.price.price_at(represented_hour),
            energy_price_mean_per_kwh: energy.price.daily_mean(),
        }
    }

    /// Applies one scale action, enforcing the fleet bounds regardless of
    /// what the policy asked for (a buggy policy must not be able to strand
    /// the fleet outside its envelope).
    fn apply(&mut self, action: ScaleAction) {
        let step = self.sim.current_step();
        match action {
            ScaleAction::Hold => {}
            ScaleAction::ScaleOut { generation } => {
                let store = self.sim.store();
                if store.active_servers() + store.draining_servers() < self.config.max_servers {
                    let server = self.sim.add_server(generation);
                    self.events.push(ScaleEvent {
                        step,
                        kind: ScaleEventKind::Bought { generation, server },
                    });
                    self.sim.trace(|sim| {
                        TraceEvent::new(sim.now(), "autoscale", "buy")
                            .str("generation", generation.name())
                            .u64("server", server as u64)
                            .f64("value_per_dollar", self.market.value_per_dollar(generation))
                    });
                    if self
                        .last_drain_step
                        .is_some_and(|s| step.saturating_sub(s) <= REBUY_THRASH_WINDOW_STEPS)
                    {
                        self.observe_thrash();
                    }
                    self.last_buy_step = Some(step);
                }
            }
            ScaleAction::ScaleIn { server } => {
                let store = self.sim.store();
                // Besides the fleet-size floor, a drain must never target a
                // service's last in-service leaf — retiring it would leave
                // the service's traffic unroutable (the fleet panics on the
                // attempt, and no policy bug should be able to reach that).
                if store.active_servers() > self.config.min_servers
                    && store.server(server).is_active()
                    && store.in_service_leaves(store.server(server).service) > 1
                {
                    self.sim.begin_drain(server);
                    self.events
                        .push(ScaleEvent { step, kind: ScaleEventKind::DrainStarted { server } });
                    self.sim.trace(|sim| {
                        TraceEvent::new(sim.now(), "autoscale", "drain")
                            .u64("server", server as u64)
                            .f64("post_shed_load", sim.post_retire_pool_load(server, 0))
                    });
                    if self
                        .last_buy_step
                        .is_some_and(|s| step.saturating_sub(s) <= REBUY_THRASH_WINDOW_STEPS)
                    {
                        self.observe_thrash();
                    }
                    self.last_drain_step = Some(step);
                }
            }
        }
    }

    /// Feeds one rebuy-thrash pulse to the health plane (a no-op when it
    /// is off).  Observed *before* the fleet's `step_once`, so the pulse
    /// lands in the same step's burn-rate window as the decision that
    /// caused it.
    fn observe_thrash(&mut self) {
        if let Some(h) = self.sim.telemetry_mut().and_then(|t| t.health.as_mut()) {
            h.observe_signal(heracles_telemetry::AlertKind::RebuyThrash, 1.0);
        }
    }

    /// The migration destination offering a resident of `from` the most
    /// marginal headroom (among servers currently admitting BE work),
    /// deterministically tie-broken by id.
    ///
    /// Headroom is computed *after* the destination absorbs its slice of
    /// the draining server's re-routed LC traffic: a sibling leaf of the
    /// victim's service is about to get hotter than its store entry shows,
    /// so ranking destinations by their pre-drain load would migrate jobs
    /// straight into the re-route's blast radius.
    fn best_destination(&self, from: ServerId) -> Option<ServerId> {
        let headroom = |s: &ServerEntry| {
            let projected =
                s.projected_load(DRAIN_TREND_HORIZON) + self.sim.reroute_load_increase(from, s.id);
            marginal_headroom_cores(s, projected, s.resident.len() as f64)
        };
        self.sim
            .store()
            .servers()
            .iter()
            .filter(|s| s.id != from && s.admits_be())
            .max_by(|a, b| {
                headroom(a)
                    .partial_cmp(&headroom(b))
                    .expect("headroom is finite")
                    .then(b.id.cmp(&a.id))
            })
            .map(|s| s.id)
    }

    /// Runs the drain pricer over every draining server: migrate each
    /// resident to the best destination (paying the migration cost onto its
    /// remaining demand), or requeue it when the move costs more
    /// core·seconds than the job has left — then retire servers that
    /// drained empty.  A server with residents but no admitting
    /// destination keeps running them; its drain stalls until headroom
    /// appears (it is never retired occupied).
    fn drain_step(&mut self) {
        let step = self.sim.current_step();
        let draining: Vec<ServerId> = self
            .sim
            .store()
            .servers()
            .iter()
            .filter(|s| s.state == ServerState::Draining)
            .map(|s| s.id)
            .collect();
        for from in draining {
            let residents: Vec<JobId> = self.sim.store().server(from).resident.clone();
            for job in residents {
                // Price the move: migrating costs `MIGRATION_COST_CORE_S`
                // of destination compute; a requeue restarts the queue wait
                // but costs no compute.  For all but nearly-finished jobs
                // the migration wins — the preserved progress and the
                // skipped queue pass are worth far more than the overhead.
                if self.sim.job(job).remaining_core_s <= MIGRATION_COST_CORE_S {
                    self.sim.requeue_job(job, from);
                    self.events.push(ScaleEvent {
                        step,
                        kind: ScaleEventKind::DrainRequeued { job, from },
                    });
                    continue;
                }
                if let Some(to) = self.best_destination(from) {
                    self.sim.migrate_job(job, from, to, MIGRATION_COST_CORE_S);
                    self.events.push(ScaleEvent {
                        step,
                        kind: ScaleEventKind::Migrated { job, from, to },
                    });
                }
            }
            if self.sim.store().server(from).resident.is_empty() {
                self.sim.retire_server(from);
                self.events
                    .push(ScaleEvent { step, kind: ScaleEventKind::Retired { server: from } });
            }
        }
    }

    /// The underlying fleet simulator (read-only).
    pub fn sim(&self) -> &FleetSim {
        &self.sim
    }

    /// Takes the fleet's telemetry bundle out of the controller (None when
    /// telemetry is off).  Call after the last step, before
    /// [`finish`](Self::finish).
    pub fn take_telemetry(&mut self) -> Option<heracles_telemetry::Telemetry> {
        self.sim.take_telemetry()
    }

    /// Records the health plane's end-of-run summary into the flight
    /// recorder (see [`FleetSim::emit_health_summary`]).
    pub fn emit_health_summary(&mut self) {
        self.sim.emit_health_summary();
    }

    /// Records the energy plane's end-of-run summary into the flight
    /// recorder (see [`FleetSim::emit_energy_summary`]).
    pub fn emit_energy_summary(&mut self) {
        self.sim.emit_energy_summary();
    }

    /// The server plane's woken/quiescent and full/fast window counts so
    /// far (see [`FleetSim::server_plane_counts`]).
    pub fn server_plane_counts(&self) -> ServerPlaneCounts {
        *self.sim.server_plane_counts()
    }

    /// Runs one closed-loop step: signals → decide → apply → drain →
    /// advance the fleet one scheduler step.
    pub fn step_once(&mut self) {
        let signals = self.signals();
        let action = self.policy.decide(&signals);
        self.sim.trace(|sim| {
            let best_buy = signals.best_buy;
            TraceEvent::new(sim.now(), "autoscale", "signals")
                .u64("step", signals.step as u64)
                .u64("queued", signals.queued_jobs as u64)
                .u64("stranded", signals.stranded_jobs as u64)
                .u64("active", signals.active_servers as u64)
                .u64("draining", signals.draining_servers as u64)
                .f64("mean_load", signals.mean_load)
                .f64("load_ahead", signals.load_ahead)
                .str("best_buy", best_buy.name())
                .f64("buy_value_per_dollar", self.market.value_per_dollar(best_buy))
                .f64("post_shed_load", signals.post_shed_load)
                .f64("energy_price_per_kwh", signals.energy_price_per_kwh)
        });
        self.sim.trace(|sim| {
            let (kind, detail) = match action {
                ScaleAction::Hold => ("hold", None),
                ScaleAction::ScaleOut { generation } => ("scale-out", Some(generation.index())),
                ScaleAction::ScaleIn { server } => ("scale-in", Some(server)),
            };
            let event = TraceEvent::new(sim.now(), "autoscale", "decide").str("action", kind);
            match detail {
                Some(value) => event.u64("target", value as u64),
                None => event,
            }
        });
        self.apply(action);
        self.drain_step();
        self.sim.step_once();
    }

    /// Consumes the controller into its result (steps run so far).
    pub fn finish(self) -> AutoscaleResult {
        AutoscaleResult {
            autoscaler: self.policy.name().to_string(),
            fleet: self.sim.into_result(),
            events: self.events,
        }
    }

    /// Runs the closed loop to the fleet's horizon and returns the result.
    pub fn run(mut self) -> AutoscaleResult {
        let steps = self.sim.config().steps;
        while self.sim.current_step() < steps {
            self.step_once();
        }
        self.finish()
    }
}

impl std::fmt::Debug for ElasticFleet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ElasticFleet")
            .field("autoscaler", &self.policy.name())
            .field("step", &self.sim.current_step())
            .field("active", &self.sim.store().active_servers())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::AutoscaleKind;

    /// The pending-queue stranded scan must emit bit-identical signals to
    /// the full-ledger scan it replaced: between steps, a job without a
    /// `first_start` is in the queue and nowhere else, so the two scans see
    /// exactly the same population at every step of a churny run.
    #[test]
    fn pending_queue_scan_matches_the_full_ledger_scan() {
        let mut config = AutoscaleConfig::fast_test();
        config.fleet.steps = 20;
        // Oversubscribe the queue so jobs genuinely strand: with every BE
        // slot full, arrivals back up and the stranded branch is exercised.
        config.fleet.jobs.arrivals_per_step = 12.0;
        let mut fleet = ElasticFleet::new(
            config,
            ServerConfig::default_haswell(),
            PolicyKind::LeastLoaded,
            AutoscaleKind::Reactive,
        );
        let mut saw_stranded = false;
        for _ in 0..config.fleet.steps {
            let signals = fleet.signals();
            // The reference: the old O(all jobs ever) ledger walk.
            let now = fleet.sim.now();
            let step_s = fleet.sim.config().step_duration().as_secs_f64();
            let (mut stranded, mut oldest) = (0usize, 0usize);
            for job in fleet.sim.jobs() {
                if job.first_start.is_none() && job.completion.is_none() {
                    let waited_steps =
                        (now.saturating_since(job.arrival).as_secs_f64() / step_s).floor() as usize;
                    if waited_steps >= 1 {
                        stranded += 1;
                        oldest = oldest.max(waited_steps);
                    }
                }
            }
            assert_eq!(signals.stranded_jobs, stranded);
            assert_eq!(signals.oldest_wait_steps, oldest);
            saw_stranded |= stranded > 0;
            fleet.step_once();
        }
        assert!(saw_stranded, "the run never stranded a job — the pin test saw nothing");
    }
}
