//! The fleet step's observers — decision tracing, the health plane and the
//! energy meter — reading the step's [`StepView`] and shared borrows of the
//! simulator.  Values that exist only at decision time (a placement's
//! slack, a preemption's streak, a route's verdicts and diverts, each leaf
//! controller's decisions) are recorded in the view unconditionally, and
//! only the tracer renders them.
//!
//! The [`Tracer`] is the only keeper of trace-only state: the admission
//! baseline it diffs, and the wake attribution — each leaf's routed load
//! last step and the [`WakeReason`] bits pending for its next advance.

use heracles_cluster::FACILITY_PUE;
use heracles_colo::LeafAdvance;
use heracles_core::Decision;
use heracles_energy::{joules_to_dollars, CapPlan, EnergyMeter};
use heracles_sim::SimTime;
use heracles_telemetry::{AlertKind, Telemetry, TelemetryConfig, TraceEvent};
use heracles_workloads::LcKind;

use crate::fleet::{FleetConfig, SimCore};
use crate::generation::Generation;
use crate::job::{JobId, JobQueue};
use crate::metrics::FleetStep;
use crate::policy::PlacementPolicy;
use crate::store::{PlacementStore, ServerEntry, ServerId, ServerState};
use crate::traffic::RoutingStep;

/// Why a leaf may have changed this step: one bit of the per-step wake
/// mask.  Wakes are attribution for the event core's trace, not a
/// correctness gate — a leaf that ran a full window with no bit set is
/// reported as a [`ControllerPoll`](WakeReason::ControllerPoll).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum WakeReason {
    /// The leaf's routed load changed (an exact bit comparison — no
    /// epsilon: any change to the demand a leaf serves is a real change).
    LoadDelta,
    /// No recorded cause: the leaf's own controller or window inputs moved.
    ControllerPoll,
    /// A job was placed on (or migrated onto) the leaf.
    JobArrival,
    /// A resident job completed, was preempted, or migrated away.
    JobCompletion,
    /// The leaf itself changed state: commissioned, draining, or its power
    /// cap moved.
    Lifecycle,
}

impl WakeReason {
    /// Every reason, in bit order (the order trace sections report).
    const ALL: [WakeReason; 5] = [
        WakeReason::LoadDelta,
        WakeReason::ControllerPoll,
        WakeReason::JobArrival,
        WakeReason::JobCompletion,
        WakeReason::Lifecycle,
    ];

    /// This reason's bit in a wake mask.
    fn bit(self) -> u8 {
        1 << self as u8
    }

    /// The reason's name as recorded in traces.
    fn name(self) -> &'static str {
        match self {
            WakeReason::LoadDelta => "load-delta",
            WakeReason::ControllerPoll => "controller-poll",
            WakeReason::JobArrival => "job-arrival",
            WakeReason::JobCompletion => "job-completion",
            WakeReason::Lifecycle => "lifecycle",
        }
    }
}

/// What the power-cap phase changed this step.
pub(crate) struct CapOutcome {
    pub(crate) plan: CapPlan,
    /// Whether the fleet BE-admission throttle flipped to `plan.throttle_be`.
    pub(crate) throttle_flipped: bool,
    /// Leaves whose RAPL cap changed, ascending by id, with the new cap.
    pub(crate) changed: Vec<(ServerId, Option<f64>)>,
}

/// A placement as the store saw it right after the job landed.
pub(crate) struct Placement {
    pub(crate) server: ServerId,
    pub(crate) slack: f64,
    pub(crate) residents: usize,
}

/// A job and where it was placed (`None`: it stays queued).
pub(crate) type Dispatched = (JobId, Option<Placement>);

/// A completion, or a preemption with the server's disabled streak right
/// after the release (zero once its last resident left).
pub(crate) struct Settled {
    pub(crate) job: JobId,
    pub(crate) server: ServerId,
    pub(crate) preempted_streak: Option<usize>,
}

/// Everything one fleet step decided, phase by phase.
pub(crate) struct StepView {
    pub(crate) step: usize,
    /// In-service leaves, ascending by id (`leaves` aligns).
    pub(crate) in_service: Vec<ServerId>,
    pub(crate) cap: Option<CapOutcome>,
    pub(crate) routing: RoutingStep,
    /// Every dispatch decision, in order.
    pub(crate) dispatched: Vec<Dispatched>,
    pub(crate) leaves: Vec<LeafAdvance>,
    /// Completions and preemptions in the order they happened.
    pub(crate) settled: Vec<Settled>,
    pub(crate) recorded: FleetStep,
}

/// The simulator state observers read, borrowed shared.
pub(crate) struct Observed<'a> {
    pub(crate) config: &'a FleetConfig,
    pub(crate) store: &'a PlacementStore,
    pub(crate) queue: &'a JobQueue,
    pub(crate) policy: &'a dyn PlacementPolicy,
}

/// Charges every in-service leaf's step energy to the meter's ledgers.
pub(crate) fn meter_step(meter: &mut EnergyMeter, sim: &Observed, view: &StepView) {
    let price = sim.config.energy_price_at(view.recorded.time);
    for (&id, leaf) in view.in_service.iter().zip(&view.leaves) {
        let entry = sim.store.server(id);
        let joules = leaf.energy_j * sim.config.time_compression;
        meter.observe_leaf(
            id as u64,
            entry.service.name(),
            Generation::all()[entry.generation].name(),
            joules,
            joules_to_dollars(joules, price, FACILITY_PUE),
        );
    }
}

/// A leaf controller's decision at `time` as its `core` trace line.
fn decision_trace(time: SimTime, decision: Decision) -> TraceEvent {
    match decision {
        Decision::TopLevel { from, to, growth_allowed, slack, load } => {
            TraceEvent::new(time, "core", "top_level")
                .str("from", from.name())
                .str("to", to.name())
                .bool("growth_allowed", growth_allowed)
                .f64("slack", slack)
                .f64("load", load)
        }
        Decision::CoreMem { be_cores, cores_delta, be_ways, ways_delta, phase, slack } => {
            TraceEvent::new(time, "core", "core_mem")
                .i64("be_cores", be_cores as i64)
                .i64("cores_delta", cores_delta)
                .i64("be_ways", be_ways as i64)
                .i64("ways_delta", ways_delta)
                .str("phase", phase.name())
                .f64("slack", slack)
        }
        Decision::Power { freq_cap_ghz, package_power_w } => TraceEvent::new(time, "core", "power")
            .f64("freq_cap_ghz", freq_cap_ghz.unwrap_or(0.0))
            .bool("capped", freq_cap_ghz.is_some())
            .f64("package_power_w", package_power_w),
        Decision::Network { net_ceil_gbps, nic_lc_gbps } => {
            TraceEvent::new(time, "core", "network")
                .f64("net_ceil_gbps", net_ceil_gbps.unwrap_or(0.0))
                .bool("shaped", net_ceil_gbps.is_some())
                .f64("nic_lc_gbps", nic_lc_gbps)
        }
    }
}

/// A structured snapshot of a server's admission state: the verdict plus
/// every input that feeds it (controller permission, slack, load, slots,
/// lifecycle, streak), so a trace reader can see *why* the verdict
/// flipped, not just that it did.
fn admission_trace(entry: &ServerEntry, now: SimTime) -> TraceEvent {
    TraceEvent::new(now, "store", "admission")
        .u64("server", entry.id as u64)
        .str("service", entry.service.name())
        .u64("generation", entry.generation as u64)
        .bool("admits", entry.admits_be())
        .bool("be_admitted", entry.be_admitted)
        .str(
            "state",
            match entry.state {
                ServerState::Active => "active",
                ServerState::Draining => "draining",
                ServerState::Retired => "retired",
            },
        )
        .f64("slack", entry.slack)
        .f64("load", entry.lc_load)
        .u64("free_slots", entry.free_slots() as u64)
        .u64("disabled_streak", entry.disabled_streak as u64)
}

/// The telemetry bundle plus the fleet's own tracing state.
#[derive(Debug)]
pub(crate) struct Tracer {
    pub(crate) telemetry: Telemetry,
    /// Admission verdicts after the previous step; only flips are traced.
    /// A leaf commissioned since counts as admitting (its cold start).
    admission_baseline: Vec<bool>,
    /// Each server's routed load last step (empty before the first step;
    /// a server commissioned since has none).
    prev_loads: Vec<f64>,
    /// Per-server [`WakeReason`] bits raised for the next step's advance:
    /// the previous step's settled jobs and the scale actions since.
    pending_wakes: Vec<u8>,
}

impl Tracer {
    /// The tracer for `config` over the store's initial servers, or `None`
    /// when telemetry is off.
    pub(crate) fn new(config: TelemetryConfig, store: &PlacementStore) -> Option<Tracer> {
        Telemetry::new(config).map(|telemetry| Tracer {
            telemetry,
            admission_baseline: store.admission_verdicts(),
            prev_loads: Vec::new(),
            pending_wakes: Vec::new(),
        })
    }

    /// Records `reason` for leaf `id`'s next advance.  Wakes are
    /// conservative attribution, not the correctness gate — each runner's
    /// own window-input comparison decides whether it may fast-forward.
    pub(crate) fn wake(&mut self, id: ServerId, reason: WakeReason) {
        if self.pending_wakes.len() <= id {
            self.pending_wakes.resize(id + 1, 0);
        }
        self.pending_wakes[id] |= reason.bit();
    }

    /// Each server's wake mask for this step's advance: the pending bits
    /// plus this step's cap changes, routed-load changes (exact bits, no
    /// epsilon) and placements.  This step's settled jobs become the
    /// pending bits of the next, since a released job re-attaches its
    /// leaf's BE after the advance.
    fn take_wake_mask(&mut self, view: &StepView) -> Vec<u8> {
        let mut mask = std::mem::take(&mut self.pending_wakes);
        mask.resize(view.routing.loads.len(), 0);
        let mut raise = |id: ServerId, reason: WakeReason| mask[id] |= reason.bit();
        for &(id, _) in view.cap.iter().flat_map(|cap| &cap.changed) {
            raise(id, WakeReason::Lifecycle);
        }
        for &id in &view.in_service {
            let load = view.routing.loads[id].to_bits();
            if self.prev_loads.get(id).map(|l| l.to_bits()) != Some(load) {
                raise(id, WakeReason::LoadDelta);
            }
        }
        for p in view.dispatched.iter().filter_map(|(_, placed)| placed.as_ref()) {
            raise(p.server, WakeReason::JobArrival);
        }
        for s in &view.settled {
            self.wake(s.server, WakeReason::JobCompletion);
        }
        mask
    }

    /// The route's trace lines: per routed service (catalog order) its
    /// diverted leaves and its `route` summary, then the conservation
    /// audit.  A service's pool is its in-service leaves, fixed within a
    /// step.
    fn traffic_events(sim: &Observed, view: &StepView, now: SimTime) -> Vec<TraceEvent> {
        let routing = &view.routing;
        let mut events = Vec::new();
        for service in LcKind::all() {
            let si = service.index();
            let leaves = view.recorded.in_service_by_service[si];
            if leaves == 0 {
                continue;
            }
            let (mut shed, mut absorbed) = (0u64, 0u64);
            for d in routing.diverts.iter().filter(|d| d.service == service) {
                let verdict = routing.verdicts[d.server];
                match verdict {
                    "shed" => shed += 1,
                    _ => absorbed += 1,
                }
                events.push(
                    TraceEvent::new(now, "traffic", "divert")
                        .u64("server", d.server as u64)
                        .str("service", service.name())
                        .str("verdict", verdict)
                        .f64("base_qps", d.base_qps)
                        .f64("routed_qps", d.routed_qps)
                        .f64("slack", d.slack),
                );
            }
            events.push(
                TraceEvent::new(now, "traffic", "route")
                    .str("service", service.name())
                    .str("balancer", sim.config.balancer.name())
                    .f64("offered_qps", routing.offered_qps[si])
                    .f64("routed_qps", routing.routed_qps[si])
                    .u64("leaves", leaves as u64)
                    .u64("shed", shed)
                    .u64("absorbed", absorbed),
            );
        }
        events.push(
            TraceEvent::new(now, "traffic", "conservation")
                .f64("max_imbalance", routing.max_imbalance()),
        );
        events
    }

    /// Renders the step's decision events, metrics and health signals.
    /// Events are committed once, stably sorted by sim time (leaf
    /// decisions carry mid-step window times); ties keep the phases' order.
    pub(crate) fn observe(&mut self, sim: &Observed, view: StepView) {
        let now = view.recorded.time;
        let woken = view.leaves.iter().filter(|l| l.full_windows > 0).count() as u64;
        let quiescent = view.leaves.len() as u64 - woken;
        let event_core = sim.config.sim_core == SimCore::EventDriven;
        let wakes = self.take_wake_mask(&view);
        let Telemetry { recorder, metrics, health } = &mut self.telemetry;
        let mut events: Vec<TraceEvent> = Vec::new();
        if let Some(cap) = &view.cap {
            if cap.throttle_flipped {
                events.push(
                    TraceEvent::new(now, "energy", "be_throttle")
                        .bool("throttled", cap.plan.throttle_be)
                        .f64("budget_w", cap.plan.budget_w)
                        .f64("total_tdp_w", cap.plan.total_tdp_w),
                );
            }
            for &(id, cap_w) in &cap.changed {
                events.push(
                    TraceEvent::new(now, "energy", "cap")
                        .u64("server", id as u64)
                        .bool("capped", cap_w.is_some())
                        .f64("cap_w", cap_w.unwrap_or(0.0))
                        .f64("budget_w", cap.plan.budget_w),
                );
            }
        }
        events.extend(Self::traffic_events(sim, &view, now));
        if let Some(h) = health.as_mut() {
            let shed = view.routing.verdicts.iter().filter(|&&v| v == "shed").count();
            let leaves = view.in_service.len().max(1) as f64;
            h.observe_signal(AlertKind::DivertStorm, shed as f64 / leaves);
        }
        for (job, placed) in &view.dispatched {
            let Some(p) = placed else {
                metrics.inc("fleet.jobs_unplaced");
                events.push(TraceEvent::new(now, "fleet", "unplaced").u64("job", *job as u64));
                continue;
            };
            metrics.inc("fleet.jobs_placed");
            let entry = sim.store.server(p.server);
            events.push(
                TraceEvent::new(now, "fleet", "place")
                    .u64("job", *job as u64)
                    .u64("server", p.server as u64)
                    .str("service", entry.service.name())
                    .u64("generation", entry.generation as u64)
                    .f64("load", entry.lc_load)
                    .f64("slack", p.slack)
                    .u64("residents", p.residents as u64),
            );
        }
        if !view.dispatched.is_empty() {
            let placed = view.dispatched.iter().filter(|(_, p)| p.is_some()).count();
            events.push(
                TraceEvent::new(now, "fleet", "dispatch_round")
                    .u64("jobs", view.dispatched.len() as u64)
                    .u64("placed", placed as u64)
                    .u64("unplaced", (view.dispatched.len() - placed) as u64)
                    .u64("plan_candidates", sim.policy.round_candidates() as u64),
            );
        }
        // Leaf controller decisions, annotated with their server id, in
        // ascending id order, not worker scheduling.
        for (&id, leaf) in view.in_service.iter().zip(&view.leaves) {
            for &(time, decision) in &leaf.decisions {
                events.push(decision_trace(time, decision).u64("server", id as u64));
            }
        }
        if event_core {
            for (&id, leaf) in view.in_service.iter().zip(&view.leaves) {
                if leaf.full_windows == 0 {
                    continue;
                }
                // A full window with no recorded cause is labelled a
                // controller poll: the leaf's own inputs moved.
                let mask = match wakes[id] {
                    0 => WakeReason::ControllerPoll.bit(),
                    mask => mask,
                };
                let names: Vec<&'static str> = WakeReason::ALL
                    .iter()
                    .filter(|r| mask & r.bit() != 0)
                    .map(|r| r.name())
                    .collect();
                events.push(
                    TraceEvent::new(now, "fleet", "wake")
                        .u64("server", id as u64)
                        .str("reasons", &names.join("+"))
                        .u64("full_windows", leaf.full_windows)
                        .u64("fast_windows", leaf.fast_windows),
                );
            }
            metrics.add("fleet.woken_leaf_steps", woken);
            metrics.add("fleet.quiescent_leaf_steps", quiescent);
            if let Some(h) = health.as_mut() {
                h.observe_signal(
                    AlertKind::WakeStorm,
                    woken as f64 / (woken + quiescent).max(1) as f64,
                );
            }
        }
        for s in &view.settled {
            let Some(streak) = s.preempted_streak else {
                metrics.inc("fleet.jobs_completed");
                let event = TraceEvent::new(now, "fleet", "complete").u64("job", s.job as u64);
                events.push(event.u64("server", s.server as u64));
                continue;
            };
            metrics.inc("fleet.jobs_preempted");
            let event = TraceEvent::new(now, "fleet", "preempt").u64("job", s.job as u64);
            events.push(event.u64("server", s.server as u64).u64("disabled_streak", streak as u64));
        }
        let mut gen_energy_j = [0.0f64; 3];
        for (&id, leaf) in view.in_service.iter().zip(&view.leaves) {
            let entry = sim.store.server(id);
            let load = view.routing.loads[id];
            gen_energy_j[entry.generation] += leaf.energy_j * sim.config.time_compression;
            if let Some(h) = health.as_mut() {
                h.observe_cell(
                    entry.service.index() as u8,
                    entry.generation as u8,
                    leaf.worst_normalized_latency,
                    leaf.mean_normalized_latency,
                    load,
                );
                h.observe_leaf(id as u32, leaf.worst_normalized_latency, leaf.full_windows as f64);
            }
            metrics.observe("fleet.normalized_latency", leaf.worst_normalized_latency);
            if leaf.worst_normalized_latency > 1.0 {
                // The attribution record the trace report aggregates: every
                // violating server-step names its (service, generation,
                // balancer decision) cause cell.
                events.push(
                    TraceEvent::new(now, "fleet", "violation")
                        .u64("server", id as u64)
                        .str("service", entry.service.name())
                        .u64("generation", entry.generation as u64)
                        .str("balancer", view.routing.verdicts[id])
                        .f64("normalized_latency", leaf.worst_normalized_latency)
                        .f64("load", load)
                        .u64("residents", entry.resident.len() as u64),
                );
            }
        }
        let verdicts = sim.store.admission_verdicts();
        for (id, &verdict) in verdicts.iter().enumerate() {
            if self.admission_baseline.get(id).copied().unwrap_or(true) != verdict {
                events.push(admission_trace(sim.store.server(id), now));
                metrics.inc("fleet.admission_flips");
            }
        }
        self.admission_baseline = verdicts;
        let recorded = &view.recorded;
        if let Some(h) = health.as_mut() {
            // SLO burn: the fraction of in-service leaves violating.
            h.observe_signal(AlertKind::SloBurn, recorded.violating_server_fraction);
            // Queue censorship: pending jobs that have waited beyond the
            // horizon (8 steps) — work the dispatcher keeps skipping.
            let (queue, pending) = (sim.queue, sim.queue.pending_len());
            if pending > 0 {
                let horizon = sim.config.step_duration() * 8;
                let censored =
                    queue.pending_ids().filter(|&j| now > queue.job(j).arrival + horizon).count();
                h.observe_signal(AlertKind::QueueCensorship, censored as f64 / pending as f64);
            }
            // Per-service attainment, so a report can draw the curve
            // without re-aggregating (possibly dropped) violation events.
            for (si, &leaves) in recorded.in_service_by_service.iter().enumerate() {
                if leaves == 0 {
                    continue;
                }
                let violating = recorded.violating_by_service[si];
                events.push(
                    TraceEvent::new(now, "health", "attainment")
                        .str("service", LcKind::all()[si].name())
                        .u64("leaves", leaves as u64)
                        .u64("violating", violating as u64)
                        .f64("attainment", 1.0 - violating as f64 / leaves as f64),
                );
            }
            let alerts = h.step(now);
            for event in &alerts {
                match event.kind() {
                    "firing" => metrics.inc("health.alerts_fired"),
                    "resolved" => metrics.inc("health.alerts_resolved"),
                    _ => {}
                }
            }
            events.extend(alerts);
        }
        let step_s = sim.config.represented_step_s();
        let mut step_event = TraceEvent::new(now, "fleet", "step")
            .u64("step", view.step as u64)
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
            // Trace timestamps tick raw simulation seconds, so a
            // time-compressed run needs the represented duration to
            // integrate watts back into joules (the doctor's check).
            .f64("step_represented_s", step_s);
        if event_core {
            step_event = step_event.u64("woken", woken).u64("quiescent", quiescent);
        }
        events.push(step_event);
        metrics.add("fleet.violation_server_steps", recorded.violating_servers as u64);
        metrics.set_gauge("fleet.queue_depth", recorded.queued_jobs as f64);
        metrics.set_gauge("fleet.running_jobs", recorded.running_jobs as f64);
        metrics.set_gauge("fleet.in_service_servers", recorded.in_service_servers as f64);
        metrics.observe("fleet.step_tco_dollars", recorded.tco_dollars);
        metrics.set_gauge("fleet.peak_power_w", recorded.peak_power_w);
        metrics.set_gauge("fleet.mean_power_w", recorded.energy_joules / step_s);
        metrics.observe("fleet.step_energy_joules", recorded.energy_joules);
        events.sort_by_key(|e| e.time());
        recorder.extend(events);
        self.prev_loads = view.routing.loads;
    }
}
