//! The fleet step's observers — decision tracing, the health plane and the
//! energy meter — reading the step's [`StepView`] and shared borrows of the
//! simulator.  Values that exist only at decision time (a placement's
//! slack, a preemption's streak, drained leaf and plane events) are
//! recorded in the view unconditionally; the drains are empty untraced.

use heracles_cluster::FACILITY_PUE;
use heracles_colo::LeafAdvance;
use heracles_energy::{joules_to_dollars, CapPlan, EnergyMeter};
use heracles_sim::SimDuration;
use heracles_telemetry::{AlertKind, Telemetry, TelemetryConfig, TraceEvent};
use heracles_workloads::LcKind;

use crate::fleet::{FleetConfig, SimCore, WakeReason};
use crate::generation::Generation;
use crate::job::{JobId, JobQueue};
use crate::metrics::FleetStep;
use crate::policy::PlacementPolicy;
use crate::store::{PlacementStore, ServerId};
use crate::traffic::{RoutingStep, TrafficPlane};

/// What the power-cap phase changed this step.
pub(crate) struct CapOutcome {
    pub plan: CapPlan,
    /// Whether the fleet BE-admission throttle flipped to `plan.throttle_be`.
    pub throttle_flipped: bool,
    /// Leaves whose RAPL cap changed, ascending by id, with the new cap.
    pub changed: Vec<(ServerId, Option<f64>)>,
}

/// A placement as the store saw it right after the job landed.
pub(crate) struct Placement {
    pub server: ServerId,
    pub slack: f64,
    pub residents: usize,
}

/// A job and where it was placed (`None`: it stays queued).
pub(crate) type Dispatched = (JobId, Option<Placement>);

/// A completion, or a preemption with the server's disabled streak right
/// after the release (zero once its last resident left).
pub(crate) struct Settled {
    pub job: JobId,
    pub server: ServerId,
    pub preempted_streak: Option<usize>,
}

/// A leaf's clock offset from the fleet's, and its drained events.
pub(crate) type LeafEvents = (SimDuration, Vec<TraceEvent>);

/// Everything one fleet step decided, phase by phase.
pub(crate) struct StepView {
    pub step: usize,
    /// In-service leaves, ascending by id (`leaves` and `leaf_events` align).
    pub in_service: Vec<ServerId>,
    pub cap: Option<CapOutcome>,
    pub routing: RoutingStep,
    pub plane_events: Vec<TraceEvent>,
    /// Every dispatch decision, in order.
    pub dispatched: Vec<Dispatched>,
    pub leaves: Vec<LeafAdvance>,
    pub leaf_events: Vec<LeafEvents>,
    /// Per-server [`WakeReason`] bits raised before this step's advance
    /// (read under the event core only).
    pub wake_reasons: Vec<u8>,
    /// Completions and preemptions in the order they happened.
    pub settled: Vec<Settled>,
    pub recorded: FleetStep,
}

/// The simulator state observers read, borrowed shared.
pub(crate) struct Observed<'a> {
    pub config: &'a FleetConfig,
    pub store: &'a PlacementStore,
    pub queue: &'a JobQueue,
    pub plane: &'a TrafficPlane,
    pub policy: &'a dyn PlacementPolicy,
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

/// The telemetry bundle plus the fleet's own tracing state.
#[derive(Debug)]
pub(crate) struct Tracer {
    pub telemetry: Telemetry,
    /// Admission verdicts after the previous step; only flips are traced.
    /// A leaf commissioned since counts as admitting (its cold start).
    admission_baseline: Vec<bool>,
}

impl Tracer {
    /// The tracer for `config` over the store's initial servers, or `None`
    /// when telemetry is off.
    pub fn new(config: TelemetryConfig, store: &PlacementStore) -> Option<Tracer> {
        Telemetry::new(config)
            .map(|telemetry| Tracer { telemetry, admission_baseline: store.admission_verdicts() })
    }

    /// Renders the step's decision events, metrics and health signals.
    /// Events are committed once, stably sorted by sim time (leaf events
    /// carry mid-step window times); ties keep the phases' order.
    pub fn observe(&mut self, sim: &Observed, view: StepView) {
        let now = view.recorded.time;
        let woken = view.leaves.iter().filter(|l| l.full_windows > 0).count() as u64;
        let quiescent = view.leaves.len() as u64 - woken;
        let Telemetry { recorder, metrics, health } = &mut self.telemetry;
        let event_core = sim.config.sim_core == SimCore::EventDriven;
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
        events.extend(view.plane_events);
        if let Some(h) = health.as_mut() {
            let (shed, _) = sim.plane.divert_counts();
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
            let mut event = TraceEvent::new(now, "fleet", "dispatch_round")
                .u64("jobs", view.dispatched.len() as u64)
                .u64("placed", placed as u64)
                .u64("unplaced", (view.dispatched.len() - placed) as u64);
            if let Some(candidates) = sim.policy.round_candidates() {
                event = event.u64("plan_candidates", candidates as u64);
            }
            events.push(event);
        }
        // Leaf controller events, annotated with their server id, in
        // ascending id order — drain order, not worker scheduling.
        for (&id, (epoch, leaf_events)) in view.in_service.iter().zip(view.leaf_events) {
            for event in leaf_events {
                events.push(event.shifted(epoch).u64("server", id as u64));
            }
        }
        if event_core {
            for (&id, leaf) in view.in_service.iter().zip(&view.leaves) {
                if leaf.full_windows == 0 {
                    continue;
                }
                // A full window with no recorded cause is labelled a
                // controller poll: the leaf's own inputs moved.
                let mask = match view.wake_reasons[id] {
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
                        .str("balancer", sim.plane.decision(id))
                        .f64("normalized_latency", leaf.worst_normalized_latency)
                        .f64("load", load)
                        .u64("residents", entry.resident.len() as u64),
                );
            }
        }
        let verdicts = sim.store.admission_verdicts();
        for (id, &verdict) in verdicts.iter().enumerate() {
            if self.admission_baseline.get(id).copied().unwrap_or(true) != verdict {
                events.push(sim.store.server(id).admission_trace(now));
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
    }
}
