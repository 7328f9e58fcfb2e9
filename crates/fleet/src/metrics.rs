//! Fleet-level results: per-step records, the job ledger and the scheduler's
//! event log, with the aggregates the policy sweeps compare.

use heracles_cluster::TcoModel;
use heracles_colo::LeafAdvance;
use heracles_sim::CsvRow;
use heracles_sim::{LatencyRecorder, SimTime};
use heracles_workloads::{LcKind, NUM_SERVICES};

use crate::job::{BeJob, JobId};
use crate::store::{ServerId, REFERENCE_CORES};

/// The mean of per-server `values` weighted by each server's core count.
///
/// This is how a heterogeneous fleet aggregates utilization: a 48-core box
/// at 80% EMU contributes three times the machine time of a 16-core box at
/// the same fraction, so weighting by cores (rather than counting servers)
/// keeps fleet EMU meaning "fraction of the fleet's compute doing useful
/// work".  The result is invariant under duplicating every server, and
/// reduces to the plain mean on a uniform fleet.  Returns 0.0 for empty
/// input.
///
/// # Panics
///
/// Panics if the two slices differ in length.
pub fn core_weighted_mean(values: &[f64], cores: &[usize]) -> f64 {
    assert_eq!(values.len(), cores.len(), "one value per server");
    let total: usize = cores.iter().sum();
    if total == 0 {
        return 0.0;
    }
    values.iter().zip(cores).map(|(v, &c)| v * c as f64).sum::<f64>() / total as f64
}

/// Seconds in one amortization year (the unit the TCO model's annual costs
/// are spread over when charging per simulated step).
pub(crate) const SECONDS_PER_YEAR: f64 = 365.25 * 24.0 * 3600.0;

/// Fraction of a server's cost that does not scale with its core count (the
/// chassis, NIC, motherboard, rack share).  The rest scales linearly with
/// cores relative to the reference generation, so a 48-core Skylake box
/// costs more than a 16-core Sandy Bridge one — but less than 3× more,
/// which is what makes "which generation should scale-out buy" a real
/// marginal-throughput-per-dollar question instead of a wash.
pub(crate) const PLATFORM_COST_FLOOR: f64 = 0.5;

/// Amortized TCO of one server for one simulated step of `step_s` seconds,
/// in dollars: the annual capex (server plus infrastructure) and the energy
/// bill at the step's utilization, both scaled to the server's core count
/// (see `PLATFORM_COST_FLOOR`) and prorated to the step.
///
/// This is the per-step cost series an elastic fleet sums: a retired server
/// stops contributing from the step it leaves, which is exactly the saving
/// an autoscaler is buying when it drains a box.
pub fn server_step_tco_dollars(tco: &TcoModel, cores: usize, utilization: f64, step_s: f64) -> f64 {
    let ratio = cores as f64 / REFERENCE_CORES as f64;
    let scale = PLATFORM_COST_FLOOR + (1.0 - PLATFORM_COST_FLOOR) * ratio;
    let annual = (tco.annual_capex_per_server()
        + tco.annual_energy_per_server(utilization.clamp(0.0, 1.0)))
        * scale;
    annual * step_s / SECONDS_PER_YEAR
}

/// How much server-plane work a run performed versus skipped: per step,
/// which leaves woke and how many measurement windows ran in full or took
/// the steady-state fast path.
///
/// These counts deliberately live outside [`FleetStep`] and
/// [`FleetResult`]: those are compared bit-for-bit between the `Stepped`
/// and `EventDriven` cores, and the (intentionally core-dependent) wake
/// counts must never break that comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServerPlaneCounts {
    /// Steps counted so far.
    pub steps: usize,
    /// Leaf-steps where the leaf ran at least one full simulation window
    /// (the leaf was effectively awake this step).
    pub(crate) woken_leaf_steps: u64,
    /// Leaf-steps fully satisfied by the steady-state fast path.
    pub quiescent_leaf_steps: u64,
    /// Measurement windows that ran the full simulation path.
    pub full_windows: u64,
    /// Measurement windows satisfied by the steady-state fast path.
    pub fast_windows: u64,
}

impl ServerPlaneCounts {
    /// Counts one step's per-leaf path split.
    pub(crate) fn record_step(&mut self, leaves: &[LeafAdvance]) {
        let woken = leaves.iter().filter(|l| l.full_windows > 0).count() as u64;
        self.steps += 1;
        self.woken_leaf_steps += woken;
        self.quiescent_leaf_steps += leaves.len() as u64 - woken;
        self.full_windows += leaves.iter().map(|l| l.full_windows).sum::<u64>();
        self.fast_windows += leaves.iter().map(|l| l.fast_windows).sum::<u64>();
    }

    /// Mean number of woken leaves per step (0.0 before any step ran).
    pub fn woken_per_step(&self) -> f64 {
        if self.steps == 0 {
            return 0.0;
        }
        self.woken_leaf_steps as f64 / self.steps as f64
    }
}

/// One step of a fleet run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FleetStep {
    /// Simulated time at the end of the step.
    pub time: SimTime,
    /// Core-weighted mean LC load across the in-service fleet during the
    /// step.
    pub mean_load: f64,
    /// Core-weighted mean Effective Machine Utilization across in-service
    /// servers (last window): the fraction of the fleet's *compute*, not of
    /// its server count, doing useful work.
    pub fleet_emu: f64,
    /// Worst SLO-normalized tail latency across all servers and windows.
    pub worst_normalized_latency: f64,
    /// Fraction of in-service servers that violated their SLO in some
    /// window this step.
    pub violating_server_fraction: f64,
    /// Number of in-service servers that violated their SLO in some window
    /// this step (the absolute count behind the fraction — what an
    /// autoscaler comparison sums into violation server-steps).
    pub violating_servers: usize,
    /// Servers in service (active or draining) during the step — the
    /// time-varying fleet size an autoscaler modulates.
    pub in_service_servers: usize,
    /// Total cores in service during the step.
    pub in_service_cores: usize,
    /// In-service servers per hardware generation (older, Haswell, newer).
    pub in_service_by_generation: [usize; 3],
    /// In-service leaves per LC service, indexed by [`LcKind::index`]
    /// (websearch, ml_cluster, memkeyval).
    pub in_service_by_service: [usize; NUM_SERVICES],
    /// QPS each service's catalog offered this step, indexed by
    /// [`LcKind::index`] — the demand side of the conservation audit.
    pub offered_qps: [f64; NUM_SERVICES],
    /// QPS the traffic plane actually routed onto each service's leaves
    /// this step.  Equal to `offered_qps` (to floating-point tolerance)
    /// whenever the service has an in-service leaf: demand is conserved,
    /// it never silently evaporates with a retired server.
    pub routed_qps: [f64; NUM_SERVICES],
    /// Core-weighted mean routed load fraction per service's leaf pool.
    /// Can exceed 1.0 on a pool scale-in has shrunk below its demand.
    pub service_load: [f64; NUM_SERVICES],
    /// In-service leaves of each service that violated their SLO in some
    /// window this step — which service's latency paid for a scheduling or
    /// scale decision.
    pub violating_by_service: [usize; NUM_SERVICES],
    /// Jobs live-migrated between servers during this step's scheduling
    /// round (scale-in drains).
    pub migrations: usize,
    /// Amortized TCO of the step across in-service servers, in dollars
    /// (capex prorated per step plus energy at each server's utilization).
    pub tco_dollars: f64,
    /// Package energy the in-service fleet drew during the step, in joules
    /// of represented time (per-window watts integrated over every leaf's
    /// measurement windows, scaled by the run's time compression).  Always
    /// populated — the column is a pure function of the simulation records,
    /// so the metering knob cannot perturb it.
    pub energy_joules: f64,
    /// The step's metered energy priced through the time-of-day schedule
    /// and grossed up by PUE, in dollars.  Kept separate from
    /// [`tco_dollars`](Self::tco_dollars) (whose energy term uses the TCO
    /// model's flat annual rate) so the two accountings never double-count.
    pub energy_dollars: f64,
    /// Conservative peak fleet draw during the step, in watts: the sum over
    /// leaves of each leaf's maximum per-window package power.  An upper
    /// bound on the true instantaneous fleet draw, so a power-capped run
    /// proves budget compliance by keeping even this bound under budget.
    pub peak_power_w: f64,
    /// Jobs waiting in the queue at the end of the step.
    pub queued_jobs: usize,
    /// Jobs resident on servers at the end of the step.
    pub running_jobs: usize,
    /// Jobs completed so far (cumulative).
    pub completed_jobs: usize,
    /// BE progress served during the step, in core·seconds.
    pub be_progress_core_s: f64,
}

/// What happened to a job at a scheduling decision point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FleetEventKind {
    /// The job was placed on a server.
    Placed,
    /// The job was preempted (its server's controller kept BE disabled) and
    /// requeued.
    Preempted,
    /// The job was live-migrated onto this server (the event's `server` is
    /// the destination), keeping its remaining demand and paying the
    /// migration cost in core·seconds.
    Migrated,
    /// The job served its whole demand.
    Completed,
}

/// One entry of the scheduler's event log.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FleetEvent {
    /// Step index (0-based) the event happened in.
    pub step: usize,
    /// The job involved.
    pub job: JobId,
    /// The server involved.
    pub server: ServerId,
    /// What happened.
    pub kind: FleetEventKind,
}

/// The result of one fleet run under one placement policy.
///
/// It grows with the run: `steps` and `events` are O(steps), `jobs` is
/// O(jobs).  Nothing here is kept per leaf window, and each leaf's own
/// state is bounded (see [`ColoRunner`](heracles_colo::ColoRunner)).
#[derive(Debug, Clone, PartialEq)]
pub struct FleetResult {
    /// The placement policy that produced this result.
    pub policy: String,
    /// Physical core count of each server, indexed by server id (the
    /// capacity weights behind the fleet-level EMU and TCO numbers).
    /// Includes servers purchased mid-run and servers retired before the
    /// end — ids are dense and stable for the whole run.
    pub server_cores: Vec<usize>,
    /// Hardware generation index of each server, indexed by server id (the
    /// per-server generation record autoscale traces plot against).
    pub(crate) server_generations: Vec<usize>,
    /// LC service index ([`LcKind::index`]) of each server, indexed by
    /// server id — the service axis of the (generation × service) cell the
    /// placement store tracked for each leaf.
    pub server_services: Vec<usize>,
    /// Per-step records: one fixed-size entry per step, O(steps).
    pub steps: Vec<FleetStep>,
    /// Every job the arrival stream produced (completed or not), O(jobs).
    pub jobs: Vec<BeJob>,
    /// The full placement/preemption/completion log, in order: the events
    /// each step produced, O(steps) at a steady job rate.
    pub events: Vec<FleetEvent>,
}

/// Queueing-delay accounting that does not hide jobs still queued at the
/// end of the run.
///
/// Averaging only jobs that started is survivorship bias: an overloaded
/// configuration strands its worst-waiting jobs in the queue and then
/// reports a *flattering* mean.  The censored count and accrued wait make
/// the stranded tail visible.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QueueingDelaySummary {
    /// Jobs that started before the run ended.
    pub started: usize,
    /// Mean queueing delay of the started jobs, in seconds.
    pub mean_started_s: f64,
    /// Median queueing delay of the started jobs, in seconds (nearest
    /// rank).  A heavy-tailed wait distribution leaves the mean well above
    /// the typical job's experience; triggers tuned on the mean alone
    /// over-react to a few stragglers.
    pub(crate) p50_started_s: f64,
    /// 99th-percentile queueing delay of the started jobs, in seconds
    /// (nearest rank) — the tail an autoscaling trigger actually defends;
    /// the censoring-flattered mean hides exactly these jobs.
    pub p99_started_s: f64,
    /// Jobs still waiting (never started) when the run ended.
    pub censored: usize,
    /// Total wait the censored jobs had accrued by the end of the run, in
    /// seconds — a lower bound on their eventual delay.
    pub censored_accrued_wait_s: f64,
}

impl FleetResult {
    /// Mean fleet EMU over the run (0.0 for an empty run).
    pub fn mean_fleet_emu(&self) -> f64 {
        if self.steps.is_empty() {
            return 0.0;
        }
        self.steps.iter().map(|s| s.fleet_emu).sum::<f64>() / self.steps.len() as f64
    }

    /// Minimum fleet EMU over the run (0.0 for an empty run).
    pub fn min_fleet_emu(&self) -> f64 {
        if self.steps.is_empty() {
            return 0.0;
        }
        self.steps.iter().map(|s| s.fleet_emu).fold(f64::INFINITY, f64::min)
    }

    /// Mean LC load over the run — the utilization the fleet would have had
    /// with no colocation at all (0.0 for an empty run).
    pub fn mean_lc_load(&self) -> f64 {
        if self.steps.is_empty() {
            return 0.0;
        }
        self.steps.iter().map(|s| s.mean_load).sum::<f64>() / self.steps.len() as f64
    }

    /// Fraction of server-steps that violated the SLO (0.0 for an empty run).
    pub fn slo_violation_fraction(&self) -> f64 {
        if self.steps.is_empty() {
            return 0.0;
        }
        self.steps.iter().map(|s| s.violating_server_fraction).sum::<f64>()
            / self.steps.len() as f64
    }

    /// Number of jobs that ran to completion.
    pub fn jobs_completed(&self) -> usize {
        self.jobs.iter().filter(|j| j.completion.is_some()).count()
    }

    /// Total BE demand served over the run, in core·seconds (includes the
    /// partial progress of jobs still running at the end).
    pub fn be_core_s_served(&self) -> f64 {
        self.steps.iter().map(|s| s.be_progress_core_s).sum()
    }

    /// Full queueing-delay accounting: the mean over started jobs plus the
    /// count and accrued wait of jobs still queued (censored) when the run
    /// ended.  Builds a recorder of every started job's wait, O(jobs).
    pub fn queueing_delay(&self) -> QueueingDelaySummary {
        let end = self.steps.last().map(|s| s.time).unwrap_or(SimTime::ZERO);
        // Waits are durations, so the latency recorder's nearest-rank
        // quantiles apply as they are.
        let mut delays = LatencyRecorder::new();
        let mut censored = 0usize;
        let mut censored_total = 0.0;
        for job in &self.jobs {
            match job.queueing_delay_s() {
                Some(delay) => delays.record(delay),
                None => {
                    censored += 1;
                    censored_total += end.saturating_since(job.arrival).as_secs_f64();
                }
            }
        }
        // The mean sums the waits in job order, before a quantile reorders them.
        let mean_started_s = delays.mean();
        QueueingDelaySummary {
            started: delays.len(),
            mean_started_s,
            p50_started_s: delays.quantile(0.50),
            p99_started_s: delays.quantile(0.99),
            censored,
            censored_accrued_wait_s: censored_total,
        }
    }

    /// Total core capacity of the fleet.
    pub fn total_cores(&self) -> usize {
        self.server_cores.iter().sum()
    }

    /// Total preemptions across all jobs.
    pub fn preemptions(&self) -> usize {
        self.jobs.iter().map(|j| j.preemptions).sum()
    }

    /// Total live migrations across all jobs (scale-in drains).
    pub fn migrations(&self) -> usize {
        self.jobs.iter().map(|j| j.migrations).sum()
    }

    /// Total amortized TCO of the run across in-service server-steps, in
    /// dollars — the cost side of the autoscaled-vs-static comparison.
    pub fn total_tco_dollars(&self) -> f64 {
        self.steps.iter().map(|s| s.tco_dollars).sum()
    }

    /// Amortized TCO per BE core·second served, in dollars (infinite if the
    /// run served no BE work at all — a fleet that costs money and does
    /// nothing has unbounded cost per unit of work, not zero).
    pub fn tco_per_be_core_s(&self) -> f64 {
        let served = self.be_core_s_served();
        if served > 0.0 {
            self.total_tco_dollars() / served
        } else {
            f64::INFINITY
        }
    }

    /// Total package energy drawn over the run, in joules of represented
    /// time — the quantity the energy plane's conservation audit compares
    /// against the meter's fleet ledger.
    pub fn total_energy_joules(&self) -> f64 {
        self.steps.iter().map(|s| s.energy_joules).sum()
    }

    /// Total energy bill over the run at the configured time-of-day
    /// schedule and PUE, in dollars.
    pub fn total_energy_dollars(&self) -> f64 {
        self.steps.iter().map(|s| s.energy_dollars).sum()
    }

    /// The worst per-step peak fleet draw over the run, in watts — what a
    /// power-capped run compares against its budget (0.0 for an empty
    /// run).
    pub fn max_peak_power_w(&self) -> f64 {
        self.steps.iter().map(|s| s.peak_power_w).fold(0.0, f64::max)
    }

    /// Joules per BE core·second served (infinite if no BE work ran) — the
    /// energy-efficiency figure the energy-aware autoscale comparison
    /// minimizes, mirroring [`tco_per_be_core_s`](Self::tco_per_be_core_s).
    pub fn joules_per_be_core_s(&self) -> f64 {
        let served = self.be_core_s_served();
        if served > 0.0 {
            self.total_energy_joules() / served
        } else {
            f64::INFINITY
        }
    }

    /// Mean number of in-service servers over the run (0.0 for an empty
    /// run) — the time-varying fleet size an autoscaler is judged on.
    pub fn mean_in_service_servers(&self) -> f64 {
        if self.steps.is_empty() {
            return 0.0;
        }
        self.steps.iter().map(|s| s.in_service_servers as f64).sum::<f64>()
            / self.steps.len() as f64
    }

    /// Total SLO-violation server-steps over the run: each step contributes
    /// the number of in-service servers that violated in some window.  The
    /// absolute count (not the fraction) is what compares elastic fleets of
    /// different sizes fairly.
    pub fn violation_server_steps(&self) -> usize {
        self.steps.iter().map(|s| s.violating_servers).sum()
    }

    /// SLO violation server-steps per LC service, indexed by
    /// [`LcKind::index`] — which service's latency paid over the run.
    pub fn violation_server_steps_by_service(&self) -> [usize; NUM_SERVICES] {
        let mut totals = [0usize; NUM_SERVICES];
        for step in &self.steps {
            for (total, v) in totals.iter_mut().zip(&step.violating_by_service) {
                *total += v;
            }
        }
        totals
    }

    /// The worst routed-vs-offered imbalance (relative to the offered
    /// volume) across every service and step — the run-level conservation
    /// audit, zero up to floating point on a healthy run.
    pub fn max_routing_imbalance(&self) -> f64 {
        self.steps
            .iter()
            .flat_map(|s| {
                s.offered_qps.iter().zip(&s.routed_qps).map(|(o, r)| (o - r).abs() / (1.0 + o))
            })
            .fold(0.0, f64::max)
    }

    /// Relative throughput/TCO improvement of this run over the same fleet
    /// without colocation, using the paper's TCO calculator: the no-colo
    /// fleet is utilized at the mean LC load, this run at the mean fleet
    /// EMU.
    pub fn tco_improvement(&self, tco: &TcoModel) -> f64 {
        if self.steps.is_empty() {
            return 0.0;
        }
        tco.throughput_per_tco_improvement(self.mean_lc_load(), self.mean_fleet_emu())
    }

    /// Renders the per-step records as a CSV document for plotting.  The
    /// fleet-size and per-generation columns make autoscale traces (how
    /// many servers of which generation were in service when) plottable
    /// without post-processing, the TCO column is the amortized cost
    /// series the autoscaled-vs-static comparison integrates, and the
    /// per-service offered/routed/load/violation columns make LC capacity
    /// conservation auditable from the export alone.
    pub fn to_csv(&self) -> String {
        let mut out = String::from(
            "time_s,mean_load,fleet_emu,worst_normalized_latency,violating_server_fraction,\
             violating_servers,in_service_servers,in_service_cores,servers_sandy_bridge,\
             servers_haswell,servers_skylake,migrations,tco_dollars,\
             energy_joules,energy_dollars,peak_power_w,\
             queued_jobs,running_jobs,completed_jobs,be_progress_core_s",
        );
        for kind in LcKind::all() {
            let name = kind.name();
            out.push_str(&format!(
                ",leaves_{name},offered_qps_{name},routed_qps_{name},load_{name},\
                 violating_{name}"
            ));
        }
        out.push('\n');
        for s in &self.steps {
            CsvRow::new(&mut out)
                .f64(s.time.as_secs_f64(), 6)
                .f64(s.mean_load, 4)
                .f64(s.fleet_emu, 4)
                .f64(s.worst_normalized_latency, 4)
                .f64(s.violating_server_fraction, 4)
                .int(s.violating_servers as u64)
                .int(s.in_service_servers as u64)
                .int(s.in_service_cores as u64)
                .int(s.in_service_by_generation[0] as u64)
                .int(s.in_service_by_generation[1] as u64)
                .int(s.in_service_by_generation[2] as u64)
                .int(s.migrations as u64)
                .f64(s.tco_dollars, 6)
                .f64(s.energy_joules, 3)
                .f64(s.energy_dollars, 8)
                .f64(s.peak_power_w, 3)
                .int(s.queued_jobs as u64)
                .int(s.running_jobs as u64)
                .int(s.completed_jobs as u64)
                .f64(s.be_progress_core_s, 3);
            for kind in LcKind::all() {
                let i = kind.index();
                CsvRow::resume(&mut out)
                    .int(s.in_service_by_service[i] as u64)
                    .f64(s.offered_qps[i], 1)
                    .f64(s.routed_qps[i], 1)
                    .f64(s.service_load[i], 4)
                    .int(s.violating_by_service[i] as u64);
            }
            out.push('\n');
        }
        out
    }

    /// Renders the job ledger as a CSV document, one row per job the stream
    /// produced — *including* jobs still queued when the run ended
    /// (`censored = 1`, empty start/completion columns, and their accrued
    /// wait in `queue_wait_s`), so the export carries the same censored-tail
    /// information as [`queueing_delay`](Self::queueing_delay).
    pub fn jobs_to_csv(&self) -> String {
        let end = self.steps.last().map(|s| s.time).unwrap_or(SimTime::ZERO);
        let mut out = String::from(
            "job,kind,demand_core_s,arrival_s,first_start_s,completion_s,queue_wait_s,\
             preemptions,migrations,migration_overhead_core_s,censored\n",
        );
        for job in &self.jobs {
            let censored = job.first_start.is_none();
            let wait = job
                .queueing_delay_s()
                .unwrap_or_else(|| end.saturating_since(job.arrival).as_secs_f64());
            CsvRow::new(&mut out)
                .int(job.id as u64)
                .str(job.workload.name())
                .f64(job.demand_core_s, 3)
                .f64(job.arrival.as_secs_f64(), 3)
                .opt_f64(job.first_start.map(|t| t.as_secs_f64()), 3)
                .opt_f64(job.completion.map(|t| t.as_secs_f64()), 3)
                .f64(wait, 3)
                .int(job.preemptions as u64)
                .int(job.migrations as u64)
                .f64(job.migration_overhead_core_s, 3)
                .bool01(censored)
                .end();
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use heracles_workloads::BeWorkload;

    fn step(emu: f64, load: f64, violating: f64, progress: f64) -> FleetStep {
        FleetStep {
            time: SimTime::from_secs(1),
            mean_load: load,
            fleet_emu: emu,
            worst_normalized_latency: 0.8,
            violating_server_fraction: violating,
            violating_servers: (violating * 4.0).round() as usize,
            in_service_servers: 4,
            in_service_cores: 144,
            in_service_by_generation: [0, 4, 0],
            in_service_by_service: [4, 0, 0],
            offered_qps: [load * 4.0 * 2_900.0, 0.0, 0.0],
            routed_qps: [load * 4.0 * 2_900.0, 0.0, 0.0],
            service_load: [load, 0.0, 0.0],
            violating_by_service: [(violating * 4.0).round() as usize, 0, 0],
            migrations: 0,
            tco_dollars: 0.5,
            energy_joules: 1000.0,
            energy_dollars: 0.001,
            peak_power_w: 500.0,
            queued_jobs: 0,
            running_jobs: 1,
            completed_jobs: 0,
            be_progress_core_s: progress,
        }
    }

    fn job(id: JobId) -> BeJob {
        BeJob {
            id,
            workload: BeWorkload::brain(),
            demand_core_s: 100.0,
            remaining_core_s: 100.0,
            arrival: SimTime::ZERO,
            first_start: None,
            completion: None,
            preemptions: 0,
            migrations: 0,
            migration_overhead_core_s: 0.0,
        }
    }

    fn empty() -> FleetResult {
        FleetResult {
            policy: "test".into(),
            server_cores: Vec::new(),
            server_generations: Vec::new(),
            server_services: Vec::new(),
            steps: Vec::new(),
            jobs: Vec::new(),
            events: Vec::new(),
        }
    }

    #[test]
    fn empty_result_aggregates_are_zero_not_nan() {
        let r = empty();
        assert_eq!(r.mean_fleet_emu(), 0.0);
        assert_eq!(r.min_fleet_emu(), 0.0);
        assert_eq!(r.mean_lc_load(), 0.0);
        assert_eq!(r.slo_violation_fraction(), 0.0);
        assert_eq!(r.queueing_delay().mean_started_s, 0.0);
        assert_eq!(r.tco_improvement(&TcoModel::paper_case_study()), 0.0);
        assert!(r.mean_fleet_emu().is_finite() && r.min_fleet_emu().is_finite());
        assert_eq!(r.total_tco_dollars(), 0.0);
        assert_eq!(r.mean_in_service_servers(), 0.0);
        assert_eq!(r.violation_server_steps(), 0);
        // A fleet that served nothing has unbounded cost per unit of work.
        assert!(r.tco_per_be_core_s().is_infinite());
        assert_eq!(r.total_energy_joules(), 0.0);
        assert_eq!(r.total_energy_dollars(), 0.0);
        assert_eq!(r.max_peak_power_w(), 0.0);
        assert!(r.joules_per_be_core_s().is_infinite());
    }

    #[test]
    fn aggregates_combine_steps_and_jobs() {
        let mut r = empty();
        r.steps = vec![step(0.8, 0.5, 0.0, 30.0), step(0.6, 0.4, 0.5, 10.0)];
        let mut started = job(0);
        started.first_start = Some(SimTime::from_secs(3));
        started.completion = Some(SimTime::from_secs(9));
        started.preemptions = 2;
        r.jobs = vec![started, job(1)];

        assert!((r.mean_fleet_emu() - 0.7).abs() < 1e-12);
        assert!((r.min_fleet_emu() - 0.6).abs() < 1e-12);
        assert!((r.mean_lc_load() - 0.45).abs() < 1e-12);
        assert!((r.slo_violation_fraction() - 0.25).abs() < 1e-12);
        assert_eq!(r.jobs_completed(), 1);
        assert!((r.be_core_s_served() - 40.0).abs() < 1e-12);
        assert_eq!(r.queueing_delay().mean_started_s, 3.0);
        assert_eq!(r.preemptions(), 2);
        // Raising utilization 0.45 → 0.7 must improve throughput/TCO.
        assert!(r.tco_improvement(&TcoModel::paper_case_study()) > 0.0);
        // The TCO series sums per step; per-core·s divides by served work.
        assert!((r.total_tco_dollars() - 1.0).abs() < 1e-12);
        assert!((r.tco_per_be_core_s() - 1.0 / 40.0).abs() < 1e-12);
        assert_eq!(r.mean_in_service_servers(), 4.0);
        assert_eq!(r.violation_server_steps(), 2);
        // The energy series sums like the TCO series; efficiency divides
        // by the same served work.
        assert!((r.total_energy_joules() - 2000.0).abs() < 1e-9);
        assert!((r.total_energy_dollars() - 0.002).abs() < 1e-12);
        assert!((r.max_peak_power_w() - 500.0).abs() < 1e-12);
        assert!((r.joules_per_be_core_s() - 50.0).abs() < 1e-9);
    }

    #[test]
    fn step_tco_scales_with_cores_utilization_and_time() {
        let tco = TcoModel::paper_case_study();
        let reference = server_step_tco_dollars(&tco, 36, 0.5, 3600.0);
        assert!(reference > 0.0);
        // One reference server for one hour at 50% utilization: the annual
        // bill prorated to an hour.
        let annual = tco.annual_capex_per_server() + tco.annual_energy_per_server(0.5);
        assert!((reference - annual * 3600.0 / SECONDS_PER_YEAR).abs() < 1e-9);
        // Double the time, double the cost.
        let two_hours = server_step_tco_dollars(&tco, 36, 0.5, 7200.0);
        assert!((two_hours - 2.0 * reference).abs() < 1e-9);
        // A 48-core box costs more than the reference, a 16-core one less —
        // but sublinearly in cores, thanks to the platform floor.
        let big = server_step_tco_dollars(&tco, 48, 0.5, 3600.0);
        let small = server_step_tco_dollars(&tco, 16, 0.5, 3600.0);
        assert!(big > reference && reference > small);
        assert!(big / small < 48.0 / 16.0, "cost scaled superlinearly");
        // Higher utilization costs energy, not capex.
        assert!(server_step_tco_dollars(&tco, 36, 0.9, 3600.0) > reference);
    }

    #[test]
    fn wait_percentiles_expose_the_tail_the_mean_flattens() {
        let mut r = empty();
        r.steps = vec![FleetStep { time: SimTime::from_secs(500), ..step(0.8, 0.5, 0.0, 0.0) }];
        // 49 jobs wait 1 s, one straggler waits 101 s: the mean (3 s) says
        // little; p50 pins the typical wait and p99 the straggler.
        r.jobs = (0..50)
            .map(|id| {
                let mut j = job(id);
                j.arrival = SimTime::from_secs(10);
                j.first_start = Some(SimTime::from_secs(if id == 49 { 111 } else { 11 }));
                j
            })
            .collect();
        let summary = r.queueing_delay();
        assert_eq!(summary.started, 50);
        assert!((summary.mean_started_s - 3.0).abs() < 1e-12);
        assert!((summary.p50_started_s - 1.0).abs() < 1e-12);
        assert!((summary.p99_started_s - 101.0).abs() < 1e-12);
    }

    #[test]
    fn wait_percentiles_match_a_full_sort_of_the_waits() {
        let mut r = empty();
        r.steps = vec![FleetStep { time: SimTime::from_secs(5000), ..step(0.8, 0.5, 0.0, 0.0) }];
        // 300 waits in scrambled order, with duplicates.
        r.jobs = (0..300)
            .map(|id| {
                let mut j = job(id);
                j.arrival = SimTime::from_secs(10);
                j.first_start = Some(SimTime::from_secs(10 + (id as u64 * 7919) % 101));
                j
            })
            .collect();
        let mut waits: Vec<f64> = r.jobs.iter().filter_map(|j| j.queueing_delay_s()).collect();
        let mean = waits.iter().sum::<f64>() / waits.len() as f64;
        waits.sort_by(f64::total_cmp);
        let summary = r.queueing_delay();
        assert_eq!(summary.started, 300);
        assert_eq!(summary.mean_started_s.to_bits(), mean.to_bits());
        // Nearest rank: ceil(0.5 · 300) = 150 and ceil(0.99 · 300) = 297.
        assert_eq!(summary.p50_started_s.to_bits(), waits[149].to_bits());
        assert_eq!(summary.p99_started_s.to_bits(), waits[296].to_bits());
    }

    #[test]
    fn migration_totals_come_from_the_job_ledger() {
        let mut r = empty();
        let mut moved = job(0);
        moved.migrations = 2;
        r.jobs = vec![moved, job(1)];
        assert_eq!(r.migrations(), 2);
    }

    #[test]
    fn csv_has_header_plus_one_row_per_step() {
        let mut r = empty();
        r.steps = vec![step(0.8, 0.5, 0.0, 30.0)];
        let csv = r.to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 2);
        let columns = lines[0].split(',').count();
        assert_eq!(lines[1].split(',').count(), columns);
    }

    #[test]
    fn core_weighted_mean_weights_by_capacity() {
        // A 48-core box at 0.9 and a 16-core box at 0.3:
        // (48*0.9 + 16*0.3) / 64 = 0.75, not the plain mean 0.6.
        let weighted = core_weighted_mean(&[0.9, 0.3], &[48, 16]);
        assert!((weighted - 0.75).abs() < 1e-12);
        // Uniform fleets reduce to the plain mean.
        let plain = core_weighted_mean(&[0.9, 0.3], &[36, 36]);
        assert!((plain - 0.6).abs() < 1e-12);
        // Empty input is 0, not NaN.
        assert_eq!(core_weighted_mean(&[], &[]), 0.0);
    }

    #[test]
    fn queueing_delay_reports_the_censored_tail() {
        let mut r = empty();
        r.steps = vec![FleetStep { time: SimTime::from_secs(100), ..step(0.8, 0.5, 0.0, 0.0) }];
        let mut started = job(0);
        started.arrival = SimTime::from_secs(10);
        started.first_start = Some(SimTime::from_secs(16));
        // Job 1 arrived at t=40 and never started: 60 s of accrued wait the
        // old mean silently dropped.
        let mut stranded = job(1);
        stranded.arrival = SimTime::from_secs(40);
        r.jobs = vec![started, stranded];

        let summary = r.queueing_delay();
        assert_eq!(summary.started, 1);
        assert!((summary.mean_started_s - 6.0).abs() < 1e-12);
        // With one started job, every percentile is that job's wait.
        assert!((summary.p50_started_s - 6.0).abs() < 1e-12);
        assert!((summary.p99_started_s - 6.0).abs() < 1e-12);
        assert_eq!(summary.censored, 1);
        assert!((summary.censored_accrued_wait_s - 60.0).abs() < 1e-12);
        assert!((r.queueing_delay().mean_started_s - 6.0).abs() < 1e-12);

        // The jobs CSV carries the censored job with its accrued wait.
        let csv = r.jobs_to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 3);
        let header_cols = lines[0].split(',').count();
        for line in &lines[1..] {
            assert_eq!(line.split(',').count(), header_cols, "{line}");
        }
        assert!(lines[1].ends_with(",0"), "started job marked censored: {}", lines[1]);
        assert!(lines[2].ends_with(",1"), "stranded job not marked censored: {}", lines[2]);
        assert!(lines[2].contains("60.000"), "accrued wait missing: {}", lines[2]);
    }
}
