//! The best-effort job model and the fleet's arrival queue.
//!
//! A fleet run is driven by a stream of batch jobs: each job is an instance
//! of one of the paper's BE workloads with a total compute demand measured in
//! core·seconds (the unit the Effective Machine Utilization metric already
//! uses — one core·second is one nominal-frequency core busy for one
//! second).  Arrivals are Poisson per fleet step and demands are
//! bounded-Pareto, both drawn deterministically from the fleet seed, so two
//! runs with the same seed replay the identical job stream — which is what
//! lets the placement policies be compared head-to-head.

use std::collections::VecDeque;

use heracles_sim::{SimRng, SimTime};
use heracles_workloads::BeWorkload;

/// Identifier of a job within one fleet run (dense, starting at 0).
pub type JobId = usize;

/// Which workload catalogue arriving jobs are drawn from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobMix {
    /// The production batch jobs of §5.1: brain and streetview.
    Production,
    /// The full single-server evaluation set of §5.1/§5.2 (stream-LLC,
    /// stream-DRAM, cpu_pwr, brain, streetview, iperf).
    Evaluation,
}

impl JobMix {
    /// The workloads jobs of this mix are drawn from (uniformly).
    pub fn workloads(self) -> Vec<BeWorkload> {
        match self {
            JobMix::Production => BeWorkload::production_set(),
            JobMix::Evaluation => BeWorkload::evaluation_set(),
        }
    }
}

/// Pareto shape of the per-job demand distribution (batch job sizes are
/// heavy-tailed).
pub(crate) const DEMAND_ALPHA: f64 = 1.5;

/// Parameters of the seeded job arrival process.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JobStreamConfig {
    /// Mean number of job arrivals per fleet step (Poisson).
    pub arrivals_per_step: f64,
    /// Smallest job demand, in core·seconds.
    pub demand_min_core_s: f64,
    /// Largest job demand, in core·seconds.
    pub demand_max_core_s: f64,
    /// Which workload catalogue jobs are drawn from.
    pub mix: JobMix,
}

impl Default for JobStreamConfig {
    fn default() -> Self {
        JobStreamConfig {
            arrivals_per_step: 1.0,
            demand_min_core_s: 150.0,
            demand_max_core_s: 2_000.0,
            mix: JobMix::Production,
        }
    }
}

/// One best-effort job and its lifecycle bookkeeping.
#[derive(Debug, Clone, PartialEq)]
pub struct BeJob {
    /// The job's identifier.
    pub id: JobId,
    /// The workload profile the job runs.
    pub workload: BeWorkload,
    /// Total compute demand, in core·seconds.
    pub demand_core_s: f64,
    /// Demand not yet served, in core·seconds.
    pub remaining_core_s: f64,
    /// When the job entered the queue.
    pub arrival: SimTime,
    /// When the job was first placed on a server, if ever.
    pub first_start: Option<SimTime>,
    /// When the job finished, if it has.
    pub completion: Option<SimTime>,
    /// How many times the job was preempted and requeued.
    pub preemptions: usize,
    /// How many times the job was live-migrated between servers (scale-in
    /// drains move jobs without requeueing them).
    pub migrations: usize,
    /// Extra core·seconds added to the job's remaining demand by live
    /// migrations — the modeled cost of moving its state, paid on the
    /// destination.  `demand_core_s` itself is never touched by a
    /// migration, so `served == demand + overhead` for completed jobs.
    pub migration_overhead_core_s: f64,
}

impl BeJob {
    /// True once the job's whole demand has been served.
    pub(crate) fn is_complete(&self) -> bool {
        self.remaining_core_s <= 0.0
    }

    /// Seconds the job waited in the queue before it first ran, if it has
    /// started.
    pub(crate) fn queueing_delay_s(&self) -> Option<f64> {
        self.first_start.map(|s| s.saturating_since(self.arrival).as_secs_f64())
    }
}

/// The fleet's job queue: seeded fresh arrivals plus requeued (preempted)
/// jobs, dispatched FIFO with skipping — a job the policy cannot place stays
/// queued without blocking the jobs behind it.
#[derive(Debug)]
pub(crate) struct JobQueue {
    config: JobStreamConfig,
    catalogue: Vec<BeWorkload>,
    rng: SimRng,
    jobs: Vec<BeJob>,
    pending: VecDeque<JobId>,
}

impl JobQueue {
    /// Creates an empty queue whose arrival stream is a pure function of
    /// `seed`.
    ///
    /// # Panics
    ///
    /// Panics if the demand bounds are not `0 < min <= max`.
    pub(crate) fn new(config: JobStreamConfig, seed: u64) -> Self {
        assert!(
            config.demand_min_core_s > 0.0 && config.demand_max_core_s >= config.demand_min_core_s,
            "job demand bounds must satisfy 0 < min <= max"
        );
        JobQueue {
            config,
            catalogue: config.mix.workloads(),
            rng: SimRng::new(seed).fork(0xB0B5),
            jobs: Vec::new(),
            pending: VecDeque::new(),
        }
    }

    /// Samples this step's arrivals, appends them to the queue and returns
    /// their ids.
    pub(crate) fn arrive(&mut self, now: SimTime) -> Vec<JobId> {
        let count = self.rng.poisson(self.config.arrivals_per_step);
        let mut ids = Vec::with_capacity(count);
        for _ in 0..count {
            let id = self.jobs.len();
            let workload = self.catalogue[self.rng.index(self.catalogue.len())].clone();
            let demand = self.rng.bounded_pareto(
                DEMAND_ALPHA,
                self.config.demand_min_core_s,
                self.config.demand_max_core_s,
            );
            self.jobs.push(BeJob {
                id,
                workload,
                demand_core_s: demand,
                remaining_core_s: demand,
                arrival: now,
                first_start: None,
                completion: None,
                preemptions: 0,
                migrations: 0,
                migration_overhead_core_s: 0.0,
            });
            self.pending.push_back(id);
            ids.push(id);
        }
        ids
    }

    /// Takes the whole pending queue for one dispatch round (FIFO order).
    pub(crate) fn take_pending(&mut self) -> Vec<JobId> {
        self.pending.drain(..).collect()
    }

    /// Returns unplaced jobs to the queue, preserving their order ahead of
    /// jobs that arrive later.
    pub(crate) fn restore_pending(&mut self, ids: Vec<JobId>) {
        for id in ids.into_iter().rev() {
            self.pending.push_front(id);
        }
    }

    /// Requeues a preempted job at the front of the queue (it has already
    /// waited its turn once).
    pub(crate) fn requeue_front(&mut self, id: JobId) {
        self.jobs[id].preemptions += 1;
        self.pending.push_front(id);
    }

    /// Number of jobs currently waiting.
    pub(crate) fn pending_len(&self) -> usize {
        self.pending.len()
    }

    /// Ids of the jobs currently waiting, in dispatch order.
    pub(crate) fn pending_ids(&self) -> impl Iterator<Item = JobId> + '_ {
        self.pending.iter().copied()
    }

    /// A job by id.
    ///
    /// # Panics
    ///
    /// Panics if `id` was never issued by this queue.
    pub(crate) fn job(&self, id: JobId) -> &BeJob {
        &self.jobs[id]
    }

    /// A job by id, mutably.
    ///
    /// # Panics
    ///
    /// Panics if `id` was never issued by this queue.
    pub(crate) fn job_mut(&mut self, id: JobId) -> &mut BeJob {
        &mut self.jobs[id]
    }

    /// Every job the stream has produced so far, completed or not.
    pub(crate) fn jobs(&self) -> &[BeJob] {
        &self.jobs
    }

    /// Consumes the queue, returning all jobs (used to build the final
    /// result).
    pub(crate) fn into_jobs(self) -> Vec<BeJob> {
        self.jobs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn queue() -> JobQueue {
        JobQueue::new(JobStreamConfig::default(), 7)
    }

    #[test]
    fn arrivals_are_deterministic_per_seed() {
        let mut a = queue();
        let mut b = queue();
        let mut c = JobQueue::new(JobStreamConfig::default(), 8);
        let mut totals = (0, 0, 0);
        for step in 1..=50 {
            let now = SimTime::from_secs(step);
            totals.0 += a.arrive(now).len();
            totals.1 += b.arrive(now).len();
            totals.2 += c.arrive(now).len();
        }
        assert_eq!(totals.0, totals.1);
        assert_eq!(a.jobs().len(), b.jobs().len());
        for (ja, jb) in a.jobs().iter().zip(b.jobs()) {
            assert_eq!(ja, jb);
        }
        // A different seed gives a different stream (with overwhelming
        // probability over 50 steps).
        assert!(
            totals.0 != totals.2
                || a.jobs().iter().zip(c.jobs()).any(|(x, y)| x.demand_core_s != y.demand_core_s)
        );
    }

    #[test]
    fn demands_respect_bounds_and_mix() {
        let mut q = queue();
        for step in 1..=100 {
            q.arrive(SimTime::from_secs(step));
        }
        assert!(!q.jobs().is_empty());
        let catalogue = JobMix::Production.workloads();
        let names: Vec<&str> = catalogue.iter().map(|w| w.name()).collect();
        for job in q.jobs() {
            assert!((150.0..=2_000.0).contains(&job.demand_core_s), "{}", job.demand_core_s);
            assert_eq!(job.remaining_core_s, job.demand_core_s);
            assert!(names.contains(&job.workload.name()), "{}", job.workload.name());
        }
    }

    #[test]
    fn pending_round_trip_preserves_fifo_order() {
        let mut q = queue();
        while q.jobs().len() < 3 {
            q.arrive(SimTime::from_secs(q.jobs().len() as u64 + 1));
        }
        let pending = q.take_pending();
        assert!(pending.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(q.pending_len(), 0);
        q.restore_pending(pending.clone());
        assert_eq!(q.take_pending(), pending);

        // A preempted job goes to the front.
        q.restore_pending(pending.clone());
        q.requeue_front(pending[2]);
        let order = q.take_pending();
        assert_eq!(order[0], pending[2]);
        assert_eq!(q.job(pending[2]).preemptions, 1);
    }

    #[test]
    fn queueing_delay_tracks_first_start() {
        let mut job = BeJob {
            id: 0,
            workload: BeWorkload::brain(),
            demand_core_s: 10.0,
            remaining_core_s: 0.0,
            arrival: SimTime::from_secs(5),
            first_start: None,
            completion: None,
            preemptions: 0,
            migrations: 0,
            migration_overhead_core_s: 0.0,
        };
        assert!(job.is_complete());
        assert_eq!(job.queueing_delay_s(), None);
        job.first_start = Some(SimTime::from_secs(9));
        assert_eq!(job.queueing_delay_s(), Some(4.0));
    }
}
