//! The placement store: the scheduler's view of every server's live state.
//!
//! Mirrors the placement-store shape of cluster managers (a central table of
//! per-host capacity and health that schedulers consult and commit into),
//! specialised to what matters under Heracles: besides BE slot occupancy,
//! each entry carries the server's current LC load from the diurnal trace
//! and the latency slack / admission verdict observed from its per-server
//! controller over the most recent step.  Placement policies read this table;
//! the fleet simulator is the only writer.

use heracles_core::{LOAD_DISABLE_THRESHOLD, LOAD_ENABLE_THRESHOLD};
use heracles_hw::ServerConfig;
use heracles_sim::SimTime;
use heracles_telemetry::TraceEvent;
use heracles_workloads::{BeKind, LcKind, LcWorkload, NUM_SERVICES};

use crate::job::JobId;

/// Identifier of a server within the fleet (dense, starting at 0).
pub type ServerId = usize;

/// Core count of the reference (Haswell) generation: the yardstick against
/// which per-server capacity is normalized — BE slot counts and the
/// policies' occupancy penalties both scale with `cores / REFERENCE_CORES`.
pub(crate) const REFERENCE_CORES: usize = 36;

/// Peak DRAM bandwidth of the reference (Haswell) generation, in GB/s.
pub(crate) const REFERENCE_DRAM_GBPS: f64 = 120.0;

/// Latency slack at or below which a server is considered too close to its
/// SLO to accept new BE work.
///
/// Heracles deliberately runs servers *hot*: a websearch leaf at ~80% load
/// under its controller settles a few percent under its SLO (Figure 4), and
/// that is healthy steady state, not distress — a positive-slack floor
/// would permanently exclude every server at its controller-managed
/// equilibrium.  So admission only screens out servers currently *at or
/// over* their SLO; the controllers' load thresholds guard the latency
/// knee, and the controller's own admission verdict covers everything in
/// between.
pub(crate) const ADMISSION_SLACK_FLOOR: f64 = 0.0;

/// The static capacity of one server, as the scheduler sees it.
///
/// In a heterogeneous fleet every entry carries its own capacity, and in a
/// mixed-service fleet every entry is a (generation × service) cell: the
/// scheduler never assumes the fleet is uniform in either dimension.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServerCapacity {
    /// Physical core count.
    pub cores: usize,
    /// Peak streaming DRAM bandwidth across all sockets, in GB/s.
    pub(crate) dram_peak_gbps: f64,
    /// How many BE jobs the server may host at once.
    pub(crate) be_slots: usize,
    /// Index of the server's hardware generation (see
    /// [`Generation`](crate::Generation)).
    pub(crate) generation: usize,
    /// The LC service this leaf serves.
    pub(crate) service: LcKind,
    /// Peak QPS of this leaf for its service (the service's reference peak
    /// scaled to the leaf's compute capacity) — the weight the traffic
    /// plane's balancers route by.
    pub(crate) peak_qps: f64,
}

impl ServerCapacity {
    /// A reference-generation websearch capacity.
    #[cfg(test)]
    pub(crate) fn reference(be_slots: usize) -> Self {
        ServerCapacity {
            cores: REFERENCE_CORES,
            dram_peak_gbps: REFERENCE_DRAM_GBPS,
            be_slots,
            generation: 1,
            service: LcKind::Websearch,
            peak_qps: LcWorkload::websearch().peak_qps(),
        }
    }

    /// Derives a websearch-leaf capacity record from a hardware
    /// configuration (the single-service shim over
    /// `for_service`).
    ///
    /// `be_slots_per_reference` is the BE slot count a reference
    /// (`REFERENCE_CORES`-core Haswell) server gets; other generations
    /// scale it with their core count, rounded, with a floor of one slot —
    /// a 48-core box hosts proportionally more jobs than a 16-core one.
    pub fn from_config(
        config: &ServerConfig,
        be_slots_per_reference: usize,
        generation: usize,
    ) -> Self {
        let ratio = config.total_cores() as f64 / REFERENCE_CORES as f64;
        Self::for_service(
            config,
            be_slots_per_reference,
            generation,
            LcKind::Websearch,
            LcWorkload::websearch().peak_qps() * ratio,
        )
    }

    /// Derives a capacity record for a leaf of `service` on the given
    /// hardware: BE slots scale with the core count relative to the
    /// reference generation, while `peak_qps` is supplied by the caller —
    /// it must be the peak of the *workload profile the leaf actually
    /// runs* (the fleet scales profiles against its own baseline, which is
    /// not always the reference generation), and it is the weight the
    /// traffic plane routes by.
    pub(crate) fn for_service(
        config: &ServerConfig,
        be_slots_per_reference: usize,
        generation: usize,
        service: LcKind,
        peak_qps: f64,
    ) -> Self {
        assert!(peak_qps.is_finite() && peak_qps > 0.0, "leaf peak QPS must be positive");
        let cores = config.total_cores();
        let scaled = (be_slots_per_reference * cores + REFERENCE_CORES / 2) / REFERENCE_CORES;
        ServerCapacity {
            cores,
            dram_peak_gbps: config.dram_peak_gbps(),
            be_slots: scaled.max(1),
            generation,
            service,
            peak_qps,
        }
    }
}

/// Lifecycle state of a server in an elastic fleet.
///
/// A static fleet keeps every server [`Active`](ServerState::Active) for the
/// whole run.  Under an autoscaler, scale-in first marks a server
/// [`Draining`](ServerState::Draining) — it stops admitting new BE work but
/// keeps serving its LC traffic and its resident jobs until they are
/// live-migrated away — and only an *empty* draining server may be
/// [`Retired`](ServerState::Retired) (decommissioned: it stops stepping,
/// stops costing TCO, and never hosts work again).  Retired entries stay in
/// the table so server ids remain dense and stable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServerState {
    /// In service: steps, serves LC traffic and may admit BE jobs.
    Active,
    /// Scheduled for removal: still steps and serves LC traffic, but admits
    /// no new BE work while its residents are migrated away.
    Draining,
    /// Decommissioned: no longer steps, costs nothing, hosts nothing.
    Retired,
}

/// What the store knows about one server.
#[derive(Debug, Clone, PartialEq)]
pub struct ServerEntry {
    /// The server's identifier.
    pub id: ServerId,
    /// Where the server is in its lifecycle (always
    /// [`ServerState::Active`] in a static fleet).
    pub state: ServerState,
    /// Physical core count (per-server capacity; heterogeneous fleets mix
    /// generations with different counts).
    pub(crate) cores: usize,
    /// Peak DRAM bandwidth, in GB/s.
    pub(crate) dram_peak_gbps: f64,
    /// Index of the server's hardware generation.
    pub generation: usize,
    /// The LC service this leaf serves (entries are (generation × service)
    /// cells in a mixed fleet).
    pub service: LcKind,
    /// Peak QPS of this leaf for its service — the weight the traffic
    /// plane's balancers route by.
    pub(crate) peak_qps: f64,
    /// How many BE jobs the server may host at once.
    pub be_slots: usize,
    /// Jobs currently resident (placed and not yet completed or preempted).
    pub resident: Vec<JobId>,
    /// The BE workload kind currently attached to the server's runner (its
    /// head resident job's kind), if any.  Placing a job of the same kind
    /// lets it share — and later seamlessly inherit — the already-grown BE
    /// allocation instead of restarting the controller's conservative ramp.
    pub(crate) attached_kind: Option<BeKind>,
    /// LC load offered during the current step (fraction of peak).
    pub(crate) lc_load: f64,
    /// Per-step change of the LC load (this step minus the previous one):
    /// the diurnal trajectory signal a monitoring pipeline would expose.
    /// Positive on servers climbing towards their peak.
    pub(crate) load_trend: f64,
    /// Whether `lc_load` has been set at least once (trend is meaningless
    /// before that).
    seen_load: bool,
    /// Whether the server's controller has reported at least one step of
    /// observations (before that, `slack` is an estimate, not a
    /// measurement).
    seen_observation: bool,
    /// Whether the server's Heracles controller currently allows BE
    /// execution.
    pub be_admitted: bool,
    /// Latency slack observed over the most recent step: `1 -` the worst
    /// window's SLO-normalized latency.  Positive means healthy.  Until the
    /// first observation arrives this is estimated from the sampled LC load
    /// (`1 - load`), not assumed perfect — blanket cold-start optimism used
    /// to pile step-0 jobs onto servers already near their latency knee.
    pub(crate) slack: f64,
    /// Effective Machine Utilization of the most recent window.
    pub(crate) recent_emu: f64,
    /// Normalized BE throughput of the most recent window.
    pub(crate) recent_be_throughput: f64,
    /// Consecutive steps the server sat occupied with BE execution disabled
    /// (the preemption trigger).
    pub(crate) disabled_streak: usize,
    /// Whether the fleet's power-cap coordinator is currently throttling BE
    /// admission cluster-wide (the budget is tight enough that DVFS alone
    /// would make latency-critical work pay for best-effort joules).  Set
    /// on every entry by [`PlacementStore::set_power_throttled`]; folded
    /// into [`admits_be`](Self::admits_be) so every placement policy
    /// observes the throttle without knowing about the energy plane.
    pub(crate) power_throttled: bool,
}

impl ServerEntry {
    /// True while the server is in service (active or draining): it steps,
    /// serves LC traffic and costs TCO.
    pub fn in_service(&self) -> bool {
        self.state != ServerState::Retired
    }

    /// True if the server may accept new BE work as far as its lifecycle is
    /// concerned (draining and retired servers never do).
    pub fn is_active(&self) -> bool {
        self.state == ServerState::Active
    }

    /// Number of unoccupied BE slots.
    pub fn free_slots(&self) -> usize {
        self.be_slots.saturating_sub(self.resident.len())
    }

    /// True if at least one BE slot is unoccupied.
    pub fn has_free_slot(&self) -> bool {
        self.free_slots() > 0
    }

    /// True if the server is healthy enough to accept new BE work: in
    /// service and not draining, a free
    /// slot, a controller that currently allows BE execution, positive
    /// latency slack (the server is not at or over its SLO), and load
    /// within the controller's hysteresis envelope — below the re-enable
    /// threshold for a server whose controller has not been observed
    /// running BE, below the disable threshold for one that has.
    ///
    /// The `be_admitted` check matters even when load and slack look fine:
    /// a controller that has disabled BE holds new jobs at zero progress
    /// until they burn their preemption grace, so placing onto such a server
    /// is strictly worse than leaving the job queued one more step.
    pub fn admits_be(&self) -> bool {
        self.has_free_slot() && self.admits_be_static()
    }

    /// The slot-independent part of [`admits_be`](Self::admits_be):
    /// lifecycle, controller verdict, slack and the hysteretic load ceiling.
    ///
    /// Within one dispatch round only slot occupancy changes (placements
    /// commit between `place` calls; loads, slacks and verdicts are fixed
    /// until the next step), so the batch-dispatch plans evaluate this once
    /// per server per round and track free slots separately.
    pub(crate) fn admits_be_static(&self) -> bool {
        // The load ceiling is the leaf controllers' own hysteresis.  At or
        // above the re-enable threshold a controller not already running BE
        // will not start it, so a job placed there sits disabled until it is
        // preempted.  A server observed with BE enabled keeps running it
        // until load crosses the disable threshold, so it stays placeable up
        // to there: Heracles colocates right up to its knee, and refusing
        // the band between the two would waste exactly the servers the paper
        // runs hottest.
        let ceiling = if self.seen_observation && self.be_admitted {
            LOAD_DISABLE_THRESHOLD
        } else {
            LOAD_ENABLE_THRESHOLD
        };
        self.is_active()
            && !self.power_throttled
            && self.be_admitted
            && self.slack > ADMISSION_SLACK_FLOOR
            && self.lc_load < ceiling
    }

    /// The LC load projected `horizon` steps ahead by linear extrapolation
    /// of the current trend, clamped to `[0, 1]`.
    pub fn projected_load(&self, horizon: f64) -> f64 {
        (self.lc_load + self.load_trend * horizon).clamp(0.0, 1.0)
    }

    /// A structured snapshot of this server's admission state, for the
    /// fleet's flight recorder: the verdict plus every input that feeds it
    /// (controller permission, slack, load, slots, lifecycle, streak), so a
    /// trace reader can see *why* the verdict flipped, not just that it did.
    pub(crate) fn admission_trace(&self, now: SimTime) -> TraceEvent {
        TraceEvent::new(now, "store", "admission")
            .u64("server", self.id as u64)
            .str("service", self.service.name())
            .u64("generation", self.generation as u64)
            .bool("admits", self.admits_be())
            .bool("be_admitted", self.be_admitted)
            .str(
                "state",
                match self.state {
                    ServerState::Active => "active",
                    ServerState::Draining => "draining",
                    ServerState::Retired => "retired",
                },
            )
            .f64("slack", self.slack)
            .f64("load", self.lc_load)
            .u64("free_slots", self.free_slots() as u64)
            .u64("disabled_streak", self.disabled_streak as u64)
    }
}

/// The fleet-wide placement table.
///
/// Besides the per-server entries, the store maintains incremental indices
/// — per-service leaf lists and integer aggregate counters —
/// kept in sync by every lifecycle mutator, so the aggregate accessors and
/// the traffic plane's per-service scans are O(pool) instead of O(fleet).
#[derive(Debug, Clone, PartialEq)]
pub struct PlacementStore {
    servers: Vec<ServerEntry>,
    /// In-service leaf ids per service, ascending — the traffic plane's
    /// routing pools, and the iteration order that keeps the per-service
    /// peak-QPS float sums bit-identical to a full-fleet filtered scan.
    service_leaves: [Vec<ServerId>; NUM_SERVICES],
    active_count: usize,
    draining_count: usize,
    in_service_cores_total: usize,
    in_service_gen_counts: [usize; 3],
    running_jobs_total: usize,
    /// Fleet-wide BE-admission power throttle (mirrored onto every entry so
    /// placement policies see it through [`ServerEntry::admits_be`]).
    power_throttled: bool,
}

impl PlacementStore {
    /// A store for `servers` reference-generation hosts with `be_slots` job
    /// slots each.
    #[cfg(test)]
    pub(crate) fn new(servers: usize, be_slots: usize) -> Self {
        assert!(be_slots > 0, "servers need at least one BE slot");
        Self::heterogeneous(&vec![ServerCapacity::reference(be_slots); servers])
    }

    /// Creates a store with one entry per capacity record (the
    /// heterogeneous fleet).
    ///
    /// # Panics
    ///
    /// Panics if `capacities` is empty or any entry has zero cores or BE
    /// slots.
    pub fn heterogeneous(capacities: &[ServerCapacity]) -> Self {
        assert!(!capacities.is_empty(), "a fleet needs at least one server");
        let mut store = PlacementStore {
            servers: Vec::with_capacity(capacities.len()),
            service_leaves: Default::default(),
            active_count: 0,
            draining_count: 0,
            in_service_cores_total: 0,
            in_service_gen_counts: [0; 3],
            running_jobs_total: 0,
            power_throttled: false,
        };
        for cap in capacities {
            store.push_server(cap);
        }
        store
    }

    /// Appends a fresh active entry and threads it into every index.
    fn push_server(&mut self, cap: &ServerCapacity) -> ServerId {
        let id = self.servers.len();
        let mut entry = Self::entry_for(id, cap);
        // A box commissioned while the fleet is power-throttled joins
        // throttled: the budget does not loosen because capacity grew.
        entry.power_throttled = self.power_throttled;
        self.servers.push(entry);
        // Ids are dense and increasing, so pushing keeps the pool ascending.
        self.service_leaves[cap.service.index()].push(id);
        self.active_count += 1;
        self.in_service_cores_total += cap.cores;
        if let Some(slot) = self.in_service_gen_counts.get_mut(cap.generation) {
            *slot += 1;
        }
        id
    }

    /// Drops a server out of the in-service indices (retirement).
    fn unindex_server(&mut self, id: ServerId) {
        let entry = &self.servers[id];
        match entry.state {
            ServerState::Active => self.active_count -= 1,
            ServerState::Draining => self.draining_count -= 1,
            ServerState::Retired => unreachable!("server {id} unindexed twice"),
        }
        self.in_service_cores_total -= entry.cores;
        let (generation, service) = (entry.generation, entry.service);
        if let Some(slot) = self.in_service_gen_counts.get_mut(generation) {
            *slot -= 1;
        }
        let leaves = &mut self.service_leaves[service.index()];
        let idx = leaves.binary_search(&id).expect("in-service leaf is in its service pool");
        leaves.remove(idx);
    }

    fn entry_for(id: ServerId, cap: &ServerCapacity) -> ServerEntry {
        assert!(cap.cores > 0, "server {id} needs at least one core");
        assert!(cap.be_slots > 0, "server {id} needs at least one BE slot");
        ServerEntry {
            id,
            state: ServerState::Active,
            cores: cap.cores,
            dram_peak_gbps: cap.dram_peak_gbps,
            generation: cap.generation,
            service: cap.service,
            peak_qps: cap.peak_qps,
            be_slots: cap.be_slots,
            resident: Vec::new(),
            attached_kind: None,
            lc_load: 0.0,
            load_trend: 0.0,
            seen_load: false,
            seen_observation: false,
            be_admitted: true,
            slack: 1.0,
            recent_emu: 0.0,
            recent_be_throughput: 0.0,
            disabled_streak: 0,
            power_throttled: false,
        }
    }

    /// Commissions a new server (autoscaler scale-out), returning its id.
    /// The new entry starts [`ServerState::Active`] with no load history —
    /// the cold-start slack estimate applies until its controller reports.
    ///
    /// # Panics
    ///
    /// Panics if the capacity has zero cores or BE slots.
    pub(crate) fn add_server(&mut self, cap: ServerCapacity) -> ServerId {
        self.push_server(&cap)
    }

    /// Marks a server as draining (autoscaler scale-in, phase one): it stops
    /// admitting new BE work while its residents are migrated away.  A
    /// no-op on a server already draining.
    ///
    /// # Panics
    ///
    /// Panics if the server is retired — a decommissioned box cannot drain.
    pub(crate) fn begin_drain(&mut self, id: ServerId) {
        let entry = &mut self.servers[id];
        assert!(entry.state != ServerState::Retired, "server {id} is already retired");
        if entry.state == ServerState::Active {
            self.active_count -= 1;
            self.draining_count += 1;
        }
        self.servers[id].state = ServerState::Draining;
    }

    /// Retires a drained server (autoscaler scale-in, phase two).  This is
    /// the invariant the autoscaler's property tests pin: a server may only
    /// leave the fleet once every resident job has been migrated away.
    ///
    /// # Panics
    ///
    /// Panics if the server still hosts resident jobs.
    pub(crate) fn retire(&mut self, id: ServerId) {
        let entry = &self.servers[id];
        assert!(
            entry.resident.is_empty(),
            "server {id} retired with {} unmigrated resident jobs",
            entry.resident.len()
        );
        if entry.state != ServerState::Retired {
            self.unindex_server(id);
        }
        let entry = &mut self.servers[id];
        entry.state = ServerState::Retired;
        entry.be_admitted = false;
        entry.disabled_streak = 0;
    }

    /// Live-migrates a job between servers: releases its slot on `from` and
    /// occupies one on `to` in a single committed move (the job never passes
    /// through the queue).
    ///
    /// # Panics
    ///
    /// Panics if the job is not resident on `from`, `to` has no free slot,
    /// or `from == to`.
    pub(crate) fn migrate(&mut self, job: JobId, from: ServerId, to: ServerId) {
        assert_ne!(from, to, "job {job} migrated onto its own server {from}");
        self.release(job, from);
        self.place(job, to);
    }

    /// Number of servers currently active (in service and not draining).
    pub fn active_servers(&self) -> usize {
        self.active_count
    }

    /// Number of servers currently draining.
    pub fn draining_servers(&self) -> usize {
        self.draining_count
    }

    /// How many in-service servers run each generation, indexed by
    /// generation index (older, Haswell, newer).
    pub(crate) fn in_service_by_generation(&self) -> [usize; 3] {
        self.in_service_gen_counts
    }

    /// How many in-service leaves serve each LC service, indexed by
    /// [`LcKind::index`] (websearch, ml_cluster, memkeyval).
    pub(crate) fn in_service_by_service(&self) -> [usize; NUM_SERVICES] {
        std::array::from_fn(|i| self.service_leaves[i].len())
    }

    /// Number of in-service leaves serving one service — the pool the
    /// traffic plane routes that service's demand across.  A fleet must
    /// never retire the last leaf of a service it still serves: the
    /// service's traffic would have nowhere to go.
    pub fn in_service_leaves(&self, service: LcKind) -> usize {
        self.service_leaves[service.index()].len()
    }

    /// In-service leaf ids of one service, in ascending id order — the
    /// pool the traffic plane routes across, maintained incrementally on
    /// `add_server`/`retire` instead of rebuilt from a full-fleet filter
    /// every step.
    pub(crate) fn service_leaf_ids(&self, service: LcKind) -> &[ServerId] {
        &self.service_leaves[service.index()]
    }

    /// Total in-service peak QPS of one service's leaf pool (the
    /// denominator that turns the service's offered QPS into a per-leaf
    /// load fraction under capacity-weighted routing).
    ///
    /// Sums the per-service leaf list in ascending id order — the same
    /// addition order as a filtered full-fleet scan, so the result is
    /// bit-identical to one.
    pub(crate) fn in_service_peak_qps(&self, service: LcKind) -> f64 {
        self.service_leaves[service.index()].iter().map(|&id| self.servers[id].peak_qps).sum()
    }

    /// All per-server entries, indexed by server id.
    pub fn servers(&self) -> &[ServerEntry] {
        &self.servers
    }

    /// One server's entry.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn server(&self, id: ServerId) -> &ServerEntry {
        &self.servers[id]
    }

    /// Total BE jobs currently resident across the fleet.
    pub fn running_jobs(&self) -> usize {
        self.running_jobs_total
    }

    /// Every server's current admission verdict ([`ServerEntry::admits_be`]),
    /// indexed by id — the baseline the fleet's telemetry plane diffs after
    /// each step so only verdict *flips* reach the flight recorder.
    pub(crate) fn admission_verdicts(&self) -> Vec<bool> {
        self.servers.iter().map(ServerEntry::admits_be).collect()
    }

    /// Commits a placement.
    ///
    /// # Panics
    ///
    /// Panics if the server has no free slot or already hosts the job — a
    /// placement policy returning such a server is a scheduler bug, and the
    /// property tests lean on this assert.
    pub fn place(&mut self, job: JobId, server: ServerId) {
        let entry = &mut self.servers[server];
        assert!(
            entry.resident.len() < entry.be_slots,
            "placement exceeds server {server}'s {} BE slots",
            entry.be_slots
        );
        assert!(!entry.resident.contains(&job), "job {job} already resident on server {server}");
        entry.resident.push(job);
        self.running_jobs_total += 1;
    }

    /// Releases a job's slot (completion or preemption).
    ///
    /// # Panics
    ///
    /// Panics if the job is not resident on the server.
    pub(crate) fn release(&mut self, job: JobId, server: ServerId) {
        let entry = &mut self.servers[server];
        let idx = entry
            .resident
            .iter()
            .position(|&j| j == job)
            .unwrap_or_else(|| panic!("job {job} is not resident on server {server}"));
        entry.resident.remove(idx);
        self.running_jobs_total -= 1;
        if self.servers[server].resident.is_empty() {
            // The streak tracks one occupancy episode; once the last job
            // leaves, a future placement starts its grace period afresh.
            self.servers[server].disabled_streak = 0;
        }
    }

    /// Whether the power-cap coordinator is currently throttling BE
    /// admission fleet-wide.
    pub(crate) fn power_throttled(&self) -> bool {
        self.power_throttled
    }

    /// Sets the fleet-wide BE-admission power throttle, mirroring it onto
    /// every entry so [`ServerEntry::admits_be`] observes it (Algorithm 3's
    /// "shave BE first", lifted to admission: under a tight watt budget no
    /// new best-effort work starts anywhere).
    pub(crate) fn set_power_throttled(&mut self, throttled: bool) {
        self.power_throttled = throttled;
        for entry in &mut self.servers {
            entry.power_throttled = throttled;
        }
    }

    /// Records which BE workload kind the server's runner currently has
    /// attached (kept in sync by the fleet simulator after attachment
    /// changes).
    pub(crate) fn set_attached_kind(&mut self, id: ServerId, kind: Option<BeKind>) {
        self.servers[id].attached_kind = kind;
    }

    /// Sets a server's LC load for the upcoming step (read by the policies
    /// during dispatch, before the step runs) and updates its load trend.
    ///
    /// Until the server's controller has reported an observation, the
    /// latency slack is re-estimated from the sampled load (`1 - load`):
    /// cold-start dispatch must not treat a never-observed server near its
    /// diurnal peak as perfectly healthy.
    pub fn set_load(&mut self, id: ServerId, lc_load: f64) {
        let entry = &mut self.servers[id];
        let load = lc_load.clamp(0.0, 1.0);
        entry.load_trend = if entry.seen_load { load - entry.lc_load } else { 0.0 };
        entry.seen_load = true;
        entry.lc_load = load;
        if !entry.seen_observation {
            entry.slack = 1.0 - load;
        }
    }

    /// Absorbs one server's observations after a step: the controller's
    /// admission verdict and the step's latency slack / utilization, plus the
    /// disabled-streak bookkeeping that drives preemption.
    pub fn observe(
        &mut self,
        id: ServerId,
        slack: f64,
        recent_emu: f64,
        recent_be_throughput: f64,
        be_admitted: bool,
    ) {
        let entry = &mut self.servers[id];
        entry.seen_observation = true;
        entry.slack = slack;
        entry.recent_emu = recent_emu;
        entry.recent_be_throughput = recent_be_throughput;
        entry.be_admitted = be_admitted;
        if !entry.resident.is_empty() && !be_admitted {
            entry.disabled_streak += 1;
        } else {
            entry.disabled_streak = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn placement_occupies_and_release_frees_slots() {
        let mut store = PlacementStore::new(2, 2);
        assert_eq!(store.server(0).free_slots(), 2);
        store.place(10, 0);
        store.place(11, 0);
        assert!(!store.server(0).has_free_slot());
        assert!(store.server(1).has_free_slot());
        assert_eq!(store.running_jobs(), 2);
        store.release(10, 0);
        assert_eq!(store.server(0).free_slots(), 1);
        assert_eq!(store.server(0).resident, vec![11]);
    }

    #[test]
    #[should_panic(expected = "exceeds server")]
    fn overfilling_a_server_panics() {
        let mut store = PlacementStore::new(1, 1);
        store.place(0, 0);
        store.place(1, 0);
    }

    #[test]
    #[should_panic(expected = "not resident")]
    fn releasing_a_stranger_panics() {
        let mut store = PlacementStore::new(1, 1);
        store.release(3, 0);
    }

    #[test]
    fn admission_requires_slack_and_a_slot() {
        let mut store = PlacementStore::new(1, 1);
        assert!(store.server(0).admits_be());
        // At or over the SLO (slack <= 0): no admission.
        store.observe(0, -0.2, 0.5, 0.0, true);
        assert!(!store.server(0).admits_be(), "no slack");
        // Tiny positive slack is Heracles' normal hot steady state.
        store.observe(0, 0.01, 0.5, 0.0, true);
        assert!(store.server(0).admits_be());
        store.place(0, 0);
        assert!(!store.server(0).admits_be(), "no slot");
    }

    #[test]
    fn admission_follows_the_controller_hysteresis() {
        let mut store = PlacementStore::new(1, 1);
        // Cold start in the hysteresis band: the controller would not
        // (re-)enable BE at 0.82 load, so placement is futile.
        store.set_load(0, 0.82);
        assert!(!store.server(0).admits_be(), "cold start in the band");
        // Observed with BE enabled at the same load: the controller keeps
        // running BE until 0.85, so the server stays placeable.
        store.observe(0, 0.1, 0.82, 0.2, true);
        assert!(store.server(0).admits_be(), "enabled within the band");
        // Past the disable threshold nothing admits.
        store.set_load(0, 0.86);
        assert!(!store.server(0).admits_be(), "past disable threshold");
        // And a disabled controller in the band falls back to the
        // re-enable ceiling.
        store.set_load(0, 0.82);
        store.observe(0, 0.1, 0.82, 0.0, false);
        assert!(!store.server(0).admits_be(), "disabled in the band");
    }

    #[test]
    fn admission_respects_the_controller_verdict() {
        let mut store = PlacementStore::new(1, 1);
        // Healthy load and slack, but the controller has BE disabled: a job
        // placed here would sit at zero progress until preempted.
        store.set_load(0, 0.3);
        store.observe(0, 0.5, 0.3, 0.0, false);
        assert!(!store.server(0).admits_be(), "BE disabled");
        store.observe(0, 0.5, 0.3, 0.1, true);
        assert!(store.server(0).admits_be());
    }

    #[test]
    fn cold_start_slack_comes_from_the_first_sampled_load() {
        let mut store = PlacementStore::new(2, 1);
        // Never-observed servers estimate slack from load instead of
        // assuming perfect health.
        store.set_load(0, 0.97);
        assert!((store.server(0).slack - 0.03).abs() < 1e-12);
        assert!(!store.server(0).admits_be(), "near-peak cold start");
        store.set_load(1, 0.2);
        assert!((store.server(1).slack - 0.8).abs() < 1e-12);
        assert!(store.server(1).admits_be());
        // Once a real observation lands, set_load stops touching slack.
        store.observe(0, 0.6, 0.5, 0.0, true);
        store.set_load(0, 0.97);
        assert!((store.server(0).slack - 0.6).abs() < 1e-12);
    }

    #[test]
    fn heterogeneous_capacities_derive_slots_from_cores() {
        let older = ServerCapacity::from_config(&ServerConfig::older_sandy_bridge(), 2, 0);
        let haswell = ServerCapacity::from_config(&ServerConfig::default_haswell(), 2, 1);
        let newer = ServerCapacity::from_config(&ServerConfig::newer_skylake(), 2, 2);
        assert_eq!((older.cores, older.be_slots), (16, 1));
        assert_eq!((haswell.cores, haswell.be_slots), (36, 2));
        assert_eq!((newer.cores, newer.be_slots), (48, 3));
        // Even a tiny box keeps one slot.
        let tiny = ServerCapacity::from_config(&ServerConfig::small_test(), 1, 0);
        assert_eq!(tiny.be_slots, 1);

        let store = PlacementStore::heterogeneous(&[older, haswell, newer]);
        assert_eq!(store.server(0).be_slots, 1);
        assert_eq!(store.server(2).be_slots, 3);
        assert_eq!(store.server(2).generation, 2);
        assert!(store.server(0).dram_peak_gbps < store.server(2).dram_peak_gbps);
    }

    #[test]
    fn disabled_streak_counts_only_occupied_disabled_steps() {
        let mut store = PlacementStore::new(1, 1);
        // Unoccupied: a disabled controller is not a stuck job.
        store.observe(0, 0.5, 0.3, 0.0, false);
        assert_eq!(store.server(0).disabled_streak, 0);
        store.place(7, 0);
        store.observe(0, 0.5, 0.3, 0.0, false);
        store.observe(0, 0.5, 0.3, 0.0, false);
        assert_eq!(store.server(0).disabled_streak, 2);
        // Re-enablement resets the streak.
        store.observe(0, 0.5, 0.3, 0.1, true);
        assert_eq!(store.server(0).disabled_streak, 0);
    }

    #[test]
    fn lifecycle_gates_admission_and_retirement() {
        let mut store = PlacementStore::new(2, 2);
        store.set_load(0, 0.3);
        store.observe(0, 0.5, 0.4, 0.1, true);
        assert!(store.server(0).admits_be());
        assert_eq!(store.active_servers(), 2);

        // Draining stops admission but the server stays in service.
        store.begin_drain(0);
        assert!(!store.server(0).admits_be(), "draining server admitted work");
        assert!(store.server(0).in_service());
        assert_eq!(store.active_servers(), 1);
        assert_eq!(store.draining_servers(), 1);
        assert_eq!(store.in_service_cores_total, 72);

        // An empty draining server retires; a retired one drops out of the
        // in-service aggregates entirely.
        store.retire(0);
        assert!(!store.server(0).in_service());
        assert_eq!(store.in_service_cores_total, 36);
        assert_eq!(store.in_service_by_generation(), [0, 1, 0]);
    }

    #[test]
    #[should_panic(expected = "unmigrated resident jobs")]
    fn retiring_an_occupied_server_panics() {
        let mut store = PlacementStore::new(1, 1);
        store.place(3, 0);
        store.begin_drain(0);
        store.retire(0);
    }

    #[test]
    #[should_panic(expected = "already retired")]
    fn draining_a_retired_server_panics() {
        let mut store = PlacementStore::new(1, 1);
        store.retire(0);
        store.begin_drain(0);
    }

    #[test]
    fn migration_moves_the_slot_atomically() {
        let mut store = PlacementStore::new(2, 1);
        store.place(5, 0);
        store.migrate(5, 0, 1);
        assert!(store.server(0).resident.is_empty());
        assert_eq!(store.server(1).resident, vec![5]);
        assert_eq!(store.running_jobs(), 1);
    }

    #[test]
    fn added_servers_get_dense_ids_and_fresh_state() {
        let mut store = PlacementStore::new(1, 1);
        let id =
            store.add_server(ServerCapacity::from_config(&ServerConfig::newer_skylake(), 2, 2));
        assert_eq!(id, 1);
        assert_eq!(store.server(1).cores, 48);
        assert!(store.server(1).is_active());
        // Cold-start slack comes from the first sampled load, as for the
        // original fleet.
        store.set_load(1, 0.9);
        assert!((store.server(1).slack - 0.1).abs() < 1e-12);
    }

    /// Recomputes every incremental index from the server table and asserts
    /// each one matches — the invariant every mutator must preserve.
    fn assert_index_matches_table(store: &PlacementStore) {
        let servers = store.servers();
        assert_eq!(store.active_servers(), servers.iter().filter(|s| s.is_active()).count());
        assert_eq!(
            store.draining_servers(),
            servers.iter().filter(|s| s.state == ServerState::Draining).count()
        );
        assert_eq!(
            store.in_service_cores_total,
            servers.iter().filter(|s| s.in_service()).map(|s| s.cores).sum::<usize>()
        );
        assert_eq!(store.running_jobs(), servers.iter().map(|s| s.resident.len()).sum::<usize>());
        for service in LcKind::all() {
            let scanned: Vec<ServerId> = servers
                .iter()
                .filter(|s| s.in_service() && s.service == service)
                .map(|s| s.id)
                .collect();
            assert_eq!(store.in_service_by_service()[service.index()], scanned.len());
            assert_eq!(store.service_leaf_ids(service), scanned, "{service:?} pool");
        }
    }

    #[test]
    fn indices_track_lifecycle_churn() {
        let mut store = PlacementStore::new(3, 2);
        assert_index_matches_table(&store);
        store.place(1, 0);
        store.place(2, 1);
        store.begin_drain(1);
        assert_index_matches_table(&store);
        // Draining twice is a no-op, not a double decrement.
        store.begin_drain(1);
        assert_index_matches_table(&store);
        store.release(2, 1);
        store.retire(1);
        assert_index_matches_table(&store);
        // Retiring straight from active is legal once empty.
        store.release(1, 0);
        store.retire(0);
        assert_index_matches_table(&store);
        let id = store.add_server(ServerCapacity::reference(2));
        assert_eq!(id, 3);
        assert_index_matches_table(&store);
        assert_eq!(store.in_service_leaves(LcKind::Websearch), 2);
    }

    #[test]
    fn per_service_peak_qps_matches_a_filtered_scan() {
        let leaf = |config: &ServerConfig, generation: usize, service: LcKind, qps: f64| {
            ServerCapacity::for_service(config, 2, generation, service, qps)
        };
        let mut store = PlacementStore::heterogeneous(&[
            leaf(&ServerConfig::older_sandy_bridge(), 0, LcKind::Websearch, 0.1),
            leaf(&ServerConfig::default_haswell(), 1, LcKind::Memkeyval, 0.7),
            leaf(&ServerConfig::newer_skylake(), 2, LcKind::Websearch, 0.2),
            leaf(&ServerConfig::default_haswell(), 1, LcKind::Websearch, 0.3),
            leaf(&ServerConfig::newer_skylake(), 2, LcKind::Memkeyval, 1.1),
        ]);
        store.begin_drain(2);
        store.retire(2);
        store.add_server(leaf(&ServerConfig::default_haswell(), 1, LcKind::Websearch, 0.6));
        assert_index_matches_table(&store);
        for service in LcKind::all() {
            let scanned: f64 = store
                .servers()
                .iter()
                .filter(|s| s.in_service() && s.service == service)
                .map(|s| s.peak_qps)
                .sum();
            assert_eq!(
                store.in_service_peak_qps(service).to_bits(),
                scanned.to_bits(),
                "{service:?}: the pool sum must be bit-identical to a filtered scan"
            );
        }
    }

    #[test]
    fn service_pools_stay_ascending_across_churn() {
        let mut store = PlacementStore::new(4, 1);
        store.begin_drain(2);
        store.retire(2);
        assert_eq!(store.service_leaf_ids(LcKind::Websearch), &[0, 1, 3]);
        let id = store.add_server(ServerCapacity::reference(1));
        assert_eq!(store.service_leaf_ids(LcKind::Websearch), &[0, 1, 3, id]);
        assert_index_matches_table(&store);
    }

    #[test]
    fn emptying_a_server_resets_its_disabled_streak() {
        let mut store = PlacementStore::new(1, 2);
        store.place(7, 0);
        store.place(8, 0);
        store.observe(0, 0.5, 0.3, 0.0, false);
        store.observe(0, 0.5, 0.3, 0.0, false);
        assert_eq!(store.server(0).disabled_streak, 2);
        // One job leaving does not end the occupancy episode...
        store.release(7, 0);
        assert_eq!(store.server(0).disabled_streak, 2);
        // ...but the last one does: the next placement gets fresh grace.
        store.release(8, 0);
        assert_eq!(store.server(0).disabled_streak, 0);
    }
}
