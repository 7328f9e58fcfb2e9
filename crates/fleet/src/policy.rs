//! Pluggable BE job placement policies.
//!
//! All four policies see the same [`PlacementStore`] table; they differ in
//! how much of it they use:
//!
//! * [`RandomPlacement`] — any server with a free slot whose controller has
//!   not disabled BE, chosen uniformly.  The naive baseline: it ignores
//!   load, slack and interference entirely, but even a naive scheduler does
//!   not dispatch onto a server that advertises "BE disabled" — a job
//!   placed there sits at zero progress until it burns its preemption
//!   grace.
//! * [`FirstFit`] — the lowest-numbered server where the job *fits*, where
//!   fitting means a free slot on a server healthy enough to admit BE work
//!   (positive latency slack, per [`ServerEntry::admits_be`]).  This is the
//!   classic packing heuristic of cluster placement stores, with the
//!   admission verdict standing in for the capacity check.
//! * [`LeastLoaded`] — among admitting servers, the one offering a new job
//!   the most *marginal headroom in absolute cores* (free capacity split
//!   with the resident jobs).  On a uniform fleet this is classic
//!   least-loaded placement; on a mixed fleet it is what capacity
//!   awareness means: a 48-core box at 40% load outranks a 16-core box at
//!   30%.
//! * [`InterferenceAware`] — additionally consults the §3.2 interference
//!   characterization (measured per hardware generation: the same
//!   antagonist that devastates a low-bandwidth Sandy Bridge box can be
//!   benign on a Skylake) and the store's load trend: a job whose workload
//!   devastates a near-knee LC service (stream-DRAM, streetview, …) is
//!   steered onto servers far from their latency knee (and projected to
//!   stay there), DRAM-hungry jobs prefer high-bandwidth generations,
//!   benign jobs fill moderately loaded servers, and same-kind jobs are
//!   chained onto one server so a successor inherits the grown BE
//!   allocation without a conservative controller restart.

use std::collections::{BinaryHeap, HashMap};

use heracles_colo::{characterize_cell, ColoConfig, SharedDraws, CELL_WINDOWS};
use heracles_core::LOAD_DISABLE_THRESHOLD;
use heracles_hw::ServerConfig;
use heracles_sim::{parallel_map, SimRng};
use heracles_workloads::{BeKind, BeWorkload, LcKind, LcWorkload};

use crate::job::BeJob;
use crate::store::{PlacementStore, ServerEntry, ServerId, REFERENCE_DRAM_GBPS};

/// A fleet-level policy deciding which server hosts a BE job.
///
/// Placement runs in batch-dispatch rounds: [`begin_round`] builds a round
/// plan (candidate indices, score heaps) in one scan of
/// [`PlacementStore::servers`], and every [`place`] call of the round is
/// served from that plan.  During one round only slot occupancy changes —
/// loads, slacks, verdicts and attachments are fixed until the next step —
/// so the plan stays exact as long as the round's contract holds: between
/// `begin_round` and the round's last `place`, the only store mutation is
/// committing each returned placement (via [`PlacementStore::place`])
/// before the next `place` call.
///
/// Implementations must only return servers with a free BE slot (the store
/// panics on oversubscription); returning `None` leaves the job queued for
/// the next dispatch round.
///
/// [`begin_round`]: PlacementPolicy::begin_round
/// [`place`]: PlacementPolicy::place
pub trait PlacementPolicy: Send {
    /// Short human-readable name used in experiment output.
    fn name(&self) -> &str;

    /// Starts a batch-dispatch round over the store's current state,
    /// replacing any previous round's plan.
    fn begin_round(&mut self, store: &PlacementStore);

    /// Chooses a server for `job` from the current round's plan, or `None`
    /// to leave it queued.
    ///
    /// # Panics
    ///
    /// Panics if no round has begun: there is no plan to place from.
    fn place(&mut self, job: &BeJob, store: &PlacementStore, rng: &mut SimRng) -> Option<ServerId>;

    /// Candidate entries remaining in the current round's plan (0 before
    /// the first round).  Pure observability for the fleet's dispatch-round
    /// trace events; policies that build plans lazily (per job profile)
    /// report the entries built so far.
    fn round_candidates(&self) -> usize;
}

/// The current round's plan, for a `place` call.
///
/// # Panics
///
/// Panics if `policy` has not begun a round.
fn round_plan<'a, T>(plan: &'a mut Option<T>, policy: &str) -> &'a mut T {
    plan.as_mut().unwrap_or_else(|| panic!("{policy}: place called before begin_round"))
}

/// One candidate in a score-ordered round plan.  The heap is a *lazy*
/// argmax: entries are validated against the live resident count when
/// popped, because scores strictly decrease as residents accrue within a
/// round — a stale entry is an upper bound, never an understatement.
#[derive(Debug, Clone, Copy)]
struct HeapEntry {
    score: f64,
    id: ServerId,
    /// Resident count the score was computed at (the only server state
    /// that changes within a round, and it uniquely determines the score).
    residents: usize,
}

impl PartialEq for HeapEntry {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == std::cmp::Ordering::Equal
    }
}

impl Eq for HeapEntry {}

impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for HeapEntry {
    /// Max-heap order: higher score first, ties to the smaller id.
    /// `total_cmp` agrees with `partial_cmp` on the finite, strictly
    /// positive scores both policies produce, and the id tiebreak makes the
    /// order total, so pop order is unique whatever the insertion order.
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.score.total_cmp(&other.score).then(other.id.cmp(&self.id))
    }
}

/// Scores every admitting server into a max-heap in one scan of the fleet.
fn scored_candidates<F>(store: &PlacementStore, score: &F) -> BinaryHeap<HeapEntry>
where
    F: Fn(&ServerEntry, usize) -> f64,
{
    store
        .servers()
        .iter()
        .filter(|server| server.admits_be())
        .map(|server| HeapEntry {
            score: score(server, server.resident.len()),
            id: server.id,
            residents: server.resident.len(),
        })
        .collect()
}

/// Pops the current argmax from a lazy score heap, refreshing it for the
/// placement about to be committed.
///
/// Popped entries are validated against the live store: a server that no
/// longer admits (its last slot was taken this round) drops out; a stale
/// resident count is re-scored and re-queued (scores only shrink as
/// residents accrue, so the stale entry was an upper bound and the re-queue
/// keeps the argmax exact).  A returned winner is immediately re-queued at
/// its post-commit score when a slot will remain, so the heap always holds
/// exactly one entry per still-eligible server.
fn pop_best<F>(
    heap: &mut BinaryHeap<HeapEntry>,
    store: &PlacementStore,
    score: &F,
) -> Option<ServerId>
where
    F: Fn(&ServerEntry, usize) -> f64,
{
    while let Some(entry) = heap.pop() {
        let server = store.server(entry.id);
        if !server.admits_be() {
            continue;
        }
        let residents = server.resident.len();
        if entry.residents != residents {
            heap.push(HeapEntry { score: score(server, residents), id: entry.id, residents });
            continue;
        }
        if server.free_slots() > 1 {
            // The caller commits this placement before the next `place`:
            // queue the score the server will have with one more resident.
            heap.push(HeapEntry {
                score: score(server, residents + 1),
                id: entry.id,
                residents: residents + 1,
            });
        }
        return Some(entry.id);
    }
    None
}

/// A round plan over slot-gated candidates: a Fenwick (binary indexed)
/// tree of candidate indicators by server id, plus the remaining free
/// slots per candidate.  Supports O(log n) rank-k selection in ascending
/// id order: [`RandomPlacement`] draws a uniform rank, [`FirstFit`] takes
/// rank 0.
#[derive(Debug, Clone)]
struct SlotPlan {
    /// 1-indexed Fenwick tree over candidate indicators.
    tree: Vec<usize>,
    /// Remaining free slots per server id (0 = not a candidate).
    free: Vec<usize>,
    candidates: usize,
}

impl SlotPlan {
    /// Builds the plan over every server passing `candidate` (the round's
    /// static admission predicate) that has a free slot, in one scan of the
    /// fleet.
    fn build<F>(store: &PlacementStore, candidate: &F) -> Self
    where
        F: Fn(&ServerEntry) -> bool,
    {
        let n = store.servers().len();
        let mut plan = SlotPlan { tree: vec![0; n + 1], free: vec![0; n], candidates: 0 };
        for server in store.servers() {
            if candidate(server) && server.has_free_slot() {
                plan.free[server.id] = server.free_slots();
                plan.tree_add(server.id);
                plan.candidates += 1;
            }
        }
        plan
    }

    fn tree_add(&mut self, id: ServerId) {
        let mut i = id + 1;
        while i < self.tree.len() {
            self.tree[i] += 1;
            i += i & i.wrapping_neg();
        }
    }

    fn tree_sub(&mut self, id: ServerId) {
        let mut i = id + 1;
        while i < self.tree.len() {
            self.tree[i] -= 1;
            i += i & i.wrapping_neg();
        }
    }

    /// The id of the rank-`k` candidate in ascending id order (0-based).
    fn select(&self, k: usize) -> ServerId {
        debug_assert!(k < self.candidates);
        let n = self.tree.len() - 1;
        let mut pos = 0;
        let mut remaining = k + 1;
        let mut mask = n.next_power_of_two();
        while mask > 0 {
            let next = pos + mask;
            if next <= n && self.tree[next] < remaining {
                remaining -= self.tree[next];
                pos = next;
            }
            mask >>= 1;
        }
        pos
    }

    /// Consumes one slot on a candidate, dropping it once full.
    fn take(&mut self, id: ServerId) {
        debug_assert!(self.free[id] > 0);
        self.free[id] -= 1;
        if self.free[id] == 0 {
            self.tree_sub(id);
            self.candidates -= 1;
        }
    }
}

/// The built-in placement policies, in the order the sweeps report them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PolicyKind {
    /// Uniform over servers with a free slot.
    Random,
    /// Lowest-numbered admitting server.
    FirstFit,
    /// Admitting server with the most marginal headroom (absolute free
    /// cores split with resident jobs).
    LeastLoaded,
    /// Interference-characterization-guided placement.
    InterferenceAware,
}

impl PolicyKind {
    /// All built-in policies, in reporting order.
    pub fn all() -> [PolicyKind; 4] {
        [
            PolicyKind::Random,
            PolicyKind::FirstFit,
            PolicyKind::LeastLoaded,
            PolicyKind::InterferenceAware,
        ]
    }

    /// The policy's display name.
    pub fn name(self) -> &'static str {
        match self {
            PolicyKind::Random => "random",
            PolicyKind::FirstFit => "first-fit",
            PolicyKind::LeastLoaded => "least-loaded",
            PolicyKind::InterferenceAware => "interference-aware",
        }
    }
}

impl std::str::FromStr for PolicyKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "random" => Ok(PolicyKind::Random),
            "first-fit" => Ok(PolicyKind::FirstFit),
            "least-loaded" => Ok(PolicyKind::LeastLoaded),
            "interference-aware" => Ok(PolicyKind::InterferenceAware),
            other => Err(format!(
                "unknown policy {other:?} (expected random, first-fit, least-loaded or interference-aware)"
            )),
        }
    }
}

/// Uniform choice over active servers with a free slot whose controller
/// currently allows BE execution.  Deliberately blind to load, slack, trend
/// and interference — but not to the controller's hard "BE disabled"
/// verdict, which no real dispatcher would ignore, nor to the lifecycle
/// table (a draining or retired server is not a placement target for any
/// scheduler, however naive).
#[derive(Debug, Default)]
pub struct RandomPlacement {
    plan: Option<SlotPlan>,
}

/// Random's (deliberately weak) candidate predicate, minus the slot check:
/// it ignores slack, load and trend, but not the lifecycle table or the
/// controller's hard "BE disabled" verdict.
fn random_candidate(s: &ServerEntry) -> bool {
    s.is_active() && s.be_admitted
}

impl PlacementPolicy for RandomPlacement {
    fn name(&self) -> &str {
        "random"
    }

    fn begin_round(&mut self, store: &PlacementStore) {
        self.plan = Some(SlotPlan::build(store, &random_candidate));
    }

    fn round_candidates(&self) -> usize {
        self.plan.as_ref().map_or(0, |p| p.candidates)
    }

    fn place(
        &mut self,
        _job: &BeJob,
        _store: &PlacementStore,
        rng: &mut SimRng,
    ) -> Option<ServerId> {
        let plan = round_plan(&mut self.plan, "random");
        if plan.candidates == 0 {
            return None;
        }
        // One `rng.index(count)` per non-empty candidate set, selecting the
        // rank-k candidate in ascending id order.
        let id = plan.select(rng.index(plan.candidates));
        plan.take(id);
        Some(id)
    }
}

/// Lowest-numbered server where the job fits (free slot + admission).
#[derive(Debug, Default)]
pub struct FirstFit {
    plan: Option<SlotPlan>,
}

impl PlacementPolicy for FirstFit {
    fn name(&self) -> &str {
        "first-fit"
    }

    fn begin_round(&mut self, store: &PlacementStore) {
        self.plan = Some(SlotPlan::build(store, &ServerEntry::admits_be_static));
    }

    fn round_candidates(&self) -> usize {
        self.plan.as_ref().map_or(0, |p| p.candidates)
    }

    fn place(
        &mut self,
        _job: &BeJob,
        _store: &PlacementStore,
        _rng: &mut SimRng,
    ) -> Option<ServerId> {
        let plan = round_plan(&mut self.plan, "first-fit");
        if plan.candidates == 0 {
            return None;
        }
        // Rank 0 in ascending id order: the lowest admitting server.
        let id = plan.select(0);
        plan.take(id);
        Some(id)
    }
}

/// Admitting server with the most *marginal headroom* for a new job: the
/// server's free compute in absolute cores, split across the jobs that
/// would share its BE slice.
///
/// On a uniform fleet this reduces to classic least-loaded placement (the
/// lowest LC load wins).  On a mixed fleet the ranking is where capacity
/// awareness earns its keep: a 48-core box at 40% load has far more
/// machine time to give a job than a 16-core box at 30%, so ranking by
/// load *fraction* — the homogeneous habit — systematically wastes the big
/// boxes.  Dividing by `1 + residents` folds in the occupancy cost:
/// resident jobs share their server's BE slice, so the marginal throughput
/// of joining an occupied server shrinks with each incumbent.
#[derive(Debug, Default)]
pub struct LeastLoaded {
    plan: Option<BinaryHeap<HeapEntry>>,
}

/// [`LeastLoaded`]'s score at a given resident count (the only per-round
/// variable): strictly decreasing in `residents`, which is what makes the
/// lazy heap's stale entries safe upper bounds.
fn least_loaded_score(server: &ServerEntry, residents: usize) -> f64 {
    marginal_headroom_cores(
        server,
        server.projected_load(LEAST_LOADED_TREND_HORIZON),
        residents as f64,
    )
}

/// How far ahead [`LeastLoaded`] projects the load trend when ranking
/// headroom: far enough that a server climbing towards its peak loses
/// against one descending from it, shorter than [`InterferenceAware`]'s
/// horizon (which also prices the controller's ramp-up investment).
const LEAST_LOADED_TREND_HORIZON: f64 = 4.0;

/// LC load beyond which [`InterferenceAware`] considers a service near its
/// latency knee.
const INTERFERENCE_AWARE_KNEE_LOAD: f64 = 0.70;

/// Steps ahead [`InterferenceAware`] projects a server's load trend when
/// judging knee proximity.  A placement is an investment — the controller
/// ramps the BE share from one core — so what matters is where the
/// server's diurnal trajectory will be while the ramp amortises, not where
/// it is now.
const INTERFERENCE_AWARE_TREND_HORIZON: f64 = 8.0;

/// The marginal free compute (in cores) a new job would enjoy on a server:
/// the capacity the LC service is not projected to use, split with the
/// effective crowd sharing the BE slice.
///
/// Floored at half a core: when a server's projected load pins at 1.0 the
/// raw headroom is zero for *every* such server, and a hard zero would
/// erase all remaining discrimination (crowding here, and the multiplied
/// interference/affinity factors in [`InterferenceAware`]'s score).
///
/// Public because the autoscaler's drain pricer ranks migration
/// *destinations* by exactly this quantity — a move from a 16-core box to a
/// 48-core one changes the job's progress rate, so the move is priced
/// against the destination's marginal headroom, not its load fraction.
pub fn marginal_headroom_cores(server: &ServerEntry, projected_load: f64, crowd: f64) -> f64 {
    (server.cores as f64 * (1.0 - projected_load)).max(0.5) / (1.0 + crowd)
}

/// [`InterferenceAware`]'s occupancy discount when the incumbent BE
/// workload is of the same kind as the job being placed (kind-affinity: the
/// newcomer shares, then inherits, the grown allocation with no controller
/// restart, so the effective crowd is smaller than the head count).
const SAME_KIND_OCCUPANCY_DISCOUNT: f64 = 0.25;

impl PlacementPolicy for LeastLoaded {
    fn name(&self) -> &str {
        "least-loaded"
    }

    fn begin_round(&mut self, store: &PlacementStore) {
        self.plan = Some(scored_candidates(store, &least_loaded_score));
    }

    fn round_candidates(&self) -> usize {
        self.plan.as_ref().map_or(0, |h| h.len())
    }

    fn place(
        &mut self,
        _job: &BeJob,
        store: &PlacementStore,
        _rng: &mut SimRng,
    ) -> Option<ServerId> {
        pop_best(round_plan(&mut self.plan, "least-loaded"), store, &least_loaded_score)
    }
}

/// How hostile each BE workload is to a colocated LC service, measured from
/// the paper's §3.2 interference characterization (Figure 1), per
/// (hardware generation, LC service) cell.
///
/// Each workload is run as an antagonist against the cell's LC workload at
/// 20% load with the characterization's fixed layouts; the amount by which
/// the resulting tail latency overshoots the SLO is the hostility score (0
/// for workloads that leave the SLO intact, ~1+ for DRAM streaming).  Low
/// load is where Figure 1 separates the antagonists most sharply — the
/// antagonist holds most of the machine, so the damage it can do is fully
/// expressed.
///
/// The key is two-dimensional because interference is: the same antagonist
/// saturates a low-bandwidth Sandy Bridge long before it dents a Skylake
/// (the hardware axis), and an iperf-style network streamer that barely
/// registers next to ml_cluster devastates a network-bound memkeyval leaf
/// (the service axis).  Cells sharing an identical (LC workload, hardware)
/// pair share one characterization run — the cells are cached by content,
/// not by index.
#[derive(Debug, Clone, PartialEq)]
pub struct InterferenceModel {
    /// Measured scores, keyed by (generation index, LC service, workload
    /// kind).
    hostility: HashMap<(usize, LcKind, BeKind), f64>,
    /// Service-agnostic per-generation scores (from
    /// [`from_generation_scores`]); consulted when a full cell was never
    /// measured.
    ///
    /// [`from_generation_scores`]: InterferenceModel::from_generation_scores
    by_generation: HashMap<(usize, BeKind), f64>,
    /// Generation- and service-independent scores (from [`from_scores`]);
    /// the last fallback before the cautious default.
    ///
    /// [`from_scores`]: InterferenceModel::from_scores
    uniform: HashMap<BeKind, f64>,
}

impl InterferenceModel {
    /// Load at which the characterization cells are measured.
    const PROBE_LOAD: f64 = 0.2;

    /// Measures hostility scores for `kinds` against each (generation,
    /// service) cell's LC workload and hardware configuration, running one
    /// characterization per *distinct* (workload, `ServerConfig`) pair
    /// (duplicates share the measurement) with all cells in parallel.
    ///
    /// `cells` carries one entry per (generation index, service) pair
    /// present in the fleet, with the service's workload already scaled to
    /// the generation's capacity.
    ///
    /// Every probe runs on `colo`'s seed, so their windows' standard draws
    /// are drawn once, as one [`SharedDraws`] table, before the fan-out and
    /// shared by every probe: the scores are bit for bit those of probes
    /// drawing their own.  The table lives as long as this call.
    pub fn characterize(
        kinds: &[BeWorkload],
        cells: &[(usize, LcKind, LcWorkload, ServerConfig)],
        colo: &ColoConfig,
    ) -> Self {
        // Cache: point each cell at the first cell with an equal
        // (workload, hardware) pair, and only measure those.
        let source_of: Vec<usize> = cells
            .iter()
            .enumerate()
            .map(|(i, (_, _, lc, config))| {
                cells[..i]
                    .iter()
                    .position(|(_, _, plc, pconfig)| pconfig == config && plc == lc)
                    .unwrap_or(i)
            })
            .collect();
        let probes: Vec<(usize, BeWorkload)> = source_of
            .iter()
            .enumerate()
            .filter(|&(i, &source)| i == source)
            .flat_map(|(i, _)| kinds.iter().map(move |w| (i, w.clone())))
            .collect();
        let draws = SharedDraws::new(colo, CELL_WINDOWS);
        let measured: HashMap<(usize, BeKind), f64> = parallel_map(&probes, |(cell, w)| {
            let (_, _, lc, config) = &cells[*cell];
            let probed = characterize_cell(lc, w, Self::PROBE_LOAD, config, colo, Some(&draws));
            ((*cell, w.kind()), (probed.normalized_latency - 1.0).max(0.0))
        })
        .into_iter()
        .collect();
        let hostility = source_of
            .iter()
            .enumerate()
            .flat_map(|(i, &source)| {
                let measured = &measured;
                let (gen, service, _, _) = cells[i];
                kinds.iter().map(move |w| ((gen, service, w.kind()), measured[&(source, w.kind())]))
            })
            .collect();
        InterferenceModel { hostility, by_generation: HashMap::new(), uniform: HashMap::new() }
    }

    /// A model built from explicit generation- and service-independent
    /// scores (used by tests and callers that already have
    /// characterization data).
    pub fn from_scores(scores: impl IntoIterator<Item = (BeKind, f64)>) -> Self {
        InterferenceModel {
            hostility: HashMap::new(),
            by_generation: HashMap::new(),
            uniform: scores.into_iter().collect(),
        }
    }

    /// A model built from explicit per-(generation, kind) scores — for
    /// tests and callers carrying external service-agnostic
    /// characterization data (e.g. the autoscaler's generation market).
    pub fn from_generation_scores(
        scores: impl IntoIterator<Item = ((usize, BeKind), f64)>,
    ) -> Self {
        InterferenceModel {
            hostility: HashMap::new(),
            by_generation: scores.into_iter().collect(),
            uniform: HashMap::new(),
        }
    }

    /// The hostility score of a BE kind on a given (hardware generation,
    /// LC service) cell.  Unmeasured cells fall back to the
    /// service-agnostic per-generation scores, then to the uniform scores,
    /// then to a cautious middle-of-the-road 0.5 rather than zero.
    pub fn hostility(&self, generation: usize, service: LcKind, kind: BeKind) -> f64 {
        self.hostility
            .get(&(generation, service, kind))
            .or_else(|| self.by_generation.get(&(generation, kind)))
            .or_else(|| self.uniform.get(&kind))
            .copied()
            .unwrap_or(0.5)
    }
}

/// Interference-characterization-guided placement.
///
/// Raw hostility scores span orders of magnitude (an unmanaged stream-DRAM
/// antagonist inflates websearch's tail by ~300×, brain by ~1.5×), so the
/// policy works on the saturating *pressure* `h / (1 + h)` in `[0, 1)`.
/// Mildly hostile jobs (brain) merely prefer emptier servers — a per-server
/// Heracles controller contains them fine; extreme antagonists
/// (stream-DRAM, streetview) are steered away from services near their
/// latency knee, where the controller could only protect the SLO by
/// disabling them and wasting the placement.
#[derive(Debug, Clone)]
pub struct InterferenceAware {
    model: InterferenceModel,
    /// The active round's lazy score heaps, one per distinct job profile.
    /// Two jobs score identically iff they share a workload kind *and*
    /// memory intensity (custom workloads can differ in intensity within a
    /// kind), so the key carries both; heaps are built on a profile's
    /// first job of the round.
    round: Option<HashMap<(BeKind, u64), BinaryHeap<HeapEntry>>>,
}

/// Weight of the DRAM-bandwidth affinity factor: the fractional headroom
/// bonus a fully memory-bound job sees on a generation with twice the
/// reference bandwidth (and the matching malus below it).
const DRAM_AFFINITY_WEIGHT: f64 = 0.4;

impl InterferenceAware {
    /// Creates the policy from a measured interference model.
    pub fn new(model: InterferenceModel) -> Self {
        InterferenceAware { model, round: None }
    }

    /// How desirable `server` is for `job` (higher is better) at an
    /// explicit resident count — the round plans re-score winners at
    /// `residents + 1` before their placements commit.  Free-standing over
    /// the model so a `place` call can borrow the round heaps mutably at
    /// the same time.  Strictly decreasing in
    /// `residents` (the crowd divisor only grows), which is what makes the
    /// lazy heap's stale entries safe upper bounds.
    fn score_at(
        model: &InterferenceModel,
        job: &BeJob,
        server: &ServerEntry,
        residents: usize,
    ) -> f64 {
        // The base currency is marginal headroom in absolute cores — what
        // the job would actually get to grow into — computed against the
        // *projected* load: a placement is an investment (the controller
        // ramps the BE share from one core), so what matters is where the
        // server's diurnal trajectory will be while the ramp amortises.
        //
        // Sharing a server is much cheaper with a job of the same kind: the
        // newcomer rides the already-grown BE allocation and inherits it
        // seamlessly when the incumbent finishes, instead of forcing a
        // conservative controller restart — so kind-affinity discounts the
        // effective crowd.
        //
        // The headroom is then shaded by interference: hostility is the
        // *generation's* measured score (the same antagonist can saturate a
        // low-bandwidth older box and leave a newer one healthy), and
        // pairing a hostile job with a near-knee service — or any job with
        // a server projected past the controller's re-enable threshold (a
        // looming disable, hence a wasted ramp) — divides the value away.
        // DRAM-hungry jobs additionally prefer high-bandwidth generations,
        // where their progress is not bandwidth-capped and their contention
        // hurts the colocated LC service least.  These are soft
        // preferences, not gates: with every server defended by its own
        // Heracles controller, a mediocre placement still beats holding the
        // job at zero progress.
        let kind = job.workload.kind();
        let hostility = model.hostility(server.generation, server.service, kind);
        let pressure = hostility / (1.0 + hostility);
        let projected = server.projected_load(INTERFERENCE_AWARE_TREND_HORIZON);
        let crowd = if server.attached_kind == Some(kind) {
            SAME_KIND_OCCUPANCY_DISCOUNT * residents as f64
        } else {
            residents as f64
        };
        let headroom = marginal_headroom_cores(server, projected, crowd);
        let knee_penalty = pressure * (projected - INTERFERENCE_AWARE_KNEE_LOAD).max(0.0) * 4.0
            + (projected - LOAD_DISABLE_THRESHOLD).max(0.0) * 10.0;
        let bandwidth_ratio = server.dram_peak_gbps / REFERENCE_DRAM_GBPS;
        let dram_affinity =
            1.0 + DRAM_AFFINITY_WEIGHT * job.workload.memory_intensity() * (bandwidth_ratio - 1.0);
        headroom * dram_affinity.max(0.1) / (1.0 + knee_penalty)
    }
}

impl PlacementPolicy for InterferenceAware {
    fn name(&self) -> &str {
        "interference-aware"
    }

    fn begin_round(&mut self, _store: &PlacementStore) {
        // Heaps are profile-keyed and built lazily on each profile's first
        // job, so there is nothing to precompute until jobs arrive.
        self.round = Some(HashMap::new());
    }

    fn round_candidates(&self) -> usize {
        self.round.as_ref().map_or(0, |r| r.values().map(|h| h.len()).sum())
    }

    fn place(
        &mut self,
        job: &BeJob,
        store: &PlacementStore,
        _rng: &mut SimRng,
    ) -> Option<ServerId> {
        let model = &self.model;
        let score =
            |server: &ServerEntry, residents: usize| Self::score_at(model, job, server, residents);
        let round = round_plan(&mut self.round, "interference-aware");
        let key = (job.workload.kind(), job.workload.memory_intensity().to_bits());
        let heap = round.entry(key).or_insert_with(|| scored_candidates(store, &score));
        pop_best(heap, store, &score)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::ServerCapacity;
    use heracles_sim::SimTime;
    use heracles_workloads::BeWorkload;

    fn job_of(workload: BeWorkload) -> BeJob {
        BeJob {
            id: 0,
            workload,
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

    /// A store with three servers at loads 0.7 / 0.3 / 0.5, all healthy.
    fn store() -> PlacementStore {
        let mut store = PlacementStore::new(3, 1);
        for (id, load) in [(0, 0.7), (1, 0.3), (2, 0.5)] {
            store.set_load(id, load);
            store.observe(id, 0.4, true);
        }
        store
    }

    /// Places one job in a round of its own.
    fn place_one(
        policy: &mut dyn PlacementPolicy,
        job: &BeJob,
        store: &PlacementStore,
        rng: &mut SimRng,
    ) -> Option<ServerId> {
        policy.begin_round(store);
        policy.place(job, store, rng)
    }

    #[test]
    #[should_panic(expected = "first-fit: place called before begin_round")]
    fn placing_before_a_round_panics() {
        FirstFit::default().place(&job_of(BeWorkload::brain()), &store(), &mut SimRng::new(1));
    }

    #[test]
    fn policy_kind_round_trips_names() {
        for kind in PolicyKind::all() {
            assert_eq!(kind.name().parse::<PolicyKind>().unwrap(), kind);
        }
        assert!("nonsense".parse::<PolicyKind>().is_err());
    }

    #[test]
    fn random_uses_any_admitted_free_slot_even_unhealthy() {
        let mut store = store();
        // Server 0: terrible slack but BE still enabled — Random doesn't
        // care about slack, so it stays a candidate.
        store.observe(0, -0.5, true);
        let mut rng = SimRng::new(1);
        let mut hits = [0usize; 3];
        for _ in 0..300 {
            let s = place_one(
                &mut RandomPlacement::default(),
                &job_of(BeWorkload::brain()),
                &store,
                &mut rng,
            )
            .expect("slots are free");
            hits[s] += 1;
        }
        assert!(hits.iter().all(|&h| h > 50), "{hits:?}");

        // But a controller that has *disabled* BE takes its server out of
        // the draw: a job placed there cannot run at all.
        store.observe(0, 0.5, false);
        for _ in 0..100 {
            let s = place_one(
                &mut RandomPlacement::default(),
                &job_of(BeWorkload::brain()),
                &store,
                &mut rng,
            )
            .expect("servers 1 and 2 admit");
            assert_ne!(s, 0, "random placed onto a BE-disabled server");
        }
    }

    #[test]
    fn no_policy_targets_a_draining_server() {
        let mut store = store();
        // Server 1 is the most attractive (emptiest) — but it is draining.
        store.begin_drain(1);
        let mut rng = SimRng::new(1);
        let job = job_of(BeWorkload::brain());
        for _ in 0..50 {
            assert_ne!(place_one(&mut RandomPlacement::default(), &job, &store, &mut rng), Some(1));
        }
        assert_eq!(place_one(&mut FirstFit::default(), &job, &store, &mut rng), Some(0));
        assert_eq!(place_one(&mut LeastLoaded::default(), &job, &store, &mut rng), Some(2));
        let mut aware = InterferenceAware::new(InterferenceModel::from_scores([]));
        assert_ne!(place_one(&mut aware, &job, &store, &mut rng), Some(1));
    }

    #[test]
    fn first_fit_takes_the_lowest_admitting_server() {
        let mut store = store();
        let mut rng = SimRng::new(1);
        assert_eq!(
            place_one(&mut FirstFit::default(), &job_of(BeWorkload::brain()), &store, &mut rng),
            Some(0)
        );
        // Server 0 loses its slack entirely: first fit moves on to server 1.
        store.observe(0, -0.05, true);
        assert_eq!(
            place_one(&mut FirstFit::default(), &job_of(BeWorkload::brain()), &store, &mut rng),
            Some(1)
        );
        // Fill every slot: nothing fits.
        store.place(10, 1);
        store.place(11, 2);
        assert_eq!(
            place_one(&mut FirstFit::default(), &job_of(BeWorkload::brain()), &store, &mut rng),
            None
        );
    }

    #[test]
    fn least_loaded_picks_the_emptiest_admitting_server() {
        let store = store();
        let mut rng = SimRng::new(1);
        assert_eq!(
            place_one(&mut LeastLoaded::default(), &job_of(BeWorkload::brain()), &store, &mut rng),
            Some(1)
        );
    }

    #[test]
    fn interference_aware_steers_hostile_jobs_away_from_near_knee_servers() {
        let mut rng = SimRng::new(1);
        let model =
            InterferenceModel::from_scores([(BeKind::StreamDram, 50.0), (BeKind::LlcSmall, 0.0)]);
        let mut policy = InterferenceAware::new(model);
        // The hostile job goes to the emptiest server of the 0.7/0.3/0.5
        // fleet.
        assert_eq!(
            place_one(&mut policy, &job_of(BeWorkload::stream_dram()), &store(), &mut rng),
            Some(1)
        );

        // Two servers: a near-knee empty one (0.79) vs a moderately loaded
        // one (0.40) already hosting two jobs.  A benign job takes the
        // empty near-knee server (more marginal headroom); the hostile
        // antagonist accepts sharing the calm server instead of sitting
        // next to a near-knee LC service.
        let slots = ServerCapacity::reference(3);
        let mut divided = PlacementStore::heterogeneous(&[slots, slots]);
        for (id, load) in [(0, 0.79), (1, 0.40)] {
            divided.set_load(id, load);
            divided.observe(id, 0.4, true);
        }
        divided.place(20, 1);
        divided.place(21, 1);
        assert_eq!(
            place_one(&mut policy, &job_of(BeWorkload::llc_small()), &divided, &mut rng),
            Some(0)
        );
        assert_eq!(
            place_one(&mut policy, &job_of(BeWorkload::stream_dram()), &divided, &mut rng),
            Some(1)
        );

        // The policy never holds a placeable job: when only the near-knee
        // server has a slot, even the antagonist goes there.
        divided.place(22, 1);
        assert_eq!(
            place_one(&mut policy, &job_of(BeWorkload::stream_dram()), &divided, &mut rng),
            Some(0)
        );
    }

    #[test]
    fn characterized_model_ranks_dram_streaming_above_small_llc() {
        let model = InterferenceModel::characterize(
            &[BeWorkload::stream_dram(), BeWorkload::llc_small()],
            &[(0, LcKind::Websearch, LcWorkload::websearch(), ServerConfig::default_haswell())],
            &ColoConfig::fast_test(),
        );
        let dram = model.hostility(0, LcKind::Websearch, BeKind::StreamDram);
        let small = model.hostility(0, LcKind::Websearch, BeKind::LlcSmall);
        assert!(dram > 0.5, "stream-DRAM hostility {dram:.2}");
        assert!(dram > small, "dram {dram:.2} <= llc_small {small:.2}");
        // Unknown kinds, unmeasured generations and unmeasured services all
        // get the cautious default.
        assert_eq!(model.hostility(0, LcKind::Websearch, BeKind::Iperf), 0.5);
        assert_eq!(model.hostility(7, LcKind::Websearch, BeKind::Iperf), 0.5);
        assert_eq!(model.hostility(0, LcKind::Memkeyval, BeKind::StreamDram), 0.5);
    }

    /// The probes' shared draws change no score: each is bit for bit the
    /// score of its probe drawing its own windows, the OS-only `brain` row
    /// (whose scheduling delays draw after the queue) included.
    #[test]
    fn shared_draws_characterize_as_private_probes_do() {
        let colo = ColoConfig { requests_per_window: 1_000, ..ColoConfig::default() }
            .with_seed(42 ^ 0xCAFE);
        let mut kinds = BeWorkload::characterization_antagonists();
        kinds.push(BeWorkload::streetview());
        let cells = [
            (0, LcKind::Websearch, LcWorkload::websearch(), ServerConfig::default_haswell()),
            (
                1,
                LcKind::Memkeyval,
                LcWorkload::memkeyval().scaled_to_capacity(0.5),
                ServerConfig::small_test(),
            ),
        ];
        let model = InterferenceModel::characterize(&kinds, &cells, &colo);
        for (generation, service, lc, config) in &cells {
            for w in &kinds {
                let probed =
                    characterize_cell(lc, w, InterferenceModel::PROBE_LOAD, config, &colo, None);
                let want = (probed.normalized_latency - 1.0).max(0.0);
                let got = model.hostility(*generation, *service, w.kind());
                assert_eq!(got.to_bits(), want.to_bits(), "{service:?} × {}", w.name());
            }
        }
    }

    #[test]
    fn characterization_is_cached_per_distinct_config() {
        let ws = LcWorkload::websearch();
        let haswell = ServerConfig::default_haswell();
        // Three cells, two of them identical (workload, hardware) pairs:
        // the duplicates must share one measurement exactly.
        let model = InterferenceModel::characterize(
            &[BeWorkload::stream_dram()],
            &[
                (0, LcKind::Websearch, ws.clone(), haswell.clone()),
                (1, LcKind::Websearch, ws.scaled_to_capacity(0.5), ServerConfig::small_test()),
                (2, LcKind::Websearch, ws.clone(), haswell.clone()),
            ],
            &ColoConfig::fast_test(),
        );
        assert_eq!(
            model.hostility(0, LcKind::Websearch, BeKind::StreamDram),
            model.hostility(2, LcKind::Websearch, BeKind::StreamDram),
            "duplicate configs did not share the cached cell"
        );
        // The smaller, lower-bandwidth box sees a different (not cached)
        // score than the Haswell.
        assert_ne!(
            model.hostility(0, LcKind::Websearch, BeKind::StreamDram),
            model.hostility(1, LcKind::Websearch, BeKind::StreamDram)
        );
    }

    #[test]
    fn iperf_is_hostile_to_memkeyval_but_tolerable_next_to_ml_cluster() {
        // The service axis of the interference key: an iperf-style network
        // streamer saturates the NIC that a network-bound memkeyval leaf
        // lives on, while ml_cluster (tiny responses) barely notices.
        let model = InterferenceModel::characterize(
            &[BeWorkload::iperf()],
            &[
                (1, LcKind::Memkeyval, LcWorkload::memkeyval(), ServerConfig::default_haswell()),
                (1, LcKind::MlCluster, LcWorkload::ml_cluster(), ServerConfig::default_haswell()),
            ],
            &ColoConfig::fast_test(),
        );
        let kv = model.hostility(1, LcKind::Memkeyval, BeKind::Iperf);
        let ml = model.hostility(1, LcKind::MlCluster, BeKind::Iperf);
        assert!(kv > ml, "iperf on memkeyval {kv:.2} <= on ml_cluster {ml:.2}");
        assert!(kv > 0.5, "iperf barely dented memkeyval ({kv:.2})");
    }

    #[test]
    fn dram_hungry_jobs_prefer_high_bandwidth_generations() {
        let mut rng = SimRng::new(1);
        let model = InterferenceModel::from_scores([(BeKind::Streetview, 5.0)]);
        let mut policy = InterferenceAware::new(model);
        // Two servers with identical core counts and loads, differing only
        // in DRAM bandwidth, so the bandwidth-affinity factor is the only
        // discriminator.
        let slow = ServerCapacity {
            cores: 36,
            dram_peak_gbps: 80.0,
            be_slots: 2,
            generation: 0,
            service: LcKind::Websearch,
            peak_qps: 2_900.0,
        };
        let fast = ServerCapacity {
            cores: 36,
            dram_peak_gbps: 200.0,
            be_slots: 2,
            generation: 2,
            service: LcKind::Websearch,
            peak_qps: 2_900.0,
        };
        let mut store = PlacementStore::heterogeneous(&[slow, fast]);
        for id in 0..2 {
            store.set_load(id, 0.4);
            store.observe(id, 0.5, true);
        }
        // streetview hammers DRAM: it goes to the high-bandwidth box.
        assert_eq!(
            place_one(&mut policy, &job_of(BeWorkload::streetview()), &store, &mut rng),
            Some(1)
        );
        // A job with zero memory intensity has no bandwidth preference; the
        // tie breaks by id to the first admitting server.
        assert_eq!(
            place_one(&mut policy, &job_of(BeWorkload::spinloop()), &store, &mut rng),
            Some(0)
        );
    }

    /// A five-server store mixing generations, loads, slacks, verdicts,
    /// lifecycle states and prior occupancy — enough structure that every
    /// policy's plan has winners, losers, staleness and exhaustion to get
    /// right.
    fn churned_store() -> PlacementStore {
        let caps = [
            ServerCapacity::from_config(&ServerConfig::older_sandy_bridge(), 3, 0),
            ServerCapacity::from_config(&ServerConfig::default_haswell(), 3, 1),
            ServerCapacity::from_config(&ServerConfig::newer_skylake(), 3, 2),
            ServerCapacity::reference(2),
            ServerCapacity::reference(2),
        ];
        let mut store = PlacementStore::heterogeneous(&caps);
        for (id, load, slack, admitted) in [
            (0, 0.72, 0.05, true),
            (1, 0.30, 0.40, true),
            (2, 0.55, 0.20, true),
            (3, 0.10, 0.80, false),
            (4, 0.40, 0.30, true),
        ] {
            store.set_load(id, load);
            store.observe(id, slack, admitted);
        }
        store.begin_drain(4);
        store.place(90, 1);
        store.set_attached_kind(1, Some(BeKind::Brain));
        store
    }

    /// The per-job full scan each round plan must reproduce: the whole
    /// store is read afresh for every job, with the same candidates, scores
    /// and id tie-break the plans use.
    fn per_job_scan(
        kind: PolicyKind,
        model: &InterferenceModel,
        job: &BeJob,
        store: &PlacementStore,
        rng: &mut SimRng,
    ) -> Option<ServerId> {
        let admitting = || store.servers().iter().filter(|s| s.admits_be());
        let best = |score: &dyn Fn(&ServerEntry) -> f64| {
            admitting()
                .max_by(|a, b| score(a).partial_cmp(&score(b)).unwrap().then(b.id.cmp(&a.id)))
                .map(|s| s.id)
        };
        match kind {
            PolicyKind::Random => {
                let candidates: Vec<ServerId> = store
                    .servers()
                    .iter()
                    .filter(|s| random_candidate(s) && s.has_free_slot())
                    .map(|s| s.id)
                    .collect();
                (!candidates.is_empty()).then(|| candidates[rng.index(candidates.len())])
            }
            PolicyKind::FirstFit => admitting().next().map(|s| s.id),
            PolicyKind::LeastLoaded => best(&|s| least_loaded_score(s, s.resident.len())),
            PolicyKind::InterferenceAware => {
                best(&|s| InterferenceAware::score_at(model, job, s, s.resident.len()))
            }
        }
    }

    #[test]
    fn round_plans_match_the_per_job_scans() {
        let model = InterferenceModel::from_scores([
            (BeKind::Brain, 1.5),
            (BeKind::StreamDram, 290.0),
            (BeKind::Streetview, 50.0),
            (BeKind::LlcSmall, 0.1),
        ]);
        let workloads = [
            BeWorkload::brain(),
            BeWorkload::stream_dram(),
            BeWorkload::llc_small(),
            BeWorkload::streetview(),
            BeWorkload::brain(),
            BeWorkload::iperf(),
            BeWorkload::stream_dram(),
            BeWorkload::llc_medium(),
            BeWorkload::brain(),
            BeWorkload::spinloop(),
        ];
        for seed in 0..10u64 {
            for kind in PolicyKind::all() {
                let mut policy: Box<dyn PlacementPolicy> = match kind {
                    PolicyKind::Random => Box::new(RandomPlacement::default()),
                    PolicyKind::FirstFit => Box::new(FirstFit::default()),
                    PolicyKind::LeastLoaded => Box::new(LeastLoaded::default()),
                    PolicyKind::InterferenceAware => {
                        Box::new(InterferenceAware::new(model.clone()))
                    }
                };
                let (mut planned_store, mut scanned_store) = (churned_store(), churned_store());
                let (mut planned_rng, mut scanned_rng) = (SimRng::new(seed), SimRng::new(seed));
                policy.begin_round(&planned_store);
                for (i, w) in workloads.iter().enumerate() {
                    let mut job = job_of(w.clone());
                    job.id = 100 + i;
                    let planned = policy.place(&job, &planned_store, &mut planned_rng);
                    let scanned =
                        per_job_scan(kind, &model, &job, &scanned_store, &mut scanned_rng);
                    assert_eq!(
                        planned,
                        scanned,
                        "round plan diverged from the per-job scan for {} (seed {seed}, job {i})",
                        kind.name()
                    );
                    if let Some(server) = planned {
                        planned_store.place(job.id, server);
                        scanned_store.place(job.id, server);
                    }
                }
            }
        }
    }

    #[test]
    fn a_new_round_rebuilds_the_plan_against_fresh_state() {
        let mut policy = LeastLoaded::default();
        let mut store = churned_store();
        let mut rng = SimRng::new(3);
        policy.begin_round(&store);
        let job = job_of(BeWorkload::brain());
        let first = policy.place(&job, &store, &mut rng).expect("servers admit");
        store.place(200, first);
        // Between rounds the world changes: the previous winner's load
        // spikes past admission and a prior loser recovers.
        store.set_load(first, 0.95);
        store.observe(first, 0.01, true);
        store.set_load(3, 0.10);
        store.observe(3, 0.85, true);
        policy.begin_round(&store);
        let second = policy.place(&job, &store, &mut rng).expect("server 3 admits");
        assert_ne!(second, first, "stale plan survived into the next round");
        assert_eq!(second, 3);
    }

    #[test]
    fn least_loaded_ranks_by_absolute_headroom_not_load_fraction() {
        let mut rng = SimRng::new(1);
        let small = ServerCapacity {
            cores: 16,
            dram_peak_gbps: 80.0,
            be_slots: 3,
            generation: 0,
            service: LcKind::Websearch,
            peak_qps: 1_290.0,
        };
        let big = ServerCapacity {
            cores: 48,
            dram_peak_gbps: 200.0,
            be_slots: 3,
            generation: 2,
            service: LcKind::Websearch,
            peak_qps: 3_870.0,
        };
        let mut store = PlacementStore::heterogeneous(&[small, big]);
        store.set_load(0, 0.30);
        store.set_load(1, 0.40);
        for id in 0..2 {
            store.observe(id, 0.5, true);
        }
        // Load-fraction thinking would pick the 30%-loaded small box; in
        // absolute terms the 40%-loaded big box offers 28.8 free cores
        // against 11.2.
        assert_eq!(
            place_one(&mut LeastLoaded::default(), &job_of(BeWorkload::brain()), &store, &mut rng),
            Some(1)
        );
        // Crowding shrinks the big box's marginal share: with two residents
        // it offers 28.8/3 = 9.6 cores, so the empty small box (11.2) wins.
        store.place(40, 1);
        store.place(41, 1);
        assert_eq!(
            place_one(&mut LeastLoaded::default(), &job_of(BeWorkload::brain()), &store, &mut rng),
            Some(0)
        );
    }
}
