//! The traffic plane: the cluster-wide front-end load balancer that routes
//! each LC service's aggregate diurnal demand onto the fleet's leaves.
//!
//! The paper assumes such a balancer exists (§5.3's cluster experiment
//! divides the websearch trace across its leaves); earlier versions of this
//! fleet inverted that — every server privately owned a phase-offset copy
//! of the trace — which made two things impossible to model.  First, LC
//! capacity was not conserved: a retired server's share of the traffic
//! silently evaporated instead of landing on the survivors, so aggressive
//! scale-in could never hurt the SLO.  Second, a fleet could only ever
//! serve one service.  The [`TrafficPlane`] fixes both: the
//! [`ServiceCatalog`] owns each service's aggregate offered QPS, and a
//! pluggable [`LoadBalancer`] distributes it across that service's
//! in-service leaves every step — when a leaf drains out, its share is
//! re-routed onto the survivors as *added load* that can push them over
//! their latency knee.
//!
//! Conservation is the plane's contract: every step, the sum of per-leaf
//! routed QPS equals the service's offered QPS exactly (to floating-point
//! tolerance), as long as the service has at least one in-service leaf —
//! which is why the fleet refuses to retire a service's last leaf.
//!
//! Every route also classifies each leaf's share against the
//! capacity-weighted split and returns the verdicts and diverts as plain
//! data on its [`RoutingStep`].  The plane renders nothing: the fleet's
//! tracer turns a step's routing into its `traffic` trace lines.

use heracles_sim::SimTime;
use heracles_workloads::{LcKind, ServiceCatalog, NUM_SERVICES};

use crate::store::{PlacementStore, ServerId};

/// What a balancer sees of one in-service leaf when dividing a service's
/// traffic.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LeafView {
    /// The leaf's server id.
    pub(crate) id: ServerId,
    /// The leaf's peak QPS for its service (capacity weight).
    pub(crate) peak_qps: f64,
    /// Latency slack observed over the most recent step (1 = far from the
    /// SLO, 0 = at it, negative = violating).  Cold leaves estimate it from
    /// their last routed load.
    pub(crate) slack: f64,
    /// The load fraction routed to this leaf last step.
    pub(crate) load: f64,
}

/// A cluster-wide front-end load balancer: divides one service's offered
/// QPS across its in-service leaves.
///
/// Implementations must be deterministic (identical inputs give identical
/// routes — the routing property tests pin this) and must conserve demand:
/// the returned per-leaf QPS assignments sum to `offered_qps` whenever
/// `leaves` is non-empty.
pub trait LoadBalancer: Send {
    /// Short human-readable name used in experiment output.
    fn name(&self) -> &str;

    /// Divides `offered_qps` of `service` across `leaves`, returning one
    /// routed QPS per leaf (aligned with `leaves`).
    fn route(&mut self, service: LcKind, offered_qps: f64, leaves: &[LeafView]) -> Vec<f64>;
}

/// Divides `offered_qps` proportionally to `weights` (the shared kernel of
/// the built-in balancers).  Returns one assignment per weight; conservation
/// is exact up to floating point because the shares are normalized by the
/// weight sum.
fn route_by_weight(offered_qps: f64, weights: &[f64]) -> Vec<f64> {
    let total: f64 = weights.iter().sum();
    if total <= 0.0 {
        // Degenerate weights (every leaf at zero): fall back to an even
        // split so the demand still lands somewhere.
        let even = offered_qps / weights.len().max(1) as f64;
        return vec![even; weights.len()];
    }
    weights.iter().map(|w| offered_qps * w / total).collect()
}

/// Capacity-weighted routing: every leaf receives traffic in proportion to
/// its peak QPS, so each leaf of a service runs at the same fraction of its
/// own capacity (the front-end behaviour the heterogeneous-fleet work
/// already assumed).  Blind to slack: when the pool shrinks, every survivor
/// absorbs its proportional slice of the victim's share regardless of how
/// close it already is to its knee.
#[derive(Debug, Default)]
pub(crate) struct CapacityWeighted;

impl LoadBalancer for CapacityWeighted {
    fn name(&self) -> &str {
        "capacity-weighted"
    }

    fn route(&mut self, _service: LcKind, offered_qps: f64, leaves: &[LeafView]) -> Vec<f64> {
        let weights: Vec<f64> = leaves.iter().map(|l| l.peak_qps).collect();
        route_by_weight(offered_qps, &weights)
    }
}

/// Latency slack below which [`SlackAware`] starts diverting a leaf's
/// traffic: within this margin of the SLO a leaf is *distressed*, and the
/// balancer sheds part of its share onto healthier siblings.
const SLACK_DISTRESS_FLOOR: f64 = 0.10;

/// Latency slack at which a sibling counts as able to *absorb* diverted
/// traffic.  When no leaf in the pool clears this bar — the whole pool at
/// its collective knee — diverting is zero-sum-negative (it just pushes a
/// marginally healthier sibling over first), so the balancer falls back to
/// pure capacity weighting.
const SLACK_HEALTHY_FLOOR: f64 = 0.15;

/// Weight multiplier a fully distressed leaf (slack at or below zero)
/// retains.  The divert is deliberately partial: a front end that zeroes a
/// strained leaf's traffic would slosh the whole load between leaves every
/// step and thrash their controllers.
const SLACK_MIN_WEIGHT: f64 = 0.60;

/// Load fraction an absorbing leaf is never pushed past: the diurnal
/// latency knee the placement policies also respect.  Absorption capacity
/// is what separates this balancer from naive slack chasing — a leaf only
/// takes diverted traffic up to this line, however much slack it reports.
const ABSORB_KNEE_LOAD: f64 = 0.70;

/// Consecutive distressed observations before [`SlackAware`] starts
/// diverting a leaf's traffic.  A single window's p99 excursion is noise —
/// the leaf's own controller handles it — while an antagonist the
/// controller is still reining in depresses slack for several steps
/// running, which is the signal worth re-routing around.
const DISTRESS_STREAK_STEPS: u32 = 2;

/// Slack-aware routing: capacity weights, except that leaves observed
/// *persistently distressed* — within [`SLACK_DISTRESS_FLOOR`] of their
/// SLO for [`DISTRESS_STREAK_STEPS`] consecutive routing rounds — shed up
/// to `1 − `[`SLACK_MIN_WEIGHT`] of their share onto siblings that are
/// genuinely healthy (above [`SLACK_HEALTHY_FLOOR`]) and have *load*
/// headroom below the knee to absorb it.
///
/// The asymmetries are the point.  A healthy leaf's weight is its
/// capacity, never more — rewarding high slack with extra traffic turns
/// the balancer into an amplifier that chases the healthiest leaf over its
/// knee.  A pool at its collective knee is left capacity-weighted — when
/// the distress is load, not interference, there is no one to divert *to*,
/// and shuffling the overload between marginal leaves only manufactures
/// violations.  And one noisy window is ignored — the per-leaf Heracles
/// controller is the first responder; the balancer only steps in when the
/// controller is visibly losing.  What remains is exactly the useful case:
/// a leaf idiosyncratically hurt (an antagonist its controller is still
/// reining in) sheds traffic to siblings with real headroom while the
/// controller recovers.  The total is still conserved — slack-aware
/// balancing redistributes SLO risk, it cannot make demand disappear.
#[derive(Debug, Default)]
pub(crate) struct SlackAware {
    /// Consecutive distressed observations per server id, scoped per
    /// service.  One balancer instance routes every service in turn, so
    /// the per-round pruning below must only consider the routed service's
    /// own pool — a global map pruned against one service's leaves would
    /// wipe the other services' streaks.
    streaks: [std::collections::HashMap<ServerId, u32>; NUM_SERVICES],
}

impl LoadBalancer for SlackAware {
    fn name(&self) -> &str {
        "slack-aware"
    }

    fn route(&mut self, service: LcKind, offered_qps: f64, leaves: &[LeafView]) -> Vec<f64> {
        // Rebuild the service's streak map from this round's pool: leaves
        // that drained or retired out of the pool drop their entries, so
        // the map stays bounded by the live pool under autoscale churn and
        // a leaf that later rejoins starts a fresh streak.
        let streaks = &mut self.streaks[service.index()];
        let mut next = std::collections::HashMap::with_capacity(leaves.len());
        for l in leaves {
            if l.slack < SLACK_DISTRESS_FLOOR {
                next.insert(l.id, streaks.get(&l.id).copied().unwrap_or(0) + 1);
            }
        }
        *streaks = next;
        let streaks = &self.streaks[service.index()];
        let base = {
            let weights: Vec<f64> = leaves.iter().map(|l| l.peak_qps).collect();
            route_by_weight(offered_qps, &weights)
        };
        // What the persistently distressed leaves want to shed...
        let divert: Vec<f64> = leaves
            .iter()
            .zip(&base)
            .map(|(l, b)| {
                let streak = streaks.get(&l.id).copied().unwrap_or(0);
                if streak < DISTRESS_STREAK_STEPS {
                    0.0
                } else {
                    let shade = SLACK_MIN_WEIGHT
                        + (1.0 - SLACK_MIN_WEIGHT) * (l.slack.max(0.0) / SLACK_DISTRESS_FLOOR);
                    b * (1.0 - shade)
                }
            })
            .collect();
        let total_divert: f64 = divert.iter().sum();
        // ...and what the healthy leaves can absorb.  Absorption is priced
        // in *load* headroom below the latency knee, not in slack: latency
        // is flat until the knee and cliff-like after it, so a leaf at 85%
        // load can report comfortable slack while having nothing left to
        // take.  Marginal leaves — below healthy, above distressed —
        // neither shed nor absorb.
        let intake_cap: Vec<f64> = leaves
            .iter()
            .map(|l| {
                if l.slack >= SLACK_HEALTHY_FLOOR {
                    (ABSORB_KNEE_LOAD - l.load).max(0.0) * l.peak_qps
                } else {
                    0.0
                }
            })
            .collect();
        let capacity: f64 = intake_cap.iter().sum();
        if total_divert <= 0.0 || capacity <= 0.0 {
            return base;
        }
        let scale = (capacity / total_divert).min(1.0);
        base.iter()
            .zip(&divert)
            .zip(&intake_cap)
            .map(|((b, d), cap)| b - d * scale + cap / capacity * total_divert * scale)
            .collect()
    }
}

/// The built-in balancers, in reporting order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BalancerKind {
    /// Traffic proportional to leaf capacity (slack-blind).
    CapacityWeighted,
    /// Capacity weights shaded by observed latency slack.
    SlackAware,
}

impl BalancerKind {
    /// All built-in balancers, in reporting order.
    pub fn all() -> [BalancerKind; 2] {
        [BalancerKind::CapacityWeighted, BalancerKind::SlackAware]
    }

    /// The balancer's display name.
    pub fn name(self) -> &'static str {
        match self {
            BalancerKind::CapacityWeighted => "capacity-weighted",
            BalancerKind::SlackAware => "slack-aware",
        }
    }

    /// Builds the balancer.
    pub fn build(self) -> Box<dyn LoadBalancer> {
        match self {
            BalancerKind::CapacityWeighted => Box::new(CapacityWeighted),
            BalancerKind::SlackAware => Box::new(SlackAware::default()),
        }
    }
}

impl std::str::FromStr for BalancerKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "capacity-weighted" => Ok(BalancerKind::CapacityWeighted),
            "slack-aware" => Ok(BalancerKind::SlackAware),
            other => Err(format!(
                "unknown balancer {other:?} (expected capacity-weighted or slack-aware)"
            )),
        }
    }
}

/// A leaf whose routed share deviated from the capacity-weighted split.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Divert {
    pub(crate) server: ServerId,
    pub(crate) service: LcKind,
    /// The leaf's capacity-weighted share.
    pub(crate) base_qps: f64,
    /// The share the balancer routed to it.
    pub(crate) routed_qps: f64,
    /// The latency slack the balancer saw.
    pub(crate) slack: f64,
}

/// One step's routing decision: the per-server load fractions, the
/// offered/routed QPS ledger the conservation audit reads, and how each
/// leaf's share compares with the capacity-weighted split.
#[derive(Debug, Clone, PartialEq)]
pub struct RoutingStep {
    /// Load fraction per server id (0 for retired servers and servers of
    /// services with no offered traffic).  May exceed 1.0: a pool that has
    /// shrunk below its service's demand runs its survivors past their
    /// knee — that is the point.
    pub(crate) loads: Vec<f64>,
    /// Offered QPS per service, indexed by [`LcKind::index`].
    pub(crate) offered_qps: [f64; NUM_SERVICES],
    /// Routed QPS per service (what actually landed on leaves).
    pub(crate) routed_qps: [f64; NUM_SERVICES],
    /// The balancer's verdict per server id: `"weighted"` for a
    /// capacity-proportional share, `"shed"` for a leaf the balancer
    /// diverted traffic away from, `"absorbed"` for a leaf that took a
    /// diverted share, `"unrouted"` for a leaf no pool routed (retired, or
    /// its service offered nothing).  Any balancer's diverts show up as
    /// deviations from the capacity-weighted split, so the verdicts need
    /// no trait change.
    pub(crate) verdicts: Vec<&'static str>,
    /// Every shed or absorbing leaf, in routing order (catalog order, then
    /// ascending id).
    pub(crate) diverts: Vec<Divert>,
}

impl RoutingStep {
    /// The worst absolute routed-vs-offered imbalance across services,
    /// relative to the offered volume — the conservation audit number
    /// (zero up to floating point whenever every offered service has a
    /// leaf).
    pub(crate) fn max_imbalance(&self) -> f64 {
        self.offered_qps
            .iter()
            .zip(&self.routed_qps)
            .map(|(o, r)| (o - r).abs() / (1.0 + o))
            .fold(0.0, f64::max)
    }
}

/// The fleet's traffic plane: owns the service catalog's aggregate demand
/// and routes it onto the placement store's in-service leaves every step.
pub struct TrafficPlane {
    catalog: ServiceCatalog,
    balancer: Box<dyn LoadBalancer>,
    /// Aggregate peak QPS each service was provisioned with (the initial
    /// fleet's pool capacity) — the fixed denominator that turns a demand
    /// curve's fraction into offered QPS.  Demand is exogenous: retiring
    /// leaves does not shrink it, which is exactly what the old
    /// per-server-trace model got wrong.
    provisioned_peak_qps: [f64; NUM_SERVICES],
    /// Simulated seconds → diurnal wall seconds (mirrors
    /// `FleetConfig::time_compression`).
    time_compression: f64,
}

impl TrafficPlane {
    /// Creates a plane over `catalog`, provisioned at the given per-service
    /// aggregate peak QPS (normally the initial fleet's pool capacity).
    pub fn new(
        catalog: ServiceCatalog,
        balancer: Box<dyn LoadBalancer>,
        provisioned_peak_qps: [f64; NUM_SERVICES],
        time_compression: f64,
    ) -> Self {
        assert!(
            time_compression.is_finite() && time_compression > 0.0,
            "time compression must be positive, got {time_compression}"
        );
        TrafficPlane { catalog, balancer, provisioned_peak_qps, time_compression }
    }

    /// The service catalog the plane routes for.
    pub fn catalog(&self) -> &ServiceCatalog {
        &self.catalog
    }

    /// The aggregate peak QPS a service was provisioned with.
    pub fn provisioned_peak_qps(&self, service: LcKind) -> f64 {
        self.provisioned_peak_qps[service.index()]
    }

    /// A service's offered QPS at simulated time `now`: its demand curve
    /// (time-compressed) times its provisioned peak.
    pub(crate) fn offered_qps(&self, service: LcKind, now: SimTime) -> f64 {
        match self.catalog.get(service) {
            Some(s) => {
                s.demand_fraction(now.as_secs_f64() * self.time_compression)
                    * self.provisioned_peak_qps[service.index()]
            }
            None => 0.0,
        }
    }

    /// The load fraction a leaf of `service` would run at under pure
    /// capacity-weighted routing at time `now`, given the store's current
    /// in-service pool — the forecast estimate planners and autoscalers
    /// use (the live route may skew per-leaf fractions, but conserves the
    /// same total).
    pub(crate) fn expected_pool_load(
        &self,
        service: LcKind,
        now: SimTime,
        store: &PlacementStore,
    ) -> f64 {
        let pool = store.in_service_peak_qps(service);
        if pool <= 0.0 {
            return 0.0;
        }
        self.offered_qps(service, now) / pool
    }

    /// Routes every catalog service's offered QPS across the store's
    /// in-service leaves, returning the per-server load fractions, the
    /// offered/routed conservation ledger and each leaf's verdict.
    ///
    /// The demand curves are sampled at `demand_now`, which the fleet
    /// quantizes onto its hold grid (so routed loads repeat bitwise across
    /// a held span).  The second argument, the step's own time, is unused:
    /// the fleet's tracer stamps the route's trace lines.  It stays for the
    /// benchmark harness's layer probe, which calls this signature.
    pub fn route_held(
        &mut self,
        demand_now: SimTime,
        _step_now: SimTime,
        store: &PlacementStore,
    ) -> RoutingStep {
        let now = demand_now;
        let mut step = RoutingStep {
            loads: vec![0.0; store.servers().len()],
            offered_qps: [0.0; NUM_SERVICES],
            routed_qps: [0.0; NUM_SERVICES],
            verdicts: vec!["unrouted"; store.servers().len()],
            diverts: Vec::new(),
        };
        for service in self.catalog.services().iter().map(|s| s.kind()).collect::<Vec<_>>() {
            let offered = self.offered_qps(service, now);
            step.offered_qps[service.index()] = offered;
            let leaves: Vec<LeafView> = store
                .service_pool(service)
                .map(|s| LeafView {
                    id: s.id,
                    peak_qps: s.peak_qps,
                    slack: s.slack,
                    load: s.lc_load,
                })
                .collect();
            if leaves.is_empty() {
                // No pool: the demand is unroutable this step.  The fleet
                // guards against retiring a service's last leaf, so this
                // only happens for services the initial fleet never hosted
                // (whose provisioned peak, and hence offered QPS, is zero).
                continue;
            }
            let routed = self.balancer.route(service, offered, &leaves);
            assert_eq!(routed.len(), leaves.len(), "balancer dropped or invented leaves");
            let weights: Vec<f64> = leaves.iter().map(|l| l.peak_qps).collect();
            let base = route_by_weight(offered, &weights);
            for ((leaf, &qps), &base_qps) in leaves.iter().zip(&routed).zip(&base) {
                assert!(qps.is_finite() && qps >= 0.0, "balancer routed {qps} QPS");
                step.loads[leaf.id] = qps / leaf.peak_qps;
                step.routed_qps[service.index()] += qps;
                let tolerance = 1e-9 * (1.0 + base_qps.abs());
                step.verdicts[leaf.id] = if qps < base_qps - tolerance {
                    "shed"
                } else if qps > base_qps + tolerance {
                    "absorbed"
                } else {
                    "weighted"
                };
                if step.verdicts[leaf.id] != "weighted" {
                    let (server, slack) = (leaf.id, leaf.slack);
                    step.diverts.push(Divert { server, service, base_qps, routed_qps: qps, slack });
                }
            }
        }
        step
    }
}

impl std::fmt::Debug for TrafficPlane {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TrafficPlane")
            .field("services", &self.catalog.len())
            .field("balancer", &self.balancer.name())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::ServerCapacity;
    use heracles_sim::SimTime;
    use heracles_workloads::{LcWorkload, ServiceMix};

    fn leaf(id: ServerId, peak_qps: f64, slack: f64) -> LeafView {
        LeafView { id, peak_qps, slack, load: 1.0 - slack }
    }

    #[test]
    fn capacity_weighted_routes_proportionally_and_conserves() {
        let leaves = [leaf(0, 1000.0, 0.5), leaf(1, 3000.0, 0.1)];
        let routed = CapacityWeighted.route(LcKind::Websearch, 2000.0, &leaves);
        assert!((routed[0] - 500.0).abs() < 1e-9);
        assert!((routed[1] - 1500.0).abs() < 1e-9);
        assert!((routed.iter().sum::<f64>() - 2000.0).abs() < 1e-9);
        // Equal fraction of own capacity on every leaf.
        assert!((routed[0] / 1000.0 - routed[1] / 3000.0).abs() < 1e-12);
    }

    #[test]
    fn slack_aware_diverts_from_persistently_distressed_leaves_but_conserves() {
        let mut balancer = SlackAware::default();
        let leaves = [leaf(0, 1000.0, 0.02), leaf(1, 1000.0, 0.60)];
        // The first distressed observation is treated as window noise: the
        // route is still pure capacity weighting.
        let first = balancer.route(LcKind::Websearch, 1000.0, &leaves);
        assert!((first[0] - 500.0).abs() < 1e-9, "diverted on one noisy window: {first:?}");
        // The second consecutive one is a losing controller: divert.
        let routed = balancer.route(LcKind::Websearch, 1000.0, &leaves);
        assert!(routed[1] > routed[0], "traffic did not drain off the distressed leaf: {routed:?}");
        assert!((routed.iter().sum::<f64>() - 1000.0).abs() < 1e-9);
        // The divert is partial: the strained leaf still serves a real share.
        assert!(routed[0] / 1000.0 > 0.3, "divert unbounded: {routed:?}");
        // A healthy observation clears the streak.
        let recovered = balancer.route(
            LcKind::Websearch,
            1000.0,
            &[leaf(0, 1000.0, 0.5), leaf(1, 1000.0, 0.6)],
        );
        assert!((recovered[0] - 500.0).abs() < 1e-9);

        // All leaves healthy reduces to pure capacity weighting — high
        // slack is never *rewarded* with extra traffic.
        let mut fresh = SlackAware::default();
        for _ in 0..3 {
            let even = fresh.route(
                LcKind::Websearch,
                1000.0,
                &[leaf(0, 500.0, 0.15), leaf(1, 1500.0, 0.9)],
            );
            assert!((even[0] - 250.0).abs() < 1e-9 && (even[1] - 750.0).abs() < 1e-9);
        }

        // A pool at its collective knee (no absorber with load headroom)
        // stays capacity-weighted: shuffling overload between marginal
        // leaves only manufactures violations.
        let mut kneebound = SlackAware::default();
        let knee = [leaf(0, 1000.0, 0.02), leaf(1, 1000.0, 0.05)];
        for _ in 0..3 {
            let routed = kneebound.route(LcKind::Websearch, 2000.0, &knee);
            assert!((routed[0] - 1000.0).abs() < 1e-9, "diverted with no absorber: {routed:?}");
        }
    }

    #[test]
    fn slack_aware_prunes_streaks_for_leaves_that_leave_the_pool() {
        let mut balancer = SlackAware::default();
        // Autoscale churn: the distressed pool rotates every round, so a
        // leaky streak map would accumulate one stale entry per round.
        for round in 0..20 {
            let pool = [leaf(round, 1000.0, 0.02), leaf(round + 1, 1000.0, 0.02)];
            balancer.route(LcKind::Websearch, 1000.0, &pool);
            let tracked: usize = balancer.streaks.iter().map(|m| m.len()).sum();
            assert!(
                tracked <= pool.len(),
                "streak map grew past the live pool after round {round}: {tracked} entries"
            );
        }
        // A leaf that left the pool and rejoins starts a fresh streak: its
        // first distressed round back is treated as window noise again.
        let rejoined = balancer.route(
            LcKind::Websearch,
            1000.0,
            &[leaf(0, 1000.0, 0.02), leaf(1, 1000.0, 0.9)],
        );
        assert!((rejoined[0] - 500.0).abs() < 1e-9, "stale streak survived: {rejoined:?}");
    }

    #[test]
    fn slack_aware_streaks_are_scoped_per_service() {
        let mut balancer = SlackAware::default();
        let ws = [leaf(0, 1000.0, 0.02), leaf(1, 1000.0, 0.60)];
        let mkv = [leaf(2, 1000.0, 0.9), leaf(3, 1000.0, 0.9)];
        balancer.route(LcKind::Websearch, 1000.0, &ws);
        // Routing another service's (disjoint) pool between websearch
        // rounds must not clear websearch's distress streaks.
        balancer.route(LcKind::Memkeyval, 1000.0, &mkv);
        let routed = balancer.route(LcKind::Websearch, 1000.0, &ws);
        assert!(
            routed[1] > routed[0],
            "interleaved service routing cleared the distress streak: {routed:?}"
        );
    }

    #[test]
    fn degenerate_weights_fall_back_to_an_even_split() {
        let routed = route_by_weight(900.0, &[0.0, 0.0, 0.0]);
        assert_eq!(routed, vec![300.0; 3]);
    }

    #[test]
    fn balancer_kinds_round_trip_names() {
        for kind in BalancerKind::all() {
            assert_eq!(kind.name().parse::<BalancerKind>().unwrap(), kind);
            assert_eq!(kind.build().name(), kind.name());
        }
        assert!("round-robin".parse::<BalancerKind>().is_err());
    }

    #[test]
    fn plane_routes_the_catalog_and_reports_conservation() {
        let catalog = ServiceCatalog::build(ServiceMix::mixed_frontend(), 5, 1.0);
        let caps: Vec<ServerCapacity> = catalog
            .assignments(6)
            .into_iter()
            .map(|svc| {
                ServerCapacity::for_service(
                    &heracles_hw::ServerConfig::default_haswell(),
                    2,
                    1,
                    svc,
                    LcWorkload::of_kind(svc).peak_qps(),
                )
            })
            .collect();
        let store = PlacementStore::heterogeneous(&caps);
        let provisioned = {
            let mut p = [0.0; NUM_SERVICES];
            for c in &caps {
                p[c.service.index()] += c.peak_qps;
            }
            p
        };
        let mut plane =
            TrafficPlane::new(catalog, BalancerKind::CapacityWeighted.build(), provisioned, 1.0);
        let t = SimTime::from_secs(3600);
        let step = plane.route_held(t, t, &store);
        assert!(step.max_imbalance() < 1e-9, "imbalance {}", step.max_imbalance());
        // Capacity weighting is the split the verdicts compare against.
        assert!(step.verdicts.iter().all(|&v| v == "weighted"), "{:?}", step.verdicts);
        assert!(step.diverts.is_empty());
        // Every in-service leaf got load; every service offered something.
        for s in store.servers() {
            assert!(step.loads[s.id] > 0.0, "leaf {} got no traffic", s.id);
        }
        for k in LcKind::all() {
            assert!(step.offered_qps[k.index()] > 0.0);
        }
        // A retired leaf's share lands on the survivors of its service.
        let mut shrunk = store.clone();
        let ws_leaves: Vec<ServerId> = shrunk
            .servers()
            .iter()
            .filter(|s| s.service == LcKind::Websearch)
            .map(|s| s.id)
            .collect();
        assert!(ws_leaves.len() >= 2, "{ws_leaves:?}");
        shrunk.begin_drain(ws_leaves[0]);
        shrunk.retire(ws_leaves[0]);
        let after = plane.route_held(t, t, &shrunk);
        assert!(after.max_imbalance() < 1e-9);
        assert_eq!(after.loads[ws_leaves[0]], 0.0, "retired leaf still routed");
        assert_eq!(after.verdicts[ws_leaves[0]], "unrouted");
        for &survivor in &ws_leaves[1..] {
            assert!(
                after.loads[survivor] > step.loads[survivor] + 1e-9,
                "survivor {survivor} did not absorb the retired leaf's share"
            );
        }
        assert!(
            (after.routed_qps[0] - step.routed_qps[0]).abs() < 1e-6,
            "scale-in changed the service's routed volume"
        );
    }

    #[test]
    fn routes_classify_diverted_leaves_against_the_capacity_weighted_split() {
        let catalog = ServiceCatalog::build(ServiceMix::websearch_only(), 5, 0.0);
        let mut store = PlacementStore::heterogeneous(&[ServerCapacity::reference(2); 3]);
        let provisioned = [3.0 * LcWorkload::websearch().peak_qps(), 0.0, 0.0];
        let mut plane =
            TrafficPlane::new(catalog, BalancerKind::SlackAware.build(), provisioned, 1.0);
        // Leaf 0 distressed, leaf 1 healthy with load headroom, leaf 2
        // marginal: neither sheds nor absorbs.
        for (id, load, slack) in [(0, 0.3, 0.02), (1, 0.3, 0.6), (2, 0.3, 0.12)] {
            store.set_load(id, load);
            store.observe(id, slack, true);
        }
        let t = SimTime::from_secs(3600);
        // The first distressed route is window noise; the second diverts.
        let first = plane.route_held(t, t, &store);
        assert_eq!(first.verdicts, ["weighted"; 3]);
        let step = plane.route_held(t, t, &store);
        assert_eq!(step.verdicts, ["shed", "absorbed", "weighted"]);
        let servers: Vec<ServerId> = step.diverts.iter().map(|d| d.server).collect();
        assert_eq!(servers, [0, 1]);
        let offered = step.offered_qps[0];
        for d in &step.diverts {
            assert_eq!(d.service, LcKind::Websearch);
            assert!((d.base_qps - offered / 3.0).abs() < 1e-9, "{d:?}");
            let routed = step.loads[d.server] * store.server(d.server).peak_qps;
            assert!((d.routed_qps - routed).abs() < 1e-9, "{d:?}");
            assert_eq!(d.slack, store.server(d.server).slack, "slack is the route-time input");
        }
        assert!(step.diverts[0].routed_qps < step.diverts[0].base_qps);
        assert!(step.diverts[1].routed_qps > step.diverts[1].base_qps);
    }

    #[test]
    fn expected_pool_load_tracks_the_pool_size() {
        let catalog = ServiceCatalog::build(ServiceMix::websearch_only(), 5, 0.0);
        let caps = vec![ServerCapacity::reference(2); 4];
        let mut store = PlacementStore::heterogeneous(&caps);
        let provisioned = [4.0 * LcWorkload::websearch().peak_qps(), 0.0, 0.0];
        let plane =
            TrafficPlane::new(catalog, BalancerKind::CapacityWeighted.build(), provisioned, 1.0);
        let t = SimTime::from_secs(6 * 3600);
        let full = plane.expected_pool_load(LcKind::Websearch, t, &store);
        store.begin_drain(0);
        store.retire(0);
        let shrunk = plane.expected_pool_load(LcKind::Websearch, t, &store);
        assert!((shrunk - full * 4.0 / 3.0).abs() < 1e-9, "{full} -> {shrunk}");
        // Absent services have no load.
        assert_eq!(plane.expected_pool_load(LcKind::Memkeyval, t, &store), 0.0);
    }
}
