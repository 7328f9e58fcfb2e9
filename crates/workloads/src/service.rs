//! First-class LC services: the catalog of latency-critical demand a fleet
//! serves.
//!
//! The paper assumes a cluster-wide front-end load balancer that divides
//! each LC service's diurnal traffic across its leaves.  Modelling that
//! requires the *service* — not the server — to own the demand: an
//! [`LcService`] couples a workload profile (with its SLO) to an aggregate
//! diurnal demand curve and a fleet share, and a [`ServiceCatalog`] is the
//! set of services a fleet serves.  The fleet's traffic plane reads the
//! catalog's offered QPS every step and routes it onto whatever leaves are
//! in service — so a retired leaf's share does not evaporate, it lands on
//! the survivors.
//!
//! A [`ServiceMix`] is the compact, copyable spec (share per service) that
//! configurations and CLIs carry; [`ServiceCatalog::build`] expands it into
//! full descriptors deterministically from a seed.

use heracles_sim::{diffuse, diffuse_counts, SimDuration};

use crate::lc::LcKind;
use crate::trace::DiurnalTrace;

/// Number of distinct LC services the catalog can carry (one slot per
/// [`LcKind`], in kind-index order: websearch, ml_cluster, memkeyval).
pub const NUM_SERVICES: usize = 3;

/// One latency-critical service as the traffic plane sees it: its kind
/// (which names the workload profile, with its SLO and per-reference-server
/// peak QPS), the aggregate diurnal demand curve, and the share of the
/// fleet's leaves provisioned for it.
#[derive(Debug, Clone, PartialEq)]
pub struct LcService {
    kind: LcKind,
    demand: DiurnalTrace,
    fleet_share: f64,
    /// Phase offset of the demand curve, in seconds: real services do not
    /// peak together (search peaks with the workday, caching with the
    /// evening), and the offset is what keeps a mixed fleet spanning the
    /// load range at any instant.
    phase_s: f64,
}

impl LcService {
    /// Creates a service descriptor.
    ///
    /// # Panics
    ///
    /// Panics unless `fleet_share` is in `(0, 1]` and `phase_s` is finite
    /// and non-negative.
    pub(crate) fn new(kind: LcKind, demand: DiurnalTrace, fleet_share: f64, phase_s: f64) -> Self {
        assert!(
            fleet_share.is_finite() && fleet_share > 0.0 && fleet_share <= 1.0,
            "fleet share must be in (0, 1], got {fleet_share}"
        );
        assert!(phase_s.is_finite() && phase_s >= 0.0, "phase must be non-negative, got {phase_s}");
        LcService { kind, demand, fleet_share, phase_s }
    }

    /// The service's kind.
    pub fn kind(&self) -> LcKind {
        self.kind
    }

    /// Fraction of the fleet's leaves provisioned for this service.
    pub(crate) fn fleet_share(&self) -> f64 {
        self.fleet_share
    }

    /// The service's aggregate demand at `at_s` seconds of (already
    /// time-compressed) wall time, as a fraction of its provisioned peak
    /// capacity.  The curve wraps around its period, shifted by the
    /// service's phase.
    pub fn demand_fraction(&self, at_s: f64) -> f64 {
        let period = self.demand.duration().as_secs_f64();
        let t = (at_s + self.phase_s).rem_euclid(period);
        self.demand.load_at(heracles_sim::SimTime::from_secs_f64(t))
    }
}

/// The set of LC services a fleet serves, with their demand curves and
/// fleet shares — the input the traffic plane routes from.
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceCatalog {
    services: Vec<LcService>,
}

impl ServiceCatalog {
    /// Expands a [`ServiceMix`] into full service descriptors,
    /// deterministically from `seed`.
    ///
    /// Each active service gets the 12-hour diurnal curve of its class
    /// (seeded per service, so their noise differs) with the demand phases
    /// spread over `phase_spread` of the period: service *i* of *k* active
    /// services is offset by `period * phase_spread * i / k`.  With one
    /// service the spread is inert; with several it is what keeps the fleet
    /// spanning the load range at any instant.
    ///
    /// # Panics
    ///
    /// Panics if the mix does not [`validate`](ServiceMix::validate) or
    /// `phase_spread` is outside `[0, 1]`.
    pub fn build(mix: ServiceMix, seed: u64, phase_spread: f64) -> Self {
        mix.validate().unwrap_or_else(|e| panic!("invalid service mix: {e}"));
        assert!(
            phase_spread.is_finite() && (0.0..=1.0).contains(&phase_spread),
            "phase spread must be in [0, 1], got {phase_spread}"
        );
        let shares = mix.shares();
        let active: Vec<LcKind> =
            LcKind::all().into_iter().filter(|k| shares[k.index()] > 0.0).collect();
        let period = SimDuration::from_secs(12 * 3600);
        let services = active
            .iter()
            .enumerate()
            .map(|(i, &kind)| {
                // Diurnal swings per class: search rides the workday hard,
                // ml inference is flatter, the key-value cache swings the
                // widest (fan-out caching amplifies front-end diurnality).
                let (min_load, max_load) = match kind {
                    LcKind::Websearch => (0.20, 0.90),
                    LcKind::MlCluster => (0.30, 0.80),
                    LcKind::Memkeyval => (0.15, 0.90),
                };
                let demand = DiurnalTrace::new(
                    period,
                    min_load,
                    max_load,
                    0.03,
                    seed ^ (0x5E41 + kind.index() as u64 * 0x9E37),
                );
                let phase_s = period.as_secs_f64() * phase_spread * i as f64 / active.len() as f64;
                LcService::new(kind, demand, shares[kind.index()], phase_s)
            })
            .collect();
        ServiceCatalog { services }
    }

    /// The services, in kind-index order (only services with a positive
    /// share are present).
    pub fn services(&self) -> &[LcService] {
        &self.services
    }

    /// Number of services in the catalog.
    pub fn len(&self) -> usize {
        self.services.len()
    }

    /// True if the catalog is empty (never the case for a built catalog).
    pub fn is_empty(&self) -> bool {
        self.services.is_empty()
    }

    /// One service by kind, if the catalog carries it.
    pub fn get(&self, kind: LcKind) -> Option<&LcService> {
        self.services.iter().find(|s| s.kind() == kind)
    }

    /// Fleet shares indexed by [`LcKind::index`] (zero for absent services).
    pub(crate) fn shares(&self) -> [f64; NUM_SERVICES] {
        let mut shares = [0.0; NUM_SERVICES];
        for s in &self.services {
            shares[s.kind().index()] = s.fleet_share();
        }
        shares
    }

    /// Assigns a service to each of `fleet` server ids by proportional
    /// error diffusion over the fleet shares ([`diffuse`]), so each
    /// service's leaves interleave evenly across the id range.  A pure
    /// function of the catalog and the fleet size.
    pub fn assignments(&self, fleet: usize) -> Vec<LcKind> {
        diffuse(self.shares(), fleet).map(|k| LcKind::all()[k]).collect()
    }
}

/// The compact, copyable service-mix spec a fleet configuration carries:
/// the share of the fleet's leaves provisioned for each LC service.
///
/// Parses from the CLI spelling `websearch:0.5,memkeyval:0.3,ml_cluster:0.2`
/// (shares must be non-negative and sum to 1), plus the shorthands
/// `websearch` (the single-service fleet) and `mixed` (a representative
/// three-service front end).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServiceMix {
    /// Share of the fleet serving websearch.
    pub websearch: f64,
    /// Share of the fleet serving ml_cluster.
    pub ml_cluster: f64,
    /// Share of the fleet serving memkeyval.
    pub memkeyval: f64,
}

impl ServiceMix {
    /// Every leaf serves websearch (the pre-catalog fleet).
    pub fn websearch_only() -> Self {
        ServiceMix { websearch: 1.0, ml_cluster: 0.0, memkeyval: 0.0 }
    }

    /// A representative mixed front end: half websearch, the rest split
    /// between the cache tier and ml inference.
    pub fn mixed_frontend() -> Self {
        ServiceMix { websearch: 0.5, ml_cluster: 0.2, memkeyval: 0.3 }
    }

    /// The shares indexed by [`LcKind::index`].
    pub fn shares(&self) -> [f64; NUM_SERVICES] {
        [self.websearch, self.ml_cluster, self.memkeyval]
    }

    /// Number of services with a positive share.
    pub fn active_services(&self) -> usize {
        self.shares().iter().filter(|&&s| s > 0.0).count()
    }

    /// How many leaves each service would get on a `fleet` of the given
    /// size, indexed by [`LcKind::index`] — exactly the counts
    /// [`ServiceCatalog::assignments`] produces.  Lets configuration
    /// validation reject a (mix, fleet size) pair whose error diffusion
    /// strands an active service with zero leaves: such a service's demand
    /// would silently never be offered, the precise failure a first-class
    /// catalog exists to rule out.
    pub fn leaf_counts(&self, fleet: usize) -> [usize; NUM_SERVICES] {
        diffuse_counts(self.shares(), fleet)
    }

    /// True if only websearch is served.
    pub(crate) fn is_websearch_only(&self) -> bool {
        self.ml_cluster <= 0.0 && self.memkeyval <= 0.0 && self.websearch > 0.0
    }

    /// Validates that every share is finite and non-negative, at least one
    /// is positive, and the shares sum to 1 (within a small tolerance).
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the violation.
    pub fn validate(&self) -> Result<(), String> {
        let shares = self.shares();
        for (kind, share) in LcKind::all().into_iter().zip(shares) {
            if !share.is_finite() || share < 0.0 {
                return Err(format!(
                    "service share for {} must be finite and non-negative (got {share})",
                    kind.name()
                ));
            }
        }
        let total: f64 = shares.iter().sum();
        if total <= 0.0 {
            return Err("at least one service needs a positive share".into());
        }
        if (total - 1.0).abs() > 1e-3 {
            return Err(format!("service shares must sum to 1 (got {total})"));
        }
        Ok(())
    }
}

impl Default for ServiceMix {
    fn default() -> Self {
        Self::websearch_only()
    }
}

impl std::str::FromStr for ServiceMix {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "websearch" => return Ok(Self::websearch_only()),
            "mixed" => return Ok(Self::mixed_frontend()),
            _ => {}
        }
        let mut mix = ServiceMix { websearch: 0.0, ml_cluster: 0.0, memkeyval: 0.0 };
        let mut seen = [false; NUM_SERVICES];
        for pair in s.split(',') {
            let (name, share) = pair.split_once(':').ok_or_else(|| {
                format!(
                    "invalid service spec {pair:?} (expected NAME:SHARE, e.g. \
                     websearch:0.5,memkeyval:0.3,ml_cluster:0.2)"
                )
            })?;
            let share: f64 = share
                .parse()
                .map_err(|e| format!("invalid share {share:?} for service {name:?}: {e}"))?;
            let (idx, slot) = match name {
                "websearch" => (0, &mut mix.websearch),
                "ml_cluster" => (1, &mut mix.ml_cluster),
                "memkeyval" => (2, &mut mix.memkeyval),
                other => {
                    return Err(format!(
                        "unknown service {other:?} (expected websearch, ml_cluster or memkeyval)"
                    ))
                }
            };
            if seen[idx] {
                return Err(format!("service {name:?} listed twice"));
            }
            seen[idx] = true;
            *slot = share;
        }
        mix.validate()?;
        Ok(mix)
    }
}

impl std::fmt::Display for ServiceMix {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.is_websearch_only() {
            return write!(f, "websearch");
        }
        let mut first = true;
        for (kind, share) in LcKind::all().into_iter().zip(self.shares()) {
            if share > 0.0 {
                if !first {
                    write!(f, ",")?;
                }
                write!(f, "{}:{:.2}", kind.name(), share)?;
                first = false;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_builds_active_services_with_spread_phases() {
        let catalog = ServiceCatalog::build(ServiceMix::mixed_frontend(), 7, 1.0);
        assert_eq!(catalog.len(), 3);
        let phases: Vec<f64> = catalog.services().iter().map(|s| s.phase_s).collect();
        assert_eq!(phases[0], 0.0);
        assert!(phases[1] > 0.0 && phases[2] > phases[1]);
        // Shares round-trip.
        assert_eq!(catalog.shares(), [0.5, 0.2, 0.3]);
        // A websearch-only mix builds a one-service catalog.
        let solo = ServiceCatalog::build(ServiceMix::websearch_only(), 7, 1.0);
        assert_eq!(solo.len(), 1);
        assert_eq!(solo.services()[0].kind(), LcKind::Websearch);
        assert!(solo.get(LcKind::Memkeyval).is_none());
    }

    #[test]
    fn demand_fraction_wraps_and_respects_phase() {
        let catalog = ServiceCatalog::build(ServiceMix::mixed_frontend(), 3, 1.0);
        for s in catalog.services() {
            let period = s.demand.duration().as_secs_f64();
            // Wrapping: one full period later the demand repeats.
            let a = s.demand_fraction(1234.0);
            let b = s.demand_fraction(1234.0 + period);
            assert!((a - b).abs() < 1e-12, "{}: {a} vs {b}", s.kind().name());
            assert!((0.0..=1.0).contains(&a));
        }
        // The phase offsets decorrelate the services: at the websearch
        // valley, at least one other service is far from its own valley.
        let ws = catalog.get(LcKind::Websearch).unwrap();
        let others_max = catalog
            .services()
            .iter()
            .filter(|s| s.kind() != LcKind::Websearch)
            .map(|s| s.demand_fraction(0.0))
            .fold(0.0, f64::max);
        assert!(others_max > ws.demand_fraction(0.0) + 0.2, "phases did not decorrelate");
    }

    #[test]
    fn assignments_are_proportional_and_interleaved() {
        let catalog = ServiceCatalog::build(ServiceMix::mixed_frontend(), 7, 1.0);
        let assigned = catalog.assignments(10);
        assert_eq!(assigned.len(), 10);
        let count = |k: LcKind| assigned.iter().filter(|&&a| a == k).count();
        assert_eq!(count(LcKind::Websearch), 5);
        assert_eq!(count(LcKind::MlCluster), 2);
        assert_eq!(count(LcKind::Memkeyval), 3);
        // Deterministic.
        assert_eq!(assigned, catalog.assignments(10));
        // Websearch leaves do not cluster at one end of the id range.
        let first_half = assigned[..5].iter().filter(|&&a| a == LcKind::Websearch).count();
        assert!((2..=3).contains(&first_half), "{assigned:?}");
    }

    #[test]
    fn mix_parses_the_cli_spelling_and_rejects_bad_specs() {
        let mix: ServiceMix = "websearch:0.5,memkeyval:0.3,ml_cluster:0.2".parse().unwrap();
        assert_eq!(mix, ServiceMix { websearch: 0.5, ml_cluster: 0.2, memkeyval: 0.3 });
        assert_eq!("websearch".parse::<ServiceMix>().unwrap(), ServiceMix::websearch_only());
        assert_eq!("mixed".parse::<ServiceMix>().unwrap(), ServiceMix::mixed_frontend());

        for bad in [
            "websearch:0.5",                              // shares must sum to 1
            "websearch:0.5,memkeyval:0.6",                // sums past 1
            "gmail:1.0",                                  // unknown service
            "websearch:0.5,websearch:0.5",                // duplicate
            "websearch:half,memkeyval:0.5",               // unparsable share
            "websearch=1.0",                              // malformed pair
            "websearch:-0.5,memkeyval:1.5",               // negative share
            "websearch:0.0,ml_cluster:0.0,memkeyval:0.0", // all zero
        ] {
            let err = bad.parse::<ServiceMix>().expect_err(bad);
            assert!(!err.is_empty());
        }
    }

    #[test]
    fn leaf_counts_match_assignments_and_expose_starved_services() {
        let mix = ServiceMix::mixed_frontend();
        let catalog = ServiceCatalog::build(mix, 7, 1.0);
        for fleet in [3usize, 4, 7, 10, 33] {
            let mut from_assignments = [0usize; NUM_SERVICES];
            for k in catalog.assignments(fleet) {
                from_assignments[k.index()] += 1;
            }
            assert_eq!(mix.leaf_counts(fleet), from_assignments, "fleet {fleet}");
        }
        // A skewed mix on a small fleet starves its minority services —
        // the counts make that visible before any traffic is lost.
        let skewed = ServiceMix { websearch: 0.9, ml_cluster: 0.05, memkeyval: 0.05 };
        let counts = skewed.leaf_counts(6);
        assert_eq!(counts[0], 6, "{counts:?}");
        assert_eq!(counts[1] + counts[2], 0, "{counts:?}");
    }

    #[test]
    fn mix_display_round_trips() {
        assert_eq!(ServiceMix::websearch_only().to_string(), "websearch");
        let mixed = ServiceMix::mixed_frontend();
        let round: ServiceMix = mixed.to_string().parse().unwrap();
        assert_eq!(round, mixed);
    }

    #[test]
    fn catalogs_are_deterministic_per_seed() {
        let a = ServiceCatalog::build(ServiceMix::mixed_frontend(), 11, 1.0);
        let b = ServiceCatalog::build(ServiceMix::mixed_frontend(), 11, 1.0);
        let c = ServiceCatalog::build(ServiceMix::mixed_frontend(), 12, 1.0);
        assert_eq!(a, b);
        assert_ne!(a, c, "different seeds built identical demand curves");
    }
}
