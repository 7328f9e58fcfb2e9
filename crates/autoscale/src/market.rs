//! The generation market: what scale-out should buy and scale-in should
//! shed, priced by marginal BE throughput per TCO dollar.
//!
//! The paper's economic argument is per-dollar, not per-server, and with
//! mixed generations the two diverge: a Skylake-class box costs more than a
//! Sandy-Bridge-class one but amortizes its platform overhead over three
//! times the cores, while the interference characterization can rate the
//! same BE mix far more hostile on a low-bandwidth older box (work placed
//! there is throttled by its own damage).  The market folds both into one
//! number per generation — expected marginal BE core·seconds per amortized
//! dollar — so "which generation?" is answered by the same currency the
//! autoscaled-vs-static comparison is judged in.

use heracles_cluster::TcoModel;
use heracles_fleet::{
    server_step_tco_dollars, FleetConfig, Generation, InterferenceModel, PlacementStore,
    ServerCapacity, ServerEntry, ServerId,
};
use heracles_hw::ServerConfig;
use heracles_workloads::{BeKind, LcKind, NUM_SERVICES};

/// LC load a newly bought box is expected to serve on average over its
/// tenure (the diurnal trace's midpoint): the capacity the LC service keeps
/// is not available as marginal BE throughput.
const EXPECTED_LOAD: f64 = 0.55;

/// Prices hardware generations for scale decisions.
#[derive(Debug, Clone)]
pub struct GenerationMarket {
    tco: TcoModel,
    model: InterferenceModel,
    kinds: Vec<BeKind>,
    capacities: [ServerCapacity; 3],
    /// The fleet's service shares, indexed by [`LcKind::index`]: a
    /// generation's interference pressure is averaged over the services a
    /// purchased leaf might serve, weighted by how much of the fleet each
    /// one is (hostility is a (hardware, service) property — iperf next to
    /// memkeyval is not iperf next to ml_cluster).
    service_shares: [f64; NUM_SERVICES],
}

impl GenerationMarket {
    /// Builds a market from the fleet's job mix, service mix, energy tariff
    /// and an interference model (pass
    /// [`InterferenceModel::from_scores`]`([])` for an uncharacterized
    /// market: every generation then gets the cautious default hostility
    /// and the ranking reduces to cores per dollar).
    ///
    /// The cost model is the paper's §5.3 case study with its electricity
    /// price set to the tariff's daily mean, so value-per-dollar rankings
    /// see the same tariff the energy meter bills at (both charge the one
    /// [`FACILITY_PUE`](heracles_cluster::FACILITY_PUE)).
    pub fn new(config: &FleetConfig, baseline: &ServerConfig, model: InterferenceModel) -> Self {
        let capacities = Generation::all().map(|g| {
            ServerCapacity::from_config(
                &g.server_config(baseline),
                config.be_slots_per_server,
                g.index(),
            )
        });
        GenerationMarket {
            tco: TcoModel {
                electricity_per_kwh: config.energy.price.daily_mean(),
                ..TcoModel::paper_case_study()
            },
            model,
            kinds: config.jobs.mix.workloads().iter().map(|w| w.kind()).collect(),
            capacities,
            service_shares: config.services.shares(),
        }
    }

    /// Mean saturating interference pressure of the job mix on a
    /// generation, in `[0, 1)`: how much of the generation's headroom the
    /// mix's hostility is expected to waste (a hostile antagonist on a
    /// low-bandwidth box spends its tenure disabled or throttled).
    /// Averaged over the fleet's service shares: a purchased leaf joins
    /// whichever pool is depleted, so its expected hostility is the
    /// share-weighted mean over the services it might serve.
    fn mean_pressure(&self, generation: Generation) -> f64 {
        if self.kinds.is_empty() {
            return 0.0;
        }
        let share_total: f64 = self.service_shares.iter().sum();
        if share_total <= 0.0 {
            return 0.0;
        }
        let total: f64 = self
            .kinds
            .iter()
            .map(|&kind| {
                LcKind::all()
                    .into_iter()
                    .map(|svc| {
                        let h = self.model.hostility(generation.index(), svc, kind);
                        self.service_shares[svc.index()] * h / (1.0 + h)
                    })
                    .sum::<f64>()
                    / share_total
            })
            .sum();
        total / self.kinds.len() as f64
    }

    /// Expected marginal BE throughput of a newly bought server of this
    /// generation, in cores: the compute the LC service leaves free at the
    /// expected load, discounted by the job mix's interference pressure on
    /// this hardware.
    pub fn marginal_be_cores(&self, generation: Generation) -> f64 {
        let cap = self.capacities[generation.index()];
        let free = cap.cores as f64 * (1.0 - EXPECTED_LOAD);
        free * (1.0 - 0.5 * self.mean_pressure(generation))
    }

    /// Amortized cost of one server of this generation, in dollars per
    /// represented second at the expected utilization (capex plus energy,
    /// platform-floor-scaled to the generation's core count).
    pub fn dollars_per_second(&self, generation: Generation) -> f64 {
        server_step_tco_dollars(
            &self.tco,
            self.capacities[generation.index()].cores,
            EXPECTED_LOAD,
            1.0,
        )
    }

    /// The market's single number per generation: expected marginal BE
    /// cores per amortized dollar-second.
    pub fn value_per_dollar(&self, generation: Generation) -> f64 {
        self.marginal_be_cores(generation) / self.dollars_per_second(generation)
    }

    /// The generation scale-out should purchase: best marginal BE
    /// throughput per TCO dollar, ties broken towards the older generation
    /// (deterministic).
    pub fn best_buy(&self) -> Generation {
        Generation::all()
            .into_iter()
            .fold(None::<(Generation, f64)>, |best, g| {
                let value = self.value_per_dollar(g);
                match best {
                    Some((_, bv)) if bv >= value => best,
                    _ => Some((g, value)),
                }
            })
            .map(|(g, _)| g)
            .expect("three generations exist")
    }

    /// The active server scale-in should shed first: worst generation value
    /// per dollar, then fewest residents (the cheapest drain), then lowest
    /// id — all deterministic.  A service's last in-service leaf is never a
    /// candidate: retiring it would leave that service's traffic with
    /// nowhere to go.
    pub fn sell_first(&self, store: &PlacementStore) -> Option<ServerId> {
        // Three generations exist; pricing each once beats re-deriving the
        // marginal-value quotient for every server on every comparison
        // (the old inner-loop cost that dominated large-fleet signal
        // assembly).  Same floats, computed once.
        let values = Generation::all().map(|g| self.value_per_dollar(g));
        let value = |s: &ServerEntry| values[s.generation];
        store
            .servers()
            .iter()
            .filter(|s| s.is_active() && store.in_service_leaves(s.service) > 1)
            .min_by(|a, b| {
                value(a)
                    .partial_cmp(&value(b))
                    .expect("market values are finite")
                    .then(a.resident.len().cmp(&b.resident.len()))
                    .then(a.id.cmp(&b.id))
            })
            .map(|s| s.id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use heracles_fleet::PolicyKind;
    use heracles_sim::SimTime;

    fn market(model: InterferenceModel) -> GenerationMarket {
        GenerationMarket::new(&FleetConfig::fast_test(), &ServerConfig::default_haswell(), model)
    }

    #[test]
    fn uncharacterized_market_ranks_by_cores_per_dollar() {
        let m = market(InterferenceModel::from_scores([]));
        // With uniform hostility the platform cost floor decides: the
        // 48-core box amortizes its fixed costs over the most cores.
        assert!(m.value_per_dollar(Generation::Newer) > m.value_per_dollar(Generation::Haswell));
        assert!(m.value_per_dollar(Generation::Haswell) > m.value_per_dollar(Generation::Older));
        assert_eq!(m.best_buy(), Generation::Newer);
        // All three prices are positive and finite.
        for g in Generation::all() {
            assert!(m.dollars_per_second(g) > 0.0);
            assert!(m.marginal_be_cores(g) > 0.0);
            assert!(m.value_per_dollar(g).is_finite());
        }
    }

    #[test]
    fn pricier_energy_raises_every_generation_price() {
        let priced = |price| {
            let energy = heracles_fleet::EnergyConfig { price, ..Default::default() };
            GenerationMarket::new(
                &FleetConfig { energy, ..FleetConfig::fast_test() },
                &ServerConfig::default_haswell(),
                InterferenceModel::from_scores([]),
            )
        };
        let base = priced(heracles_fleet::EnergyPriceSchedule::default());
        let pricey = priced(heracles_fleet::EnergyPriceSchedule::Flat { per_kwh: 0.40 });
        for g in Generation::all() {
            assert!(pricey.dollars_per_second(g) > base.dollars_per_second(g));
            assert!(pricey.value_per_dollar(g) < base.value_per_dollar(g));
        }
        // The default tariff *is* the paper's case study: pricing at it
        // changes nothing (up to the sampled daily mean's float rounding).
        let case_study = GenerationMarket { tco: TcoModel::paper_case_study(), ..base.clone() };
        for g in Generation::all() {
            let (n, b) = (base.value_per_dollar(g), case_study.value_per_dollar(g));
            assert!((n - b).abs() < 1e-9 * b, "neutral {n} != base {b}");
        }
    }

    #[test]
    fn hostility_on_a_generation_discounts_its_value() {
        // The production mix (brain + streetview) rated devastating on the
        // newer generation but benign on Haswell flips the purchase.
        let hostile_on_newer = InterferenceModel::from_scores([]);
        let _ = hostile_on_newer; // base case asserted above
        let skewed = market(InterferenceModel::from_generation_scores([
            ((2, BeKind::Brain), 400.0),
            ((2, BeKind::Streetview), 400.0),
            ((1, BeKind::Brain), 0.0),
            ((1, BeKind::Streetview), 0.0),
            ((0, BeKind::Brain), 0.0),
            ((0, BeKind::Streetview), 0.0),
        ]));
        assert!(
            skewed.value_per_dollar(Generation::Newer)
                < skewed.value_per_dollar(Generation::Haswell)
        );
        assert_ne!(skewed.best_buy(), Generation::Newer);
    }

    #[test]
    fn sell_first_picks_the_worst_value_emptiest_server() {
        let m = market(InterferenceModel::from_scores([]));
        let config = heracles_fleet::FleetConfig {
            servers: 4,
            mix: heracles_fleet::GenerationMix::mixed_datacenter(),
            ..FleetConfig::fast_test()
        };
        let sim = heracles_fleet::FleetSim::new(
            config,
            ServerConfig::default_haswell(),
            PolicyKind::FirstFit,
        );
        // counts(4) = [1, 2, 1]; the lone Sandy Bridge has the worst value
        // per dollar, so it is the first to go.
        let store = sim.store();
        let pick = m.sell_first(store).expect("active servers exist");
        assert_eq!(store.server(pick).generation, 0);
        let _ = SimTime::ZERO;
    }
}
