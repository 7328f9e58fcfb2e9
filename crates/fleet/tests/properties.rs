//! Property tests for the fleet scheduler's invariants:
//!
//! * no placement policy ever returns a server without a free BE slot, for
//!   any generation mix, slot capacity, fleet shape and store state (and
//!   the store itself panics on oversubscription, so a full fleet run
//!   doubles as a check),
//! * no policy ever places a job on a server whose controller has BE
//!   disabled — such a job would sit at zero progress until preempted,
//! * core-weighted fleet EMU is scale-invariant: duplicating every server
//!   leaves it unchanged,
//! * identical seeds give identical fleet schedules,
//! * LC demand is conserved under any legal sequence of add/drain/retire
//!   actions, for every balancer: each step, every service's routed QPS
//!   equals its offered QPS — traffic is re-divided when the pool changes,
//!   never created or destroyed,
//! * identical seeds give identical routing decisions for every balancer,
//! * generation and service assignments are bit-for-bit the two
//!   error-diffusion loops `heracles_sim::diffuse` replaced.

use proptest::prelude::*;

use heracles_colo::ColoConfig;
use heracles_fleet::{
    core_weighted_mean, BalancerKind, FirstFit, FleetConfig, FleetSim, Generation, GenerationMix,
    InterferenceAware, InterferenceModel, JobStreamConfig, LeastLoaded, PlacementPolicy,
    PlacementStore, PolicyKind, RandomPlacement, ServerCapacity, ServerState,
};
use heracles_hw::ServerConfig;
use heracles_sim::{diffuse, SimRng, SimTime};
use heracles_workloads::{BeKind, BeWorkload, ServiceCatalog, ServiceMix};

/// Builds a randomized heterogeneous store: `servers` hosts drawn from
/// `mix`, with loads, slacks and admission verdicts drawn from the seed,
/// and a seed-dependent share of the slots already occupied.
fn arbitrary_store(servers: usize, slots: usize, mix: GenerationMix, seed: u64) -> PlacementStore {
    let mut rng = SimRng::new(seed);
    let base = ServerConfig::default_haswell();
    let capacities: Vec<ServerCapacity> = mix
        .assignments(servers)
        .into_iter()
        .map(|g| ServerCapacity::from_config(&g.server_config(&base), slots, g.index()))
        .collect();
    let mut store = PlacementStore::heterogeneous(&capacities);
    let mut next_job = 0;
    for id in 0..servers {
        store.set_load(id, rng.uniform());
        store.observe(id, rng.uniform_range(-0.2, 1.0), rng.chance(0.8));
        let occupied = rng.index(store.server(id).be_slots + 1);
        for _ in 0..occupied {
            store.place(next_job, id);
            next_job += 1;
        }
    }
    store
}

fn policies() -> Vec<Box<dyn PlacementPolicy>> {
    let model = InterferenceModel::from_scores([
        (BeKind::Brain, 1.5),
        (BeKind::Streetview, 50.0),
        (BeKind::StreamDram, 290.0),
        (BeKind::LlcMedium, 0.3),
    ]);
    vec![
        Box::new(RandomPlacement::default()),
        Box::new(FirstFit::default()),
        Box::new(LeastLoaded::default()),
        Box::new(InterferenceAware::new(model)),
    ]
}

/// Forwards to a policy but gives every job a fresh round, so each `place`
/// plans from a fresh scan of the store: the oracle one shared round per
/// step must match.
struct PerJobScan(Box<dyn PlacementPolicy>);

impl PlacementPolicy for PerJobScan {
    fn name(&self) -> &str {
        self.0.name()
    }

    fn begin_round(&mut self, _store: &PlacementStore) {}

    fn place(
        &mut self,
        job: &heracles_fleet::BeJob,
        store: &PlacementStore,
        rng: &mut SimRng,
    ) -> Option<heracles_fleet::ServerId> {
        self.0.begin_round(store);
        self.0.place(job, store, rng)
    }

    fn round_candidates(&self) -> usize {
        self.0.round_candidates()
    }
}

fn job_for(kind_idx: usize, id: usize) -> heracles_fleet::BeJob {
    let catalogue = BeWorkload::evaluation_set();
    heracles_fleet::BeJob {
        id,
        workload: catalogue[kind_idx % catalogue.len()].clone(),
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

/// A strategy over valid generation mixes, including both homogeneous and
/// heavily skewed blends.
fn mix_strategy() -> impl Strategy<Value = GenerationMix> {
    (0.0..=1.0f64, 0.0..=1.0f64).prop_map(|(a, b)| {
        // Map the unit square onto valid (older, newer) pairs.
        let older = a;
        let newer = b * (1.0 - a);
        GenerationMix { older, newer }
    })
}

/// `x`, or `x` snapped to a multiple of 1/20 when `grid`: shares on a grid
/// tie exactly, and ties are where a diffusion rule's tie-break shows.
fn on_grid(x: f64, grid: bool) -> f64 {
    if grid {
        (x * 20.0).round() / 20.0
    } else {
        x
    }
}

/// Valid generation mixes that hit the edges too: `mask` bit 0 zeroes the
/// older share, bit 1 the newer one, bit 2 leaves no Haswell share, bit 3
/// puts the shares on a grid.
fn edge_mix_strategy() -> impl Strategy<Value = GenerationMix> {
    (0.0..=1.0f64, 0.0..=1.0f64, 0usize..16).prop_map(|(a, b, mask)| {
        let (a, b) = (on_grid(a, mask & 8 != 0), on_grid(b, mask & 8 != 0));
        let older = if mask & 1 == 0 { a } else { 0.0 };
        let newer = if mask & 4 != 0 { 1.0 - older } else { b * (1.0 - older) };
        GenerationMix { older, newer: if mask & 2 == 0 { newer } else { 0.0 } }
    })
}

/// The loop `GenerationMix::assignments` ran before `diffuse`, kept as its
/// reference: every generation, zero-share ones included, takes part in
/// each pick.
fn generation_reference(mix: GenerationMix, fleet: usize) -> Vec<usize> {
    let haswell = (1.0 - mix.older - mix.newer).max(0.0);
    let targets = [mix.older, haswell, mix.newer];
    let mut credit = [0.0f64; 3];
    let mut gens = Vec::with_capacity(fleet);
    for _ in 0..fleet {
        let mut pick = 0;
        for (g, target) in targets.iter().enumerate() {
            credit[g] += target;
            if credit[g] > credit[pick] + 1e-12 {
                pick = g;
            }
        }
        credit[pick] -= 1.0;
        gens.push(pick);
    }
    gens
}

/// The loop the service catalog ran before `diffuse`, kept as its
/// reference: only the `active` kinds take part in a pick.
fn service_reference(shares: &[f64; 3], active: &[usize], fleet: usize) -> Vec<usize> {
    let mut credit = [0.0f64; 3];
    let mut out = Vec::with_capacity(fleet);
    for _ in 0..fleet {
        let mut pick = active[0];
        for &k in active {
            credit[k] += shares[k];
            if credit[k] > credit[pick] + 1e-12 {
                pick = k;
            }
        }
        credit[pick] -= 1.0;
        out.push(pick);
    }
    out
}

/// How many times each index appears in `picks`.
fn tally(picks: &[usize]) -> [usize; 3] {
    let mut counts = [0; 3];
    for &p in picks {
        counts[p] += 1;
    }
    counts
}

proptest! {
    /// No policy ever places onto a server without a free slot, whatever
    /// the generation mix and store state: one round serves every job, and
    /// each returned placement is committed before the next, as the
    /// fleet's dispatch does; committing never trips the store's capacity
    /// assert.
    #[test]
    fn no_policy_exceeds_slot_capacity(
        servers in 1usize..12,
        slots in 1usize..4,
        mix in mix_strategy(),
        seed in 0u64..1_000,
        kind_idx in 0usize..6,
    ) {
        for policy in &mut policies() {
            let mut store = arbitrary_store(servers, slots, mix, seed);
            let mut rng = SimRng::new(seed ^ 0xD15);
            let total_slots: usize =
                store.servers().iter().map(|s| s.be_slots).sum();
            policy.begin_round(&store);
            // Keep placing until the policy declines; every acceptance must
            // target a server with capacity.
            for step in 0..(total_slots + 1) {
                let job = job_for(kind_idx, 1_000 + step);
                match policy.place(&job, &store, &mut rng) {
                    Some(server) => {
                        prop_assert!(
                            store.server(server).has_free_slot(),
                            "{} returned full server {server}",
                            policy.name()
                        );
                        store.place(job.id, server);
                    }
                    None => break,
                }
            }
            prop_assert!(
                store.running_jobs() <= total_slots,
                "{} oversubscribed the fleet",
                policy.name()
            );
        }
    }

    /// No policy ever places a job on a server whose controller has BE
    /// disabled, for any generation mix and seed, over one round of
    /// committed placements: such a placement can only burn the job's
    /// preemption grace at zero progress.
    #[test]
    fn no_policy_places_onto_a_be_disabled_server(
        servers in 1usize..12,
        slots in 1usize..4,
        mix in mix_strategy(),
        seed in 0u64..1_000,
        kind_idx in 0usize..6,
    ) {
        for policy in &mut policies() {
            let mut store = arbitrary_store(servers, slots, mix, seed);
            let mut rng = SimRng::new(seed ^ 0xBEEF);
            policy.begin_round(&store);
            for step in 0..24 {
                let job = job_for(kind_idx + step, 2_000 + step);
                match policy.place(&job, &store, &mut rng) {
                    Some(server) => {
                        prop_assert!(
                            store.server(server).be_admitted,
                            "{} placed job onto BE-disabled server {server}",
                            policy.name()
                        );
                        store.place(job.id, server);
                    }
                    None => break,
                }
            }
        }
    }

    /// Core-weighted fleet EMU is scale-invariant: duplicating every
    /// server (its EMU sample and its core count) leaves the aggregate
    /// unchanged, for any fleet shape.
    #[test]
    fn core_weighted_emu_is_invariant_under_duplication(
        per_server in proptest::collection::vec((0.0..2.0f64, 1usize..128), 1..40),
        copies in 2usize..5,
    ) {
        let (emus, cores): (Vec<f64>, Vec<usize>) = per_server.into_iter().unzip();
        let single = core_weighted_mean(&emus, &cores);
        let mut emus_dup = Vec::new();
        let mut cores_dup = Vec::new();
        for _ in 0..copies {
            emus_dup.extend_from_slice(&emus);
            cores_dup.extend_from_slice(&cores);
        }
        let duplicated = core_weighted_mean(&emus_dup, &cores_dup);
        prop_assert!(
            (single - duplicated).abs() < 1e-9,
            "duplication changed core-weighted EMU: {single} vs {duplicated}"
        );
    }

    /// Identical seeds give identical fleet schedules (placements,
    /// preemptions, completions and metrics) — including on mixed
    /// generation fleets — and different seeds diverge.
    #[test]
    fn identical_seeds_give_identical_schedules(seed in 0u64..50) {
        let config = FleetConfig {
            servers: 4,
            steps: 6,
            windows_per_step: 2,
            seed,
            mix: GenerationMix::mixed_datacenter(),
            colo: ColoConfig { requests_per_window: 400, ..ColoConfig::fast_test() },
            jobs: JobStreamConfig { arrivals_per_step: 1.0, ..JobStreamConfig::default() },
            ..FleetConfig::fast_test()
        };
        let run = |cfg: FleetConfig| {
            FleetSim::new(cfg, ServerConfig::default_haswell(), PolicyKind::Random).run()
        };
        let a = run(config);
        let b = run(config);
        prop_assert_eq!(&a.events, &b.events);
        prop_assert_eq!(&a.jobs, &b.jobs);
        prop_assert_eq!(&a.steps, &b.steps);
        prop_assert_eq!(&a.server_cores, &b.server_cores);
    }

    /// LC demand conservation under any legal sequence of scale actions,
    /// for every balancer: whatever gets added, drained or retired, each
    /// step routes every service's full offered QPS onto the surviving
    /// leaves — the balancer re-divides traffic, it never loses it.
    #[test]
    fn lc_demand_is_conserved_under_any_scale_action_sequence(
        servers in 3usize..7,
        seed in 0u64..200,
        balancer_idx in 0usize..2,
        action_seed in 0u64..1_000,
    ) {
        let config = FleetConfig {
            servers,
            steps: 8,
            windows_per_step: 2,
            seed,
            services: ServiceMix::mixed_frontend(),
            balancer: BalancerKind::all()[balancer_idx],
            mix: GenerationMix::mixed_datacenter(),
            colo: ColoConfig { requests_per_window: 400, ..ColoConfig::fast_test() },
            jobs: JobStreamConfig { arrivals_per_step: 0.5, ..JobStreamConfig::default() },
            ..FleetConfig::fast_services()
        };
        let mut sim =
            FleetSim::new(config, ServerConfig::default_haswell(), PolicyKind::LeastLoaded);
        let mut actions = SimRng::new(action_seed);
        for _ in 0..config.steps {
            match actions.index(4) {
                0 => {
                    sim.add_server(Generation::all()[actions.index(3)]);
                }
                1 => {
                    let active: Vec<_> = sim
                        .store()
                        .servers()
                        .iter()
                        .filter(|s| s.is_active())
                        .map(|s| s.id)
                        .collect();
                    if !active.is_empty() {
                        sim.begin_drain(active[actions.index(active.len())]);
                    }
                }
                2 => {
                    // Retire a random *legally retirable* draining server:
                    // empty, and not its service's last in-service leaf.
                    let retirable: Vec<_> = sim
                        .store()
                        .servers()
                        .iter()
                        .filter(|s| {
                            s.state == ServerState::Draining
                                && s.resident.is_empty()
                                && sim.store().in_service_leaves(s.service) > 1
                        })
                        .map(|s| s.id)
                        .collect();
                    if !retirable.is_empty() {
                        sim.retire_server(retirable[actions.index(retirable.len())]);
                    }
                }
                _ => {}
            }
            let step = sim.step_once();
            for (offered, routed) in step.offered_qps.iter().zip(&step.routed_qps) {
                prop_assert!(
                    (offered - routed).abs() <= 1e-6 * (1.0 + offered),
                    "demand not conserved: offered {offered} routed {routed}"
                );
            }
        }
    }

    /// Round plans are a pure speed-up: for arbitrary mixes, seeds,
    /// policies, balancers and add/drain/retire churn, the default fleet
    /// (one planned round per step, built in one scan of the fleet) and the
    /// same policy given a fresh round per job yield identical placements
    /// (the event log), identical routed loads and step metrics, and an
    /// identical job ledger.
    #[test]
    fn round_plans_and_per_job_scans_give_identical_results(
        servers in 3usize..7,
        seed in 0u64..100,
        policy_idx in 0usize..4,
        balancer_idx in 0usize..2,
        action_seed in 0u64..500,
    ) {
        let config = FleetConfig {
            servers,
            steps: 8,
            windows_per_step: 2,
            seed,
            services: ServiceMix::mixed_frontend(),
            balancer: BalancerKind::all()[balancer_idx],
            mix: GenerationMix::mixed_datacenter(),
            colo: ColoConfig { requests_per_window: 400, ..ColoConfig::fast_test() },
            jobs: JobStreamConfig { arrivals_per_step: 1.5, ..JobStreamConfig::default() },
            ..FleetConfig::fast_services()
        };
        let run = |per_job_scan: bool| {
            let mut policy = policies().remove(policy_idx);
            if per_job_scan {
                policy = Box::new(PerJobScan(policy));
            }
            let mut sim =
                FleetSim::with_policy(config, ServerConfig::default_haswell(), policy);
            let mut actions = SimRng::new(action_seed);
            for _ in 0..config.steps {
                match actions.index(4) {
                    0 => {
                        sim.add_server(Generation::all()[actions.index(3)]);
                    }
                    1 => {
                        let active: Vec<_> = sim
                            .store()
                            .servers()
                            .iter()
                            .filter(|s| s.is_active())
                            .map(|s| s.id)
                            .collect();
                        if !active.is_empty() {
                            sim.begin_drain(active[actions.index(active.len())]);
                        }
                    }
                    2 => {
                        let retirable: Vec<_> = sim
                            .store()
                            .servers()
                            .iter()
                            .filter(|s| {
                                s.state == ServerState::Draining
                                    && s.resident.is_empty()
                                    && sim.store().in_service_leaves(s.service) > 1
                            })
                            .map(|s| s.id)
                            .collect();
                        if !retirable.is_empty() {
                            sim.retire_server(retirable[actions.index(retirable.len())]);
                        }
                    }
                    _ => {}
                }
                sim.step_once();
            }
            sim.into_result()
        };
        let planned = run(false);
        let scanned = run(true);
        prop_assert_eq!(&planned.events, &scanned.events);
        prop_assert_eq!(&planned.jobs, &scanned.jobs);
        prop_assert_eq!(&planned.steps, &scanned.steps);
        prop_assert_eq!(&planned.server_services, &scanned.server_services);
    }

    /// Identical seeds give identical routing decisions for every
    /// balancer (offered series, routed series and the resulting
    /// per-service loads all match exactly).
    #[test]
    fn identical_seeds_give_identical_routing(
        seed in 0u64..100,
        balancer_idx in 0usize..2,
    ) {
        let config = FleetConfig {
            servers: 4,
            steps: 6,
            windows_per_step: 2,
            seed,
            services: ServiceMix::mixed_frontend(),
            balancer: BalancerKind::all()[balancer_idx],
            colo: ColoConfig { requests_per_window: 400, ..ColoConfig::fast_test() },
            jobs: JobStreamConfig { arrivals_per_step: 1.0, ..JobStreamConfig::default() },
            ..FleetConfig::fast_services()
        };
        let run = |cfg: FleetConfig| {
            FleetSim::new(cfg, ServerConfig::default_haswell(), PolicyKind::LeastLoaded).run()
        };
        let a = run(config);
        let b = run(config);
        for (sa, sb) in a.steps.iter().zip(&b.steps) {
            prop_assert_eq!(sa.offered_qps, sb.offered_qps);
            prop_assert_eq!(sa.routed_qps, sb.routed_qps);
            prop_assert_eq!(sa.service_load, sb.service_load);
        }
        prop_assert_eq!(&a.steps, &b.steps);
        prop_assert_eq!(&a.server_services, &b.server_services);
    }

    /// Generation assignments are deterministic, proportional and cover
    /// the fleet for any valid mix.
    #[test]
    fn generation_assignments_are_proportional(
        mix in mix_strategy(),
        servers in 1usize..200,
    ) {
        let gens = mix.assignments(servers);
        prop_assert_eq!(gens.len(), servers);
        prop_assert_eq!(&gens, &mix.assignments(servers));
        let older = gens.iter().filter(|&&g| g == Generation::Older).count() as f64;
        let newer = gens.iter().filter(|&&g| g == Generation::Newer).count() as f64;
        let n = servers as f64;
        prop_assert!((older - mix.older * n).abs() <= 1.0 + 1e-9);
        prop_assert!((newer - mix.newer * n).abs() <= 1.0 + 1e-9);
    }

    /// Generation assignments and counts are bit-for-bit the loop they
    /// replaced, for any valid mix and fleet size.
    #[test]
    fn generation_diffusion_matches_the_old_loop(
        mix in edge_mix_strategy(),
        servers in 0usize..3000,
    ) {
        let reference = generation_reference(mix, servers);
        let gens: Vec<usize> = mix.assignments(servers).iter().map(|g| g.index()).collect();
        prop_assert_eq!(&gens, &reference);
        prop_assert_eq!(mix.counts(servers), tally(&reference));
    }

    /// Service assignments and leaf counts are bit-for-bit the loop they
    /// replaced, for any mix (any nonempty subset of services active) and
    /// fleet size; `diffuse` matches it on unnormalized shares too.
    #[test]
    fn service_diffusion_matches_the_old_loop(
        raw in (0.0..=1.0f64, 0.0..=1.0f64, 0.0..=1.0f64),
        mask in 1usize..8,
        grid in 0usize..2,
        servers in 0usize..3000,
    ) {
        let shares = [raw.0, raw.1, raw.2].map(|x| on_grid(x, grid == 1));
        let active: Vec<usize> = (0..3).filter(|k| mask & (1 << k) != 0).collect();
        let mut masked = [0.0; 3];
        for &k in &active {
            masked[k] = shares[k].max(0.05);
        }
        let reference = service_reference(&masked, &active, servers);
        prop_assert_eq!(&diffuse(masked, servers).collect::<Vec<_>>(), &reference);

        let total: f64 = masked.iter().sum();
        let mix = ServiceMix {
            websearch: masked[0] / total,
            ml_cluster: masked[1] / total,
            memkeyval: masked[2] / total,
        };
        let reference = service_reference(&mix.shares(), &active, servers);
        prop_assert_eq!(mix.leaf_counts(servers), tally(&reference));
        let kinds: Vec<usize> = ServiceCatalog::build(mix, 7, 0.5)
            .assignments(servers)
            .iter()
            .map(|k| k.index())
            .collect();
        prop_assert_eq!(&kinds, &reference);
    }
}
