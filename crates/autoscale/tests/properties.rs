//! Property tests for the elastic controller's invariants:
//!
//! * a server is never retired while it still hosts unmigrated resident
//!   jobs — the drain protocol migrates (or, priced out, requeues) every
//!   resident first, for any policy, fleet shape, mix and seed (the store's
//!   `retire` assert backs this up by panicking the whole run otherwise),
//! * nothing is ever placed or migrated onto a retired server,
//! * the elastic fleet never leaves its configured size envelope,
//! * the work ledger balances: BE core·seconds served equals the demand
//!   (plus migration overhead) drawn down across the job ledger,
//! * identical seeds yield identical scale-action sequences — and identical
//!   whole runs — for every autoscaling policy,
//! * `AutoscaleConfig::validate` and the `FleetConfig::validate` it wraps
//!   answer `Ok` or `Err`, never a panic, on zero, huge, NaN and infinite
//!   fields.

use std::cell::Cell;
use std::collections::HashMap;

use proptest::prelude::*;

use heracles_autoscale::{AutoscaleConfig, AutoscaleKind, ElasticFleet, ScaleEventKind};
use heracles_colo::ColoConfig;
use heracles_fleet::{
    EnergyConfig, FleetConfig, FleetEventKind, GenerationMix, JobStreamConfig, PolicyKind,
    ServerId, TelemetryConfig, MAX_FLEET_SERVERS,
};
use heracles_hw::ServerConfig;
use heracles_workloads::ServiceMix;

/// A small mixed-generation elastic scenario that still scales both ways:
/// drains fire within a handful of idle steps, and the arrival knob can
/// push the queue hard enough to strand jobs and trigger purchases.
fn scenario(servers: usize, steps: usize, seed: u64, arrivals: f64) -> AutoscaleConfig {
    let fleet = FleetConfig {
        servers,
        steps,
        windows_per_step: 2,
        seed,
        mix: GenerationMix::mixed_datacenter(),
        colo: ColoConfig { requests_per_window: 400, ..ColoConfig::fast_test() },
        ..FleetConfig::fast_test()
    };
    let mut config = AutoscaleConfig::diurnal(fleet);
    config.fleet.jobs = JobStreamConfig {
        arrivals_per_step: arrivals,
        demand_min_core_s: 60.0,
        demand_max_core_s: 600.0,
        ..config.fleet.jobs
    };
    config.min_servers = 1;
    config
}

/// Hostile reals and counts a config field may take in place of its default.
const REALS: [f64; 7] = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -1.0, 0.0, 0.5, f64::MAX];
const COUNTS: [usize; 6] = [0, 1, 2, 8, 1 << 40, usize::MAX];

/// Picks drawn per hostile config: one per field, at least.
const PICKS_PER_CONFIG: usize = 24;

fn run(config: AutoscaleConfig, kind: AutoscaleKind) -> heracles_autoscale::AutoscaleResult {
    ElasticFleet::new(config, ServerConfig::default_haswell(), PolicyKind::LeastLoaded, kind).run()
}

proptest! {
    /// Retirement safety and ledger balance, for any policy, fleet shape
    /// and seed.  The run itself is the first assertion: `retire` panics on
    /// a server with resident jobs, so an unsafe drain cannot complete.
    #[test]
    fn retirement_never_strands_resident_jobs(
        servers in 2usize..6,
        steps in 6usize..10,
        seed in 0u64..500,
        arrivals in 0.2f64..1.5,
        kind_idx in 0usize..4,
    ) {
        let kind = AutoscaleKind::all()[kind_idx];
        let config = scenario(servers, steps, seed, arrivals);
        let (min_servers, max_servers) = (config.min_servers, config.max_servers);
        let result = run(config, kind);

        // Nothing lands on a retired server: placements and migration
        // destinations after a retirement are scheduler bugs.
        let retired_at: HashMap<ServerId, usize> = result
            .events
            .iter()
            .filter_map(|e| match e.kind {
                ScaleEventKind::Retired { server } => Some((server, e.step)),
                _ => None,
            })
            .collect();
        for event in &result.fleet.events {
            if let Some(&retired) = retired_at.get(&event.server) {
                let lands = matches!(
                    event.kind,
                    FleetEventKind::Placed | FleetEventKind::Migrated
                );
                prop_assert!(
                    !(lands && event.step >= retired),
                    "{:?} targeted server {} retired before step {}",
                    event.kind, event.server, retired
                );
            }
        }

        // The fleet never leaves its size envelope.
        for step in &result.fleet.steps {
            prop_assert!(step.in_service_servers >= min_servers);
            prop_assert!(step.in_service_servers <= max_servers);
        }

        // The work ledger balances: served core·seconds equal the drawdown
        // of demand plus migration overhead across all jobs — a migration
        // preserves remaining demand exactly (plus its priced surcharge),
        // it never wipes or duplicates work.
        let drawdown: f64 = result
            .fleet
            .jobs
            .iter()
            .map(|j| j.demand_core_s + j.migration_overhead_core_s - j.remaining_core_s)
            .sum();
        let served = result.fleet.be_core_s_served();
        prop_assert!(
            (served - drawdown).abs() < 1e-6 * (1.0 + served),
            "served {served} != ledger drawdown {drawdown}"
        );

        // Migration counters agree between the audit log and the ledger.
        prop_assert_eq!(result.drain_migrations(), result.fleet.migrations());
    }

    /// Identical seeds give identical scale-action sequences — and
    /// identical whole runs — for every policy; different seeds diverge
    /// somewhere in the job ledger.
    #[test]
    fn identical_seeds_give_identical_scale_sequences(
        seed in 0u64..200,
        kind_idx in 0usize..4,
    ) {
        let kind = AutoscaleKind::all()[kind_idx];
        let config = scenario(4, 8, seed, 0.8);
        let a = run(config, kind);
        let b = run(config, kind);
        prop_assert_eq!(&a.events, &b.events, "scale sequences diverged");
        prop_assert_eq!(&a.fleet.events, &b.fleet.events);
        prop_assert_eq!(&a.fleet.steps, &b.fleet.steps);
        prop_assert_eq!(&a.fleet.jobs, &b.fleet.jobs);

        let c = run(scenario(4, 8, seed ^ 0x5EED5, 0.8), kind);
        prop_assert!(
            a.fleet.jobs != c.fleet.jobs || a.fleet.events != c.fleet.events,
            "different seeds produced identical runs"
        );
    }

    /// Validation answers `Ok` or `Err` — never a panic, a hang or an
    /// allocation abort — when any field of the autoscale config or the
    /// fleet config inside it is NaN, infinite, negative, zero or huge.
    /// Each field keeps its default unless its pick indexes [`REALS`] or
    /// [`COUNTS`], so every check is reached; 32 configs per case.
    #[test]
    fn validate_never_panics_on_hostile_fields(
        picks in
            proptest::collection::vec(0usize..16, 32 * PICKS_PER_CONFIG..32 * PICKS_PER_CONFIG + 1),
    ) {
        for picks in picks.chunks(PICKS_PER_CONFIG) {
            let next = Cell::new(0);
            let pick = || {
                next.set(next.get() + 1);
                picks[next.get() - 1]
            };
            let real = |default: f64| REALS.get(pick()).copied().unwrap_or(default);
            let count = |default: usize| COUNTS.get(pick()).copied().unwrap_or(default);
            let base = AutoscaleConfig::fast_test();
            let fleet = FleetConfig {
                servers: count(base.fleet.servers),
                be_slots_per_server: count(base.fleet.be_slots_per_server),
                steps: count(base.fleet.steps),
                windows_per_step: count(base.fleet.windows_per_step),
                load_spread: real(base.fleet.load_spread),
                time_compression: real(base.fleet.time_compression),
                mix: GenerationMix { older: real(0.25), newer: real(0.25) },
                services: ServiceMix {
                    websearch: real(0.5),
                    ml_cluster: real(0.2),
                    memkeyval: real(0.3),
                },
                jobs: JobStreamConfig {
                    arrivals_per_step: real(base.fleet.jobs.arrivals_per_step),
                    demand_min_core_s: real(base.fleet.jobs.demand_min_core_s),
                    demand_max_core_s: real(base.fleet.jobs.demand_max_core_s),
                    ..base.fleet.jobs
                },
                demand_hold_steps: count(base.fleet.demand_hold_steps),
                energy: EnergyConfig { power_cap_w: REALS.get(pick()).copied(), ..base.fleet.energy },
                telemetry: TelemetryConfig {
                    enabled: pick() % 2 == 0,
                    trace_capacity: count(base.fleet.telemetry.trace_capacity),
                    health: pick() % 2 == 0,
                },
                ..base.fleet
            };
            let config = AutoscaleConfig {
                fleet,
                min_servers: count(base.min_servers),
                max_servers: count(base.max_servers),
            };
            let fleet_verdict = fleet.validate();
            let verdict = config.validate();
            prop_assert!(fleet.servers <= MAX_FLEET_SERVERS || fleet_verdict.is_err());
            let (min, max) = (config.min_servers, config.max_servers);
            if fleet_verdict.is_err() || min == 0 || min > fleet.servers || fleet.servers > max {
                prop_assert!(verdict.is_err(), "accepted {min} <= {} <= {max}", fleet.servers);
            }
        }
    }
}
