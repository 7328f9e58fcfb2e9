//! The energy plane's load-bearing guarantees:
//!
//! * **Metering never perturbs the run.**  For every placement policy,
//!   balancer and sim core, a run with the energy meter installed produces
//!   a bit-identical `FleetResult` to the same seed with the meter off —
//!   the ledgers are a pure read-only shadow of joules the simulation
//!   already computes.
//! * **Both cores bill the same joules.**  The stepped oracle and the
//!   event-driven core agree bit-for-bit on every step's energy, dollars
//!   and peak watts.
//! * **Ledgers conserve and reproduce.**  Fleet joules equal the sum over
//!   pools and the sum over leaves; identical seeds produce identical
//!   meters; the step records sum to the meter's fleet total.
//! * **A watt budget is a hard ceiling.**  Under `EnergyConfig::capped`
//!   no step's fleet peak power exceeds the budget.
//! * **Energy-aware autoscaling pays off.**  Under a peak/off-peak tariff
//!   it serves BE work at no more joules per core·second than reactive,
//!   with no SLO regression; under a flat tariff it degenerates to
//!   exactly the reactive policy.

use proptest::prelude::*;

use heracles::autoscale::{AutoscaleConfig, AutoscaleKind, AutoscaleResult, ElasticFleet};
use heracles::colo::ColoConfig;
use heracles::fleet::{
    BalancerKind, EnergyConfig, EnergyMeter, EnergyPriceSchedule, FleetConfig, FleetResult,
    FleetSim, GenerationMix, JobStreamConfig, PolicyKind, SimCore, TelemetryConfig,
};
use heracles::hw::ServerConfig;
use heracles::workloads::ServiceMix;

fn base_config(seed: u64, balancer: BalancerKind, core: SimCore) -> FleetConfig {
    FleetConfig {
        servers: 4,
        steps: 6,
        windows_per_step: 2,
        seed,
        mix: GenerationMix::mixed_datacenter(),
        services: ServiceMix::mixed_frontend(),
        balancer,
        sim_core: core,
        colo: ColoConfig { requests_per_window: 400, ..ColoConfig::fast_test() },
        jobs: JobStreamConfig { arrivals_per_step: 1.5, ..JobStreamConfig::default() },
        ..FleetConfig::fast_services()
    }
}

/// Runs to the horizon with the meter installed, returning the result and
/// the meter's final ledgers.
fn metered_run(cfg: FleetConfig, policy: PolicyKind) -> (FleetResult, EnergyMeter) {
    let cfg = FleetConfig { energy: EnergyConfig { metering: true, ..cfg.energy }, ..cfg };
    let mut sim = FleetSim::new(cfg, ServerConfig::default_haswell(), policy);
    for _ in 0..cfg.steps {
        sim.step_once();
    }
    let meter = sim.take_meter().expect("metering was enabled");
    (sim.into_result(), meter)
}

/// Runs the deterministic diurnal elastic scenario under one autoscaler
/// (the generation market prices at the scenario's energy tariff).
fn elastic_run(scenario: AutoscaleConfig, kind: AutoscaleKind) -> AutoscaleResult {
    ElasticFleet::new(scenario, ServerConfig::default_haswell(), PolicyKind::LeastLoaded, kind)
        .run()
}

proptest! {
    /// Metering on vs off is invisible to the simulation, for every
    /// policy × balancer × sim core — and the energy columns themselves
    /// are computed either way (the knob only installs ledgers).
    #[test]
    fn metering_never_perturbs_the_simulation(
        seed in 0u64..50,
        policy_idx in 0usize..4,
        balancer_idx in 0usize..2,
        core_idx in 0usize..2,
    ) {
        let policy = PolicyKind::all()[policy_idx];
        let core = [SimCore::Stepped, SimCore::EventDriven][core_idx];
        let cfg = base_config(seed, BalancerKind::all()[balancer_idx], core);

        let unmetered = FleetSim::new(cfg, ServerConfig::default_haswell(), policy).run();
        let (metered, meter) = metered_run(cfg, policy);

        prop_assert_eq!(&unmetered.steps, &metered.steps);
        prop_assert_eq!(&unmetered.jobs, &metered.jobs);
        prop_assert_eq!(&unmetered.events, &metered.events);
        prop_assert_eq!(&unmetered.server_cores, &metered.server_cores);
        prop_assert!(meter.observations() > 0, "meter observed nothing");
        prop_assert!(meter.fleet().joules > 0.0, "a running fleet burned no energy");
        prop_assert!(unmetered.total_energy_joules() > 0.0);
    }

    /// The stepped oracle and the event-driven core bill bit-identical
    /// joules, dollars and peak watts on every step.
    #[test]
    fn both_cores_bill_identical_joules(
        seed in 0u64..30,
        policy_idx in 0usize..4,
        balancer_idx in 0usize..2,
    ) {
        let policy = PolicyKind::all()[policy_idx];
        let balancer = BalancerKind::all()[balancer_idx];
        let (stepped, sm) = metered_run(base_config(seed, balancer, SimCore::Stepped), policy);
        let (event, em) = metered_run(base_config(seed, balancer, SimCore::EventDriven), policy);

        prop_assert_eq!(stepped.steps.len(), event.steps.len());
        for (a, b) in stepped.steps.iter().zip(&event.steps) {
            prop_assert_eq!(a.energy_joules.to_bits(), b.energy_joules.to_bits());
            prop_assert_eq!(a.energy_dollars.to_bits(), b.energy_dollars.to_bits());
            prop_assert_eq!(a.peak_power_w.to_bits(), b.peak_power_w.to_bits());
        }
        prop_assert_eq!(sm, em);
    }

    /// Fleet joules equal the pool sum and the leaf sum; the step records
    /// sum to the meter's fleet total; identical seeds give identical
    /// ledgers.
    #[test]
    fn ledgers_conserve_and_reproduce(
        seed in 0u64..30,
        policy_idx in 0usize..4,
        core_idx in 0usize..2,
    ) {
        let policy = PolicyKind::all()[policy_idx];
        let core = [SimCore::Stepped, SimCore::EventDriven][core_idx];
        let cfg = base_config(seed, BalancerKind::all()[0], core);

        let (result, meter) = metered_run(cfg, policy);
        let fleet = meter.fleet();
        prop_assert!(
            meter.conservation_error() <= 1e-9 * fleet.joules.max(1.0),
            "fleet != sum(pools) or sum(leaves): residual {}",
            meter.conservation_error()
        );
        let step_sum: f64 = result.steps.iter().map(|s| s.energy_joules).sum();
        prop_assert!(
            (step_sum - fleet.joules).abs() <= 1e-9 * fleet.joules.max(1.0),
            "steps sum {} != meter fleet {}",
            step_sum,
            fleet.joules
        );

        let (again, meter_again) = metered_run(cfg, policy);
        prop_assert_eq!(meter, meter_again);
        prop_assert_eq!(result.steps, again.steps);
    }

    /// Under `EnergyConfig::capped` no step's fleet peak power exceeds the
    /// budget — the coordinator's per-leaf shares divided by the overshoot
    /// allowance make the ceiling hard, however tight the budget.
    #[test]
    fn capped_runs_never_exceed_the_budget(
        seed in 0u64..30,
        budget_w in 200.0f64..4000.0,
        core_idx in 0usize..2,
    ) {
        let core = [SimCore::Stepped, SimCore::EventDriven][core_idx];
        let cfg = FleetConfig {
            energy: EnergyConfig::capped(budget_w),
            ..base_config(seed, BalancerKind::all()[0], core)
        };
        let result =
            FleetSim::new(cfg, ServerConfig::default_haswell(), PolicyKind::LeastLoaded).run();
        for (i, step) in result.steps.iter().enumerate() {
            prop_assert!(
                step.peak_power_w <= budget_w + 1e-9,
                "step {i} peaked at {} W over the {budget_w} W budget",
                step.peak_power_w
            );
        }
        prop_assert_eq!(result.max_peak_power_w(), result
            .steps
            .iter()
            .map(|s| s.peak_power_w)
            .fold(0.0, f64::max));
    }
}

/// A binding budget actually throttles: the capped fleet's peak sits under
/// both the budget and the uncapped fleet's peak, and the run still
/// completes work.
#[test]
fn a_tight_budget_binds_without_stopping_the_fleet() {
    let base = base_config(7, BalancerKind::all()[0], SimCore::EventDriven);
    let uncapped = FleetSim::new(
        FleetConfig { energy: EnergyConfig::metered(), ..base },
        ServerConfig::default_haswell(),
        PolicyKind::LeastLoaded,
    )
    .run();
    let budget_w = 0.5 * uncapped.max_peak_power_w();
    let capped = FleetSim::new(
        FleetConfig { energy: EnergyConfig::capped(budget_w), ..base },
        ServerConfig::default_haswell(),
        PolicyKind::LeastLoaded,
    )
    .run();
    assert!(capped.max_peak_power_w() <= budget_w + 1e-9);
    assert!(capped.max_peak_power_w() < uncapped.max_peak_power_w());
    assert!(capped.total_energy_joules() < uncapped.total_energy_joules());
    // At half the uncapped peak the BE-admission throttle engages (shave BE
    // first), but the LC service keeps running: every step still burns
    // energy and the capped run shaves joules, not correctness.
    assert!(capped.steps.iter().all(|s| s.energy_joules > 0.0), "a step burned no energy");
    assert_eq!(capped.steps.len(), uncapped.steps.len());
}

/// Under the business peak/off-peak tariff the energy-aware autoscaler
/// serves BE work at no more joules per core·second than reactive, with
/// no SLO regression — the ISSUE's headline acceptance pin.
#[test]
fn energy_aware_beats_reactive_under_peak_pricing() {
    let scenario = AutoscaleConfig::diurnal(FleetConfig {
        energy: EnergyConfig {
            metering: true,
            price: EnergyPriceSchedule::business_peak(),
            ..EnergyConfig::default()
        },
        ..FleetConfig::fast_test()
    });
    let reactive = elastic_run(scenario, AutoscaleKind::Reactive);
    let aware = elastic_run(scenario, AutoscaleKind::EnergyAware);

    assert!(reactive.fleet.be_core_s_served() > 0.0);
    assert!(aware.fleet.be_core_s_served() > 0.0);
    assert!(
        aware.fleet.joules_per_be_core_s() <= reactive.fleet.joules_per_be_core_s(),
        "energy-aware burned more per core·s: {} vs reactive {}",
        aware.fleet.joules_per_be_core_s(),
        reactive.fleet.joules_per_be_core_s()
    );
    assert!(
        aware.fleet.violation_server_steps() <= reactive.fleet.violation_server_steps(),
        "energy-aware regressed SLOs: {} vs reactive {}",
        aware.fleet.violation_server_steps(),
        reactive.fleet.violation_server_steps()
    );
}

/// Under the default flat tariff the price ratio is pinned at 1, so the
/// energy-aware policy makes exactly the reactive policy's decisions.
#[test]
fn flat_pricing_degenerates_energy_aware_to_reactive() {
    let scenario = AutoscaleConfig::diurnal(FleetConfig {
        energy: EnergyConfig::metered(),
        ..FleetConfig::fast_test()
    });
    let reactive = elastic_run(scenario, AutoscaleKind::Reactive);
    let aware = elastic_run(scenario, AutoscaleKind::EnergyAware);
    assert_eq!(reactive.fleet, aware.fleet);
    assert_eq!(reactive.events, aware.events);
}

/// The energy summary events and the doctor report parse back out of the
/// artifacts, and the joules-vs-∫watts conservation cross-check passes —
/// the end-to-end path CI smokes via the binaries.
#[test]
fn doctor_report_parses_an_energy_run() {
    let cfg = FleetConfig {
        steps: 24,
        sim_core: SimCore::EventDriven,
        energy: EnergyConfig::metered(),
        telemetry: TelemetryConfig::enabled(),
        ..FleetConfig::fast_test()
    };
    let mut sim = FleetSim::new(cfg, ServerConfig::default_haswell(), PolicyKind::LeastLoaded);
    for _ in 0..cfg.steps {
        sim.step_once();
    }
    sim.emit_energy_summary();
    let telemetry = sim.take_telemetry().expect("telemetry was enabled");
    let trace = telemetry.trace_jsonl(&[("energy", "on".to_string())]).to_string();
    let report = heracles::bench::fleet_doctor::DoctorReport::from_artifacts(trace.lines(), None)
        .expect("artifacts parse");
    assert!(report.energy_summary.is_some(), "no energy summary event in the trace");
    let conservation = report.energy_conservation().expect("energy columns were present");
    assert!(conservation.ok(), "conservation broke: {conservation:?}");
    assert!(report.energy_ok());
    assert!(report.render().contains("energy plane"));
}
