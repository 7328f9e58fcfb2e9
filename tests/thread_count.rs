//! A fleet's results do not depend on how many threads step its leaves.
//!
//! Every recorded digest was taken at whatever parallelism its host had, so
//! this binary pins the property those digests rely on: the fan-out hands
//! leaves to 1, 2 or 7 workers and the results, the trace and the metrics
//! come out identical.  Leaves of one cell share read-only state (their DRAM
//! model, hardware and LC profiles) across those threads, so this is also
//! what catches a shared table that is not read-only after all.

use heracles_autoscale::{AutoscaleConfig, AutoscaleKind, ElasticFleet};
use heracles_colo::ColoConfig;
use heracles_fleet::{EnergyConfig, FleetConfig, FleetSim, PolicyKind, SimCore, TelemetryConfig};
use heracles_hw::ServerConfig;
use heracles_sim::with_worker_threads;

/// The worker counts compared: one, this machine's likely count, and more
/// workers than a `fast_test` fleet has leaves per thread.
const WORKERS: [usize; 3] = [1, 2, 7];

/// Runs `run` under each of [`WORKERS`] and requires every result to equal
/// the single-worker one.
fn same_at_every_worker_count<R: PartialEq + std::fmt::Debug>(name: &str, run: impl Fn() -> R) {
    let [one, rest @ ..] = WORKERS.map(|workers| with_worker_threads(workers, &run));
    for (result, workers) in rest.iter().zip(&WORKERS[1..]) {
        assert!(*result == one, "{name}: {workers} workers diverged from 1");
    }
}

#[test]
fn a_static_fleet_is_independent_of_the_worker_count() {
    same_at_every_worker_count("fast_test", || {
        FleetSim::new(
            FleetConfig::fast_test(),
            ServerConfig::default_haswell(),
            PolicyKind::InterferenceAware,
        )
        .run()
    });
}

#[test]
fn an_elastic_fleet_is_independent_of_the_worker_count() {
    same_at_every_worker_count("elastic", || {
        let result = ElasticFleet::new(
            AutoscaleConfig::fast_test(),
            ServerConfig::default_haswell(),
            PolicyKind::LeastLoaded,
            AutoscaleKind::Reactive,
        )
        .run();
        assert!(result.scale_outs() > 0, "the run bought no server");
        assert!(result.retirements() > 0, "the run retired no server");
        result
    });
}

#[test]
fn a_traced_fleet_renders_the_same_bytes_at_every_worker_count() {
    same_at_every_worker_count("traced", || {
        let base = FleetConfig {
            steps: 16,
            windows_per_step: 2,
            sim_core: SimCore::EventDriven,
            telemetry: TelemetryConfig::with_health(),
            energy: EnergyConfig::metered(),
            colo: ColoConfig { requests_per_window: 400, ..ColoConfig::fast_test() },
            ..FleetConfig::fast_test()
        };
        let mut config = AutoscaleConfig::diurnal(base);
        config.fleet.jobs.arrivals_per_step = 3.0;
        let mut fleet = ElasticFleet::new(
            config,
            ServerConfig::default_haswell(),
            PolicyKind::LeastLoaded,
            AutoscaleKind::Reactive,
        );
        for _ in 0..config.fleet.steps {
            fleet.step_once();
        }
        fleet.emit_health_summary();
        fleet.emit_energy_summary();
        let telemetry = fleet.take_telemetry().expect("telemetry was enabled");
        let trace = telemetry.trace_jsonl(&[]).to_string();
        assert!(trace.lines().count() > 100, "the trace is too small to tell");
        (fleet.finish(), trace, telemetry.metrics_json())
    });
}
