//! The health plane's load-bearing guarantees:
//!
//! * **Observation never perturbs the run.**  For every placement policy,
//!   balancer and sim core, a run with the health plane on produces a
//!   bit-identical `FleetResult` to the same seed with telemetry off
//!   entirely — sketches and the alert engine are a read-only shadow.
//! * **Alerts are deterministic.**  Two health-on runs of the same seed
//!   emit byte-identical alert event streams.
//! * **The sketch honors its documented bound.**  Every quantile estimate
//!   lands within `RELATIVE_ERROR` of the exact nearest-rank quantile,
//!   and merging shard sketches is exactly equivalent to sketching the
//!   concatenated stream.

use proptest::prelude::*;

use heracles::colo::ColoConfig;
use heracles::fleet::{
    BalancerKind, FleetConfig, FleetSim, GenerationMix, JobStreamConfig, PolicyKind, SimCore,
    Telemetry, TelemetryConfig,
};
use heracles::hw::ServerConfig;
use heracles::telemetry::{QuantileSketch, RELATIVE_ERROR};
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

/// Runs to the horizon with the health plane on, returning the result and
/// the telemetry bundle (health summary emitted).
fn health_run(cfg: FleetConfig, policy: PolicyKind) -> (heracles::fleet::FleetResult, Telemetry) {
    let cfg = FleetConfig { telemetry: TelemetryConfig::with_health(), ..cfg };
    let mut sim = FleetSim::new(cfg, ServerConfig::default_haswell(), policy);
    for _ in 0..cfg.steps {
        sim.step_once();
    }
    sim.emit_health_summary();
    let telemetry = sim.take_telemetry().expect("telemetry was enabled");
    (sim.into_result(), telemetry)
}

/// The alert lines of a rendered trace document, in order.
fn alert_stream(telemetry: &Telemetry) -> String {
    telemetry
        .trace_jsonl(&[])
        .to_string()
        .lines()
        .filter(|l| l.contains("\"scope\":\"alert\""))
        .collect::<Vec<_>>()
        .join("\n")
}

proptest! {
    /// Health plane on vs telemetry off entirely is invisible to the
    /// simulation, for every policy × balancer × sim core.
    #[test]
    fn health_plane_never_perturbs_the_simulation(
        seed in 0u64..50,
        policy_idx in 0usize..4,
        balancer_idx in 0usize..2,
        core_idx in 0usize..2,
    ) {
        let policy = PolicyKind::all()[policy_idx];
        let core = [SimCore::Stepped, SimCore::EventDriven][core_idx];
        let cfg = base_config(seed, BalancerKind::all()[balancer_idx], core);

        let untraced = FleetSim::new(cfg, ServerConfig::default_haswell(), policy).run();
        let (observed, telemetry) = health_run(cfg, policy);

        prop_assert_eq!(&untraced.steps, &observed.steps);
        prop_assert_eq!(&untraced.jobs, &observed.jobs);
        prop_assert_eq!(&untraced.events, &observed.events);
        prop_assert_eq!(&untraced.server_cores, &observed.server_cores);
        let health = telemetry.health.as_ref().expect("health plane was on");
        prop_assert!(health.cells().count() > 0, "health plane observed no cells");
    }

    /// Identical seeds give byte-identical alert streams (and identical
    /// whole trace documents, alerts included).
    #[test]
    fn identical_seeds_give_byte_identical_alert_streams(
        seed in 0u64..30,
        policy_idx in 0usize..4,
    ) {
        let policy = PolicyKind::all()[policy_idx];
        let cfg = base_config(seed, BalancerKind::all()[0], SimCore::EventDriven);
        let (_, a) = health_run(cfg, policy);
        let (_, b) = health_run(cfg, policy);
        prop_assert_eq!(alert_stream(&a), alert_stream(&b));
        prop_assert_eq!(a.trace_jsonl(&[]), b.trace_jsonl(&[]));
    }

    /// Every sketch quantile lands within the documented relative-error
    /// bound of the exact nearest-rank quantile.
    #[test]
    fn sketch_quantiles_honor_the_relative_error_bound(
        values in proptest::collection::vec(1e-6f64..1e6, 1..400),
        q in 0.0f64..=1.0,
    ) {
        let mut sketch = QuantileSketch::new();
        for &v in &values {
            sketch.observe(v);
        }
        let mut sorted = values.clone();
        sorted.sort_by(f64::total_cmp);
        let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        let exact = sorted[rank - 1];
        let estimate = sketch.quantile(q);
        prop_assert!(
            (estimate - exact).abs() <= RELATIVE_ERROR * exact + 1e-12,
            "q={q}: estimate {estimate} vs exact {exact} breaks the {RELATIVE_ERROR} bound"
        );
    }

    /// Merging shard sketches is exactly the sketch of the concatenated
    /// stream — bit-for-bit, not just approximately.
    #[test]
    fn merged_shards_equal_the_concatenated_stream(
        a in proptest::collection::vec(1e-6f64..1e6, 0..200),
        b in proptest::collection::vec(1e-6f64..1e6, 0..200),
    ) {
        let mut sa = QuantileSketch::new();
        for &v in &a {
            sa.observe(v);
        }
        let mut sb = QuantileSketch::new();
        for &v in &b {
            sb.observe(v);
        }
        let mut concat = QuantileSketch::new();
        for &v in a.iter().chain(&b) {
            concat.observe(v);
        }
        sa.merge(&sb);
        prop_assert_eq!(sa, concat);
    }
}

/// An event-core fleet whose wake fraction stays high fires the wake-storm
/// alert: the burn-rate engine produces real transitions on a real run,
/// and the trace carries them.
#[test]
fn overloaded_event_fleet_fires_an_alert() {
    let cfg = FleetConfig { steps: 40, sim_core: SimCore::EventDriven, ..FleetConfig::fast_test() };
    let (_, telemetry) = health_run(cfg, PolicyKind::LeastLoaded);
    let alerts = alert_stream(&telemetry);
    assert!(
        alerts.contains("\"kind\":\"firing\""),
        "no alert fired on a fleet that wakes every leaf every step: {alerts:?}"
    );
    let health = telemetry.health.as_ref().unwrap();
    assert!(health.engine.firing_count() > 0, "engine disagrees with its own trace");
}

/// The health plane's summary events and the doctor report parse back out
/// of the artifacts — the end-to-end path CI smokes via the binaries.
#[test]
fn doctor_report_parses_a_health_run() {
    let cfg = FleetConfig { steps: 24, sim_core: SimCore::EventDriven, ..FleetConfig::fast_test() };
    let (_, telemetry) = health_run(cfg, PolicyKind::LeastLoaded);
    let trace = telemetry.trace_jsonl(&[("health", "on".to_string())]).to_string();
    let metrics = telemetry.metrics_json();
    let report =
        heracles::bench::fleet_doctor::DoctorReport::from_artifacts(&trace, Some(&metrics))
            .expect("artifacts parse");
    assert!(!report.attainment.is_empty());
    assert!(!report.leaves.is_empty());
    assert_eq!(report.step_latencies.len(), 24);
    assert!(report.cross_checks_ok(), "sketch broke its bound on a real run");
}
