//! The telemetry plane's two load-bearing guarantees:
//!
//! * **Observation never perturbs the run.**  For every placement policy
//!   and balancer, a traced run and an untraced run of the same seed
//!   produce bit-identical `FleetResult`s — steps, jobs and events.  The
//!   trace is a read-only shadow of the decision stream, never an input
//!   to it.
//! * **The trace itself is deterministic.**  Two traced runs of the same
//!   seed render byte-identical JSONL documents, so traces can be diffed
//!   across machines and commits.

use proptest::prelude::*;

use heracles::autoscale::{AutoscaleConfig, AutoscaleKind, ElasticFleet};
use heracles::colo::ColoConfig;
use heracles::fleet::{
    BalancerKind, EnergyConfig, FleetConfig, FleetResult, FleetSim, GenerationMix, JobStreamConfig,
    PolicyKind, SimCore, Telemetry, TelemetryConfig,
};
use heracles::hw::ServerConfig;
use heracles::telemetry::validate_metrics_json;
use heracles::workloads::ServiceMix;

fn base_config(seed: u64, balancer: BalancerKind) -> FleetConfig {
    FleetConfig {
        servers: 4,
        steps: 6,
        windows_per_step: 2,
        seed,
        mix: GenerationMix::mixed_datacenter(),
        services: ServiceMix::mixed_frontend(),
        balancer,
        colo: ColoConfig { requests_per_window: 400, ..ColoConfig::fast_test() },
        jobs: JobStreamConfig { arrivals_per_step: 1.5, ..JobStreamConfig::default() },
        ..FleetConfig::fast_services()
    }
}

/// Runs to the horizon with telemetry enabled, returning both the result
/// and the collected telemetry.
fn traced_run(cfg: FleetConfig, policy: PolicyKind) -> (FleetResult, Telemetry) {
    let cfg = FleetConfig { telemetry: TelemetryConfig::enabled(), ..cfg };
    let mut sim = FleetSim::new(cfg, ServerConfig::default_haswell(), policy);
    for _ in 0..cfg.steps {
        sim.step_once();
    }
    let telemetry = sim.take_telemetry().expect("telemetry was enabled");
    (sim.into_result(), telemetry)
}

proptest! {
    /// Telemetry on vs off is invisible to the simulation: for every
    /// policy × balancer pair, the traced run's steps, jobs and events are
    /// bit-identical to the untraced run's.
    #[test]
    fn telemetry_never_perturbs_the_simulation(
        seed in 0u64..100,
        policy_idx in 0usize..4,
        balancer_idx in 0usize..2,
    ) {
        let policy = PolicyKind::all()[policy_idx];
        let cfg = base_config(seed, BalancerKind::all()[balancer_idx]);

        let untraced =
            FleetSim::new(cfg, ServerConfig::default_haswell(), policy).run();
        let (traced, telemetry) = traced_run(cfg, policy);

        prop_assert_eq!(&untraced.steps, &traced.steps);
        prop_assert_eq!(&untraced.jobs, &traced.jobs);
        prop_assert_eq!(&untraced.events, &traced.events);
        prop_assert_eq!(&untraced.server_cores, &traced.server_cores);
        prop_assert!(!telemetry.recorder.is_empty(), "traced run recorded nothing");
    }

    /// Two traced runs of the same seed render byte-identical JSONL trace
    /// and metrics documents, and both pass their schema validators.
    #[test]
    fn identical_seeds_give_byte_identical_traces(
        seed in 0u64..50,
        balancer_idx in 0usize..2,
    ) {
        let cfg = base_config(seed, BalancerKind::all()[balancer_idx]);
        let header = [("policy", "least-loaded".to_string()), ("seed", seed.to_string())];

        let (_, a) = traced_run(cfg, PolicyKind::LeastLoaded);
        let (_, b) = traced_run(cfg, PolicyKind::LeastLoaded);

        let doc_a = a.trace_jsonl(&header);
        let doc_b = b.trace_jsonl(&header);
        prop_assert!(doc_a == doc_b, "traces of identical seeds diverged");
        doc_a.validate().expect("trace failed schema validation");
        let metrics_a = a.metrics_json();
        prop_assert!(metrics_a == b.metrics_json(), "metrics of identical seeds diverged");
        validate_metrics_json(&metrics_a).expect("metrics failed schema validation");
        prop_assert_eq!(a.metrics.counter("fleet.jobs_placed"),
                        b.metrics.counter("fleet.jobs_placed"));
    }
}

/// Elastic (autoscaled) runs share the guarantee: the same churny run with
/// telemetry on and off yields bit-identical fleet results, and the traced
/// run records autoscale decision events alongside fleet ones.
#[test]
fn elastic_runs_are_unperturbed_and_trace_autoscale_decisions() {
    let mut config = AutoscaleConfig::fast_test();
    config.fleet.steps = 10;
    config.fleet.jobs.arrivals_per_step = 6.0;
    let off = ElasticFleet::new(
        config,
        ServerConfig::default_haswell(),
        PolicyKind::LeastLoaded,
        AutoscaleKind::Reactive,
    )
    .run();

    let mut traced_cfg = config;
    traced_cfg.fleet.telemetry = TelemetryConfig::enabled();
    let mut fleet = ElasticFleet::new(
        traced_cfg,
        ServerConfig::default_haswell(),
        PolicyKind::LeastLoaded,
        AutoscaleKind::Reactive,
    );
    for _ in 0..traced_cfg.fleet.steps {
        fleet.step_once();
    }
    let telemetry = fleet.take_telemetry().expect("telemetry was enabled");
    let on = fleet.finish();

    assert_eq!(off.fleet.steps, on.fleet.steps);
    assert_eq!(off.fleet.jobs, on.fleet.jobs);
    assert_eq!(off.fleet.events, on.fleet.events);
    assert_eq!(off.events, on.events);

    let kinds: std::collections::BTreeSet<String> =
        telemetry.recorder.iter().map(|e| e.kind().to_string()).collect();
    for required in ["signals", "decide", "step"] {
        assert!(kinds.contains(required), "no {required:?} event in {kinds:?}");
    }
    telemetry.trace_jsonl(&[]).validate().expect("elastic trace fails schema");
}

/// FNV-1a 64 of a byte string: a dependency-free fingerprint for pinning
/// artifact bytes across commits.
fn fnv1a_64(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |hash, &b| (hash ^ b as u64).wrapping_mul(0x0100_0000_01b3))
}

/// The FNV-1a 64 digest of the observed elastic run's trace document.
/// Change it only for a deliberate trace change.
const RECORDED_TRACE_DIGEST: u64 = 0xd74f_2af1_ff76_f591;

/// The FNV-1a 64 digest of the same run's metrics document
/// (`heracles-metrics/v3`).  Change it only for a deliberate metrics
/// change, such as a schema bump.
const RECORDED_METRICS_DIGEST: u64 = 0x7bbc_43ca_8138_b110;

/// The trace and metrics documents are pinned byte for byte across commits,
/// not just between two runs of one build: a small elastic fleet on the
/// event core with the health plane, metering, a binding power cap and a
/// held demand grid exercises every observer the fleet step feeds.  A
/// refactor of the step that reorders, drops or reformats a single event
/// or metric changes the digest.
#[test]
fn observed_elastic_run_reproduces_its_recorded_trace_bytes() {
    let base = FleetConfig {
        steps: 16,
        windows_per_step: 2,
        sim_core: SimCore::EventDriven,
        demand_hold_steps: 3,
        telemetry: TelemetryConfig::with_health(),
        energy: EnergyConfig::capped(1_800.0),
        colo: ColoConfig { requests_per_window: 400, ..ColoConfig::fast_test() },
        ..FleetConfig::fast_test()
    };
    let mut config = AutoscaleConfig::diurnal(base);
    config.fleet.jobs.arrivals_per_step = 3.0;
    config.fleet.jobs.demand_min_core_s = 5.0;
    config.fleet.jobs.demand_max_core_s = 60.0;
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

    let kinds: std::collections::BTreeSet<String> =
        telemetry.recorder.iter().map(|e| e.kind().to_string()).collect();
    for required in [
        "be_throttle",
        "cap",
        "wake",
        "place",
        "unplaced",
        "complete",
        "preempt",
        "violation",
        "admission",
        "firing",
        "attainment",
        "step",
        "decide",
        "summary",
    ] {
        assert!(kinds.contains(required), "no {required:?} event in {kinds:?}");
    }
    let mut trace = Vec::new();
    telemetry
        .trace_jsonl(&[("seed", config.fleet.seed.to_string())])
        .write_to(&mut trace)
        .expect("a Vec takes every byte");
    let metrics = telemetry.metrics_json();
    let (trace_digest, metrics_digest) = (fnv1a_64(&trace), fnv1a_64(metrics.as_bytes()));
    assert_eq!(
        trace_digest, RECORDED_TRACE_DIGEST,
        "trace bytes moved: digest {trace_digest:#018x}"
    );
    assert_eq!(
        metrics_digest, RECORDED_METRICS_DIGEST,
        "metrics bytes moved: digest {metrics_digest:#018x}"
    );
}
