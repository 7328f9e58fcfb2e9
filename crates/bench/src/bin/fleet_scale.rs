//! Fleet-scale policy sweep: all four BE placement policies on the same
//! seeded job stream over a diurnally loaded websearch fleet, each server
//! defended by its own Heracles controller.
//!
//! By default the sweep runs twice — once over the homogeneous Haswell
//! fleet and once over a mixed-generation datacenter (Sandy-Bridge-class,
//! Haswell and Skylake-class boxes) — so the capacity-aware policies can be
//! compared on both; `--mix` pins a single blend instead.
//!
//! Reports per policy: core-weighted fleet EMU (mean/min), SLO violation
//! rate, jobs completed, BE core·seconds served, mean queueing delay (plus
//! the count of jobs still stranded in the queue at the end of the run —
//! survivors-only means flatter overloaded configs), preemptions and the
//! throughput/TCO gain over the uncolocated fleet — plus the single-server
//! Heracles baseline's violation rate as the bar the fleet must not
//! regress.
//!
//! With `--autoscale <static|reactive|predictive|energy-aware|all>` the
//! binary instead compares elastic fleets against the static baseline on
//! the same compressed-diurnal scenario and job stream: per autoscaler it
//! reports the time-varying fleet size, purchases/drains/migrations,
//! completed BE core·seconds, SLO-violation server-steps, queue-wait
//! percentiles, the amortized TCO bill and — the headline — TCO per
//! completed core·second relative to the static fleet.
//!
//! With `--energy` the fleet's energy plane meters per-leaf package power
//! into joule/dollar ledgers (a read-only shadow: results are bit-identical
//! with it off) and each row gains an energy line — fleet megajoules, the
//! energy bill at the configured tariff, the peak instantaneous watts and
//! joules per completed BE core·second.  `--power-cap W` additionally runs
//! the cluster under a package watt budget (per-leaf RAPL-style caps, BE
//! admission throttled first — a behavioral knob, not a shadow), and
//! `--energy-price <flat|peak|carbon|$/kWh>` picks the tariff curve the
//! joules are billed at (a bare number means a flat price at that $/kWh).
//!
//! With `--services websearch:0.5,memkeyval:0.3,ml_cluster:0.2` the fleet
//! serves a mixed LC catalog: each service owns an aggregate diurnal
//! demand curve (phase-spread across the cycle) that the traffic plane's
//! balancer (`--balancer capacity-weighted|slack-aware`) routes across its
//! leaves every step, conserving demand exactly — the per-service
//! routed-vs-offered audit is printed per row.
//!
//! With `--trace <path>` the binary instead runs a *single* policy (default
//! least-loaded, `--policy` to change; `--autoscale <kind>` for an elastic
//! run) with the telemetry plane enabled and writes the flight-recorder
//! trace as schema-validated JSONL; `--metrics <path>` also writes the
//! metrics-registry JSON.  `--health` additionally turns on the online
//! health plane (quantile sketches + burn-rate alerts — feed the
//! artifacts to `fleet_doctor`), `--recorder-capacity N` sizes the
//! flight-recorder ring (a loud warning is printed whenever the ring
//! overflowed and the trace is therefore partial).
//!
//! With `--sim-core <stepped|event>` the run is pinned to one server-plane
//! core: the stepped oracle simulates every leaf's every window in full,
//! the event-driven core fast-forwards provably steady leaves (the two are
//! bit-identical; `tests/fleet_simcore.rs` pins it).  `--demand-hold N`
//! holds each demand sample for N steps so fleets can actually go steady
//! between re-routes.
//!
//! A usage error (an unknown option, a missing or unparsable value, a
//! `--power-cap` that is not a positive number of watts, a trace-only option
//! — `--metrics`, `--health`, `--recorder-capacity`, `--policy` — without
//! `--trace`, an invalid configuration) exits 2 with a message instead of
//! being ignored.
//!
//! Run with: `cargo run --release -p heracles_bench --bin fleet_scale --
//! [--fast] [--servers N] [--steps N] [--seed N] [--slots N]
//! [--mix homogeneous|mixed|O:N] [--services SPEC] [--balancer KIND]
//! [--autoscale POLICY] [--csv] [--trace PATH] [--metrics PATH]
//! [--health] [--recorder-capacity N] [--policy KIND]
//! [--sim-core stepped|event]
//! [--demand-hold N] [--energy] [--power-cap W] [--energy-price KIND]`

use std::fs::File;

use heracles_autoscale::{AutoscaleConfig, AutoscaleKind, ElasticFleet, MIGRATION_COST_CORE_S};
use heracles_bench::cli::{exit_usage, Args};
use heracles_cluster::{TcoModel, FACILITY_PUE};
use heracles_fleet::{
    single_server_baseline_violations, EnergyConfig, EnergyPriceSchedule, FleetConfig, FleetResult,
    FleetSim, GenerationMix, PolicyKind, Telemetry, TelemetryConfig,
};
use heracles_hw::ServerConfig;
use heracles_telemetry::validate_metrics_json;
use heracles_workloads::ServiceMix;

/// The per-row energy line printed when the energy plane is metering:
/// fleet joules, the tariff bill, the peak instantaneous draw (against the
/// cap, when one is set) and the efficiency headline — joules per
/// completed BE core·second.
fn print_energy_line(result: &FleetResult, energy: &EnergyConfig) {
    let cap_note = energy.power_cap_w.map(|w| format!(" (cap {w:.0} W)")).unwrap_or_default();
    let per_core_s = result.joules_per_be_core_s();
    let efficiency =
        if per_core_s.is_finite() { format!(", {per_core_s:.1} J/core·s") } else { String::new() };
    println!(
        "  {:>18} energy: {:.2} MJ (${:.2} at PUE {:.1}), peak {:.0} W{cap_note}{efficiency}",
        "",
        result.total_energy_joules() / 1e6,
        result.total_energy_dollars(),
        FACILITY_PUE,
        result.max_peak_power_w(),
    );
}

fn sweep(config: FleetConfig, server: &ServerConfig, tco: &TcoModel, csv: bool) {
    let counts = config.mix.counts(config.servers);
    println!(
        "fleet mix: {} (sandy-bridge: {}, haswell: {}, skylake: {})",
        config.mix, counts[0], counts[1], counts[2]
    );
    println!("services: {} via {} balancing", config.services, config.balancer.name());
    println!(
        "{:<20} {:>8} {:>8} {:>7} {:>6} {:>10} {:>9} {:>8} {:>9} {:>9}",
        "policy",
        "EMU",
        "min EMU",
        "viol%",
        "jobs",
        "core.s",
        "delay s",
        "queued",
        "preempts",
        "TCO gain"
    );

    let mut mean_lc_load = 0.0;
    let mut total_cores = 0;
    for kind in PolicyKind::all() {
        let result = FleetSim::new(config, server.clone(), kind).run();
        mean_lc_load = result.mean_lc_load();
        total_cores = result.total_cores();
        let delay = result.queueing_delay();
        println!(
            "{:<20} {:>7.1}% {:>7.1}% {:>6.1}% {:>6} {:>10.0} {:>9.0} {:>8} {:>9} {:>8.1}%",
            result.policy,
            result.mean_fleet_emu() * 100.0,
            result.min_fleet_emu() * 100.0,
            result.slo_violation_fraction() * 100.0,
            result.jobs_completed(),
            result.be_core_s_served(),
            delay.mean_started_s,
            delay.censored,
            result.preemptions(),
            result.tco_improvement(tco) * 100.0
        );
        if config.energy.metering {
            print_energy_line(&result, &config.energy);
        }
        if config.services.active_services() > 1 {
            let by = result.violation_server_steps_by_service();
            println!(
                "  {:>18} routed==offered (max imbalance {:.2e}); violation server-steps: \
                 websearch {}, ml_cluster {}, memkeyval {}",
                "",
                result.max_routing_imbalance(),
                by[0],
                by[1],
                by[2]
            );
        }
        if csv {
            println!();
            print!("{}", result.to_csv());
            println!();
            // The job ledger includes censored jobs (still queued at the
            // end of the run) with their accrued wait — the step CSV alone
            // would hide the stranded tail.
            print!("{}", result.jobs_to_csv());
            println!();
        }
    }
    println!(
        "  ({} fleet cores; mean LC load without colocation: {:.1}%, core-weighted)",
        total_cores,
        mean_lc_load * 100.0
    );
    println!();
}

/// The elastic comparison: autoscaled fleets vs the static baseline on the
/// canonical compressed-diurnal scenario, judged in TCO per completed BE
/// core·second.
fn autoscale_sweep(config: FleetConfig, server: &ServerConfig, kinds: &[AutoscaleKind], csv: bool) {
    let scenario = AutoscaleConfig::diurnal(config);
    println!(
        "elastic scenario: {} servers initially ({}..={} allowed), {} steps compressed onto one \
         12 h diurnal cycle, migration cost {} core·s",
        scenario.fleet.servers,
        scenario.min_servers,
        scenario.max_servers,
        scenario.fleet.steps,
        MIGRATION_COST_CORE_S
    );
    println!(
        "{:<12} {:>8} {:>6} {:>7} {:>8} {:>8} {:>6} {:>10} {:>9} {:>9} {:>8} {:>11}",
        "autoscaler",
        "servers",
        "bought",
        "drained",
        "migrated",
        "requeued",
        "viol",
        "core.s",
        "p99 wait",
        "TCO $",
        "$/kcs",
        "vs static"
    );

    // The static baseline always runs first so the relative column has its
    // denominator.
    let mut static_tco_per = None;
    let baseline = AutoscaleKind::Static;
    for kind in std::iter::once(baseline).chain(kinds.iter().copied().filter(|&k| k != baseline)) {
        // Least-loaded placement: the elastic comparison is about *fleet
        // sizing*, and least-loaded's occupancy penalty spreads residents
        // across servers — which is also what makes consolidation drains
        // (migrate, retire) do real work in the valley.
        let result =
            ElasticFleet::new(scenario, server.clone(), PolicyKind::LeastLoaded, kind).run();
        let fleet = &result.fleet;
        let per_kcs = fleet.tco_per_be_core_s() * 1_000.0;
        if kind == baseline {
            static_tco_per = Some(per_kcs);
        }
        let delta = static_tco_per
            .map(|s| format!("{:+.1}%", (per_kcs / s - 1.0) * 100.0))
            .unwrap_or_default();
        println!(
            "{:<12} {:>8.1} {:>6} {:>7} {:>8} {:>8} {:>6} {:>10.0} {:>8.0}s {:>9.2} {:>8.3} {:>11}",
            result.autoscaler,
            fleet.mean_in_service_servers(),
            result.scale_outs(),
            result.scale_ins(),
            result.drain_migrations(),
            result.drain_requeues(),
            fleet.violation_server_steps(),
            fleet.be_core_s_served(),
            fleet.queueing_delay().p99_started_s,
            fleet.total_tco_dollars(),
            per_kcs,
            delta
        );
        if scenario.fleet.energy.metering {
            print_energy_line(fleet, &scenario.fleet.energy);
        }
        if csv {
            println!();
            print!("{}", fleet.to_csv());
            println!();
        }
    }
    println!();
    println!("(identical seeded job stream per row; $/kcs is amortized TCO per 1000 completed");
    println!(" BE core·seconds — the autoscaler's whole mandate is the last two columns.)");
}

/// Every option `fleet_scale` understands.
const KNOWN_OPTIONS: &[&str] = &[
    "--fast",
    "--servers",
    "--steps",
    "--seed",
    "--slots",
    "--mix",
    "--services",
    "--balancer",
    "--autoscale",
    "--csv",
    "--trace",
    "--metrics",
    "--health",
    "--recorder-capacity",
    "--policy",
    "--sim-core",
    "--demand-hold",
    "--energy",
    "--power-cap",
    "--energy-price",
];

/// Runs `config` once under `policy` (elastically under `autoscale`, when
/// given) and returns its telemetry bundle, when traced.
fn run_once(
    config: FleetConfig,
    server: &ServerConfig,
    policy: PolicyKind,
    autoscale: Option<AutoscaleKind>,
) -> Option<Telemetry> {
    let Some(kind) = autoscale else {
        let mut sim = FleetSim::new(config, server.clone(), policy);
        for _ in 0..config.steps {
            sim.step_once();
        }
        sim.emit_health_summary();
        sim.emit_energy_summary();
        return sim.take_telemetry();
    };
    let scenario = AutoscaleConfig::diurnal(config);
    let mut fleet = ElasticFleet::new(scenario, server.clone(), policy, kind);
    for _ in 0..scenario.fleet.steps {
        fleet.step_once();
    }
    fleet.emit_health_summary();
    fleet.emit_energy_summary();
    fleet.take_telemetry()
}

/// The traced single-run mode behind `--trace`: runs once with the
/// telemetry plane on, schema-validates the artifacts and writes them to
/// disk.
fn traced_run(
    config: FleetConfig,
    server: &ServerConfig,
    policy: PolicyKind,
    autoscale: Option<AutoscaleKind>,
    telemetry_cfg: TelemetryConfig,
    trace_path: &str,
    metrics_path: &str,
) {
    let traced_cfg = FleetConfig { telemetry: telemetry_cfg, ..config };
    let telemetry = run_once(traced_cfg, server, policy, autoscale).expect("telemetry was enabled");

    let mut header = vec![
        ("policy", policy.name().to_string()),
        ("balancer", config.balancer.name().to_string()),
        ("seed", config.seed.to_string()),
        ("servers", config.servers.to_string()),
        ("steps", config.steps.to_string()),
    ];
    if let Some(kind) = autoscale {
        header.push(("autoscaler", kind.name().to_string()));
    }
    if telemetry_cfg.health {
        header.push(("health", "on".to_string()));
    }
    let trace_doc = telemetry.trace_jsonl(&header);
    if let Err(e) = trace_doc.validate() {
        eprintln!("trace failed schema validation before writing: {e}");
        std::process::exit(1);
    }
    if let Err(e) = File::create(trace_path).and_then(|mut file| trace_doc.write_to(&mut file)) {
        eprintln!("cannot write {trace_path}: {e}");
        std::process::exit(2);
    }
    println!(
        "trace: {} events ({} dropped) -> {trace_path}",
        telemetry.recorder.len(),
        telemetry.recorder.dropped()
    );
    if telemetry.recorder.dropped() > 0 {
        eprintln!(
            "WARNING: the flight recorder dropped {} events — the trace covers only the last \
             {} events of the run.  fleet_doctor will mark every section of its report \
             [PARTIAL]; re-run with a larger --recorder-capacity (currently {}) for \
             a lossless trace.",
            telemetry.recorder.dropped(),
            telemetry.recorder.len(),
            telemetry.recorder.capacity()
        );
    }
    if !metrics_path.is_empty() {
        let metrics_doc = telemetry.metrics_json();
        if let Err(e) = validate_metrics_json(&metrics_doc) {
            eprintln!("metrics failed schema validation before writing: {e}");
            std::process::exit(1);
        }
        if let Err(e) = std::fs::write(metrics_path, &metrics_doc) {
            eprintln!("cannot write {metrics_path}: {e}");
            std::process::exit(2);
        }
        println!(
            "metrics: {} jobs placed, {} violation server-steps -> {metrics_path}",
            telemetry.metrics.counter("fleet.jobs_placed"),
            telemetry.metrics.counter("fleet.violation_server_steps"),
        );
    }
}

fn main() {
    let args = Args::from_env();
    if let Err(e) = args.reject_unknown(KNOWN_OPTIONS).and_then(|()| run(&args)) {
        exit_usage(&e);
    }
}

/// Parses the options and runs the selected mode; a usage error comes back
/// as the message `main` prints before exiting 2.
fn run(args: &Args) -> Result<(), String> {
    let base = if args.flag("--fast") { FleetConfig::fast_test() } else { FleetConfig::default() };
    // A multi-service catalog needs the run compressed onto the diurnal
    // cycle (service phases are the whole point); `fast_services` carries
    // the right compression for the fast shape.
    let base = if args.value("--services", ServiceMix::websearch_only())?.active_services() > 1
        && args.flag("--fast")
    {
        FleetConfig::fast_services()
    } else {
        base
    };
    // The energy-plane knobs: `--energy` turns on the metering shadow,
    // `--power-cap` (implies metering) runs under a cluster watt budget,
    // `--energy-price` picks the tariff (a named curve or a flat $/kWh).
    let energy = {
        let mut energy = base.energy;
        if args.flag("--energy") {
            energy.metering = true;
        }
        if let Some(cap_w) = args.optional::<f64>("--power-cap")? {
            if !(cap_w > 0.0 && cap_w.is_finite()) {
                return Err(format!(
                    "invalid --power-cap {cap_w} (expected a positive, finite number of watts)"
                ));
            }
            energy.metering = true;
            energy.power_cap_w = Some(cap_w);
        }
        let price = args.value("--energy-price", String::new())?;
        match price.as_str() {
            "" | "flat" => {}
            "peak" => energy.price = EnergyPriceSchedule::business_peak(),
            "carbon" => {
                energy.price =
                    EnergyPriceSchedule::CarbonAware { base_per_kwh: 0.05, premium_per_kwh: 0.10 }
            }
            other => match other.parse::<f64>() {
                Ok(per_kwh) if per_kwh > 0.0 && per_kwh.is_finite() => {
                    energy.price = EnergyPriceSchedule::Flat { per_kwh }
                }
                _ => {
                    return Err(format!(
                        "invalid --energy-price {other:?} (expected flat, peak, carbon or a \
                         positive $/kWh number)"
                    ))
                }
            },
        }
        energy
    };
    let config = FleetConfig {
        energy,
        servers: args.value("--servers", base.servers)?,
        steps: args.value("--steps", base.steps)?,
        seed: args.value("--seed", base.seed)?,
        be_slots_per_server: args.value("--slots", base.be_slots_per_server)?,
        services: args.value("--services", base.services)?,
        balancer: args.value("--balancer", base.balancer)?,
        demand_hold_steps: args.value("--demand-hold", base.demand_hold_steps)?,
        sim_core: args.value("--sim-core", base.sim_core)?,
        ..base
    };
    config.validate().map_err(|e| format!("invalid configuration: {e}"))?;
    let server = ServerConfig::default_haswell();

    let autoscale: Vec<AutoscaleKind> = match args.value("--autoscale", String::new())?.as_str() {
        "" => Vec::new(),
        "all" => AutoscaleKind::all().to_vec(),
        kind => vec![kind
            .parse()
            .map_err(|e| format!("invalid --autoscale value: {e} (or \"all\")"))?],
    };
    let trace_path = args.value("--trace", String::new())?;
    let health = args.flag("--health");
    if trace_path.is_empty() {
        if health {
            return Err(
                "--health requires --trace (the health plane reports through the recorder)".into(),
            );
        }
        for name in ["--metrics", "--policy", "--recorder-capacity"] {
            if args.optional::<String>(name)?.is_some() {
                return Err(format!("{name} requires --trace (only a traced run reads it)"));
            }
        }
    }
    if !trace_path.is_empty() {
        let config = FleetConfig { mix: args.value("--mix", config.mix)?, ..config };
        let telemetry_cfg = TelemetryConfig {
            enabled: true,
            health,
            trace_capacity: args
                .value("--recorder-capacity", TelemetryConfig::default().trace_capacity)?,
        };
        telemetry_cfg.validate().map_err(|e| format!("invalid telemetry configuration: {e}"))?;
        if autoscale.len() > 1 {
            return Err("a traced run takes one --autoscale kind, not all".into());
        }
        traced_run(
            config,
            &server,
            args.value("--policy", PolicyKind::LeastLoaded)?,
            autoscale.first().copied(),
            telemetry_cfg,
            &trace_path,
            &args.value("--metrics", String::new())?,
        );
        return Ok(());
    }
    if !autoscale.is_empty() {
        let config = FleetConfig { mix: args.value("--mix", config.mix)?, ..config };
        println!("Elastic fleet: autoscalers over per-server Heracles controllers");
        autoscale_sweep(config, &server, &autoscale, args.flag("--csv"));
        return Ok(());
    }

    // With no --mix, sweep homogeneous and mixed back-to-back; with one,
    // run exactly the requested blend.
    let mixes: Vec<GenerationMix> =
        if args.flag("--mix") || !args.value("--mix", String::new())?.is_empty() {
            vec![args.value("--mix", GenerationMix::homogeneous())?]
        } else {
            vec![GenerationMix::homogeneous(), GenerationMix::mixed_datacenter()]
        };
    println!("Fleet scheduler: BE job placement over per-server Heracles controllers");
    println!(
        "  servers: {}, BE slots/reference server: {}, steps: {}, windows/step: {}, seed: {}",
        config.servers,
        config.be_slots_per_server,
        config.steps,
        config.windows_per_step,
        config.seed
    );
    let baseline = single_server_baseline_violations(&config, &server);
    println!(
        "  single-server Heracles baseline: SLO violations in {:.1}% of steps",
        baseline * 100.0
    );
    println!();

    let tco = TcoModel::paper_case_study();
    for mix in mixes {
        sweep(FleetConfig { mix, ..config }, &server, &tco, args.flag("--csv"));
    }
    println!("(every policy schedules the identical seeded job stream within a mix,");
    println!(" so rows are directly comparable; EMU and TCO are core-weighted.)");
    Ok(())
}
