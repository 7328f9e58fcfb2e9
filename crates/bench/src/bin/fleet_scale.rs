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
//! The policy sweep reads the tariff only with `--energy`, `--power-cap` or
//! `--csv`, the only places its output shows the bill.
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
//! Each mode reads only the options it uses: `--csv` belongs to the two
//! sweeps, `--metrics`, `--health`, `--recorder-capacity` and `--policy` to
//! a traced run, and `--energy-price` to the policy sweep only when it
//! bills energy.  A usage error (an argument the chosen mode does not read,
//! a missing, empty or unparsable value, an option given twice, a
//! `--power-cap` that is not a positive number of watts, an invalid
//! configuration) exits 2 with a message before anything runs.
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
    println!("Elastic fleet: autoscalers over per-server Heracles controllers");
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
        // With no completed BE work $/kcs is infinite: it and any ratio
        // over it print as n/a.
        let per_kcs = Some(fleet.tco_per_be_core_s() * 1_000.0).filter(|v| v.is_finite());
        if kind == baseline {
            static_tco_per = per_kcs;
        }
        let delta = match (per_kcs, static_tco_per) {
            (Some(p), Some(s)) => format!("{:+.1}%", (p / s - 1.0) * 100.0),
            _ => "n/a".to_string(),
        };
        let per_kcs = per_kcs.map_or_else(|| "n/a".to_string(), |p| format!("{p:.3}"));
        println!(
            "{:<12} {:>8.1} {:>6} {:>7} {:>8} {:>8} {:>6} {:>10.0} {:>8.0}s {:>9.2} {:>8} {:>11}",
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
    trace_path: &str,
    metrics_path: Option<&str>,
) {
    let telemetry = run_once(config, server, policy, autoscale).expect("telemetry was enabled");

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
    if config.telemetry.health {
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
    if let Some(metrics_path) = metrics_path {
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

/// What one invocation runs, holding only the options that mode reads.
enum Mode {
    /// Every placement policy, once per generation mix.
    Sweep { mixes: Vec<GenerationMix>, csv: bool },
    /// The autoscalers against the static baseline.
    Elastic { kinds: Vec<AutoscaleKind>, csv: bool },
    /// One run with the telemetry plane on (the config's telemetry).
    Traced {
        policy: PolicyKind,
        autoscale: Option<AutoscaleKind>,
        trace_path: String,
        metrics_path: Option<String>,
    },
}

/// The energy-plane switches: `--energy` turns on the metering shadow,
/// `--power-cap` (implies metering) runs under a cluster watt budget.
fn parse_energy(args: &mut Args, mut energy: EnergyConfig) -> Result<EnergyConfig, String> {
    energy.metering |= args.flag("--energy")?;
    if let Some(cap_w) = args.optional::<f64>("--power-cap")? {
        if !(cap_w > 0.0 && cap_w.is_finite()) {
            return Err(format!(
                "invalid --power-cap {cap_w} (expected a positive, finite number of watts)"
            ));
        }
        energy.metering = true;
        energy.power_cap_w = Some(cap_w);
    }
    Ok(energy)
}

/// `--energy-price`: the tariff the joules are billed at, a named curve or
/// a flat $/kWh (`None` keeps the configured one).
fn parse_price(args: &mut Args) -> Result<Option<EnergyPriceSchedule>, String> {
    Ok(match args.optional::<String>("--energy-price")?.as_deref() {
        None | Some("flat") => None,
        Some("peak") => Some(EnergyPriceSchedule::business_peak()),
        Some("carbon") => {
            Some(EnergyPriceSchedule::CarbonAware { base_per_kwh: 0.05, premium_per_kwh: 0.10 })
        }
        Some(other) => match other.parse::<f64>() {
            Ok(per_kwh) if per_kwh > 0.0 && per_kwh.is_finite() => {
                Some(EnergyPriceSchedule::Flat { per_kwh })
            }
            _ => {
                return Err(format!(
                    "invalid --energy-price {other:?} (expected flat, peak, carbon or a positive \
                     $/kWh number)"
                ))
            }
        },
    })
}

/// Reads the mode and the options it uses into a validated configuration,
/// then rejects any argument left unread.  A usage error comes back as the
/// message `main` prints before exiting 2.
fn parse(args: &mut Args) -> Result<(FleetConfig, Mode), String> {
    let fast = args.flag("--fast")?;
    // A multi-service catalog needs the run compressed onto the diurnal
    // cycle (service phases are the whole point); `fast_services` carries
    // the right compression for the fast shape.
    let multi_service =
        args.value("--services", ServiceMix::websearch_only())?.active_services() > 1;
    let base = match (fast, multi_service) {
        (false, _) => FleetConfig::default(),
        (true, false) => FleetConfig::fast_test(),
        (true, true) => FleetConfig::fast_services(),
    };
    let mix = args.optional::<GenerationMix>("--mix")?;
    let mut config = FleetConfig {
        energy: parse_energy(args, base.energy)?,
        mix: mix.unwrap_or(base.mix),
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
    let kinds = match args.optional::<String>("--autoscale")?.as_deref() {
        None => Vec::new(),
        Some("all") => AutoscaleKind::all().to_vec(),
        Some(kind) => vec![kind
            .parse()
            .map_err(|e| format!("invalid --autoscale value: {e} (or \"all\")"))?],
    };
    let mode = if let Some(trace_path) = args.optional("--trace")? {
        if kinds.len() > 1 {
            return Err("a traced run takes one --autoscale kind, not all".into());
        }
        config.telemetry = TelemetryConfig {
            enabled: true,
            health: args.flag("--health")?,
            trace_capacity: args
                .value("--recorder-capacity", TelemetryConfig::default().trace_capacity)?,
        };
        Mode::Traced {
            policy: args.value("--policy", PolicyKind::LeastLoaded)?,
            autoscale: kinds.first().copied(),
            trace_path,
            metrics_path: args.optional("--metrics")?,
        }
    } else if kinds.is_empty() {
        // With no --mix, sweep homogeneous and mixed back-to-back; with one,
        // run exactly the requested blend.
        let mixes = mix.map_or_else(
            || vec![GenerationMix::homogeneous(), GenerationMix::mixed_datacenter()],
            |mix| vec![mix],
        );
        Mode::Sweep { mixes, csv: args.flag("--csv")? }
    } else {
        Mode::Elastic { kinds, csv: args.flag("--csv")? }
    };
    // The policy sweep shows the bill only on the metered energy line and in
    // the CSV's energy_dollars column, so without either it reads no tariff.
    if config.energy.metering || !matches!(mode, Mode::Sweep { csv: false, .. }) {
        if let Some(price) = parse_price(args)? {
            config.energy.price = price;
        }
    }
    config.validate().map_err(|e| format!("invalid configuration: {e}"))?;
    args.finish()?;
    Ok((config, mode))
}

fn main() {
    let (config, mode) = parse(&mut Args::from_env()).unwrap_or_else(|e| exit_usage(&e));
    let server = ServerConfig::default_haswell();
    match mode {
        Mode::Sweep { mixes, csv } => policy_sweep(config, &server, &mixes, csv),
        Mode::Elastic { kinds, csv } => autoscale_sweep(config, &server, &kinds, csv),
        Mode::Traced { policy, autoscale, trace_path, metrics_path } => {
            traced_run(config, &server, policy, autoscale, &trace_path, metrics_path.as_deref())
        }
    }
}

/// The policy comparison: every placement policy over each of `mixes`,
/// against the single-server Heracles baseline.
fn policy_sweep(config: FleetConfig, server: &ServerConfig, mixes: &[GenerationMix], csv: bool) {
    println!("Fleet scheduler: BE job placement over per-server Heracles controllers");
    println!(
        "  servers: {}, BE slots/reference server: {}, steps: {}, windows/step: {}, seed: {}",
        config.servers,
        config.be_slots_per_server,
        config.steps,
        config.windows_per_step,
        config.seed
    );
    let baseline = single_server_baseline_violations(&config, server);
    println!(
        "  single-server Heracles baseline: SLO violations in {:.1}% of steps",
        baseline * 100.0
    );
    println!();

    let tco = TcoModel::paper_case_study();
    for &mix in mixes {
        sweep(FleetConfig { mix, ..config }, server, &tco, csv);
    }
    println!("(every policy schedules the identical seeded job stream within a mix,");
    println!(" so rows are directly comparable; EMU and TCO are core-weighted.)");
}
