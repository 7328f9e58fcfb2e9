//! The benchmark's workloads: what each one configures, how big it is, and
//! the one interface the run loop steps the fleet through.

use heracles_autoscale::{AutoscaleConfig, AutoscaleKind, AutoscaleResult, ElasticFleet};
use heracles_fleet::{
    BalancerKind, EnergyConfig, FleetConfig, FleetResult, FleetSim, FleetStep, GenerationMix,
    JobStreamConfig, PolicyKind, SimCore, Telemetry, TelemetryConfig,
};
use heracles_hw::ServerConfig;
use heracles_workloads::ServiceMix;

/// A flight recorder large enough that no benchmark run ever evicts an
/// event: a lossless trace is one of the checks.
const LOSSLESS_TRACE_CAPACITY: usize = 1 << 22;

/// One of the benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The elastic, diurnal, mixed-service fleet on the default (stepped)
    /// core: every leaf simulates every window in full.
    Diurnal,
    /// A static fleet under one held demand sample with a stream of small
    /// jobs, on the event core: most leaf-windows fast-forward.
    Plateau,
    /// `Diurnal`'s simulation on the event core with lossless tracing, the
    /// health plane and energy metering on, exported at the end.
    DiurnalTraced,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 3] = [Workload::Diurnal, Workload::Plateau, Workload::DiurnalTraced];

    /// The name the command line and `BENCHMARK.json` use.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Diurnal => "diurnal",
            Workload::Plateau => "plateau",
            Workload::DiurnalTraced => "diurnal-traced",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload whose simulation this one reproduces bit for bit (and
    /// whose recorded digests it therefore shares).
    pub fn simulation(self) -> Workload {
        match self {
            Workload::DiurnalTraced => Workload::Diurnal,
            other => other,
        }
    }

    /// How big a run of about `seconds` of measured wall time is.
    ///
    /// Calibrated on a 2-vCPU x86-64 host, where `--seconds 20` measures
    /// 13-17 s of wall time (20-35 CPU seconds over both cores) on each
    /// workload.  A size is a pure function of `seconds`, so
    /// two commits given the same `--seconds` simulate exactly the same
    /// fleet, however fast they run.  The diurnal fleets keep their 144-step
    /// day and grow by ten leaves per second; the plateau fleet keeps its
    /// leaves and lengthens its run.
    pub fn size(self, seconds: u64) -> Size {
        let seconds = seconds as usize;
        match self.simulation() {
            Workload::Plateau => Size { servers: 250, steps: (30 * seconds).max(6) },
            _ => Size { servers: (10 * seconds).max(12), steps: 144 },
        }
    }

    /// The fleet configuration of this workload (for the diurnal ones, the
    /// base that [`AutoscaleConfig::diurnal`] shapes).  `traced` turns on what a
    /// traced (per-layer) run reads: lossless telemetry with the health
    /// plane, and energy metering.  Both are read-only shadows, so the
    /// simulation is the same with or without them.
    pub fn config(self, size: Size, seed: u64, traced: bool) -> FleetConfig {
        let observed = traced || self == Workload::DiurnalTraced;
        let telemetry = if observed {
            TelemetryConfig {
                trace_capacity: LOSSLESS_TRACE_CAPACITY,
                ..TelemetryConfig::with_health()
            }
        } else {
            TelemetryConfig::default()
        };
        let energy = if observed { EnergyConfig::metered() } else { EnergyConfig::default() };
        match self {
            Workload::Diurnal | Workload::DiurnalTraced => FleetConfig {
                servers: size.servers,
                steps: size.steps,
                seed,
                services: ServiceMix::mixed_frontend(),
                mix: GenerationMix::mixed_datacenter(),
                balancer: BalancerKind::SlackAware,
                sim_core: if self == Workload::DiurnalTraced {
                    SimCore::EventDriven
                } else {
                    FleetConfig::default().sim_core
                },
                telemetry,
                energy,
                ..FleetConfig::default()
            },
            Workload::Plateau => FleetConfig {
                servers: size.servers,
                steps: size.steps,
                seed,
                services: ServiceMix::mixed_frontend(),
                mix: GenerationMix::mixed_datacenter(),
                balancer: BalancerKind::CapacityWeighted,
                sim_core: SimCore::EventDriven,
                demand_hold_steps: size.steps,
                // Many small jobs rather than a few large ones: the leaves
                // they keep awake, and so a step's work, then vary less from
                // seed to seed.
                jobs: JobStreamConfig {
                    arrivals_per_step: 3.0,
                    demand_min_core_s: 50.0,
                    demand_max_core_s: 650.0,
                    ..JobStreamConfig::default()
                },
                telemetry,
                energy,
                ..FleetConfig::default()
            },
        }
    }

    /// The placement policy the workload's fleet runs.
    pub fn policy(self) -> PolicyKind {
        match self {
            Workload::Plateau => PolicyKind::InterferenceAware,
            Workload::Diurnal | Workload::DiurnalTraced => PolicyKind::LeastLoaded,
        }
    }

    /// Builds the fleet this workload runs (its set-up).
    pub fn build(self, config: FleetConfig) -> Fleet {
        let server = ServerConfig::default_haswell();
        match self {
            Workload::Diurnal | Workload::DiurnalTraced => Fleet::Elastic(ElasticFleet::new(
                AutoscaleConfig::diurnal(config),
                server,
                self.policy(),
                AutoscaleKind::Reactive,
            )),
            Workload::Plateau => Fleet::Static(FleetSim::new(config, server, self.policy())),
        }
    }
}

/// A run's fleet size and horizon.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Size {
    /// Leaves at the start of the run.
    pub servers: usize,
    /// Scheduler steps the run simulates.
    pub steps: usize,
}

impl Size {
    /// The smallest run that still exercises every code path (for tests).
    #[cfg(test)]
    pub fn toy() -> Size {
        Size { servers: 12, steps: 6 }
    }
}

/// What an elastic run's autoscaler did, from its audit log.
#[derive(Debug, Clone, Copy, Default)]
pub struct ScaleCounts {
    pub buys: usize,
    pub drains: usize,
    pub retirements: usize,
    pub drain_requeues: usize,
}

/// A workload's fleet: elastic (autoscaled) or static.
#[allow(clippy::large_enum_variant)] // one lives per run, never moved in a loop
pub enum Fleet {
    Elastic(ElasticFleet),
    Static(FleetSim),
}

impl Fleet {
    /// The fleet simulator, read-only.
    pub fn sim(&self) -> &FleetSim {
        match self {
            Fleet::Elastic(f) => f.sim(),
            Fleet::Static(s) => s,
        }
    }

    /// Runs one scheduler step and returns its record.
    pub fn step(&mut self) -> FleetStep {
        match self {
            Fleet::Elastic(f) => {
                f.step_once();
                *f.sim().steps_so_far().last().expect("a step was just recorded")
            }
            Fleet::Static(s) => *s.step_once(),
        }
    }

    /// Records the health and energy summaries and detaches the telemetry
    /// bundle (`None` when telemetry is off).
    pub fn take_telemetry(&mut self) -> Option<Telemetry> {
        match self {
            Fleet::Elastic(f) => {
                f.emit_health_summary();
                f.emit_energy_summary();
                f.take_telemetry()
            }
            Fleet::Static(s) => {
                s.emit_health_summary();
                s.emit_energy_summary();
                s.take_telemetry()
            }
        }
    }

    /// Consumes the fleet into its result and, for an elastic fleet, the
    /// autoscaler's action counts.
    pub fn finish(self) -> (FleetResult, ScaleCounts) {
        match self {
            Fleet::Elastic(f) => {
                let result: AutoscaleResult = f.finish();
                let counts = ScaleCounts {
                    buys: result.scale_outs(),
                    drains: result.scale_ins(),
                    retirements: result.retirements(),
                    drain_requeues: result.drain_requeues(),
                };
                (result.fleet, counts)
            }
            Fleet::Static(s) => (s.into_result(), ScaleCounts::default()),
        }
    }
}
