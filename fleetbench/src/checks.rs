//! Output checks made from outside the simulator: per-step invariants,
//! end-of-run trace and energy audits, and a digest of the exact result.

use heracles_fleet::{FleetEventKind, FleetResult, FleetSim, FleetStep, Telemetry};

use crate::workload::Workload;

/// Relative tolerance of the demand-conservation and joule audits.
const CONSERVATION_TOLERANCE: f64 = 1e-9;

/// Counts checks made and failed, keeping the first failures' messages.
#[derive(Debug, Default)]
pub struct Checker {
    attempted: u64,
    failed: u64,
    messages: Vec<String>,
    last_time_s: Option<f64>,
    energy_joules: f64,
}

/// How many failure messages a report keeps (the count is always exact).
const KEPT_FAILURES: usize = 8;

impl Checker {
    /// Records one check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.messages.len() < KEPT_FAILURES {
                self.messages.push(what());
            }
        }
    }

    /// Checks made so far.
    pub fn attempted(&self) -> u64 {
        self.attempted
    }

    /// Checks failed so far.
    pub fn failed(&self) -> u64 {
        self.failed
    }

    /// The messages of the first failed checks.
    pub fn messages(&self) -> &[String] {
        &self.messages
    }

    /// The per-step invariants, checked right after the step ran: demand
    /// conservation per service, job-ledger balance, strictly increasing
    /// simulated time, and a finite, non-negative energy draw.  Each step is
    /// one check, failing if any invariant does.
    pub fn after_step(&mut self, sim: &FleetSim, step: &FleetStep) {
        let index = sim.current_step();
        let mut broken = Vec::new();
        for (service, (&offered, &routed)) in
            step.offered_qps.iter().zip(&step.routed_qps).enumerate()
        {
            if (offered - routed).abs() > CONSERVATION_TOLERANCE * offered.max(1.0) {
                broken.push(format!("service {service} routed {routed} of {offered} QPS"));
            }
        }
        let ledger = step.queued_jobs + step.running_jobs + step.completed_jobs;
        let arrived = sim.jobs().len();
        if ledger != arrived {
            broken.push(format!(
                "queued {} + running {} + completed {} != {arrived} arrived",
                step.queued_jobs, step.running_jobs, step.completed_jobs
            ));
        }
        let time_s = step.time.as_secs_f64();
        if self.last_time_s.is_some_and(|last| time_s <= last) {
            broken.push(format!("time {time_s} s does not advance"));
        }
        self.last_time_s = Some(time_s);
        if !step.energy_joules.is_finite() || step.energy_joules < 0.0 {
            broken.push(format!("energy {} J", step.energy_joules));
        }
        self.energy_joules += step.energy_joules;
        self.check(broken.is_empty(), || format!("step {index}: {}", broken.join("; ")));
    }

    /// Joule conservation: the meter's fleet ledger equals the sum of the
    /// per-step energy columns.  A no-op when metering is off.
    pub fn energy(&mut self, sim: &FleetSim) {
        let Some(meter) = sim.meter() else { return };
        let metered = meter.fleet().joules;
        let stepped = self.energy_joules;
        self.check(
            (metered - stepped).abs() <= CONSERVATION_TOLERANCE * stepped.abs().max(1.0),
            || format!("meter holds {metered} J, the steps sum to {stepped} J"),
        );
    }

    /// The trace audits: nothing evicted, and timestamps that never go
    /// backwards.
    pub fn trace(&mut self, telemetry: &Telemetry) {
        let dropped = telemetry.recorder.dropped();
        self.check(dropped == 0, || format!("the flight recorder dropped {dropped} events"));
        let mut previous = None;
        let mut backwards = 0u64;
        for event in telemetry.recorder.iter() {
            let t = event.time();
            if previous.is_some_and(|p| t < p) {
                backwards += 1;
            }
            previous = Some(t);
        }
        self.check(backwards == 0, || format!("{backwards} trace events go back in time"));
    }

    /// Compares the result's digest with the one recorded for this
    /// simulation, when one was recorded for this seed and length.
    pub fn digest(&mut self, workload: Workload, seed: u64, seconds: u64, digest: u64) {
        if let Some(expected) = recorded_digest(workload.simulation(), seed, seconds) {
            self.check(digest == expected, || {
                format!("result digest {digest:016x} != recorded {expected:016x}")
            });
        }
    }
}

/// The run length the digests were recorded at (`run_seconds` in
/// `BENCHMARK.json`).
pub const DIGEST_SECONDS: u64 = 20;

/// Digests of each simulation's result at [`DIGEST_SECONDS`], by seed.
/// `diurnal-traced` shares `diurnal`'s: the event core and telemetry must
/// not change a bit of the result.  A change meant only for speed leaves
/// every one of these unchanged.
const RECORDED_DIGESTS: &[(Workload, u64, u64)] = &[
    (Workload::Diurnal, 0, 0xb70be331f017b4a0),
    (Workload::Diurnal, 1, 0x2a37b018146af5c7),
    (Workload::Diurnal, 2, 0x60f6c8847a7a5466),
    (Workload::Diurnal, 3, 0x9eda7ea29e820c86),
    (Workload::Diurnal, 4, 0xb0075215b5d66830),
    (Workload::Diurnal, 5, 0x958ca1468c4830e8),
    (Workload::Diurnal, 6, 0xcc5d19868f2754e7),
    (Workload::Diurnal, 7, 0x53b771c3f2371070),
    (Workload::Diurnal, 8, 0x65745d251d665e18),
    (Workload::Diurnal, 9, 0x7a05366bd62e0116),
    (Workload::Diurnal, 10, 0x835071906da5b2ac),
    (Workload::Diurnal, 11, 0xa67ea5d7d9e7dc82),
    (Workload::Diurnal, 12, 0x0f74a2aa9850dc02),
    (Workload::Diurnal, 13, 0xf84aa7dd9fdcfc2b),
    (Workload::Diurnal, 14, 0x22c45fb99444c3d1),
    (Workload::Diurnal, 15, 0x47aaa192551c8001),
    (Workload::Diurnal, 16, 0x2c5e42779351a2f0),
    (Workload::Diurnal, 17, 0x14618fd67b5780c9),
    (Workload::Diurnal, 18, 0x1c8973bb7d58868f),
    (Workload::Diurnal, 19, 0xa918e32b87520ab1),
    (Workload::Diurnal, 20, 0x85d6f4c88a11e7ef),
    (Workload::Diurnal, 42, 0x7f26fd7920c8a132),
    (Workload::Plateau, 0, 0x85f6b0a4bc8f484e),
    (Workload::Plateau, 1, 0xa1aa00f223cb0530),
    (Workload::Plateau, 2, 0x6eb7376ba26bb900),
    (Workload::Plateau, 3, 0xea54d4e4c5cf18e9),
    (Workload::Plateau, 4, 0x53493b666c40c7ed),
    (Workload::Plateau, 5, 0xf12f6a084d7de265),
    (Workload::Plateau, 6, 0x8110cd81c7674f7c),
    (Workload::Plateau, 7, 0x9eb58cebd4a21989),
    (Workload::Plateau, 8, 0x89b8d3f8fc95b803),
    (Workload::Plateau, 9, 0x9e7ddfd06ebac52f),
    (Workload::Plateau, 10, 0x09e9a6dbc8d7fe44),
    (Workload::Plateau, 11, 0x70897e08ca122373),
    (Workload::Plateau, 12, 0xccbec46d9a22ab9b),
    (Workload::Plateau, 13, 0x24e12fbfcd0fe3a4),
    (Workload::Plateau, 14, 0x03f452925af2f77d),
    (Workload::Plateau, 15, 0x36ec24c1e5568daa),
    (Workload::Plateau, 16, 0xceb15899b54c157d),
    (Workload::Plateau, 17, 0x4063a8b618fd9617),
    (Workload::Plateau, 18, 0xafd0b6053609b10c),
    (Workload::Plateau, 19, 0x39783e0d8dd671e8),
    (Workload::Plateau, 20, 0xf5dd1f8be57eb3f8),
    (Workload::Plateau, 42, 0x579af28ca3cd98bd),
];

fn recorded_digest(workload: Workload, seed: u64, seconds: u64) -> Option<u64> {
    if seconds != DIGEST_SECONDS {
        return None;
    }
    RECORDED_DIGESTS.iter().find(|(w, s, _)| *w == workload && *s == seed).map(|&(_, _, d)| d)
}

/// 64-bit FNV-1a.
struct Fnv(u64);

impl Fnv {
    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    fn opt_f64(&mut self, v: Option<f64>) {
        match v {
            Some(v) => {
                self.u64(1);
                self.f64(v);
            }
            None => self.u64(0),
        }
    }
}

/// A digest over the exact bits of a result's steps, jobs and events.
pub fn digest(result: &FleetResult) -> u64 {
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    for s in &result.steps {
        h.f64(s.time.as_secs_f64());
        for v in [
            s.mean_load,
            s.fleet_emu,
            s.worst_normalized_latency,
            s.violating_server_fraction,
            s.tco_dollars,
            s.energy_joules,
            s.energy_dollars,
            s.peak_power_w,
            s.be_progress_core_s,
        ] {
            h.f64(v);
        }
        for v in [
            s.violating_servers,
            s.in_service_servers,
            s.in_service_cores,
            s.migrations,
            s.queued_jobs,
            s.running_jobs,
            s.completed_jobs,
        ] {
            h.usize(v);
        }
        s.in_service_by_generation.iter().for_each(|&v| h.usize(v));
        s.in_service_by_service.iter().for_each(|&v| h.usize(v));
        s.violating_by_service.iter().for_each(|&v| h.usize(v));
        s.offered_qps.iter().for_each(|&v| h.f64(v));
        s.routed_qps.iter().for_each(|&v| h.f64(v));
        s.service_load.iter().for_each(|&v| h.f64(v));
    }
    for j in &result.jobs {
        h.usize(j.id);
        h.bytes(j.workload.name().as_bytes());
        h.f64(j.demand_core_s);
        h.f64(j.remaining_core_s);
        h.f64(j.arrival.as_secs_f64());
        h.opt_f64(j.first_start.map(|t| t.as_secs_f64()));
        h.opt_f64(j.completion.map(|t| t.as_secs_f64()));
        h.usize(j.preemptions);
        h.usize(j.migrations);
        h.f64(j.migration_overhead_core_s);
    }
    for e in &result.events {
        h.usize(e.step);
        h.usize(e.job);
        h.usize(e.server);
        h.u64(match e.kind {
            FleetEventKind::Placed => 0,
            FleetEventKind::Preempted => 1,
            FleetEventKind::Migrated => 2,
            FleetEventKind::Completed => 3,
        });
    }
    h.0
}
