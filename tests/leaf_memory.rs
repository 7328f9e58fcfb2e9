//! A leaf's memory is small and flat in run length, a fleet's leaves share
//! what is per cell, a retired leaf keeps nothing, and a lossless trace
//! costs a fraction of its rendered bytes.
//!
//! A production Heracles controller runs for as long as its server is up, so
//! a `ColoRunner` may keep only what the next window needs: the last record
//! and the latency tail one SLO measurement can read.  This binary counts
//! live heap bytes with a wrapping global allocator and requires the
//! runner's footprint not to move between two points N windows apart, with
//! a full and fast-forwarded mix of windows and BE swaps in between, and to
//! stay under a ceiling a runner keeping whole windows would break.  At
//! fleet scale it requires a warmed leaf to stay under a per-leaf ceiling a
//! private copy of its cell's DRAM model would break, and an elastic
//! fleet's heap to follow its leaves in service, not its cumulative buys.
//! It also requires a flight recorder holding fleet-shaped events to keep
//! at most an eighth of the heap the JSONL they render to takes, which a
//! recorder keeping its lines uncompressed would exceed eightfold, the
//! recorder of a real traced fleet run to keep a fourteenth beyond its
//! open chunk, and its export to allocate only the header line, not a
//! copy of the trace.
//!
//! The counter is process-wide, so each test holds [`COUNTING`] while it
//! counts and through its asserts: nothing else allocates meanwhile, and
//! a failing assert's panic message is allocated before another test
//! starts counting.

use std::alloc::{GlobalAlloc, Layout, System};
use std::io;
use std::sync::atomic::{AtomicIsize, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard};

use heracles_colo::{ColoConfig, ColoRunner, WindowRecord};
use heracles_core::{ColocationPolicy, Heracles, HeraclesConfig, OfflineDramModel};
use heracles_fleet::{
    FleetConfig, FleetSim, FleetStep, Generation, GenerationMix, JobStreamConfig, PolicyKind,
    SimCore, TelemetryConfig,
};
use heracles_hw::ServerConfig;
use heracles_sim::SimTime;
use heracles_telemetry::{FlightRecorder, TraceEvent};
use heracles_workloads::{BeWorkload, LcWorkload, ServiceMix};

/// The system allocator, keeping a running count of live heap bytes and
/// of every byte ever allocated.  The trait's default `alloc_zeroed` and
/// `realloc` go through `alloc` and `dealloc`, so they are counted too.
struct Counting;

/// Statistics only: they publish no other data, so `Relaxed` suffices.
static LIVE_BYTES: AtomicIsize = AtomicIsize::new(0);
static ALLOCATED_BYTES: AtomicUsize = AtomicUsize::new(0);

// SAFETY: both methods forward to `System` with the caller's arguments
// unchanged, so `System`'s guarantees are the caller's; the counter is
// bookkeeping only.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            LIVE_BYTES.fetch_add(layout.size() as isize, Ordering::Relaxed);
            ALLOCATED_BYTES.fetch_add(layout.size(), Ordering::Relaxed);
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE_BYTES.fetch_sub(layout.size() as isize, Ordering::Relaxed);
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

fn live_bytes() -> isize {
    LIVE_BYTES.load(Ordering::Relaxed)
}

fn allocated_bytes() -> usize {
    ALLOCATED_BYTES.load(Ordering::Relaxed)
}

/// Held by each test while it counts.  It guards no data, so a lock
/// poisoned by the other test's failure is taken over as it is.
static COUNTING: Mutex<()> = Mutex::new(());

fn counting() -> MutexGuard<'static, ()> {
    COUNTING.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Windows in one cycle of the scenario below.
const CYCLE: usize = 100;

/// Windows between the two compared readings.
const N: usize = 20 * CYCLE;

/// The most live heap a warmed `fast_test` runner may hold.  Its SLO deque
/// of 4 × 1500-sample windows keeps 61 samples of each (488 B); keeping
/// whole windows takes 48 kB.
const CEILING: isize = 8 * 1024;

/// One cycle: a load ramp (full windows), a plateau long enough to
/// fast-forward, a BE swap, and a second plateau.  Every cycle ends on the
/// same job, so readings taken at cycle boundaries see the same shape of
/// state.  The returned records are dropped at once, as a fleet does.
fn cycle(runner: &mut ColoRunner) {
    for i in 0..10 {
        runner.step(0.2 + 0.03 * i as f64);
    }
    runner.run_steady(0.45, 40);
    runner.set_be(Some(BeWorkload::streetview()));
    runner.run_steady(0.35, 49);
    runner.set_be(Some(BeWorkload::brain()));
    runner.step(0.3);
}

#[test]
fn leaf_memory_is_flat_in_run_length() {
    let _counting = counting();
    let server = ServerConfig::default_haswell();
    let lc = LcWorkload::websearch();
    let colo = ColoConfig::fast_test();
    let policy: Box<dyn ColocationPolicy> = Box::new(Heracles::new(
        HeraclesConfig::fast(),
        lc.slo(),
        OfflineDramModel::profile(&lc, &server),
    ));
    let be = Some(BeWorkload::brain());
    let before_new = live_bytes();
    let mut runner = ColoRunner::new(server, lc, be, policy, colo);

    // The slack is one window's latency recorder; a runner that kept a
    // record per window would outgrow it many times over in N windows.
    let slack = (colo.requests_per_window * std::mem::size_of::<f64>()) as isize;
    assert!(N * std::mem::size_of::<WindowRecord>() > 10 * slack as usize);

    // Warm-up: allocations that are made once (recorder capacity, the SLO
    // deque, the policy's state) are all in place after a few cycles.
    for _ in 0..3 {
        cycle(&mut runner);
    }
    let warm = live_bytes();
    let counts_warm = runner.window_counts();
    for _ in 0..N / CYCLE {
        cycle(&mut runner);
    }
    let after_n = live_bytes();
    let counts_n = runner.window_counts();
    for _ in 0..N / CYCLE {
        cycle(&mut runner);
    }
    let after_2n = live_bytes();
    let counts_2n = runner.window_counts();

    // The measured stretches ran both stepping paths.
    for (before, after) in [(counts_warm, counts_n), (counts_n, counts_2n)] {
        assert_eq!((after.0 - before.0) + (after.1 - before.1), N as u64);
        assert!(after.0 > before.0, "no full windows: {before:?} -> {after:?}");
        assert!(after.1 > before.1, "no fast windows: {before:?} -> {after:?}");
    }
    assert!(
        warm - before_new <= CEILING,
        "a warmed runner holds {} B of heap, over the {CEILING} B ceiling",
        warm - before_new
    );
    assert!(
        (after_2n - after_n).abs() < slack,
        "leaf heap grew with run length: {warm} B after warm-up, {after_n} B after N = {N} \
         more windows, {after_2n} B after 2N (slack {slack} B)"
    );
}

/// Leaves in the smaller fleet of each fleet-scale reading; the larger
/// has twice as many, so fixed costs (the catalog, one DRAM model per
/// cell, the step rows) cancel in the difference.
const FLEET_LEAVES: usize = 100;

/// Steps that warm a fleet: every leaf has filled its SLO window and run
/// its controller.
const WARM_STEPS: usize = 3;

/// Live heap bytes per leaf of `config`'s fleet, built and after
/// [`WARM_STEPS`] steps, from fleets of [`FLEET_LEAVES`] and twice as many
/// leaves.
fn fleet_bytes_per_leaf(config: FleetConfig) -> (isize, isize) {
    let mut readings = [(0, 0); 2];
    for (reading, servers) in readings.iter_mut().zip([FLEET_LEAVES, 2 * FLEET_LEAVES]) {
        let before = live_bytes();
        let mut fleet = FleetSim::new(
            FleetConfig { servers, ..config },
            ServerConfig::default_haswell(),
            PolicyKind::LeastLoaded,
        );
        let built = live_bytes() - before;
        for _ in 0..WARM_STEPS {
            fleet.step_once();
        }
        *reading = (built, live_bytes() - before);
    }
    let [(built_1, warm_1), (built_2, warm_2)] = readings;
    let leaves = FLEET_LEAVES as isize;
    ((built_2 - built_1) / leaves, (warm_2 - warm_1) / leaves)
}

/// The most live heap a warmed leaf of a default (websearch, Haswell) fleet
/// may hold.  A private copy of its cell's DRAM model alone costs 4 kB.
const WEBSEARCH_LEAF_CEILING: isize = 5 * 1024;

/// The same for a mixed-frontend fleet on a mixed datacenter, whose
/// memkeyval leaves read a p99.9 and keep a deeper tail.
const MIXED_LEAF_CEILING: isize = 7 * 1024;

#[test]
fn a_warmed_fleet_leaf_shares_its_cells_state() {
    let _counting = counting();
    let websearch = FleetConfig::default();
    let mixed = FleetConfig {
        services: ServiceMix::mixed_frontend(),
        mix: GenerationMix::mixed_datacenter(),
        ..FleetConfig::default()
    };
    for (name, config, ceiling) in
        [("websearch", websearch, WEBSEARCH_LEAF_CEILING), ("mixed", mixed, MIXED_LEAF_CEILING)]
    {
        let (built, warm) = fleet_bytes_per_leaf(config);
        println!(
            "{name} fleet: {built} B per leaf built (runner, controller, store entry), \
             {} B more warmed (SLO tails, last record), {warm} B in all",
            warm - built
        );
        assert!(
            warm <= ceiling,
            "a warmed {name} leaf holds {warm} B of heap ({built} B built), over the \
             {ceiling} B ceiling"
        );
    }
}

/// Buy→drain→retire cycles of the retirement test, after as many warm-up
/// cycles.
const CYCLES: usize = 48;

/// Steps a bought leaf runs before it is drained and retired, and the step
/// after its retirement.
const STEPS_PER_CYCLE: usize = 3;

/// Heap a cycle may keep beyond its result rows: the retired id's slots in
/// the fleet's and the store's per-leaf vectors, with their growth
/// headroom.  A retired leaf that kept its runner would keep its SLO tails,
/// its last record and its controller, several kB.
const RETIRED_LEAF_SLACK: isize = 1024;

#[test]
fn a_retired_leaf_releases_its_state() {
    let _counting = counting();
    let config = FleetConfig {
        steps: 2 * CYCLES * STEPS_PER_CYCLE,
        jobs: JobStreamConfig { arrivals_per_step: 0.0, ..JobStreamConfig::default() },
        ..FleetConfig::fast_test()
    };
    let mut fleet = FleetSim::new(config, ServerConfig::default_haswell(), PolicyKind::FirstFit);
    let cycle = |fleet: &mut FleetSim| {
        let id = fleet.add_server(Generation::Haswell);
        for _ in 1..STEPS_PER_CYCLE {
            fleet.step_once();
        }
        fleet.begin_drain(id);
        fleet.retire_server(id);
        fleet.step_once();
    };
    for _ in 0..CYCLES {
        cycle(&mut fleet);
    }
    let before = live_bytes();
    for _ in 0..CYCLES {
        cycle(&mut fleet);
    }
    let grown = live_bytes() - before;
    let rows = (CYCLES * STEPS_PER_CYCLE * std::mem::size_of::<FleetStep>()) as isize;
    println!("{CYCLES} buy/drain/retire cycles kept {grown} B ({rows} B of result rows allowed)");
    assert_eq!(fleet.steps_so_far().len(), 2 * CYCLES * STEPS_PER_CYCLE);
    assert!(
        grown <= rows + CYCLES as isize * RETIRED_LEAF_SLACK,
        "{CYCLES} buy/drain/retire cycles kept {grown} B of heap: {} B per cycle beyond \
         {rows} B of result rows (allowed: {RETIRED_LEAF_SLACK} B)",
        (grown - rows) / CYCLES as isize
    );
}

/// Events recorded by the trace test: one fleet step's worth per 100.
const TRACE_EVENTS: usize = 12_000;

/// Room the recorder may hold beyond its share of its rendered bytes:
/// the line it renders each event into and the growth of its chunk list.
const TRACE_SLACK: isize = 16 * 1024;

/// The `i`-th event of a fleet-shaped stream: leaf wakes and the
/// controller's core/LLC and network decisions, in turn.
fn fleet_event(i: usize) -> TraceEvent {
    let now = SimTime::from_secs(15 * (i / 100) as u64);
    let leaf = (i * 37 % 10_000) as u64;
    match i % 3 {
        0 => TraceEvent::new(now, "fleet", "wake")
            .u64("server", leaf)
            .str("reasons", ["load-delta", "job-arrival+load-delta", "controller-poll"][i % 4 % 3])
            .u64("full_windows", i as u64 / 3)
            .u64("fast_windows", i as u64),
        1 => TraceEvent::new(now, "core", "core_mem")
            .i64("be_cores", (i % 20) as i64)
            .i64("cores_delta", if i.is_multiple_of(2) { 1 } else { -1 })
            .i64("be_ways", (i % 16) as i64)
            .i64("ways_delta", 0)
            .str("phase", if i.is_multiple_of(5) { "grow_llc" } else { "grow_cores" })
            .f64("slack", (i % 1000) as f64 / 997.0),
        _ => TraceEvent::new(now, "core", "network")
            .f64("net_ceil_gbps", 10.0 - (i % 90) as f64 / 10.0)
            .bool("shaped", !i.is_multiple_of(7))
            .f64("nic_lc_gbps", (i % 313) as f64 / 31.0),
    }
}

/// A lossless recorder of [`TRACE_EVENTS`] fleet-shaped events.
fn fleet_recorder() -> FlightRecorder {
    let mut recorder = FlightRecorder::new(TRACE_EVENTS);
    for i in 0..TRACE_EVENTS {
        recorder.record(fleet_event(i));
    }
    assert_eq!(recorder.len(), TRACE_EVENTS);
    assert_eq!(recorder.dropped(), 0);
    recorder
}

/// The heap a lossless [`fleet_recorder`] retains and the bytes of JSONL
/// it renders to.  The caller holds [`COUNTING`].
fn fleet_recorder_footprint() -> (isize, isize) {
    let before = live_bytes();
    let recorder = fleet_recorder();
    let retained = live_bytes() - before;
    (retained, recorder.document(&[]).len() as isize)
}

#[test]
fn a_lossless_trace_holds_a_quarter_of_its_rendered_bytes() {
    let _counting = counting();
    let (retained, rendered) = fleet_recorder_footprint();
    // A recorder keeping its lines uncompressed holds about 1x and fails this.
    assert!(
        retained <= rendered / 4 + TRACE_SLACK,
        "{TRACE_EVENTS} events hold {retained} B of heap for {rendered} B of JSONL \
         (allowed: 0.25 x + {TRACE_SLACK} B)"
    );
}

#[test]
fn a_lossless_trace_holds_an_eighth_of_its_rendered_bytes() {
    let _counting = counting();
    let (retained, rendered) = fleet_recorder_footprint();
    // 9.6x; blocks in LZ4's byte layout held 6.0x and fail this, and a
    // one-slot greedy parse 4.46x (both with a time index beside the
    // lines).
    assert!(
        retained <= rendered / 8 + TRACE_SLACK,
        "{TRACE_EVENTS} events hold {retained} B of heap for {rendered} B of JSONL \
         (allowed: 0.125 x + {TRACE_SLACK} B)"
    );
}

/// Room for the open chunk, which grows by doubling toward 64 KiB as lines
/// join it: the run below ends with 7,088 B of lines in 7,424 B of it.
const OPEN_CHUNK: isize = 8 * 1024;

/// A real trace: a traced `fast_test` fleet on the event core with the
/// health plane, 64 leaves over its 45 steps, in cheap windows.  Its
/// recorder holds its 1.25 MB of JSONL in 80 kB of heap (15.6x), 73 kB
/// beyond the open chunk.  With a time index beside the lines, blocks in
/// LZ4's byte layout held 174 kB, 64 kB of it a whole chunk's room
/// reserved for the open one, and fail this; so do either of the two
/// alone: LZ4's layout with an open chunk that grows (116 kB), and
/// Huffman-coded blocks beside a reserved chunk (141 kB).
#[test]
fn a_real_trace_holds_a_fourteenth_of_its_rendered_bytes() {
    let _counting = counting();
    let config = FleetConfig {
        servers: 64,
        sim_core: SimCore::EventDriven,
        telemetry: TelemetryConfig { trace_capacity: 1 << 20, ..TelemetryConfig::with_health() },
        colo: ColoConfig { requests_per_window: 400, ..ColoConfig::fast_test() },
        ..FleetConfig::fast_test()
    };
    let mut fleet = FleetSim::new(config, ServerConfig::default_haswell(), PolicyKind::LeastLoaded);
    for _ in 0..config.steps {
        fleet.step_once();
    }
    fleet.emit_health_summary();
    let recorder = fleet.take_telemetry().expect("telemetry was enabled").recorder;
    drop(fleet);
    assert_eq!(recorder.dropped(), 0, "the trace is lossless");
    let rendered = recorder.document(&[]).len() as isize;
    let before = live_bytes();
    drop(recorder);
    let held = before - live_bytes();
    assert!(
        held <= rendered / 14 + OPEN_CHUNK,
        "the recorder holds {held} B of heap for {rendered} B of JSONL \
         (allowed: x / 14 + {OPEN_CHUNK} B)"
    );
}

/// Room an export may allocate beyond its header line: the header
/// `String`'s growth steps while it is rendered.
const EXPORT_SLACK: usize = 1024;

#[test]
fn exporting_a_trace_allocates_only_its_header() {
    let _counting = counting();
    let recorder = fleet_recorder();
    let header = [("policy", "least-loaded".to_string()), ("seed", "42".to_string())];

    let before = allocated_bytes();
    let doc = recorder.document(&header);
    doc.write_to(&mut io::sink()).expect("the sink takes every byte");
    let allocated = allocated_bytes() - before;

    let header_len = doc.to_string().find('\n').expect("a header line") + 1;
    assert!(doc.len() - header_len > 100 * EXPORT_SLACK, "the trace is too small to tell");
    assert!(
        allocated <= header_len + EXPORT_SLACK,
        "exporting a {} B trace allocated {allocated} B for its {header_len} B header line \
         (allowed: + {EXPORT_SLACK} B)",
        doc.len()
    );
}
