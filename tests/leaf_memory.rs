//! A leaf's memory is small and flat in run length.
//!
//! A production Heracles controller runs for as long as its server is up, so
//! a `ColoRunner` may keep only what the next window needs: the last record
//! and the latency tail one SLO measurement can read.  This binary counts
//! live heap bytes with a wrapping global allocator and requires the
//! runner's footprint not to move between two points N windows apart, with
//! a full and fast-forwarded mix of windows and BE swaps in between, and to
//! stay under a ceiling a runner keeping whole windows would break.
//!
//! It holds exactly one test, so nothing else allocates while it counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering};

use heracles_colo::{ColoConfig, ColoRunner, WindowRecord};
use heracles_core::{ColocationPolicy, Heracles, HeraclesConfig, OfflineDramModel};
use heracles_hw::ServerConfig;
use heracles_workloads::{BeWorkload, LcWorkload};

/// The system allocator, keeping a running count of live heap bytes.  The
/// trait's default `alloc_zeroed` and `realloc` go through `alloc` and
/// `dealloc`, so they are counted too.
struct Counting;

/// A statistic only: it publishes no other data, so `Relaxed` suffices.
static LIVE_BYTES: AtomicIsize = AtomicIsize::new(0);

// SAFETY: both methods forward to `System` with the caller's arguments
// unchanged, so `System`'s guarantees are the caller's; the counter is
// bookkeeping only.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            LIVE_BYTES.fetch_add(layout.size() as isize, Ordering::Relaxed);
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
