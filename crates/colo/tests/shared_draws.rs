//! A runner handed its seed's shared draws gives the records it gives
//! drawing its own windows, bit for bit.
//!
//! Each case drives two runners of one config through the same calls: one
//! with a [`SharedDraws`] table and one without.  The layouts cover
//! Heracles, a pinned static partition, LC alone, and the OS-only baseline
//! (whose scheduling delays draw from the window's generator after the
//! queue, so a window that reads the table must leave the generator where
//! drawing would).  Loads include 0 (a window with no arrivals draws
//! nothing) and repeats (steady windows recycle phases and take the fast
//! path); tables run from empty to longer than the run, so windows past the
//! last phase draw privately.  Records and batches are compared through
//! their `Debug` text, which prints every `f64` in its shortest round-trip
//! form: equal text is equal bits.

use std::sync::{Arc, OnceLock};

use heracles_baselines::StaticLayout;
use heracles_colo::{ColoConfig, ColoRunner, SharedDraws};
use heracles_core::{ColocationPolicy, Heracles, HeraclesConfig, OfflineDramModel};
use heracles_hw::ServerConfig;
use heracles_workloads::{BeWorkload, LcWorkload};
use proptest::prelude::*;

/// The case's server, LC workload and their profiled DRAM model.
fn platform() -> &'static (ServerConfig, LcWorkload, OfflineDramModel) {
    static PLATFORM: OnceLock<(ServerConfig, LcWorkload, OfflineDramModel)> = OnceLock::new();
    PLATFORM.get_or_init(|| {
        let (config, lc) = (ServerConfig::default_haswell(), LcWorkload::websearch());
        let model = OfflineDramModel::profile(&lc, &config);
        (config, lc, model)
    })
}

/// A runner of `layout` (0 Heracles, 1 a static partition, 2 LC alone, 3
/// OS-only), with or without `draws`.
fn runner(layout: u32, colo: ColoConfig, draws: Option<Arc<SharedDraws>>) -> ColoRunner {
    let (config, lc, model) = platform();
    let (policy, be): (Box<dyn ColocationPolicy>, _) = match layout {
        0 => (
            Box::new(Heracles::new(HeraclesConfig::fast(), lc.slo(), model.clone())),
            Some(BeWorkload::stream_dram()),
        ),
        1 => (Box::new(StaticLayout::half_and_half(config)), Some(BeWorkload::llc_big())),
        2 => (Box::new(StaticLayout::lc_only()), None),
        _ => (Box::new(StaticLayout::os_only()), Some(BeWorkload::brain())),
    };
    ColoRunner::new(config.clone(), lc.clone(), be, policy, colo).with_draws(draws)
}

/// Window sizes: one request, odd counts, and a fleet window of 1,200.
fn requests() -> impl Strategy<Value = usize> {
    (0u32..4, 0usize..150).prop_map(|(kind, n)| match kind {
        0 => 1,
        1 => 1200,
        _ => 2 * n + 1,
    })
}

/// One call on both runners: `(how, load, windows)`, where `how` is 0 for
/// `step`, 1 for `run_steady`, 2 for `advance` on the stepped core and 3
/// on the event core.  A quarter of the loads are 0 and a quarter repeat
/// 0.35, which lets a leaf go steady.
fn call() -> impl Strategy<Value = (u32, f64, usize)> {
    (0u32..4, 0u32..4, 0.0f64..1.3, 1usize..6).prop_map(|(how, kind, load, windows)| {
        let load = match kind {
            0 => 0.0,
            1 => 0.35,
            _ => load,
        };
        (how, load, windows)
    })
}

proptest! {
    /// A runner with the table and one without give the same records,
    /// batches and window counts, window for window.
    #[test]
    fn shared_draws_give_the_private_records(
        seed in 0u64..1000,
        layout in 0u32..4,
        requests in requests(),
        slo_windows in 1usize..5,
        phases in 0usize..24,
        calls in proptest::collection::vec(call(), 1..8),
    ) {
        let colo = ColoConfig {
            requests_per_window: requests,
            slo_window_count: slo_windows,
            ..ColoConfig::fast_test()
        }
        .with_seed(seed);
        let mut shared = runner(layout, colo, Some(SharedDraws::new(&colo, phases)));
        let mut private = runner(layout, colo, None);
        for (how, load, windows) in calls {
            let (got, want) = match how {
                0 => (format!("{:?}", shared.step(load)), format!("{:?}", private.step(load))),
                1 => (
                    format!("{:?}", shared.run_steady(load, windows)),
                    format!("{:?}", private.run_steady(load, windows)),
                ),
                _ => (
                    format!("{:?}", shared.advance(load, windows, how == 3)),
                    format!("{:?}", private.advance(load, windows, how == 3)),
                ),
            };
            prop_assert_eq!(got, want);
            prop_assert_eq!(shared.window_counts(), private.window_counts());
        }
    }
}

#[test]
#[should_panic(expected = "shared draws for seed 7")]
fn a_table_of_another_seed_is_refused() {
    let colo = ColoConfig::fast_test();
    let _ = runner(2, colo, Some(SharedDraws::new(&colo.with_seed(7), 3)));
}

#[test]
#[should_panic(expected = "× 1499 requests")]
fn a_table_of_another_request_count_is_refused() {
    let colo = ColoConfig::fast_test();
    let table = ColoConfig { requests_per_window: 1499, ..colo };
    let _ = runner(2, colo, Some(SharedDraws::new(&table, 3)));
}
