//! Decision oracle for the built-in autoscalers: every
//! [`AutoscaleKind::build`] policy is fed one fixed-seed stream of
//! [`ScaleSignals`] and its actions are FNV-1a hashed, and every kind's
//! whole elastic run on [`AutoscaleConfig::fast_test`] is hashed by its
//! event log.  The digests are recorded; a refactor of the policies must
//! reproduce them bit for bit.  Change them only for a deliberate decision
//! change.

use heracles_autoscale::{AutoscaleConfig, AutoscaleKind, ElasticFleet, ScaleAction, ScaleSignals};
use heracles_fleet::{Generation, PolicyKind};
use heracles_hw::ServerConfig;

/// Recorded action digests over the fixed stream, in [`AutoscaleKind::all`]
/// order.
const RECORDED_DECISION_DIGESTS: [u64; 4] =
    [0x1a9b_3c95_8b91_2421, 0x4ffc_2983_6de9_4301, 0x9235_2c92_a1d1_20ed, 0xfc3e_546c_5694_6a70];

/// Recorded event-log digests of the `fast_test` elastic run, in
/// [`AutoscaleKind::all`] order.
const RECORDED_EVENT_DIGESTS: [u64; 4] =
    [0x0961_2b07_b5ec_b5a5, 0x7a82_c25f_3d3e_4d39, 0x4b33_baec_f661_fb68, 0x7a82_c25f_3d3e_4d39];

/// FNV-1a 64 of the `Debug` rendering of `value`.
fn fnv1a(value: &impl std::fmt::Debug) -> u64 {
    format!("{value:?}")
        .bytes()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ b as u64).wrapping_mul(0x0100_0000_01b3))
}

/// The fixed stream of 20k signals, drawn with an inline SplitMix64 (so it
/// cannot drift with a library's sampling): mostly idle queues (so sheds
/// can fire), backlogs around the stranded and wait thresholds, loads and
/// forecasts around the re-buy ceiling and the climb/fall trend, prices on
/// both sides of the cheap (0.80) and expensive (1.25) ratios to a
/// 0.10 $/kWh mean, and a step counter that advances by one with
/// occasional jumps (a skipped stretch lets a cooldown expire).
fn stream() -> Vec<ScaleSignals> {
    let mut state = 0x5eed_0023u64;
    let mut below = |n: usize| {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        ((z ^ (z >> 31)) % n as u64) as usize
    };
    let mut step = 0;
    (0..20_000)
        .map(|_| {
            step += if below(16) == 0 { 2 + below(7) } else { 1 };
            let queued_jobs = if below(10) < 7 { 0 } else { 1 + below(6) };
            let mean_load = [0.30, 0.45, 0.55, 0.70, 0.85, 0.91, 0.92, 0.95][below(8)];
            let trend = [-0.20, -0.07, -0.06, -0.03, 0.0, 0.03, 0.06, 0.07, 0.20][below(9)];
            ScaleSignals {
                step,
                queued_jobs,
                stranded_jobs: below(queued_jobs + 1),
                oldest_wait_steps: below(4),
                active_servers: 2 + below(11),
                draining_servers: usize::from(below(8) == 0),
                free_slots_elsewhere: below(8),
                drain_candidate_residents: below(4),
                mean_load,
                load_ahead: mean_load + trend,
                min_servers: 2,
                max_servers: 12,
                best_buy: Generation::all()[below(3)],
                drain_candidate: if below(10) == 0 { None } else { Some(below(12)) },
                post_shed_load: [0.40, 0.60, 0.80, 0.85, 0.86, 1.10][below(6)],
                energy_price_per_kwh: [0.05, 0.079, 0.08, 0.081, 0.10, 0.124, 0.125, 0.126, 0.20]
                    [below(9)],
                energy_price_mean_per_kwh: 0.10,
            }
        })
        .collect()
}

#[test]
fn decisions_on_the_fixed_stream_match_the_recorded_digests() {
    let signals = stream();
    let digests = AutoscaleKind::all().map(|kind| {
        let mut policy = kind.build();
        let actions: Vec<ScaleAction> = signals.iter().map(|s| policy.decide(s)).collect();
        let buys = actions.iter().filter(|a| matches!(a, ScaleAction::ScaleOut { .. })).count();
        let sheds = actions.iter().filter(|a| matches!(a, ScaleAction::ScaleIn { .. })).count();
        if kind != AutoscaleKind::Static {
            assert!(buys > 100 && sheds > 100, "{}: {buys} buys, {sheds} sheds", kind.name());
        }
        fnv1a(&actions)
    });
    assert_eq!(
        digests, RECORDED_DECISION_DIGESTS,
        "autoscaler decisions changed: {digests:#018x?}"
    );
}

#[test]
fn fast_test_event_logs_match_the_recorded_digests() {
    let digests = AutoscaleKind::all().map(|kind| {
        let config = AutoscaleConfig::fast_test();
        let server = ServerConfig::default_haswell();
        fnv1a(&ElasticFleet::new(config, server, PolicyKind::LeastLoaded, kind).run().events)
    });
    assert_eq!(digests, RECORDED_EVENT_DIGESTS, "elastic event logs changed: {digests:#018x?}");
}
