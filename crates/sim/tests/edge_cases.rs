//! Edge-case unit tests for the simulation kernel's statistics and queueing
//! primitives, complementing the randomized suite in `properties.rs`:
//! empty recorders, single-sample recorders, zero-duration service
//! windows, and merge identities.

use heracles_sim::{LatencyRecorder, MultiServerQueue, SimRng};

#[test]
fn empty_recorder_reports_zero_for_every_quantile() {
    let mut rec = LatencyRecorder::new();
    for q in [0.0, 0.5, 0.9, 0.99, 1.0, -0.5, 2.0] {
        assert_eq!(rec.quantile(q), 0.0);
    }
    assert_eq!(rec.mean(), 0.0);
    assert_eq!(rec.max(), 0.0);
    assert!(rec.is_empty());
    assert_eq!(rec.len(), 0);
}

#[test]
fn with_capacity_recorder_starts_empty() {
    let mut rec = LatencyRecorder::with_capacity(1024);
    assert!(rec.is_empty());
    assert_eq!(rec.quantile(0.99), 0.0);
}

#[test]
fn quantile_arguments_are_clamped_to_unit_interval() {
    let mut rec = LatencyRecorder::new();
    rec.record(1.0);
    rec.record(2.0);
    rec.record(3.0);
    assert_eq!(rec.quantile(-1.0), rec.quantile(0.0));
    assert_eq!(rec.quantile(7.5), rec.quantile(1.0));
}

#[test]
fn single_sample_recorder_is_that_sample_at_every_quantile() {
    let mut rec = LatencyRecorder::new();
    rec.record(0.042);
    for q in [0.0, 0.25, 0.5, 0.99, 1.0] {
        assert_eq!(rec.quantile(q), 0.042);
    }
    assert_eq!(rec.mean(), 0.042);
    assert_eq!(rec.max(), 0.042);
}

#[test]
fn merging_an_empty_recorder_changes_nothing() {
    let mut rec = LatencyRecorder::new();
    rec.record(1.0);
    rec.record(2.0);
    let before = (rec.len(), rec.quantile(0.5));
    rec.merge(&LatencyRecorder::new());
    assert_eq!((rec.len(), rec.quantile(0.5)), before);
}

#[test]
fn merging_into_an_empty_recorder_copies_the_samples() {
    let mut src = LatencyRecorder::new();
    src.record(0.5);
    src.record(1.5);
    let mut dst = LatencyRecorder::new();
    dst.merge(&src);
    assert_eq!(dst.len(), 2);
    assert_eq!(dst.quantile(1.0), 1.5);
}

#[test]
fn cleared_recorder_behaves_like_a_fresh_one() {
    let mut rec = LatencyRecorder::new();
    rec.record(9.0);
    rec.clear();
    assert!(rec.is_empty());
    assert_eq!(rec.quantile(0.99), 0.0);
    rec.record(1.0);
    assert_eq!(rec.quantile(0.5), 1.0);
}

#[test]
fn all_zero_latencies_are_valid_samples() {
    // A zero-duration window: every request completes instantly.  The
    // recorder must treat 0.0 as a real sample, not as "no data".
    let mut rec = LatencyRecorder::new();
    for _ in 0..100 {
        rec.record(0.0);
    }
    assert_eq!(rec.len(), 100);
    assert_eq!(rec.quantile(0.99), 0.0);
    assert_eq!(rec.mean(), 0.0);
    assert!(!rec.is_empty());
}

#[test]
fn queue_with_zero_duration_service_reports_zero_latency() {
    // Zero-length service times: no request ever waits (a server is always
    // free at `now`), so every sojourn time is exactly zero.
    let mut rng = SimRng::new(11);
    let q = MultiServerQueue::new(1);
    let mut lat = q.run(&mut rng, 1000.0, 5_000, |_| 0.0);
    assert_eq!(lat.len(), 5_000);
    assert_eq!(lat.quantile(1.0), 0.0);
    assert_eq!(lat.mean(), 0.0);
}

#[test]
fn queue_with_negative_service_samples_clamps_to_zero() {
    let mut rng = SimRng::new(12);
    let q = MultiServerQueue::new(2);
    let mut lat = q.run(&mut rng, 100.0, 1_000, |_| -0.5);
    assert_eq!(lat.len(), 1_000);
    assert_eq!(lat.quantile(1.0), 0.0);
}

#[test]
fn queue_with_nonpositive_arrival_rate_is_empty() {
    let mut rng = SimRng::new(13);
    let q = MultiServerQueue::new(4);
    assert!(q.run(&mut rng, 0.0, 100, |r| r.exp(0.001)).is_empty());
    assert!(q.run(&mut rng, -5.0, 100, |r| r.exp(0.001)).is_empty());
}

#[test]
fn single_request_sojourn_is_its_service_time() {
    let mut rng = SimRng::new(14);
    let q = MultiServerQueue::new(3);
    let mut lat = q.run(&mut rng, 10.0, 1, |_| 0.007);
    assert_eq!(lat.len(), 1);
    assert_eq!(lat.quantile(0.5), 0.007);
}

#[test]
fn erlang_c_degenerate_loads() {
    let q = MultiServerQueue::new(4);
    assert_eq!(q.erlang_c_mean_wait(0.0, 0.001), 0.0);
    assert_eq!(q.erlang_c_mean_wait(-10.0, 0.001), 0.0);
    assert!(q.erlang_c_mean_wait(4000.0, 0.001).is_infinite());
    assert!(q.erlang_c_mean_wait(8000.0, 0.001).is_infinite());
}
