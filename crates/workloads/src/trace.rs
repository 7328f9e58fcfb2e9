//! Load traces.
//!
//! The cluster experiment (Figure 8) replays a 12-hour trace that captures
//! the part of the daily diurnal pattern where websearch is not fully loaded
//! and colocation has high potential: load swings between roughly 20% and
//! 90% of peak.  The production trace is not available, so [`DiurnalTrace`]
//! generates a synthetic trace with the same shape — a smooth diurnal swing
//! plus bounded high-frequency noise — deterministically from a seed.

use heracles_sim::{SimDuration, SimRng, SimTime};

/// A synthetic diurnal load trace.
///
/// # Example
///
/// ```
/// use heracles_workloads::DiurnalTrace;
/// use heracles_sim::SimTime;
/// let trace = DiurnalTrace::websearch_12h(42);
/// let load = trace.load_at(SimTime::from_secs(6 * 3600));
/// assert!((0.0..=1.0).contains(&load));
/// assert!(load > trace.load_at(SimTime::from_secs(600)));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DiurnalTrace {
    duration: SimDuration,
    min_load: f64,
    max_load: f64,
    noise_amplitude: f64,
    /// Pre-sampled smooth noise offsets, one per noise interval.
    noise: Vec<f64>,
    noise_interval: SimDuration,
}

impl DiurnalTrace {
    /// The 12-hour websearch trace used by the cluster experiment: load
    /// rises from ~20% to ~90% and falls back, with ±3% noise.
    pub fn websearch_12h(seed: u64) -> Self {
        Self::new(SimDuration::from_secs(12 * 3600), 0.20, 0.90, 0.03, seed)
    }

    /// Creates a trace spanning `duration` with load varying smoothly between
    /// `min_load` and `max_load`, plus uniform noise of ±`noise_amplitude`.
    ///
    /// # Panics
    ///
    /// Panics if the bounds are not `0 <= min <= max <= 1` or the duration is
    /// zero.
    pub(crate) fn new(
        duration: SimDuration,
        min_load: f64,
        max_load: f64,
        noise_amplitude: f64,
        seed: u64,
    ) -> Self {
        assert!(!duration.is_zero(), "trace duration must be positive");
        assert!(
            (0.0..=1.0).contains(&min_load)
                && (0.0..=1.0).contains(&max_load)
                && min_load <= max_load,
            "load bounds must satisfy 0 <= min <= max <= 1"
        );
        let noise_interval = SimDuration::from_secs(300);
        let intervals = (duration.as_secs_f64() / noise_interval.as_secs_f64()).ceil() as usize + 2;
        let mut rng = SimRng::new(seed).fork(0xD1);
        let noise = (0..intervals).map(|_| rng.uniform_range(-1.0, 1.0)).collect();
        DiurnalTrace { duration, min_load, max_load, noise_amplitude, noise, noise_interval }
    }

    /// Total duration of the trace.
    pub(crate) fn duration(&self) -> SimDuration {
        self.duration
    }

    /// The load fraction at a given time into the trace.
    ///
    /// The diurnal component is half a sine period over the trace duration
    /// (low → high → low), so a 12-hour trace captures the rising and falling
    /// side of a day.  Values are clamped to `[0, 1]`.
    pub fn load_at(&self, time: SimTime) -> f64 {
        let t = time.as_secs_f64().min(self.duration.as_secs_f64());
        let phase = t / self.duration.as_secs_f64();
        let mid = (self.min_load + self.max_load) / 2.0;
        let amp = (self.max_load - self.min_load) / 2.0;
        let diurnal = mid - amp * (2.0 * std::f64::consts::PI * phase).cos();
        let idx = (t / self.noise_interval.as_secs_f64()) as usize;
        let noise = self.noise_amplitude * self.noise.get(idx).copied().unwrap_or(0.0);
        (diurnal + noise).clamp(0.0, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The trace's load every `step`, from time zero through its end.
    fn samples(trace: &DiurnalTrace, step: SimDuration) -> Vec<f64> {
        let end = SimTime::ZERO + trace.duration;
        let mut t = SimTime::ZERO;
        let mut out = Vec::new();
        while t <= end {
            out.push(trace.load_at(t));
            t += step;
        }
        out
    }

    #[test]
    fn twelve_hour_trace_spans_twenty_to_ninety_percent() {
        let trace = DiurnalTrace::websearch_12h(7);
        let samples = samples(&trace, SimDuration::from_secs(60));
        let min = samples.iter().copied().fold(f64::INFINITY, f64::min);
        let max = samples.iter().copied().fold(0.0, f64::max);
        assert!((0.15..=0.30).contains(&min), "min {min}");
        assert!((0.80..=0.95).contains(&max), "max {max}");
    }

    #[test]
    fn trace_rises_then_falls() {
        let trace = DiurnalTrace::websearch_12h(7);
        let start = trace.load_at(SimTime::from_secs(600));
        let middle = trace.load_at(SimTime::from_secs(6 * 3600));
        let end = trace.load_at(SimTime::from_secs(12 * 3600 - 600));
        assert!(middle > start + 0.3);
        assert!(middle > end + 0.3);
    }

    #[test]
    fn trace_is_deterministic_per_seed() {
        let a = DiurnalTrace::websearch_12h(3);
        let b = DiurnalTrace::websearch_12h(3);
        let c = DiurnalTrace::websearch_12h(4);
        let t = SimTime::from_secs(4321);
        assert_eq!(a.load_at(t), b.load_at(t));
        assert_ne!(a.load_at(t), c.load_at(t));
    }

    #[test]
    fn loads_are_always_valid_fractions() {
        let trace = DiurnalTrace::new(SimDuration::from_secs(3600), 0.0, 1.0, 0.2, 9);
        for load in samples(&trace, SimDuration::from_secs(30)) {
            assert!((0.0..=1.0).contains(&load));
        }
    }

    #[test]
    fn times_beyond_the_trace_are_clamped() {
        let trace = DiurnalTrace::websearch_12h(1);
        let end = trace.load_at(SimTime::from_secs(12 * 3600));
        let beyond = trace.load_at(SimTime::from_secs(40 * 3600));
        assert_eq!(end, beyond);
    }

    #[test]
    #[should_panic]
    fn invalid_bounds_panic() {
        let _ = DiurnalTrace::new(SimDuration::from_secs(10), 0.9, 0.2, 0.0, 1);
    }

    #[test]
    #[should_panic]
    fn zero_duration_panics() {
        let _ = DiurnalTrace::new(SimDuration::ZERO, 0.1, 0.9, 0.0, 1);
    }
}
