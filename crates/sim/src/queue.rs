//! Discrete-event multi-server FCFS queue.
//!
//! The workload models turn resource allocations into a *service-time
//! distribution*; this module turns that distribution plus an arrival rate and
//! a thread-pool size into a *sojourn-time (latency) distribution*, which is
//! what the SLO is defined over.  The simulation is an open-loop M/G/c queue:
//! Poisson arrivals, general (caller-supplied) service times, `c` servers,
//! first-come-first-served.

use crate::rng::{draw_window, LogNormal, SimRng};
use crate::stats::{stored, LatencyRecorder};

/// A first-come-first-served queue served by `c` identical servers.
///
/// # Example
///
/// ```
/// use heracles_sim::{MultiServerQueue, SimRng};
/// let mut rng = SimRng::new(1);
/// let q = MultiServerQueue::new(8);
/// // 8 servers, 1 ms mean service, offered load 50%.
/// let lat = q.run(&mut rng, 4000.0, 10_000, |rng| rng.exp(0.001));
/// assert!(lat.mean() >= 0.001);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MultiServerQueue {
    servers: usize,
}

impl MultiServerQueue {
    /// Creates a queue with `servers` parallel servers.
    ///
    /// # Panics
    ///
    /// Panics if `servers` is zero.
    pub fn new(servers: usize) -> Self {
        assert!(servers > 0, "a queue needs at least one server");
        MultiServerQueue { servers }
    }

    /// Simulates `requests` Poisson arrivals at `arrival_rate_hz` and returns
    /// the distribution of sojourn times (queueing delay + service time).
    ///
    /// `service` is called once per request to sample its service time in
    /// seconds.  When the offered load exceeds capacity the queue builds up
    /// over the window and sojourn times grow without bound, which is exactly
    /// the saturation behaviour the Heracles controller is designed to detect
    /// and avoid.
    ///
    /// Returns an empty recorder when `arrival_rate_hz <= 0` or
    /// `requests == 0`.  An infinite rate puts every arrival at time zero.
    ///
    /// This is the readable form of the simulation, for tests and for any
    /// service distribution.  [`run_lognormal`](Self::run_lognormal) is the
    /// same simulation with log-normal service times drawn in batch; both
    /// feed one queue pass.
    ///
    /// # Panics
    ///
    /// Panics if `arrival_rate_hz` is NaN, which would otherwise read as an
    /// empty, perfect window.
    ///
    /// # Which server, and what it costs
    ///
    /// FCFS with identical servers puts each request on the server that
    /// frees up earliest and starts it at `max(arrival, that finish time)`.
    /// Only the servers' finish times matter, not which server holds which
    /// (Kiefer & Wolfowitz, "On the theory of queues with many servers",
    /// 1955).  Arrivals never go backwards, so a server that is free at one
    /// arrival is free at every later one, and every free server gives the
    /// same start: the arrival itself.  The simulation therefore keeps only
    /// the finish times that may still be ahead of the clock.  Each start is
    /// exactly the arrival or the earliest finish time, whichever is later,
    /// and each finish and sojourn is the same `f64` expression of the same
    /// operands as in a scan of all `c` servers, so the latencies are bit for
    /// bit what that scan gives.
    ///
    /// While fewer than `c` finish times are held, some server is idle and
    /// the request starts on arrival in constant time.  A full list is
    /// scanned for its earliest finish time.  If that has passed, one more
    /// pass drops every finish time that has, and the request starts on
    /// arrival.  If not, every server is busy and the earliest to finish
    /// takes the request; from 16 servers up the list then becomes a binary
    /// min-heap whose root is replaced, in `O(log c)`, for as long as it is
    /// still ahead of the clock.  Below saturation that is about two passes
    /// over `c` finish times per `c(1 − ρ)` requests, of order `1/(1 − ρ)`
    /// visits per request instead of `c`.
    ///
    /// Every random draw comes first, in arrival order (the gap before a
    /// request, then its service time), into buffers of `requests` values
    /// allocated per call; the queue pass then draws nothing, and writes
    /// each sojourn over the gap it no longer needs, which becomes the
    /// recorder's storage.  The generator is left where the interleaved
    /// draws left it.
    pub fn run(
        &self,
        rng: &mut SimRng,
        arrival_rate_hz: f64,
        requests: usize,
        service: impl FnMut(&mut SimRng) -> f64,
    ) -> LatencyRecorder {
        let Some(mean_interarrival) = mean_interarrival(arrival_rate_hz, requests) else {
            return LatencyRecorder::new();
        };
        let (gaps, services) = draw_window(rng, mean_interarrival, requests, service);
        self.serve(gaps, &services, 0.0)
    }

    /// [`run`](Self::run) with `service.sample(rng)` as the service time,
    /// and every sojourn then shifted by `shift_s` seconds: bit for bit
    /// `run(rng, arrival_rate_hz, requests, |r| service.sample(r))` followed
    /// by [`LatencyRecorder::map_in_place`]`(|x| x + shift_s)`, with `rng`
    /// left in the same state.
    ///
    /// This is the leaf's window.  The draws come from
    /// [`LogNormal::sample_window`], which makes the same libm calls on the
    /// same operands in batches, and the shift is added in the queue pass
    /// under `map_in_place`'s rules (a sojourn or a shifted one that
    /// `record` would drop is dropped).  Timed stage by stage inside
    /// fleetbench's diurnal run (seed 42, 2-vCPU Xeon), a window's draws
    /// cost 74–79 µs this way against 97–100 µs interleaved, and its queue
    /// pass with the shift 29–32 µs against 33–35 µs for the pass and a
    /// separate `map_in_place`.
    ///
    /// # Panics
    ///
    /// Panics if `arrival_rate_hz` is NaN.
    ///
    /// # Example
    ///
    /// ```
    /// use heracles_sim::{LogNormal, MultiServerQueue, SimRng};
    /// let service = LogNormal::new(0.002, 0.3);
    /// let q = MultiServerQueue::new(4);
    /// let (mut a, mut b) = (SimRng::new(9), SimRng::new(9));
    /// let staged = q.run_lognormal(&mut a, 1500.0, 1200, service, 0.0005);
    /// let mut plain = q.run(&mut b, 1500.0, 1200, |r| service.sample(r));
    /// plain.map_in_place(|x| x + 0.0005);
    /// assert_eq!(staged.samples(), plain.samples());
    /// ```
    pub fn run_lognormal(
        &self,
        rng: &mut SimRng,
        arrival_rate_hz: f64,
        requests: usize,
        service: LogNormal,
        shift_s: f64,
    ) -> LatencyRecorder {
        let Some(mean_interarrival) = mean_interarrival(arrival_rate_hz, requests) else {
            return LatencyRecorder::new();
        };
        let (gaps, services) = service.sample_window(rng, mean_interarrival, requests);
        self.serve(gaps, &services, shift_s)
    }

    /// The queue pass: serves requests arriving after `gaps` with the given
    /// service times, and keeps each sojourn shifted by `shift_s` as
    /// `record` then `map_in_place(|x| x + shift_s)` would, in `gaps`' own
    /// storage.
    fn serve(&self, mut gaps: Vec<f64>, services: &[f64], shift_s: f64) -> LatencyRecorder {
        // The finish times of the servers that may still be busy: a plain
        // list, or a min-heap while `heap` is set.
        let mut busy = Vec::with_capacity(self.servers);
        let mut heap = false;
        let mut now = 0.0_f64;
        let mut kept = 0;
        for (i, &service_time) in services.iter().enumerate() {
            now += gaps[i];
            heap = heap && busy[0] > now;
            let start = if heap {
                // Every server is still busy: the one that finishes first
                // takes the request.
                let start = busy[0];
                sift_down(&mut busy, 0, start + service_time);
                start
            } else if busy.len() < self.servers {
                // Some server is idle: the request starts on arrival.
                busy.push(now + service_time);
                now
            } else {
                let (index, earliest) = earliest_finish(&busy);
                if earliest > now {
                    // Every server is busy.
                    if self.servers >= HEAP_MIN_SERVERS {
                        heapify(&mut busy);
                        heap = true;
                        sift_down(&mut busy, 0, earliest + service_time);
                    } else {
                        busy[index] = earliest + service_time;
                    }
                    earliest
                } else {
                    drop_finished(&mut busy, now);
                    busy.push(now + service_time);
                    now
                }
            };
            // `i >= kept`, so this gap has been read.
            if let Some(sojourn) =
                stored(start - now + service_time).and_then(|x| stored(x + shift_s))
            {
                gaps[kept] = sojourn;
                kept += 1;
            }
        }
        gaps.truncate(kept);
        LatencyRecorder::from_stored(gaps)
    }

    /// Analytic mean-wait estimate for an M/M/c queue (Erlang-C), used by
    /// tests as a cross-check of the discrete-event simulation and by the
    /// offline profiling tools for fast sweeps.
    ///
    /// Returns `f64::INFINITY` when the offered load meets or exceeds
    /// capacity.
    pub fn erlang_c_mean_wait(&self, arrival_rate_hz: f64, mean_service_s: f64) -> f64 {
        let c = self.servers as f64;
        let offered = arrival_rate_hz * mean_service_s;
        if offered >= c {
            return f64::INFINITY;
        }
        if offered <= 0.0 {
            return 0.0;
        }
        let rho = offered / c;
        // Erlang-C probability of waiting.
        let mut sum = 0.0;
        let mut term = 1.0; // offered^k / k!
        for k in 0..self.servers {
            if k > 0 {
                term *= offered / k as f64;
            }
            sum += term;
        }
        let top = term * offered / c / (1.0 - rho);
        let p_wait = top / (sum + top);
        p_wait * mean_service_s / (c * (1.0 - rho))
    }
}

/// The mean gap between Poisson arrivals at `arrival_rate_hz`, or `None`
/// when a window of `requests` arrivals has none to simulate.
///
/// # Panics
///
/// Panics if `arrival_rate_hz` is NaN.
fn mean_interarrival(arrival_rate_hz: f64, requests: usize) -> Option<f64> {
    assert!(!arrival_rate_hz.is_nan(), "arrival rate must not be NaN");
    (arrival_rate_hz > 0.0 && requests > 0).then(|| 1.0 / arrival_rate_hz)
}

/// The fewest servers for which a queue whose servers are all busy keeps
/// their finish times as a binary heap.  Below it, a scan for the earliest
/// finish time is the cheaper way to pick the next server: over 1,200
/// log-normal requests at ρ ≥ 1 on a 2-vCPU Xeon, a heap made a window of
/// 4 to 12 servers 9–16% slower than the scan, and one of 48 about 20%
/// faster.
const HEAP_MIN_SERVERS: usize = 16;

/// The index and value of the earliest finish time in the non-empty `busy`.
fn earliest_finish(busy: &[f64]) -> (usize, f64) {
    let (mut index, mut earliest) = (0, busy[0]);
    for (i, &t) in busy.iter().enumerate().skip(1) {
        if t < earliest {
            (index, earliest) = (i, t);
        }
    }
    (index, earliest)
}

/// Drops the finish times at or before `now` from `busy`, keeping the rest in
/// order, in one branch-free pass.
fn drop_finished(busy: &mut Vec<f64>, now: f64) {
    let mut kept = 0;
    for i in 0..busy.len() {
        let t = busy[i];
        busy[kept] = t;
        kept += usize::from(t > now);
    }
    busy.truncate(kept);
}

/// Orders `heap` as a binary min-heap.
fn heapify(heap: &mut [f64]) {
    for i in (0..heap.len() / 2).rev() {
        sift_down(heap, i, heap[i]);
    }
}

/// Puts `value` at slot `hole` of the min-heap `heap` and moves it down until
/// neither child is smaller.
fn sift_down(heap: &mut [f64], mut hole: usize, value: f64) {
    let len = heap.len();
    loop {
        let left = 2 * hole + 1;
        if left >= len {
            break;
        }
        let right = left + 1;
        // The smaller child, without a branch (the left one on a tie).
        let child = if right < len { left + usize::from(heap[right] < heap[left]) } else { left };
        if heap[child] >= value {
            break;
        }
        heap[hole] = heap[child];
        hole = child;
    }
    heap[hole] = value;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic]
    fn zero_servers_panics() {
        let _ = MultiServerQueue::new(0);
    }

    #[test]
    fn empty_inputs_give_empty_output() {
        let mut rng = SimRng::new(3);
        let q = MultiServerQueue::new(2);
        assert!(q.run(&mut rng, 0.0, 100, |r| r.exp(0.001)).is_empty());
        assert!(q.run(&mut rng, 100.0, 0, |r| r.exp(0.001)).is_empty());
    }

    #[test]
    fn latency_at_least_service_time() {
        let mut rng = SimRng::new(4);
        let q = MultiServerQueue::new(4);
        let mut lat = q.run(&mut rng, 100.0, 5000, |_| 0.002);
        assert!(lat.quantile(0.0) >= 0.002);
        assert!(lat.mean() >= 0.002);
    }

    #[test]
    fn matches_erlang_c_at_moderate_load() {
        let mut rng = SimRng::new(5);
        let q = MultiServerQueue::new(4);
        let mean_service = 0.001;
        let lambda = 0.7 * 4.0 / mean_service; // 70% utilization
        let lat = q.run(&mut rng, lambda, 200_000, |r| r.exp(mean_service));
        let sim_wait = lat.mean() - mean_service;
        let analytic = q.erlang_c_mean_wait(lambda, mean_service);
        assert!(
            (sim_wait - analytic).abs() / analytic < 0.10,
            "simulated wait {sim_wait} vs Erlang-C {analytic}"
        );
    }

    #[test]
    fn overload_blows_up() {
        let mut rng = SimRng::new(6);
        let q = MultiServerQueue::new(2);
        let mean_service = 0.001;
        let lambda = 1.5 * 2.0 / mean_service; // 150% load
        let mut lat = q.run(&mut rng, lambda, 20_000, |r| r.exp(mean_service));
        // Tail latency should be orders of magnitude above the service time.
        assert!(lat.quantile(0.99) > 50.0 * mean_service);
        assert!(q.erlang_c_mean_wait(lambda, mean_service).is_infinite());
    }

    #[test]
    fn more_servers_reduce_waiting() {
        let mut rng = SimRng::new(7);
        let mean_service = 0.001;
        let lambda = 3000.0;
        let mut small =
            MultiServerQueue::new(4).run(&mut rng, lambda, 50_000, |r| r.exp(mean_service));
        let mut rng2 = SimRng::new(7);
        let mut large =
            MultiServerQueue::new(8).run(&mut rng2, lambda, 50_000, |r| r.exp(mean_service));
        assert!(large.quantile(0.99) < small.quantile(0.99));
    }
}
