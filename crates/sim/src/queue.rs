//! Discrete-event multi-server FCFS queue.
//!
//! The workload models turn resource allocations into a *service-time
//! distribution*; this module turns that distribution plus an arrival rate and
//! a thread-pool size into a *sojourn-time (latency) distribution*, which is
//! what the SLO is defined over.  The simulation is an open-loop M/G/c queue:
//! Poisson arrivals, general (caller-supplied) service times, `c` servers,
//! first-come-first-served.

use crate::rng::SimRng;
use crate::stats::LatencyRecorder;

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

    /// Number of parallel servers.
    pub fn servers(&self) -> usize {
        self.servers
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
    /// `requests == 0`.
    pub fn run(
        &self,
        rng: &mut SimRng,
        arrival_rate_hz: f64,
        requests: usize,
        mut service: impl FnMut(&mut SimRng) -> f64,
    ) -> LatencyRecorder {
        let mut latencies = LatencyRecorder::with_capacity(requests);
        if arrival_rate_hz <= 0.0 || requests == 0 {
            return latencies;
        }
        let mean_interarrival = 1.0 / arrival_rate_hz;
        // `free_at[i]` is the simulated time at which server i next becomes idle.
        let mut free_at = vec![0.0_f64; self.servers];
        let mut now = 0.0_f64;
        for _ in 0..requests {
            now += rng.exp(mean_interarrival);
            // FCFS: the request runs on the server that frees up earliest
            // (the lowest-numbered one on a tie).
            let (mut idx, mut earliest) = (0, free_at[0]);
            for (i, &t) in free_at.iter().enumerate().skip(1) {
                if t < earliest {
                    (idx, earliest) = (i, t);
                }
            }
            let start = now.max(earliest);
            let wait = start - now;
            let service_time = service(rng).max(0.0);
            free_at[idx] = start + service_time;
            latencies.record(wait + service_time);
        }
        latencies
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
