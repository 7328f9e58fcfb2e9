//! The core & memory sub-controller (Algorithm 2).
//!
//! Core count, LLC allocation and DRAM bandwidth are strongly coupled, so one
//! sub-controller manages cores and cache together.  Its responsibilities:
//!
//! 1. **Never saturate DRAM bandwidth.**  Each cycle it measures total
//!    bandwidth; if it exceeds the limit (90% of peak), it removes enough BE
//!    cores to get back under, using the estimated per-core BE bandwidth.
//! 2. **Grow the BE share by gradient descent** when the top-level controller
//!    allows it.  Offline analysis shows LC performance is a convex function
//!    of cores and cache (Figure 3), so one-dimension-at-a-time descent finds
//!    the optimum.  In the `GROW_LLC` phase it gives the BE partition one
//!    more way as long as that is predicted (and then confirmed) to reduce
//!    total DRAM traffic and the BE job benefits; otherwise it switches to
//!    `GROW_CORES`, which grants one more core at a time while predicted
//!    bandwidth stays under the limit and latency slack is comfortable.
//!
//! The predicted bandwidth of the next step combines the offline LC bandwidth
//! model, the measured BE bandwidth and the bandwidth derivative since the
//! last change, so the controller avoids *trying* allocations that would
//! saturate memory.

use heracles_hw::Server;
use heracles_isolation::{DramBwMonitor, DramBwReading};

use crate::config::{
    BE_CORES_KEPT_ON_RECLAIM, BE_INITIAL_CORES, BE_INITIAL_LLC_FRACTION, DRAM_LIMIT_FRACTION,
    SLACK_DISALLOW_GROWTH, SLACK_RECLAIM_CORES,
};
use crate::dram_model::OfflineDramModel;
use crate::measurements::Measurements;

/// Which dimension Algorithm 2's gradient descent is currently growing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GradientPhase {
    /// Growing the BE cache partition.
    GrowLlc,
    /// Growing the number of BE cores.
    GrowCores,
}

impl GradientPhase {
    /// The phase's name, as traces print it.
    pub fn name(&self) -> &'static str {
        match self {
            GradientPhase::GrowLlc => "grow_llc",
            GradientPhase::GrowCores => "grow_cores",
        }
    }
}

/// The core & memory sub-controller.
#[derive(Debug, Clone)]
pub(crate) struct CoreMemoryController {
    phase: GradientPhase,
    dram_monitor: DramBwMonitor,
    /// A handle to the LC workload's profiled table, shared with every
    /// controller built from the same profile.
    dram_model: OfflineDramModel,
    can_grow: bool,
    pending_llc_growth: bool,
    last_be_progress: f64,
    /// Slack observed when the last BE core was added, used to estimate the
    /// per-core latency cost of further growth.
    slack_before_core_growth: Option<f64>,
    /// Exponentially-weighted estimate of how much slack one more BE core
    /// costs (always ≤ 0).
    slack_cost_per_core: f64,
}

impl CoreMemoryController {
    /// Creates the sub-controller.
    pub(crate) fn new(dram_model: OfflineDramModel) -> Self {
        CoreMemoryController {
            phase: GradientPhase::GrowLlc,
            dram_monitor: DramBwMonitor::new(),
            dram_model,
            can_grow: false,
            pending_llc_growth: false,
            last_be_progress: 0.0,
            slack_before_core_growth: None,
            slack_cost_per_core: -0.05,
        }
    }

    /// The current gradient-descent phase.
    pub(crate) fn phase(&self) -> GradientPhase {
        self.phase
    }

    /// Sets whether BE tasks may acquire more resources.
    pub(crate) fn set_can_grow(&mut self, allowed: bool) {
        self.can_grow = allowed;
    }

    /// Gives the server entirely to the LC workload (BE disabled).
    pub(crate) fn disable_be(&mut self, server: &mut Server) {
        let total = server.config().total_cores();
        pin_cores(server, total, 0);
        // Keep a minimal one-way BE partition programmed so re-enabling is a
        // single MSR update; it is unused while no BE task runs.
        let ways = server.config().llc_ways;
        server.allocations_mut().set_cat(ways - 1, 1);
        self.dram_monitor.reset();
        self.pending_llc_growth = false;
    }

    /// Bootstraps a freshly (re-)enabled BE job: one core and a small slice
    /// of the LLC, starting in the `GROW_LLC` phase.
    pub(crate) fn enable_be(&mut self, server: &mut Server) {
        let total = server.config().total_cores();
        let ways = server.config().llc_ways;
        let be_cores = BE_INITIAL_CORES.min(total - 1);
        let be_ways = ((ways as f64 * BE_INITIAL_LLC_FRACTION).round() as usize).clamp(1, ways - 1);
        pin_cores(server, total - be_cores, be_cores);
        server.allocations_mut().set_cat(ways - be_ways, be_ways);
        self.phase = GradientPhase::GrowLlc;
        self.pending_llc_growth = false;
        self.dram_monitor.reset();
    }

    /// Shrinks the BE job to at most `keep` cores (the slack < 5% reaction of
    /// Algorithm 1, which removes all but two BE cores).
    pub(crate) fn reclaim_be_cores(&mut self, server: &mut Server, keep: usize) {
        let be = server.allocations().be_cores();
        if be > keep {
            self.remove_be_cores(server, be - keep);
        }
    }

    /// Removes up to `count` BE cores, handing them back to the LC workload.
    pub(crate) fn remove_be_cores(&mut self, server: &mut Server, count: usize) {
        let alloc = server.allocations();
        let (lc, be) = (alloc.lc_cores(), alloc.be_cores());
        let moved = count.min(be);
        if moved > 0 {
            pin_cores(server, lc + moved, be - moved);
        }
    }

    /// Runs one control cycle.
    ///
    /// `slack` is the latest latency slack computed by the top-level
    /// controller; growth steps additionally require it to be comfortable.
    pub(crate) fn tick(&mut self, server: &mut Server, measurements: &Measurements, slack: f64) {
        // Update the estimate of how much latency slack one BE core costs,
        // based on the slack change observed since the previous core growth.
        if let Some(before) = self.slack_before_core_growth.take() {
            let observed = (slack - before).min(0.0);
            self.slack_cost_per_core = 0.5 * self.slack_cost_per_core + 0.5 * observed;
        }
        let reading = self.dram_monitor.measure(&measurements.counters);
        let peak = measurements.counters.dram_peak_gbps.max(1e-9);
        let limit = DRAM_LIMIT_FRACTION * peak;
        let be_cores = server.allocations().be_cores();

        // Rule 1: DRAM bandwidth saturation overrides everything.
        if reading.total_gbps > limit && be_cores > 0 {
            let per_core = reading.be_gbps_per_core(be_cores).max(0.25);
            let overage = reading.total_gbps - limit;
            let remove = ((overage / per_core).ceil() as usize).clamp(1, be_cores);
            self.remove_be_cores(server, remove);
            self.last_be_progress = measurements.be_progress;
            return;
        }

        // Rule 2: when slack gets critically small, give cores back *now*
        // rather than waiting for the next top-level poll — Algorithm 1's
        // "give back cores immediately" reaction runs at this sub-controller's
        // cadence, because tail latency can cross from tight to violating
        // within a couple of measurement windows.
        if slack < SLACK_RECLAIM_CORES && be_cores > BE_CORES_KEPT_ON_RECLAIM {
            self.reclaim_be_cores(server, BE_CORES_KEPT_ON_RECLAIM);
            self.last_be_progress = measurements.be_progress;
            return;
        }

        // Rule 3: the pool-size-aware utilization ceiling is enforced
        // continuously, not only when a core step is tried — growing the BE
        // cache partition or its bandwidth share inflates LC service times
        // *after* the last core move passed its projection, and a small LC
        // pool drifts into its latency knee without any new allocation
        // event to re-trigger the growth guard.
        let lc_cores = server.allocations().lc_cores();
        if measurements.counters.lc_cpu_utilization > Self::utilization_ceiling(lc_cores) + 0.02
            && be_cores > BE_CORES_KEPT_ON_RECLAIM
        {
            self.remove_be_cores(server, 1);
            self.last_be_progress = measurements.be_progress;
            return;
        }

        if !self.can_grow || be_cores == 0 {
            self.pending_llc_growth = false;
            self.last_be_progress = measurements.be_progress;
            return;
        }

        match self.phase {
            GradientPhase::GrowLlc => {
                self.grow_llc_step(server, measurements, reading.be_gbps, limit, slack)
            }
            GradientPhase::GrowCores => {
                self.grow_cores_step(server, measurements, &reading, limit, slack)
            }
        }
        self.last_be_progress = measurements.be_progress;
    }

    /// The LC pool utilization beyond which one more BE core is never
    /// taken, as a function of the pool size *after* the step.
    ///
    /// The paper's 85% guard is calibrated for the wide pools of a 36-core
    /// Haswell; by square-root staffing, a small pool hits its latency knee
    /// at lower utilization (a tail burst has fewer servers to drain it),
    /// which is exactly where the coarse one-core-at-a-time granularity of
    /// a 16-core box would otherwise overshoot — so the ceiling backs off
    /// as `1 - 0.55/sqrt(cores)`, capped at the paper's 85% for wide pools.
    fn utilization_ceiling(cores: usize) -> f64 {
        (1.0 - 0.55 / (cores.max(1) as f64).sqrt()).min(0.85)
    }

    fn lc_bw_model_gbps(&self, server: &Server, load: f64) -> f64 {
        // With CAT off the LC class notionally owns every way, which is
        // what `Allocations` reports as its LC ways.
        self.dram_model.lc_bandwidth_gbps(load, server.allocations().lc_ways())
    }

    fn grow_llc_step(
        &mut self,
        server: &mut Server,
        m: &Measurements,
        be_bw: f64,
        limit: f64,
        slack: f64,
    ) {
        if self.pending_llc_growth {
            // We grew the BE partition last cycle; check whether it helped.
            self.pending_llc_growth = false;
            if self.dram_monitor.derivative_gbps() >= 0.0 || slack < SLACK_DISALLOW_GROWTH {
                // Total bandwidth did not drop (the extra cache is not
                // reducing BE misses) or the LC workload's latency slack has
                // become uncomfortable: roll back and try cores instead.
                let alloc = server.allocations_mut();
                let (lc_ways, be_ways) = (alloc.lc_ways(), alloc.be_ways());
                if be_ways > 1 {
                    alloc.set_cat(lc_ways + 1, be_ways - 1);
                }
                self.phase = GradientPhase::GrowCores;
                return;
            }
            if m.be_progress <= self.last_be_progress * 1.01 {
                // The BE job did not benefit; stop growing the cache.
                self.phase = GradientPhase::GrowCores;
            }
            return;
        }
        // The paper grows the BE cache allocation only while the LC workload
        // keeps meeting its SLO (with margin), bandwidth saturation is
        // avoided, and the BE job benefits.
        if slack <= SLACK_DISALLOW_GROWTH {
            return;
        }
        let predicted =
            self.lc_bw_model_gbps(server, m.load) + be_bw + self.dram_monitor.derivative_gbps();
        if predicted > limit {
            self.phase = GradientPhase::GrowCores;
            return;
        }
        let alloc = server.allocations_mut();
        let (lc_ways, be_ways) = (alloc.lc_ways(), alloc.be_ways());
        if lc_ways > 1 {
            alloc.set_cat(lc_ways - 1, be_ways + 1);
            self.pending_llc_growth = true;
        } else {
            // LC partition is already at its minimum; nothing left to grow here.
            self.phase = GradientPhase::GrowCores;
        }
    }

    fn grow_cores_step(
        &mut self,
        server: &mut Server,
        m: &Measurements,
        reading: &DramBwReading,
        limit: f64,
        slack: f64,
    ) {
        let be_cores = server.allocations().be_cores();
        let per_core = reading.be_gbps_per_core(be_cores).max(0.25);
        let needed = self.lc_bw_model_gbps(server, m.load) + reading.be_gbps + per_core;
        if needed > limit {
            self.phase = GradientPhase::GrowLlc;
            return;
        }
        // Avoid trying an allocation that would push the LC workload below
        // the growth threshold: project the slack after taking one more core
        // using the cost observed for previous core-growth steps.  The
        // assumed minimum cost — which keeps the last step before the
        // latency knee from ever being taken — scales with the fraction of
        // the machine one core represents (5% on a 36-core box, as the
        // paper's machines; proportionally more on a small one, where a
        // single gradient step is that much coarser).
        let cost_floor = -(1.8 / server.config().total_cores().max(1) as f64).max(0.05);
        let projected = slack + self.slack_cost_per_core.min(cost_floor);
        // Project the LC pool's CPU utilization after giving up one more
        // core; stepping past the pool's utilization ceiling would put the
        // LC workload on the steep part of its latency curve, so such
        // allocations are never tried (this is the "avoid trying suboptimal
        // allocations" rule of Algorithm 2 applied to cores).
        let lc_cores = server.allocations().lc_cores();
        let projected_util = if lc_cores > 1 {
            m.counters.lc_cpu_utilization * lc_cores as f64 / (lc_cores as f64 - 1.0)
        } else {
            1.0
        };
        if slack > SLACK_DISALLOW_GROWTH
            && projected > SLACK_DISALLOW_GROWTH
            && projected_util < Self::utilization_ceiling(lc_cores.saturating_sub(1))
        {
            // Keep at least two cores for the LC workload at all times.
            if lc_cores > 2 {
                pin_cores(server, lc_cores - 1, be_cores + 1);
                self.slack_before_core_growth = Some(slack);
            }
        }
    }
}

/// Pins `lc` cores to the LC workload and `be` cores to BE tasks as two
/// disjoint sets (cgroups `cpuset`); any remaining cores stay idle.
fn pin_cores(server: &mut Server, lc: usize, be: usize) {
    let alloc = server.allocations_mut();
    alloc.set_be_shares_lc_cores(false);
    alloc.set_lc_cores(lc);
    alloc.set_be_cores(be);
}

#[cfg(test)]
mod tests {
    use super::*;
    use heracles_hw::{CounterSnapshot, ServerConfig};
    use heracles_workloads::LcWorkload;

    fn setup() -> (Server, CoreMemoryController) {
        let config = ServerConfig::default_haswell();
        let model = OfflineDramModel::profile(&LcWorkload::websearch(), &config);
        let server = Server::new(config);
        let ctl = CoreMemoryController::new(model);
        (server, ctl)
    }

    fn measurements(load: f64, total_bw: f64, be_bw: f64, be_progress: f64) -> Measurements {
        Measurements {
            tail_latency_s: 0.010,
            load,
            be_progress,
            counters: CounterSnapshot {
                dram_total_gbps: total_bw,
                dram_be_gbps: be_bw,
                dram_peak_gbps: 120.0,
                ..CounterSnapshot::default()
            },
        }
    }

    #[test]
    fn enable_bootstraps_one_core_and_small_partition() {
        let (mut server, mut ctl) = setup();
        ctl.enable_be(&mut server);
        assert_eq!(server.allocations().be_cores(), 1);
        assert_eq!(server.allocations().be_ways(), 2); // 10% of 20 ways
        assert_eq!(ctl.phase(), GradientPhase::GrowLlc);
    }

    #[test]
    fn disable_returns_everything_to_lc() {
        let (mut server, mut ctl) = setup();
        ctl.enable_be(&mut server);
        ctl.disable_be(&mut server);
        assert_eq!(server.allocations().be_cores(), 0);
        assert_eq!(server.allocations().lc_cores(), 36);
    }

    #[test]
    fn dram_saturation_removes_be_cores() {
        let (mut server, mut ctl) = setup();
        ctl.enable_be(&mut server);
        // Grow BE to several cores first.
        ctl.set_can_grow(true);
        ctl.phase = GradientPhase::GrowCores;
        for _ in 0..6 {
            ctl.tick(&mut server, &measurements(0.3, 40.0, 10.0, 1.0), 0.5);
        }
        let before = server.allocations().be_cores();
        assert!(before >= 3, "expected growth, got {before}");
        // Now saturate DRAM: 118 GB/s measured, BE responsible for 60.
        ctl.tick(&mut server, &measurements(0.3, 118.0, 60.0, 1.0), 0.5);
        let after = server.allocations().be_cores();
        assert!(after < before, "cores should be reclaimed ({before} -> {after})");
    }

    #[test]
    fn growth_requires_permission_and_slack() {
        let (mut server, mut ctl) = setup();
        ctl.enable_be(&mut server);
        ctl.phase = GradientPhase::GrowCores;
        // Not allowed to grow.
        ctl.set_can_grow(false);
        ctl.tick(&mut server, &measurements(0.3, 40.0, 10.0, 1.0), 0.5);
        assert_eq!(server.allocations().be_cores(), 1);
        // Allowed, but slack too small.
        ctl.set_can_grow(true);
        ctl.tick(&mut server, &measurements(0.3, 40.0, 10.0, 1.0), 0.05);
        assert_eq!(server.allocations().be_cores(), 1);
        // Allowed with comfortable slack.
        ctl.tick(&mut server, &measurements(0.3, 40.0, 10.0, 1.0), 0.5);
        assert_eq!(server.allocations().be_cores(), 2);
    }

    #[test]
    fn core_growth_stops_when_prediction_hits_the_limit() {
        let (mut server, mut ctl) = setup();
        ctl.enable_be(&mut server);
        ctl.set_can_grow(true);
        ctl.phase = GradientPhase::GrowCores;
        // BE already uses 70 GB/s on 1 core: adding a core would blow the limit.
        ctl.tick(&mut server, &measurements(0.5, 100.0, 70.0, 1.0), 0.5);
        assert_eq!(server.allocations().be_cores(), 1);
        assert_eq!(ctl.phase(), GradientPhase::GrowLlc);
    }

    #[test]
    fn llc_growth_rolls_back_when_bandwidth_rises() {
        let (mut server, mut ctl) = setup();
        ctl.enable_be(&mut server);
        ctl.set_can_grow(true);
        let before_ways = server.allocations().be_ways();
        // First tick grows the BE partition by one way.
        ctl.tick(&mut server, &measurements(0.3, 40.0, 10.0, 1.0), 0.5);
        assert_eq!(server.allocations().be_ways(), before_ways + 1);
        // Bandwidth went *up* after the growth: roll back and switch phases.
        ctl.tick(&mut server, &measurements(0.3, 55.0, 20.0, 1.0), 0.5);
        assert_eq!(server.allocations().be_ways(), before_ways);
        assert_eq!(ctl.phase(), GradientPhase::GrowCores);
    }

    #[test]
    fn llc_growth_continues_while_it_helps() {
        let (mut server, mut ctl) = setup();
        ctl.enable_be(&mut server);
        ctl.set_can_grow(true);
        let start_ways = server.allocations().be_ways();
        // Alternate grow / confirm cycles with decreasing bandwidth and
        // increasing BE progress: cache growth keeps helping.
        let mut bw = 50.0;
        let mut progress = 1.0;
        for _ in 0..6 {
            ctl.tick(&mut server, &measurements(0.3, bw, 15.0, progress), 0.5);
            bw -= 2.0;
            progress += 0.2;
        }
        assert!(server.allocations().be_ways() > start_ways + 1);
        assert_eq!(ctl.phase(), GradientPhase::GrowLlc);
    }

    #[test]
    fn reclaim_leaves_the_requested_cores() {
        let (mut server, mut ctl) = setup();
        ctl.enable_be(&mut server);
        ctl.set_can_grow(true);
        ctl.phase = GradientPhase::GrowCores;
        for _ in 0..8 {
            ctl.tick(&mut server, &measurements(0.3, 40.0, 10.0, 1.0), 0.5);
        }
        assert!(server.allocations().be_cores() > 2);
        ctl.reclaim_be_cores(&mut server, 2);
        assert_eq!(server.allocations().be_cores(), 2);
        // Reclaiming again is a no-op.
        ctl.reclaim_be_cores(&mut server, 2);
        assert_eq!(server.allocations().be_cores(), 2);
    }

    /// Rule 1 (DRAM over its limit) returns before Rule 2 (slack under
    /// 5%), so a cycle with both sheds only the cores that bring DRAM back
    /// under its limit, and the give-back waits for the next cycle.  The
    /// paper's Algorithm 1 gives the cores back whatever DRAM reads.  This
    /// pins the order as it is, not as it should be: swapping the rules
    /// moves the controller's decisions and so its recorded digests, and
    /// waits for a property test of Algorithms 1-4 on arbitrary
    /// measurement streams to decide it (ROADMAP.md, "Algorithms 1–4 hold
    /// on every measurement stream").  Whichever way that goes, this test
    /// changes with it.
    #[test]
    fn dram_saturation_takes_precedence_over_the_slack_give_back() {
        let cycle = |total_bw: f64| {
            let (mut server, mut ctl) = setup();
            ctl.enable_be(&mut server);
            pin_cores(&mut server, 23, 13);
            // The limit is 90% of 120 GB/s, 108 GB/s; BE reads 2 GB/s a core.
            ctl.tick(&mut server, &measurements(0.3, total_bw, 26.0, 1.0), 0.01);
            server.allocations().be_cores()
        };
        assert_eq!(cycle(108.5), 12, "over the limit: one core sheds 0.5 GB/s of overage");
        assert_eq!(cycle(40.0), BE_CORES_KEPT_ON_RECLAIM, "under it: all but two go back");
    }

    #[test]
    fn lc_always_keeps_at_least_two_cores() {
        let (mut server, mut ctl) = setup();
        ctl.enable_be(&mut server);
        ctl.set_can_grow(true);
        ctl.phase = GradientPhase::GrowCores;
        for _ in 0..100 {
            ctl.tick(&mut server, &measurements(0.05, 20.0, 5.0, 1.0), 0.9);
        }
        assert!(server.allocations().lc_cores() >= 2);
    }
}
