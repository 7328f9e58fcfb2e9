//! The policy-driven colocation runner.

use std::collections::VecDeque;
use std::sync::Arc;

use heracles_baselines::SchedulingDelay;
use heracles_core::{ColocationPolicy, Decision, Decisions, Measurements};
use heracles_hw::{Server, ServerConfig};
use heracles_sim::{LatencyRecorder, SimRng, SimTime, StandardDraws};
use heracles_workloads::{BeWorkload, LcWorkload};

use heracles_workloads::BeKind;

use crate::config::ColoConfig;
use crate::record::WindowRecord;

/// Everything a measurement window's outcome depends on, besides the seed
/// and the window's phase within the SLO merge deque.
///
/// Each window derives its RNG purely from `(seed, phase)` instead of
/// consuming a sequential stream, so two windows at the same phase draw the
/// same underlying randomness — the invariant the fast path below is built
/// on.  Windows under changing inputs take fresh phases (full sample
/// diversity, exactly like a sequential stream); a leaf that has been
/// steady for a whole SLO cycle starts recycling phases with the deque's
/// period, at which point its windows repeat bitwise.  These inputs are
/// compared directly ([`PartialEq`], no hashing) to decide steadiness, so
/// nothing can ever fake a quiescent window.
#[derive(Debug, Clone, Copy, PartialEq)]
struct WindowInputs {
    load_bits: u64,
    lc_cores: usize,
    be_cores: usize,
    be_shares_lc_cores: bool,
    cat_enabled: bool,
    lc_ways: usize,
    be_ways: usize,
    be_freq_cap_bits: Option<u64>,
    be_net_ceil_bits: Option<u64>,
    package_cap_bits: Option<u64>,
    be_kind: Option<BeKind>,
    be_running: bool,
}

/// Stream-id base for the per-window RNG forks (xor'd with the deque
/// phase).  An arbitrary constant keeping the window streams disjoint from
/// any other fork of the same seed.
const WINDOW_STREAM: u64 = 0xC010_57EA_D10C_A7ED;

/// The generator of the window at `phase` of a runner seeded with `seed`.
fn window_rng(seed: u64, phase: u64) -> SimRng {
    SimRng::new(seed).fork(WINDOW_STREAM ^ phase)
}

/// The [`StandardDraws`] of the windows at phases `0..n` of every runner
/// built on one [`ColoConfig`] seed and request count: what each of those
/// windows' queues draws before the load scales it.
///
/// Runners of one seed (the characterization's probes, a figure's cells)
/// draw the same uniforms, logarithms and normals at each phase, so one
/// table, shared through an [`Arc`] and handed to each runner with
/// [`ColoRunner::with_draws`], draws them once.  A runner reads the entry of
/// a window's phase whenever the window would draw that set, and draws
/// privately otherwise (and past the table's last phase), so its records
/// are bit for bit what it gives without the table.  A table is immutable
/// and lives as long as its runners: there is no cache beyond it.
#[derive(Debug)]
pub struct SharedDraws {
    seed: u64,
    requests: usize,
    phases: Vec<StandardDraws>,
}

impl SharedDraws {
    /// Draws the table of `config`'s seed and request count for phases
    /// `0..phases`.
    pub fn new(config: &ColoConfig, phases: usize) -> Arc<Self> {
        let (seed, requests) = (config.seed, config.requests_per_window);
        let phases = (0..phases as u64)
            .map(|phase| StandardDraws::draw(&mut window_rng(seed, phase), requests))
            .collect();
        Arc::new(SharedDraws { seed, requests, phases })
    }

    /// The draws of the window at `phase`, if the table covers it.
    fn get(&self, phase: u64) -> Option<&StandardDraws> {
        usize::try_from(phase).ok().and_then(|phase| self.phases.get(phase))
    }
}

/// What [`ColoRunner::advance`] reports back to the fleet for a batch of
/// windows: the per-step observation, how many windows took which path,
/// and what the policy decided.
#[derive(Debug, Clone)]
pub struct LeafAdvance {
    /// EMU of the batch's final window.
    pub last_emu: f64,
    /// Worst normalized tail latency across the batch.
    pub worst_normalized_latency: f64,
    /// Mean normalized tail latency across the batch's windows, accumulated
    /// in window order on both stepping paths so the value is bitwise
    /// identical whichever path served each window.
    pub mean_normalized_latency: f64,
    /// BE progress over the batch in core·seconds.
    pub be_progress_core_s: f64,
    /// Package energy over the batch in joules of simulated time (window
    /// watts × window seconds, summed in window order on both stepping
    /// paths so the value is bitwise identical whichever path served each
    /// window).
    pub energy_j: f64,
    /// Highest package power any window of the batch reported, in watts.
    pub max_power_w: f64,
    /// Whether the policy allowed BE execution after the batch.
    pub be_enabled: bool,
    /// Windows that ran the full simulation path.
    pub full_windows: u64,
    /// Windows satisfied by the steady-state fast path.
    pub fast_windows: u64,
    /// The policy's decisions over the batch, in order, each at the end of
    /// its window on the runner's clock.
    pub decisions: Vec<(SimTime, Decision)>,
}

/// Runs an LC workload (and optionally a BE workload) on one simulated server
/// under a colocation policy, one measurement window at a time.
///
/// The runner keeps only what the next window needs: the last window's
/// record and the latency tail of one SLO measurement, so its state is
/// O(`slo_window_count` × `tail_depth`) however long it runs (see
/// `recent_latencies`).
/// Callers that want a series collect the records that
/// [`step`](Self::step) and [`run_steady`](Self::run_steady) return, and
/// summarise them with
/// [`ColoSummary::from_records`](crate::ColoSummary::from_records).
///
/// # Example
///
/// ```
/// use heracles_baselines::StaticLayout;
/// use heracles_colo::{ColoConfig, ColoRunner};
/// use heracles_hw::ServerConfig;
/// use heracles_workloads::LcWorkload;
///
/// let mut runner = ColoRunner::new(
///     ServerConfig::default_haswell(),
///     LcWorkload::websearch(),
///     None,
///     Box::new(StaticLayout::lc_only()),
///     ColoConfig::fast_test(),
/// );
/// let record = runner.step(0.5);
/// assert!(record.slo_met);
/// ```
pub struct ColoRunner {
    server: Server,
    /// The LC workload, shared with every runner built from the same
    /// [`Arc`] (a fleet cell's leaves serve one profile).
    lc: Arc<LcWorkload>,
    be: Option<BeWorkload>,
    /// Progress (in core-equivalents) the current BE workload achieves
    /// alone on the whole machine: the denominator of a window's
    /// normalized `be_throughput`.
    be_alone_progress: f64,
    policy: Box<dyn ColocationPolicy>,
    config: ColoConfig,
    now: SimTime,
    /// The most recent window's record, which the fast path replays.
    last: Option<WindowRecord>,
    /// Latency tails of the most recent windows, together one SLO
    /// measurement (the paper's multi-second SLO window).  The tail is
    /// selected from the recorders' sorted tops without merging them.  Once
    /// its window's tail is taken, a recorder is cut to its top
    /// [`tail_depth`](Self::tail_depth) samples and its logical count
    /// ([`LatencyRecorder::retain_top`]): the SLO quantile over a deque of at
    /// most `slo_window_count` × `requests_per_window` samples reads no
    /// deeper into any window, so every later tail is bitwise what the uncut
    /// samples give.  A fleet leaf's 5 × 1200-sample p99 deque holds 5 × 61
    /// samples.
    recent_latencies: VecDeque<LatencyRecorder>,
    /// The uncut samples of the windows in `recent_latencies`, in lockstep
    /// with it: the oracle the tail tests sort in full.
    #[cfg(test)]
    uncut_latencies: VecDeque<LatencyRecorder>,
    /// RNG phases of the same windows, kept in lockstep with
    /// `recent_latencies`: steady windows recycle the phase from the front
    /// (one SLO cycle ago), which is what makes their sample sets — and
    /// therefore their records — repeat bitwise.
    recent_phases: VecDeque<u64>,
    /// Inputs of the most recently executed window.
    last_inputs: Option<WindowInputs>,
    /// How many consecutive trailing windows shared `last_inputs`.
    steady_streak: usize,
    /// Raw (un-normalized) BE progress of the last window, kept so the fast
    /// path can replay `policy.tick` with a bitwise-identical measurement
    /// rather than re-deriving it from the normalized throughput.
    last_be_progress: f64,
    full_windows: u64,
    fast_windows: u64,
    /// The standard draws of the first phases, shared with the other
    /// runners of this seed (see [`SharedDraws`]).
    draws: Option<Arc<SharedDraws>>,
}

impl ColoRunner {
    /// Creates a runner and lets the policy set up its initial allocations.
    /// The hardware configuration and the LC workload are static, so a
    /// caller building many runners of one cell passes them as [`Arc`]s and
    /// the runners share them.
    pub fn new(
        server_config: impl Into<Arc<ServerConfig>>,
        lc: impl Into<Arc<LcWorkload>>,
        be: Option<BeWorkload>,
        mut policy: Box<dyn ColocationPolicy>,
        config: ColoConfig,
    ) -> Self {
        let server_config = server_config.into();
        let be_alone_progress = be.as_ref().map_or(1.0, |b| b.alone_progress(&server_config));
        let mut server = Server::new(server_config);
        policy.init(&mut server);
        ColoRunner {
            server,
            lc: lc.into(),
            be,
            be_alone_progress,
            policy,
            config,
            now: SimTime::ZERO,
            last: None,
            recent_latencies: VecDeque::new(),
            #[cfg(test)]
            uncut_latencies: VecDeque::new(),
            recent_phases: VecDeque::new(),
            last_inputs: None,
            steady_streak: 0,
            last_be_progress: 0.0,
            full_windows: 0,
            fast_windows: 0,
            draws: None,
        }
    }

    /// Hands the runner a table of its windows' standard draws (or takes
    /// it away with `None`).  The records do not change: the table only
    /// spares the runner drawing what another runner of its seed already
    /// drew.
    ///
    /// # Panics
    ///
    /// Panics if the table was drawn for another seed or request count than
    /// the runner's [`ColoConfig`].
    pub fn with_draws(mut self, draws: Option<Arc<SharedDraws>>) -> Self {
        if let Some(table) = &draws {
            assert!(
                table.seed == self.config.seed && table.requests == self.config.requests_per_window,
                "shared draws for seed {} × {} requests handed to a runner of seed {} × {}",
                table.seed,
                table.requests,
                self.config.seed,
                self.config.requests_per_window,
            );
        }
        self.draws = draws;
        self
    }

    /// The BE workload being colocated, if any.
    pub fn be(&self) -> Option<&BeWorkload> {
        self.be.as_ref()
    }

    /// Replaces the colocated BE workload (or removes it with `None`).
    ///
    /// The fleet scheduler attaches and detaches jobs as they are placed,
    /// preempted and completed; the EMU normalization denominator is
    /// re-profiled for the new workload.  The policy is re-initialised so
    /// the incoming job starts from the conservative initial allocation
    /// rather than inheriting the share grown for the previous job — handing
    /// a DRAM-hungry antagonist twenty cores that were tuned for a benign
    /// predecessor would blow through the SLO faster than the controller's
    /// poll can react, exactly like restarting the BE container does on a
    /// real node.
    pub fn set_be(&mut self, be: Option<BeWorkload>) {
        self.be_alone_progress =
            be.as_ref().map_or(1.0, |b| b.alone_progress(self.server.config()));
        self.be = be;
        self.policy.init(&mut self.server);
        // A swap invalidates steadiness even if the next window's inputs
        // happen to look identical: the policy was re-initialised.
        self.last_inputs = None;
        self.steady_streak = 0;
        self.last_be_progress = 0.0;
    }

    /// True if the policy currently allows BE tasks to execute.
    pub fn be_enabled(&self) -> bool {
        self.policy.be_enabled()
    }

    /// Sets (or clears) the RAPL-style package power cap.  The cap is one of
    /// the inputs a window is keyed on, so changing it invalidates steadiness
    /// and the next window re-simulates in full under the new budget —
    /// capping is a behavioral knob, never a silent replay.
    pub fn set_package_cap_w(&mut self, cap: Option<f64>) {
        self.server.allocations_mut().set_package_cap_w(cap);
    }

    /// The most recent window's record, if any window has run.
    pub fn last_record(&self) -> Option<&WindowRecord> {
        self.last.as_ref()
    }

    /// The simulated server (allocations, counters, configuration).
    pub fn server(&self) -> &Server {
        &self.server
    }

    /// The current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Advances one measurement window at the given LC load and returns its
    /// record.  The policy observes the window's measurements afterwards and
    /// may adjust allocations for the next window.
    ///
    /// This always runs the full simulation path — it is the oracle the
    /// steady-state fast path inside [`advance`](Self::advance) and
    /// [`run_steady`](Self::run_steady) is tested against.
    ///
    /// # Panics
    ///
    /// Panics if `load` is NaN or infinite.
    pub fn step(&mut self, load: f64) -> WindowRecord {
        assert_finite(load);
        self.full_window(load).0
    }

    /// The number of windows whose latency samples merge into one SLO
    /// measurement — also the period the RNG phases recycle with once a
    /// leaf has gone steady.
    fn phase_cap(&self) -> usize {
        self.config.slo_window_count.max(1)
    }

    /// How many of each window's largest latency samples the SLO quantile
    /// can read: its pick count over the fullest deque,
    /// `phase_cap × requests_per_window` samples (61 for a p99 over
    /// 5 × 1200).  Zero when windows hold no samples.
    fn tail_depth(&self) -> usize {
        LatencyRecorder::tail_depth(
            self.lc.slo().percentile,
            self.phase_cap() * self.config.requests_per_window,
        )
    }

    /// Captures everything the next window's outcome depends on (beyond the
    /// seed and phase) from the current server/policy state.
    fn current_inputs(&self, load: f64) -> WindowInputs {
        let alloc = self.server.allocations();
        let be_running = self.be.is_some()
            && self.policy.be_enabled()
            && (alloc.be_cores() > 0 || alloc.be_shares_lc_cores());
        WindowInputs {
            load_bits: load.to_bits(),
            lc_cores: alloc.lc_cores(),
            be_cores: alloc.be_cores(),
            be_shares_lc_cores: alloc.be_shares_lc_cores(),
            cat_enabled: alloc.cat_enabled(),
            lc_ways: alloc.lc_ways(),
            be_ways: alloc.be_ways(),
            be_freq_cap_bits: alloc.be_freq_cap_ghz().map(f64::to_bits),
            be_net_ceil_bits: alloc.be_net_ceil_gbps().map(f64::to_bits),
            package_cap_bits: alloc.package_cap_w().map(f64::to_bits),
            be_kind: if be_running { self.be.as_ref().map(|b| b.kind()) } else { None },
            be_running,
        }
    }

    /// Records that a window with `inputs` just executed.
    fn note_window(&mut self, inputs: WindowInputs, fast: bool) {
        if self.last_inputs == Some(inputs) {
            self.steady_streak += 1;
        } else {
            self.steady_streak = 1;
            self.last_inputs = Some(inputs);
        }
        if fast {
            self.fast_windows += 1;
        } else {
            self.full_windows += 1;
        }
    }

    /// `(full, fast)` window counts since the runner was created.
    pub fn window_counts(&self) -> (u64, u64) {
        (self.full_windows, self.fast_windows)
    }

    /// The steady-state fast path: when the runner has executed more than a
    /// full phase cycle of windows with inputs identical to this window's,
    /// the full path's output is already known bitwise — the window's
    /// latency samples would equal the recorder at the front of the SLO
    /// deque (same inputs, same RNG phase), so the merged tail, counters and
    /// throughputs all repeat the previous record.  The deque is rotated,
    /// the record is replayed with the time advanced, and the policy still
    /// ticks for real (poll timers, cooldowns and growth cycling must keep
    /// running; if the tick changes allocations, the *next* window's input
    /// comparison falls back to the full path).
    ///
    /// Returns `None` whenever any of that is not provable, in which case
    /// the caller must run [`full_window`](Self::full_window).
    fn fast_window(&mut self, load: f64) -> Option<(WindowRecord, Decisions)> {
        let cap = self.phase_cap();
        if self.steady_streak <= cap || self.recent_latencies.len() < cap {
            return None;
        }
        let load = load.clamp(0.0, 4.0);
        let inputs = self.current_inputs(load);
        if self.last_inputs != Some(inputs) {
            return None;
        }
        self.now += self.config.window;
        // Rotate the SLO deque: the window's fresh samples are bitwise
        // identical to the recorder leaving the front, so rotation
        // reproduces the full path's push-back/pop-front exactly.
        let recycled = self.recent_latencies.pop_front().expect("deque holds a full cycle");
        self.recent_latencies.push_back(recycled);
        #[cfg(test)]
        self.uncut_latencies.rotate_left(1);
        let phase = self.recent_phases.pop_front().expect("phase deque matches latency deque");
        self.recent_phases.push_back(phase);
        let last = self.last.as_mut().expect("a steady streak implies a last record");
        last.time = self.now;
        let measurements = Measurements {
            tail_latency_s: last.tail_latency_s,
            load,
            be_progress: self.last_be_progress,
            counters: last.counters,
        };
        let record = last.clone();
        let decided = self.policy.tick(self.now, &mut self.server, &measurements);
        self.note_window(inputs, true);
        Some((record, decided))
    }

    /// One window through the shared stepping path: the fast path when
    /// provably exact (and allowed), the full simulation otherwise.  Returns
    /// the window's record and what the policy decided after it.
    fn window(&mut self, load: f64, allow_fast: bool) -> (WindowRecord, Decisions) {
        if allow_fast {
            if let Some(window) = self.fast_window(load) {
                return window;
            }
        }
        self.full_window(load)
    }

    /// Advances `windows` consecutive windows at a constant load, returning
    /// the aggregate observation the fleet consumes.  `allow_fast` selects
    /// between the event-driven core (fast path permitted) and the stepped
    /// oracle (every window simulated in full); both run through the same
    /// accumulation arithmetic so their results are bitwise comparable.
    ///
    /// # Panics
    ///
    /// Panics if `windows` is zero or `load` is NaN or infinite.
    pub fn advance(&mut self, load: f64, windows: usize, allow_fast: bool) -> LeafAdvance {
        assert!(windows > 0, "advance needs at least one window");
        assert_finite(load);
        let window_s = self.config.window.as_secs_f64();
        let full_before = self.full_windows;
        let fast_before = self.fast_windows;
        let mut worst = 0.0f64;
        let mut latency_sum = 0.0f64;
        let mut progress = 0.0;
        let mut energy_j = 0.0;
        let mut max_power_w = 0.0f64;
        let mut last_emu = 0.0;
        let mut decisions = Vec::new();
        for _ in 0..windows {
            let (record, decided) = self.window(load, allow_fast);
            decisions.extend(decided.iter().map(|decision| (record.time, decision)));
            worst = worst.max(record.normalized_latency);
            latency_sum += record.normalized_latency;
            progress += record.be_throughput * self.be_alone_progress * window_s;
            energy_j += record.counters.package_power_w * window_s;
            max_power_w = max_power_w.max(record.counters.package_power_w);
            last_emu = record.emu;
        }
        LeafAdvance {
            last_emu,
            worst_normalized_latency: worst,
            mean_normalized_latency: latency_sum / windows as f64,
            be_progress_core_s: progress,
            energy_j,
            max_power_w,
            be_enabled: self.policy.be_enabled(),
            full_windows: self.full_windows - full_before,
            fast_windows: self.fast_windows - fast_before,
            decisions,
        }
    }

    /// The full simulation path for one measurement window.
    fn full_window(&mut self, load: f64) -> (WindowRecord, Decisions) {
        // Loads above 1.0 are real: a fleet's front-end balancer re-routes a
        // retired leaf's traffic onto the survivors, and a pool shrunk below
        // its demand runs its leaves *past* their peak — the M/G/c queue
        // then saturates and the tail latency shows it, which is exactly
        // what over-demand costs.  The cap only guards the simulation
        // against absurd inputs.
        let load = load.clamp(0.0, 4.0);
        self.now += self.config.window;
        let cfg = self.server.config();
        let alloc = self.server.allocations();
        let inputs = self.current_inputs(load);
        let be_running = inputs.be_running;
        // The window's randomness is a pure function of (seed, phase).  A
        // window under changing inputs draws a fresh phase (its own index,
        // the count of windows run before it), so transients — where
        // policies actually differ — see fully independent noise.  Once the runner has been steady for a whole
        // SLO cycle, the phase recycles from `slo_window_count` windows ago:
        // from then on the sample sets repeat with the deque's period, the
        // merged tail freezes, and every steady window's record is provably
        // bitwise identical — the invariant the fast path below exploits.
        let phase = if self.last_inputs == Some(inputs) && self.steady_streak >= self.phase_cap() {
            *self.recent_phases.front().expect("a steady streak implies a full phase cycle")
        } else {
            self.full_windows + self.fast_windows
        };
        let mut rng = window_rng(self.config.seed, phase);
        let draws = self.draws.as_ref().and_then(|table| table.get(phase));

        // Offered demands under the current allocations.
        let lc_footprint = self.lc.footprint_mb(load, cfg);
        let be_footprint = if be_running {
            self.be.as_ref().map_or(0.0, |b| b.contention_footprint_mb())
        } else {
            0.0
        };
        let cache = self.server.cache_split(lc_footprint, be_footprint);
        let mut demand = self.lc.demand(load, alloc.lc_cores(), cache.lc_mb, cfg);
        if be_running {
            let be = self.be.as_ref().expect("be_running implies a BE workload");
            let be_demand = be.demand(alloc.be_cores(), cache.be_mb);
            demand.be_active_cores = be_demand.be_active_cores;
            demand.be_compute_activity = be_demand.be_compute_activity;
            demand.be_dram_gbps_per_core = be_demand.be_dram_gbps_per_core;
            demand.be_llc_footprint_mb = be_demand.be_llc_footprint_mb;
            demand.be_net_offered_gbps = be_demand.be_net_offered_gbps;
            demand.smt_antagonist_intensity = be_demand.smt_antagonist_intensity;
        }
        let outcome = self.server.evaluate(&demand);

        // Scheduling interference applies only when the OS is allowed to run
        // BE threads on the LC cores (the OS-only baseline).
        let sched_pressure = if be_running && alloc.be_shares_lc_cores() {
            let be = self.be.as_ref().expect("be_running implies a BE workload");
            (alloc.be_cores() as f64 * be.compute_activity() / alloc.total_cores() as f64)
                .clamp(0.0, 1.0)
        } else {
            0.0
        };
        let delay = (sched_pressure > 0.0).then(|| SchedulingDelay::new(sched_pressure));
        let mut extra = delay.map(|delay| move |rng: &mut SimRng| delay.sample(rng));
        let extra_opt = extra.as_mut().map(|extra| extra as &mut dyn FnMut(&mut SimRng) -> f64);

        // A window that reads the shared draws leaves `rng` where drawing
        // them would have, so the scheduling delays draw the same values.
        let window = self.lc.simulate_window_with(
            &mut rng,
            draws,
            load,
            alloc.lc_cores(),
            &outcome,
            cfg,
            self.config.requests_per_window,
            extra_opt,
        );

        // Aggregate the last few windows into one SLO measurement so that the
        // tail estimate is statistically meaningful (the paper's controller
        // polls latency over 15 s for exactly this reason).  The tail is
        // selected from the recorders' sorted tops, and then the arriving
        // window is cut to the top every later tail can read (see
        // `recent_latencies`).
        #[cfg(test)]
        self.uncut_latencies.push_back(window.latencies.clone());
        self.recent_latencies.push_back(window.latencies);
        self.recent_phases.push_back(phase);
        while self.recent_latencies.len() > self.phase_cap() {
            self.recent_latencies.pop_front();
            self.recent_phases.pop_front();
            #[cfg(test)]
            self.uncut_latencies.pop_front();
        }
        let tail_latency_s = LatencyRecorder::quantile_of_runs(
            self.recent_latencies.iter_mut(),
            self.lc.slo().percentile,
        );
        let depth = self.tail_depth();
        self.recent_latencies.back_mut().expect("the window was just pushed").retain_top(depth);
        let normalized_latency = self.lc.slo().normalized(tail_latency_s);

        // BE progress and Effective Machine Utilization.
        let be_progress = if be_running {
            let be = self.be.as_ref().expect("be_running implies a BE workload");
            be.progress(
                alloc.be_cores(),
                outcome.be_freq_ghz,
                outcome.be_cache_mb,
                outcome.be_dram_achieved_gbps,
                outcome.be_net_achieved_gbps,
                cfg,
            )
        } else {
            0.0
        };
        let be_throughput = be_progress / self.be_alone_progress;
        let lc_throughput = load;
        let mut counters = self.server.counters(&outcome);
        // The hardware model reports the LC pool's utilization from the
        // *offered* demand at nominal service times, but a real utilization
        // counter measures wall-clock busy time — which inflates with the
        // frequency drop and memory stalls of the contended window.  The
        // controller's utilization guard must see the inflated value, or it
        // keeps granting cores while the LC queue sits on its latency knee.
        let effective_busy_cores = window.qps * self.lc.service_time_s(load, &outcome, cfg);
        counters.lc_cpu_utilization =
            (effective_busy_cores / alloc.lc_cores().max(1) as f64).clamp(0.0, 1.0);

        // The record holds the allocations the window ran under, so it is
        // built before the policy's tick may change them.
        let record = WindowRecord {
            time: self.now,
            tail_latency_s,
            normalized_latency,
            slo_met: self.lc.slo().is_met(tail_latency_s),
            be_throughput,
            emu: lc_throughput + be_throughput,
            lc_cores: alloc.lc_cores(),
            be_cores: alloc.be_cores(),
            be_ways: if alloc.cat_enabled() { alloc.be_ways() } else { 0 },
            counters,
        };
        self.last_be_progress = be_progress;
        let measurements = Measurements { tail_latency_s, load, be_progress, counters };
        let decided = self.policy.tick(self.now, &mut self.server, &measurements);
        self.last = Some(record.clone());
        self.note_window(inputs, false);
        (record, decided)
    }

    /// Runs `windows` consecutive windows at a constant load and returns the
    /// records.
    ///
    /// Routes through the same stepping path as fleet leaves: steady
    /// windows take the (bit-exact) fast path automatically.
    ///
    /// # Panics
    ///
    /// Panics if `load` is NaN or infinite.
    pub fn run_steady(&mut self, load: f64, windows: usize) -> Vec<WindowRecord> {
        assert_finite(load);
        (0..windows).map(|_| self.window(load, true).0).collect()
    }
}

/// Rejects a load no window can be measured at: `clamp` passes NaN through,
/// and a NaN load offers no queries, so its window would read as a perfect
/// one with a zero tail.
fn assert_finite(load: f64) {
    assert!(load.is_finite(), "a window's load must be finite, got {load}");
}

impl std::fmt::Debug for ColoRunner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ColoRunner")
            .field("lc", &self.lc.name())
            .field("be", &self.be.as_ref().map(|b| b.name().to_string()))
            .field("policy", &self.policy.name())
            .field("now", &self.now)
            .field("windows", &(self.full_windows + self.fast_windows))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::ColoSummary;
    use heracles_baselines::StaticLayout;
    use heracles_core::{Heracles, HeraclesConfig, OfflineDramModel};

    fn heracles_for(lc: &LcWorkload, config: &ServerConfig) -> Box<dyn ColocationPolicy> {
        let model = OfflineDramModel::profile(lc, config);
        Box::new(Heracles::new(HeraclesConfig::fast(), lc.slo(), model))
    }

    #[test]
    fn lc_alone_meets_slo_across_loads() {
        let cfg = ServerConfig::default_haswell();
        let mut runner = ColoRunner::new(
            cfg,
            LcWorkload::websearch(),
            None,
            Box::new(StaticLayout::lc_only()),
            ColoConfig::fast_test(),
        );
        for load in [0.1, 0.3, 0.5, 0.7, 0.9] {
            let r = runner.step(load);
            assert!(r.slo_met, "SLO violated at load {load}: {:.2}", r.normalized_latency);
            assert_eq!(r.be_throughput, 0.0);
            assert!((r.emu - load).abs() < 1e-9);
        }
    }

    #[test]
    fn os_only_colocation_with_brain_violates_slo() {
        let cfg = ServerConfig::default_haswell();
        let mut runner = ColoRunner::new(
            cfg,
            LcWorkload::websearch(),
            Some(BeWorkload::brain()),
            Box::new(StaticLayout::os_only()),
            ColoConfig::fast_test(),
        );
        let records = runner.run_steady(0.5, 3);
        let worst = records.iter().map(|r| r.normalized_latency).fold(0.0, f64::max);
        assert!(worst > 1.0, "OS-only colocation should violate the SLO, worst={worst:.2}");
    }

    #[test]
    fn heracles_grows_be_and_preserves_slo() {
        let cfg = ServerConfig::default_haswell();
        let lc = LcWorkload::websearch();
        let policy = heracles_for(&lc, &cfg);
        let mut runner =
            ColoRunner::new(cfg, lc, Some(BeWorkload::brain()), policy, ColoConfig::fast_test());
        let records = runner.run_steady(0.4, 60);
        // After convergence the BE job holds a nontrivial share of the machine.
        let final_be_cores = records.last().unwrap().be_cores;
        assert!(final_be_cores >= 4, "BE has only {final_be_cores} cores");
        // And the steady-state windows meet the SLO.
        let steady = ColoSummary::from_records(&records[20..]);
        assert_eq!(steady.slo_violation_fraction, 0.0, "violations: {steady:?}");
        assert!(steady.mean_emu > 0.5, "EMU {:.2}", steady.mean_emu);
    }

    #[test]
    fn returned_records_and_summary_track_steps() {
        let cfg = ServerConfig::default_haswell();
        let mut runner = ColoRunner::new(
            cfg,
            LcWorkload::ml_cluster(),
            None,
            Box::new(StaticLayout::lc_only()),
            ColoConfig::fast_test(),
        );
        let records = runner.run_steady(0.3, 5);
        assert_eq!(records.len(), 5);
        assert_eq!(ColoSummary::from_records(&records).windows, 5);
        assert_eq!(ColoSummary::from_records(&records[3..]).windows, 2);
        let (full, fast) = runner.window_counts();
        assert_eq!(full + fast, 5);
        assert!(runner.now().as_secs_f64() >= 5.0);
    }

    #[test]
    fn set_be_swaps_the_workload_and_renormalizes_emu() {
        let cfg = ServerConfig::default_haswell();
        let lc = LcWorkload::websearch();
        let policy = heracles_for(&lc, &cfg);
        let mut runner =
            ColoRunner::new(cfg, lc, Some(BeWorkload::brain()), policy, ColoConfig::fast_test());
        runner.run_steady(0.4, 30);
        let brain_alone = runner.be_alone_progress;
        assert!(runner.last_record().is_some());

        // Detach the job: BE throughput drops to zero, EMU falls back to load.
        runner.set_be(None);
        assert_eq!(runner.be_alone_progress, 1.0);
        let idle = runner.step(0.4);
        assert_eq!(idle.be_throughput, 0.0);

        // Attach a different job: the normalization denominator is re-profiled.
        runner.set_be(Some(BeWorkload::streetview()));
        assert!(runner.be().is_some());
        assert_ne!(runner.be_alone_progress, brain_alone);
        let resumed = runner.run_steady(0.4, 30);
        assert!(
            resumed.last().unwrap().be_throughput > 0.0,
            "streetview made no progress after the swap"
        );
    }

    #[test]
    fn fast_path_is_bit_identical_to_full_path() {
        // Two identical runners: one steps every window in full (the
        // oracle), one goes through the shared path with the fast path
        // allowed.  A long steady stretch under Heracles exercises both the
        // certification windows and the fast windows; the histories must be
        // indistinguishable.
        let build = || {
            let cfg = ServerConfig::default_haswell();
            let lc = LcWorkload::websearch();
            let policy = heracles_for(&lc, &cfg);
            ColoRunner::new(cfg, lc, Some(BeWorkload::brain()), policy, ColoConfig::fast_test())
        };
        let mut oracle = build();
        let mut fast = build();
        for i in 0..120 {
            // A plateau with one mid-run load change, so the fast path has
            // to certify, run, fall back, and re-certify.
            let load = if (40..44).contains(&i) { 0.55 } else { 0.4 };
            let a = oracle.step(load);
            let b = fast.window(load, true).0;
            assert!(a.time == b.time && a.tail_latency_s.to_bits() == b.tail_latency_s.to_bits());
            assert_eq!(a.normalized_latency.to_bits(), b.normalized_latency.to_bits());
            assert_eq!(a.be_throughput.to_bits(), b.be_throughput.to_bits());
            assert_eq!(a.emu.to_bits(), b.emu.to_bits());
            assert_eq!((a.lc_cores, a.be_cores, a.be_ways), (b.lc_cores, b.be_cores, b.be_ways));
            assert_eq!(a.slo_met, b.slo_met);
        }
        let (full, fast_count) = fast.window_counts();
        assert_eq!(full + fast_count, 120);
        assert!(fast_count > 0, "steady run never took the fast path");
        assert_eq!(oracle.window_counts(), (120, 0), "step() must stay the full-path oracle");
        // And the advance() aggregation matches a hand-rolled loop bitwise.
        let adv_oracle = oracle.advance(0.4, 5, false);
        let adv_fast = fast.advance(0.4, 5, true);
        assert_eq!(adv_oracle.be_progress_core_s.to_bits(), adv_fast.be_progress_core_s.to_bits());
        assert_eq!(
            adv_oracle.worst_normalized_latency.to_bits(),
            adv_fast.worst_normalized_latency.to_bits()
        );
        assert_eq!(adv_oracle.last_emu.to_bits(), adv_fast.last_emu.to_bits());
        assert_eq!(adv_oracle.energy_j.to_bits(), adv_fast.energy_j.to_bits());
        assert_eq!(adv_oracle.max_power_w.to_bits(), adv_fast.max_power_w.to_bits());
        assert_eq!(adv_oracle.be_enabled, adv_fast.be_enabled);
        assert_eq!(adv_oracle.decisions, adv_fast.decisions);
    }

    #[test]
    fn run_steady_matches_stepping_bitwise() {
        let build = || {
            let cfg = ServerConfig::default_haswell();
            let lc = LcWorkload::memkeyval();
            let policy = heracles_for(&lc, &cfg);
            ColoRunner::new(
                cfg,
                lc,
                Some(BeWorkload::stream_llc()),
                policy,
                ColoConfig::fast_test(),
            )
        };
        let mut stepped = build();
        let via_steps: Vec<WindowRecord> = (0..50).map(|_| stepped.step(0.5)).collect();
        let mut batched = build();
        let via_run = batched.run_steady(0.5, 50);
        for (a, b) in via_steps.iter().zip(&via_run) {
            assert_eq!(a.emu.to_bits(), b.emu.to_bits());
            assert_eq!(a.tail_latency_s.to_bits(), b.tail_latency_s.to_bits());
        }
    }

    #[test]
    fn selected_tail_matches_merge_and_sort_bitwise() {
        // A transient (a load ramp) and then a long plateau, through the
        // shared stepping path so both full and fast windows occur.  Every
        // record's tail must be bitwise the nearest-rank value of the
        // merged, fully sorted SLO deque it was taken over: every sample of
        // every window in it, not just the tops the deque keeps.
        let cfg = ServerConfig::default_haswell();
        let lc = LcWorkload::websearch();
        let policy = heracles_for(&lc, &cfg);
        let mut runner =
            ColoRunner::new(cfg, lc, Some(BeWorkload::brain()), policy, ColoConfig::fast_test());
        let percentile = runner.lc.slo().percentile;
        for i in 0..80 {
            let load = if i < 20 { 0.2 + 0.03 * i as f64 } else { 0.45 };
            let record = runner.window(load, true).0;
            let logical = |deque: &VecDeque<LatencyRecorder>| -> Vec<usize> {
                deque.iter().map(LatencyRecorder::len).collect()
            };
            assert_eq!(logical(&runner.recent_latencies), logical(&runner.uncut_latencies));
            let mut merged: Vec<f64> =
                runner.uncut_latencies.iter().flat_map(|rec| rec.samples()).copied().collect();
            merged.sort_by(|a, b| a.partial_cmp(b).unwrap());
            let rank = ((percentile * merged.len() as f64).ceil() as usize).clamp(1, merged.len());
            assert_eq!(record.tail_latency_s.to_bits(), merged[rank - 1].to_bits(), "window {i}");
        }
        let (full, fast) = runner.window_counts();
        assert!(full > 20 && fast > 0, "full {full}, fast {fast}");
    }

    #[test]
    fn empty_windows_and_a_zero_slo_window_count_step_without_panicking() {
        // A fixed allocation goes steady at once, so the fast path rotates
        // the deque too.
        let build = |colo: ColoConfig| {
            let cfg = ServerConfig::default_haswell();
            ColoRunner::new(
                cfg,
                LcWorkload::websearch(),
                None,
                Box::new(StaticLayout::lc_only()),
                colo,
            )
        };
        let run = |runner: &mut ColoRunner| -> Vec<WindowRecord> {
            let mut records: Vec<WindowRecord> = (0..3).map(|_| runner.step(0.4)).collect();
            records.extend(runner.run_steady(0.4, 30));
            assert!(runner.window_counts().1 > 0, "never took the fast path");
            records
        };
        // Windows without requests hold no samples, whatever the SLO window.
        for slo_window_count in [0, 4] {
            let colo =
                ColoConfig { requests_per_window: 0, slo_window_count, ..ColoConfig::fast_test() };
            let records = run(&mut build(colo));
            assert!(records.iter().all(|r| r.tail_latency_s == 0.0), "{slo_window_count}");
        }
        // No SLO window count is the phase cap's one window.
        let zero = run(&mut build(ColoConfig { slo_window_count: 0, ..ColoConfig::fast_test() }));
        let one = run(&mut build(ColoConfig { slo_window_count: 1, ..ColoConfig::fast_test() }));
        for (a, b) in zero.iter().zip(&one) {
            assert_eq!(a.tail_latency_s.to_bits(), b.tail_latency_s.to_bits());
        }
        assert!(zero.iter().all(|r| r.tail_latency_s > 0.0));
    }

    #[test]
    fn runner_is_deterministic_for_a_seed() {
        let run = |seed| {
            let cfg = ServerConfig::default_haswell();
            let lc = LcWorkload::memkeyval();
            let policy = heracles_for(&lc, &cfg);
            let mut runner = ColoRunner::new(
                cfg,
                lc,
                Some(BeWorkload::stream_llc()),
                policy,
                ColoConfig::fast_test().with_seed(seed),
            );
            let records = runner.run_steady(0.5, 10);
            ColoSummary::from_records(&records).mean_normalized_latency
        };
        assert_eq!(run(5), run(5));
        assert_ne!(run(5), run(6));
    }

    /// `clamp` passes NaN through and a NaN load offers no queries, so a
    /// window at it would read as a perfect one: every entry point refuses
    /// a non-finite load before it simulates anything.
    #[test]
    fn non_finite_loads_are_rejected_at_every_entry_point() {
        let runner = || {
            ColoRunner::new(
                ServerConfig::default_haswell(),
                LcWorkload::websearch(),
                None,
                Box::new(StaticLayout::lc_only()),
                ColoConfig::fast_test(),
            )
        };
        let assert_rejects = |name: &str, enter: &dyn Fn(&mut ColoRunner, f64)| {
            for load in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
                let mut r = runner();
                let outcome =
                    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| enter(&mut r, load)));
                assert!(outcome.is_err(), "{name} accepted load {load}");
                assert_eq!(r.window_counts(), (0, 0), "{name} simulated load {load}");
            }
            enter(&mut runner(), 0.3);
        };
        assert_rejects("step", &|r, load| {
            r.step(load);
        });
        assert_rejects("advance", &|r, load| {
            r.advance(load, 1, false);
        });
        assert_rejects("advance (fast allowed)", &|r, load| {
            r.advance(load, 1, true);
        });
        assert_rejects("run_steady", &|r, load| {
            r.run_steady(load, 1);
        });
    }
}
