//! The top-level Heracles controller (Algorithm 1).
//!
//! The top-level loop polls the LC workload's tail latency and load every 15
//! seconds and decides whether best-effort execution is allowed at all and
//! whether the sub-controllers may grow the BE share:
//!
//! * negative latency slack → disable BE tasks and enter a cooldown period,
//! * load above 85% of peak → disable BE tasks (re-enabled below 80%),
//! * slack below 10% → BE tasks may not grow,
//! * slack below 5% → BE tasks additionally give back cores immediately.
//!
//! The three sub-controllers run on their own faster cycles (2 s for cores &
//! memory, 2 s for power, 1 s for network) and act independently as long as
//! their resource is not saturated.

use heracles_hw::Server;
use heracles_sim::SimTime;
use heracles_telemetry::TraceEvent;
use heracles_workloads::Slo;

use crate::config::{
    HeraclesConfig, CORE_MEM_PERIOD, LOAD_DISABLE_THRESHOLD, LOAD_ENABLE_THRESHOLD, NETWORK_PERIOD,
    POLL_PERIOD, POWER_PERIOD, SLACK_DISALLOW_GROWTH,
};
use crate::core_mem::{CoreMemoryController, GradientPhase};
use crate::dram_model::OfflineDramModel;
use crate::measurements::Measurements;
use crate::policy::ColocationPolicy;
use crate::{network, power};

/// Whether best-effort execution is currently allowed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum BeState {
    /// BE tasks may run (and possibly grow).
    Enabled,
    /// BE tasks are disabled (high LC load or controller start-up).
    Disabled,
    /// BE tasks are disabled until the stated time because the SLO was at
    /// risk (negative slack).
    Cooldown {
        /// When colocation may be attempted again.
        until: SimTime,
    },
}

impl BeState {
    /// Short lower-case label used in trace events and reports.
    pub(crate) fn label(&self) -> &'static str {
        match self {
            BeState::Enabled => "enabled",
            BeState::Disabled => "disabled",
            BeState::Cooldown { .. } => "cooldown",
        }
    }
}

/// The Heracles controller for one server.
#[derive(Debug, Clone)]
pub struct Heracles {
    config: HeraclesConfig,
    slo: Slo,
    core_mem: CoreMemoryController,
    state: BeState,
    growth_allowed: bool,
    last_slack: f64,
    last_poll: Option<SimTime>,
    last_core_mem: Option<SimTime>,
    last_power: Option<SimTime>,
    last_network: Option<SimTime>,
    trace: Option<Vec<TraceEvent>>,
}

/// The BE-visible allocation state a sub-controller may change in one tick,
/// snapshotted before and diffed after so the trace carries *actions*, not
/// every no-op cycle.
#[derive(Debug, Clone, Copy, PartialEq)]
struct AllocSnapshot {
    be_cores: usize,
    be_ways: usize,
    freq_cap_ghz: Option<f64>,
    net_ceil_gbps: Option<f64>,
}

impl AllocSnapshot {
    fn of(server: &Server) -> Self {
        let alloc = server.allocations();
        AllocSnapshot {
            be_cores: alloc.be_cores(),
            be_ways: if alloc.cat_enabled() { alloc.be_ways() } else { 0 },
            freq_cap_ghz: alloc.be_freq_cap_ghz(),
            net_ceil_gbps: alloc.be_net_ceil_gbps(),
        }
    }
}

impl Heracles {
    /// Creates a controller for an LC workload with the given SLO and offline
    /// DRAM bandwidth model.
    ///
    /// The core & memory sub-controller is built here, once: its gradient
    /// phase and slack-cost estimate carry across later
    /// [`init`](ColocationPolicy::init) calls.
    pub fn new(config: HeraclesConfig, slo: Slo, dram_model: OfflineDramModel) -> Self {
        Heracles {
            config,
            slo,
            core_mem: CoreMemoryController::new(dram_model),
            state: BeState::Disabled,
            growth_allowed: false,
            last_slack: 1.0,
            last_poll: None,
            last_core_mem: None,
            last_power: None,
            last_network: None,
            trace: None,
        }
    }

    /// Gives the server entirely to the LC workload: no BE cores, a minimal
    /// BE cache partition, and no BE frequency cap or egress ceiling.
    fn disable_be(&mut self, server: &mut Server) {
        self.core_mem.disable_be(server);
        let alloc = server.allocations_mut();
        alloc.set_be_freq_cap_ghz(None);
        alloc.set_be_net_ceil_gbps(None);
    }

    fn due(last: &mut Option<SimTime>, now: SimTime, period: heracles_sim::SimDuration) -> bool {
        match *last {
            None => {
                *last = Some(now);
                true
            }
            Some(prev) if now.saturating_since(prev) >= period => {
                *last = Some(now);
                true
            }
            _ => false,
        }
    }

    fn top_level(&mut self, now: SimTime, server: &mut Server, m: &Measurements) {
        let slack = m.slack(self.slo.target_s);
        self.last_slack = slack;

        // Resolve an expired cooldown before anything else.
        if let BeState::Cooldown { until } = self.state {
            if now >= until {
                self.state = BeState::Disabled;
            }
        }

        if slack < 0.0 {
            // SLO violated or about to be: give everything to the LC workload
            // and back off for a while.
            self.disable_be(server);
            self.state = BeState::Cooldown { until: now + self.config.cooldown };
            self.growth_allowed = false;
            return;
        }

        match self.state {
            BeState::Cooldown { .. } => {
                // Still cooling down: keep BE disabled.
                self.growth_allowed = false;
                return;
            }
            BeState::Enabled => {
                if m.load > LOAD_DISABLE_THRESHOLD {
                    self.disable_be(server);
                    self.state = BeState::Disabled;
                    self.growth_allowed = false;
                    return;
                }
            }
            BeState::Disabled => {
                if m.load < LOAD_ENABLE_THRESHOLD {
                    self.core_mem.enable_be(server);
                    self.state = BeState::Enabled;
                }
            }
        }

        // The slack < `SLACK_RECLAIM_CORES` core give-back runs inside the
        // core & memory sub-controller's own cycle (its Rule 2), which reacts
        // within one sub-controller period instead of one top-level poll.
        self.growth_allowed = self.state == BeState::Enabled && slack >= SLACK_DISALLOW_GROWTH;
    }
}

impl ColocationPolicy for Heracles {
    fn name(&self) -> &str {
        "heracles"
    }

    fn init(&mut self, server: &mut Server) {
        self.disable_be(server);
        self.state = BeState::Disabled;
        self.growth_allowed = false;
        self.last_poll = None;
        self.last_core_mem = None;
        self.last_power = None;
        self.last_network = None;
    }

    fn tick(&mut self, now: SimTime, server: &mut Server, measurements: &Measurements) {
        let tracing = self.trace.is_some();

        if Self::due(&mut self.last_poll, now, POLL_PERIOD) {
            let prev_state = self.state;
            let prev_growth = self.growth_allowed;
            self.top_level(now, server, measurements);
            // Algorithm 1 acted: record the transition (only state changes,
            // not every 15 s poll that reaffirmed the status quo).
            if tracing && (self.state != prev_state || self.growth_allowed != prev_growth) {
                let event = TraceEvent::new(now, "core", "top_level")
                    .str("from", prev_state.label())
                    .str("to", self.state.label())
                    .bool("growth_allowed", self.growth_allowed)
                    .f64("slack", self.last_slack)
                    .f64("load", measurements.load);
                self.trace.as_mut().expect("tracing checked").push(event);
            }
        }

        let enabled = self.state == BeState::Enabled;
        let growth = self.growth_allowed;
        let slack = measurements.slack(self.slo.target_s);

        if enabled {
            if Self::due(&mut self.last_core_mem, now, CORE_MEM_PERIOD) {
                let before = tracing.then(|| AllocSnapshot::of(server));
                self.core_mem.set_can_grow(growth);
                self.core_mem.tick(server, measurements, slack);
                if let Some(before) = before {
                    let after = AllocSnapshot::of(server);
                    if before.be_cores != after.be_cores || before.be_ways != after.be_ways {
                        let phase = match self.core_mem.phase() {
                            GradientPhase::GrowLlc => "grow_llc",
                            GradientPhase::GrowCores => "grow_cores",
                        };
                        let event = TraceEvent::new(now, "core", "core_mem")
                            .i64("be_cores", after.be_cores as i64)
                            .i64("cores_delta", after.be_cores as i64 - before.be_cores as i64)
                            .i64("be_ways", after.be_ways as i64)
                            .i64("ways_delta", after.be_ways as i64 - before.be_ways as i64)
                            .str("phase", phase)
                            .f64("slack", slack);
                        self.trace.as_mut().expect("tracing checked").push(event);
                    }
                }
            }
            if Self::due(&mut self.last_power, now, POWER_PERIOD) {
                let before = tracing.then(|| AllocSnapshot::of(server));
                power::tick(server, &measurements.counters);
                if let Some(before) = before {
                    let after = AllocSnapshot::of(server);
                    if before.freq_cap_ghz != after.freq_cap_ghz {
                        let event = TraceEvent::new(now, "core", "power")
                            .f64("freq_cap_ghz", after.freq_cap_ghz.unwrap_or(0.0))
                            .bool("capped", after.freq_cap_ghz.is_some())
                            .f64("package_power_w", measurements.counters.package_power_w);
                        self.trace.as_mut().expect("tracing checked").push(event);
                    }
                }
            }
            if Self::due(&mut self.last_network, now, NETWORK_PERIOD) {
                let before = tracing.then(|| AllocSnapshot::of(server));
                network::tick(server, &measurements.counters);
                if let Some(before) = before {
                    let after = AllocSnapshot::of(server);
                    if before.net_ceil_gbps != after.net_ceil_gbps {
                        let event = TraceEvent::new(now, "core", "network")
                            .f64("net_ceil_gbps", after.net_ceil_gbps.unwrap_or(0.0))
                            .bool("shaped", after.net_ceil_gbps.is_some())
                            .f64("nic_lc_gbps", measurements.counters.nic_lc_gbps);
                        self.trace.as_mut().expect("tracing checked").push(event);
                    }
                }
            }
        }
    }

    fn be_enabled(&self) -> bool {
        self.state == BeState::Enabled
    }

    fn set_trace(&mut self, enabled: bool) {
        self.trace = enabled.then(Vec::new);
    }

    fn take_trace(&mut self) -> Vec<TraceEvent> {
        self.trace.as_mut().map(std::mem::take).unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use heracles_hw::{CounterSnapshot, ServerConfig};
    use heracles_sim::SimDuration;
    use heracles_telemetry::{TraceLine, TraceValue};
    use heracles_workloads::LcWorkload;

    fn make() -> (Server, Heracles) {
        let config = ServerConfig::default_haswell();
        let ws = LcWorkload::websearch();
        let model = OfflineDramModel::profile(&ws, &config);
        let server = Server::new(config);
        let heracles = Heracles::new(HeraclesConfig::default(), ws.slo(), model);
        (server, heracles)
    }

    fn healthy(load: f64) -> Measurements {
        Measurements {
            tail_latency_s: 0.010,
            load,
            be_progress: 1.0,
            counters: CounterSnapshot {
                dram_total_gbps: 40.0,
                dram_be_gbps: 10.0,
                dram_peak_gbps: 120.0,
                lc_freq_ghz: 2.4,
                be_freq_ghz: 2.4,
                package_power_w: 180.0,
                tdp_w: 290.0,
                cpu_utilization: 0.5,
                lc_cpu_utilization: 0.5,
                nic_lc_gbps: 0.2,
                nic_be_gbps: 0.0,
                nic_link_gbps: 10.0,
            },
        }
    }

    fn violating(load: f64) -> Measurements {
        Measurements { tail_latency_s: 0.030, ..healthy(load) }
    }

    #[test]
    fn starts_disabled_and_enables_at_moderate_load() {
        let (mut server, mut h) = make();
        h.init(&mut server);
        assert!(!h.be_enabled());
        h.tick(SimTime::from_secs(15), &mut server, &healthy(0.4));
        assert!(h.be_enabled());
        assert!(server.allocations().be_cores() >= 1);
    }

    #[test]
    fn high_load_disables_colocation() {
        let (mut server, mut h) = make();
        h.init(&mut server);
        h.tick(SimTime::from_secs(15), &mut server, &healthy(0.4));
        assert!(h.be_enabled());
        h.tick(SimTime::from_secs(30), &mut server, &healthy(0.9));
        assert!(!h.be_enabled());
        assert_eq!(server.allocations().be_cores(), 0);
        // Hysteresis: 0.82 is between the thresholds, stays disabled.
        h.tick(SimTime::from_secs(45), &mut server, &healthy(0.82));
        assert!(!h.be_enabled());
        // Below 0.80: re-enabled.
        h.tick(SimTime::from_secs(60), &mut server, &healthy(0.7));
        assert!(h.be_enabled());
    }

    #[test]
    fn slo_violation_triggers_cooldown() {
        let (mut server, mut h) = make();
        h.init(&mut server);
        h.tick(SimTime::from_secs(15), &mut server, &healthy(0.4));
        assert!(h.be_enabled());
        h.tick(SimTime::from_secs(30), &mut server, &violating(0.4));
        assert!(!h.be_enabled());
        assert!(matches!(h.state, BeState::Cooldown { .. }));
        assert_eq!(server.allocations().be_cores(), 0);
        // Still in cooldown 60 s later even though latency is healthy again.
        h.tick(SimTime::from_secs(90), &mut server, &healthy(0.4));
        assert!(!h.be_enabled());
        // After the cooldown expires colocation resumes.
        let after = SimTime::from_secs(30)
            + HeraclesConfig::default().cooldown
            + SimDuration::from_secs(30);
        h.tick(after, &mut server, &healthy(0.4));
        assert!(h.be_enabled());
    }

    #[test]
    fn small_slack_disallows_growth_and_reclaims_cores() {
        let (mut server, mut h) = make();
        h.init(&mut server);
        h.tick(SimTime::from_secs(15), &mut server, &healthy(0.4));
        // Grow for a while with comfortable slack.
        let mut t = 15;
        for _ in 0..30 {
            t += 2;
            h.tick(SimTime::from_secs(t), &mut server, &healthy(0.4));
        }
        let grown = server.allocations().be_cores();
        assert!(grown > 2, "BE should have grown, has {grown} cores");
        // Slack of ~6%: growth disallowed but no reclaim.
        let tight = Measurements { tail_latency_s: 0.0235, ..healthy(0.4) };
        t += 15;
        h.tick(SimTime::from_secs(t), &mut server, &tight);
        assert!(!h.growth_allowed);
        assert_eq!(server.allocations().be_cores(), grown);
        // Slack of ~2%: cores reclaimed down to two.
        let very_tight = Measurements { tail_latency_s: 0.0245, ..healthy(0.4) };
        t += 15;
        h.tick(SimTime::from_secs(t), &mut server, &very_tight);
        assert_eq!(server.allocations().be_cores(), 2);
    }

    #[test]
    fn growth_converges_within_about_thirty_seconds() {
        let (mut server, mut h) = make();
        h.init(&mut server);
        // Tick once a second for 45 simulated seconds at low load.
        for t in 1..=45 {
            h.tick(SimTime::from_secs(t), &mut server, &healthy(0.2));
        }
        // The BE job should have acquired a substantial share of the machine.
        assert!(
            server.allocations().be_cores() >= 8,
            "BE only has {} cores after 45 s",
            server.allocations().be_cores()
        );
    }

    #[test]
    fn network_and_power_subcontrollers_act_when_enabled() {
        let (mut server, mut h) = make();
        h.init(&mut server);
        let mut m = healthy(0.4);
        m.counters.nic_lc_gbps = 6.0;
        m.counters.package_power_w = 285.0;
        m.counters.lc_freq_ghz = 2.0;
        for t in [15, 16, 17, 18, 19, 20] {
            h.tick(SimTime::from_secs(t), &mut server, &m);
        }
        // HTB ceiling set according to Algorithm 4 and DVFS cap lowered.
        assert!(server.allocations().be_net_ceil_gbps().is_some());
        assert!(server.allocations().be_freq_cap_ghz().is_some());
    }

    #[test]
    fn disabling_be_clears_the_frequency_cap_and_egress_ceiling() {
        let (mut server, mut h) = make();
        h.init(&mut server);
        let mut m = healthy(0.4);
        m.counters.nic_lc_gbps = 6.0;
        m.counters.package_power_w = 285.0;
        m.counters.lc_freq_ghz = 2.0;
        for t in 15..=20 {
            h.tick(SimTime::from_secs(t), &mut server, &m);
        }
        assert!(server.allocations().be_freq_cap_ghz().is_some());
        // Algorithm 4 at 6 Gbps of LC traffic: 10 − 6 − max(0.5, 0.6).
        assert!((server.allocations().be_net_ceil_gbps().unwrap() - 3.4).abs() < 1e-9);
        // High load disables BE: the power and network settings go with it.
        h.tick(SimTime::from_secs(30), &mut server, &healthy(0.9));
        assert!(!h.be_enabled());
        assert_eq!(server.allocations().be_freq_cap_ghz(), None);
        assert_eq!(server.allocations().be_net_ceil_gbps(), None);
    }

    #[test]
    fn tracing_records_decisions_without_perturbing_control() {
        let drive = |traced: bool| {
            let (mut server, mut h) = make();
            h.set_trace(traced);
            h.init(&mut server);
            let mut events = Vec::new();
            // Enable, grow for a while, then violate the SLO to force a
            // cooldown — exercising top-level, core/mem, power and network
            // decision points.
            let mut m = healthy(0.4);
            m.counters.nic_lc_gbps = 6.0;
            m.counters.package_power_w = 285.0;
            m.counters.lc_freq_ghz = 2.0;
            for t in 1..=40 {
                h.tick(SimTime::from_secs(t), &mut server, &m);
                events.extend(h.take_trace());
            }
            h.tick(SimTime::from_secs(61), &mut server, &violating(0.4));
            events.extend(h.take_trace());
            (server.allocations().clone(), h.state, events)
        };
        let (alloc_on, state_on, events) = drive(true);
        let (alloc_off, state_off, no_events) = drive(false);
        assert_eq!(alloc_on, alloc_off, "tracing must not change allocations");
        assert_eq!(state_on, state_off);
        assert!(no_events.is_empty(), "untraced run must emit nothing");
        let kinds: Vec<&str> = events.iter().map(|e| e.kind()).collect();
        assert!(kinds.contains(&"top_level"), "kinds: {kinds:?}");
        assert!(kinds.contains(&"core_mem"), "kinds: {kinds:?}");
        assert!(kinds.contains(&"power"), "kinds: {kinds:?}");
        assert!(kinds.contains(&"network"), "kinds: {kinds:?}");
        let cooldown = events
            .iter()
            .find(|e| {
                let to = TraceLine::new(e.time(), &e.jsonl()).field("to");
                e.kind() == "top_level" && to == Some(TraceValue::Str("cooldown".into()))
            })
            .expect("the SLO violation must be traced as a cooldown transition");
        assert_eq!(cooldown.scope(), "core");
    }
}
