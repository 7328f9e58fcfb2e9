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

use heracles_hw::{Allocations, Server};
use heracles_sim::{SimDuration, SimTime};
use heracles_workloads::Slo;

use crate::config::{
    HeraclesConfig, CORE_MEM_PERIOD, LOAD_DISABLE_THRESHOLD, LOAD_ENABLE_THRESHOLD, NETWORK_PERIOD,
    POLL_PERIOD, POWER_PERIOD, SLACK_DISALLOW_GROWTH,
};
use crate::core_mem::CoreMemoryController;
use crate::dram_model::OfflineDramModel;
use crate::measurements::Measurements;
use crate::policy::{BeState, ColocationPolicy, Decision, Decisions};
use crate::{network, power};

/// The Heracles controller for one server.
#[derive(Debug, Clone)]
pub struct Heracles {
    config: HeraclesConfig,
    slo: Slo,
    core_mem: CoreMemoryController,
    state: BeState,
    growth_allowed: bool,
    last_poll: Option<SimTime>,
    last_core_mem: Option<SimTime>,
    last_power: Option<SimTime>,
    last_network: Option<SimTime>,
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
            last_poll: None,
            last_core_mem: None,
            last_power: None,
            last_network: None,
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

    /// Whether a cycle of `period` last run at `last` is due at `now` (a
    /// first cycle always is), noting that it runs.
    fn due(last: &mut Option<SimTime>, now: SimTime, period: SimDuration) -> bool {
        let due = last.is_none_or(|prev| now.saturating_since(prev) >= period);
        if due {
            *last = Some(now);
        }
        due
    }

    /// Algorithm 1's poll: an expired cooldown ends, negative slack starts
    /// a new one, and load moves BE between enabled and disabled with
    /// hysteresis.
    fn top_level(&mut self, now: SimTime, server: &mut Server, slack: f64, load: f64) {
        if matches!(self.state, BeState::Cooldown { until } if now >= until) {
            self.state = BeState::Disabled;
        }
        if slack < 0.0 {
            // SLO violated or about to be: give everything to the LC workload
            // and back off for a while.
            self.disable_be(server);
            self.state = BeState::Cooldown { until: now + self.config.cooldown };
        } else if self.state == BeState::Enabled && load > LOAD_DISABLE_THRESHOLD {
            self.disable_be(server);
            self.state = BeState::Disabled;
        } else if self.state == BeState::Disabled && load < LOAD_ENABLE_THRESHOLD {
            self.core_mem.enable_be(server);
            self.state = BeState::Enabled;
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

    /// Runs each due controller and reports what changed: a top-level
    /// transition (not every 15 s poll that reaffirmed the status quo), and
    /// each sub-controller cycle that moved its resource.
    fn tick(
        &mut self,
        now: SimTime,
        server: &mut Server,
        measurements: &Measurements,
    ) -> Decisions {
        let mut decided = Decisions::default();
        let slack = measurements.slack(self.slo.target_s);
        let load = measurements.load;

        if Self::due(&mut self.last_poll, now, POLL_PERIOD) {
            let (from, growth) = (self.state, self.growth_allowed);
            self.top_level(now, server, slack, load);
            if self.state != from || self.growth_allowed != growth {
                let growth_allowed = self.growth_allowed;
                let to = self.state;
                decided.top_level =
                    Some(Decision::TopLevel { from, to, growth_allowed, slack, load });
            }
        }
        if self.state != BeState::Enabled {
            return decided;
        }

        if Self::due(&mut self.last_core_mem, now, CORE_MEM_PERIOD) {
            let share = |a: &Allocations| (a.be_cores(), a.be_ways());
            let (cores, ways) = share(server.allocations());
            self.core_mem.set_can_grow(self.growth_allowed);
            self.core_mem.tick(server, measurements, slack);
            let (be_cores, be_ways) = share(server.allocations());
            if (be_cores, be_ways) != (cores, ways) {
                decided.core_mem = Some(Decision::CoreMem {
                    be_cores,
                    cores_delta: be_cores as i64 - cores as i64,
                    be_ways,
                    ways_delta: be_ways as i64 - ways as i64,
                    phase: self.core_mem.phase(),
                    slack,
                });
            }
        }
        let counters = &measurements.counters;
        if Self::due(&mut self.last_power, now, POWER_PERIOD) {
            let before = server.allocations().be_freq_cap_ghz();
            power::tick(server, counters);
            let freq_cap_ghz = server.allocations().be_freq_cap_ghz();
            if freq_cap_ghz != before {
                let package_power_w = counters.package_power_w;
                decided.power = Some(Decision::Power { freq_cap_ghz, package_power_w });
            }
        }
        if Self::due(&mut self.last_network, now, NETWORK_PERIOD) {
            let before = server.allocations().be_net_ceil_gbps();
            network::tick(server, counters);
            let net_ceil_gbps = server.allocations().be_net_ceil_gbps();
            if net_ceil_gbps != before {
                let nic_lc_gbps = counters.nic_lc_gbps;
                decided.network = Some(Decision::Network { net_ceil_gbps, nic_lc_gbps });
            }
        }
        decided
    }

    fn be_enabled(&self) -> bool {
        self.state == BeState::Enabled
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use heracles_hw::{CounterSnapshot, ServerConfig};
    use heracles_sim::SimDuration;
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
    fn ticks_report_each_controllers_decision() {
        let (mut server, mut h) = make();
        h.init(&mut server);
        // Enable, grow for a while, then violate the SLO to force a
        // cooldown — exercising top-level, core/mem, power and network
        // decision points.
        let mut m = healthy(0.4);
        m.counters.nic_lc_gbps = 6.0;
        m.counters.package_power_w = 285.0;
        m.counters.lc_freq_ghz = 2.0;
        let mut decided: Vec<Decisions> =
            (1..=40).map(|t| h.tick(SimTime::from_secs(t), &mut server, &m)).collect();
        let enabled = decided[0].top_level.expect("the first poll enables BE");
        let slack = m.slack(h.slo.target_s);
        assert_eq!(
            enabled,
            Decision::TopLevel {
                from: BeState::Disabled,
                to: BeState::Enabled,
                growth_allowed: true,
                slack,
                load: 0.4
            }
        );
        assert!(decided.iter().any(|d| matches!(d.core_mem, Some(Decision::CoreMem { .. }))));
        assert!(decided.iter().any(|d| matches!(d.power, Some(Decision::Power { .. }))));
        let network: Vec<_> = decided.iter().filter_map(|d| d.network).collect();
        assert_eq!(network.len(), 1, "only the first network cycle moves the ceiling");
        let Decision::Network { net_ceil_gbps: Some(ceil), nic_lc_gbps } = network[0] else {
            panic!("a network decision sets a ceiling: {network:?}")
        };
        // Algorithm 4 at 6 Gbps of LC traffic: 10 − 6 − max(0.5, 0.6).
        assert!((ceil - 3.4).abs() < 1e-9 && nic_lc_gbps == 6.0, "{network:?}");
        decided.push(h.tick(SimTime::from_secs(61), &mut server, &violating(0.4)));
        let until = SimTime::from_secs(61) + HeraclesConfig::default().cooldown;
        let Some(Decision::TopLevel { from, to, growth_allowed, .. }) = decided[40].top_level
        else {
            panic!("the SLO violation must be reported as a cooldown transition")
        };
        assert_eq!(
            (from, to, growth_allowed),
            (BeState::Enabled, BeState::Cooldown { until }, false)
        );
        assert_eq!(decided[40].iter().count(), 1, "no sub-controller runs in a cooldown");
    }
}
