//! The policy interface shared by Heracles and the baseline controllers.
//!
//! A colocation policy owns the decision of how the server's resources are
//! split between the LC workload and BE tasks.  The experiment harness calls
//! [`ColocationPolicy::tick`] once per measurement window with the latest
//! observations; the policy responds by mutating the server's allocations
//! through the isolation mechanisms, and returns what it decided.

use heracles_hw::Server;
use heracles_sim::SimTime;

use crate::core_mem::GradientPhase;
use crate::measurements::Measurements;

/// A controller that decides how LC and BE tasks share a server.
///
/// Policies are `Send` so that a harness holding one (a `ColoRunner` leaf in
/// a cluster or fleet) can be stepped on a worker thread; all policies are
/// plain owned state, so the bound costs implementations nothing.
pub trait ColocationPolicy: Send {
    /// Short human-readable name used in experiment output.
    fn name(&self) -> &str;

    /// Puts the server into this policy's initial state (called once before
    /// the first window).
    fn init(&mut self, server: &mut Server);

    /// Reacts to one measurement window ending at simulated time `now`, and
    /// returns what it changed (nothing, for a fixed layout).
    fn tick(&mut self, now: SimTime, server: &mut Server, measurements: &Measurements)
        -> Decisions;

    /// True if BE tasks are currently allowed to execute.
    fn be_enabled(&self) -> bool;
}

/// Whether best-effort execution is allowed (Algorithm 1's state).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BeState {
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
    /// The state's lower-case name, as traces and reports print it.
    pub fn name(&self) -> &'static str {
        match self {
            BeState::Enabled => "enabled",
            BeState::Disabled => "disabled",
            BeState::Cooldown { .. } => "cooldown",
        }
    }
}

/// One controller's change to the server in one tick.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Decision {
    /// Algorithm 1 moved BE's state (a re-armed cooldown too) or its growth permission.
    TopLevel {
        /// The state before the poll.
        from: BeState,
        /// The state after it.
        to: BeState,
        /// Whether BE may grow after the poll.
        growth_allowed: bool,
        /// The latency slack the poll read.
        slack: f64,
        /// The LC load the poll read.
        load: f64,
    },
    /// Algorithm 2 moved BE cores or cache ways.
    CoreMem {
        /// BE cores after the cycle.
        be_cores: usize,
        /// BE cores after the cycle less those before.
        cores_delta: i64,
        /// BE cache ways after the cycle (zero with CAT off).
        be_ways: usize,
        /// BE cache ways after the cycle less those before.
        ways_delta: i64,
        /// The gradient phase after the cycle.
        phase: GradientPhase,
        /// The latency slack the cycle read.
        slack: f64,
    },
    /// Algorithm 3 moved the BE cores' frequency cap.
    Power {
        /// The new cap in GHz (`None`: uncapped).
        freq_cap_ghz: Option<f64>,
        /// The package power the cycle read, in watts.
        package_power_w: f64,
    },
    /// Algorithm 4 moved the BE egress ceiling.
    Network {
        /// The new ceiling in Gbps (`None`: unshaped).
        net_ceil_gbps: Option<f64>,
        /// The LC egress the cycle read, in Gbps.
        nic_lc_gbps: f64,
    },
}

/// What one tick decided: each controller's [`Decision`], if it changed anything.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Decisions {
    /// Algorithm 1's transition ([`Decision::TopLevel`]).
    pub top_level: Option<Decision>,
    /// Algorithm 2's move ([`Decision::CoreMem`]).
    pub core_mem: Option<Decision>,
    /// Algorithm 3's move ([`Decision::Power`]).
    pub power: Option<Decision>,
    /// Algorithm 4's move ([`Decision::Network`]).
    pub network: Option<Decision>,
}

impl Decisions {
    /// The decisions made, in the order the controllers ran.
    pub fn iter(&self) -> impl Iterator<Item = Decision> {
        [self.top_level, self.core_mem, self.power, self.network].into_iter().flatten()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A trivial policy used to check that the trait is object-safe and that
    /// harness-style dynamic dispatch works.
    struct AlwaysOff;

    impl ColocationPolicy for AlwaysOff {
        fn name(&self) -> &str {
            "always-off"
        }
        fn init(&mut self, server: &mut Server) {
            let total = server.config().total_cores();
            server.allocations_mut().set_lc_cores(total);
            server.allocations_mut().set_be_cores(0);
        }
        fn tick(&mut self, _: SimTime, _: &mut Server, _: &Measurements) -> Decisions {
            Decisions::default()
        }
        fn be_enabled(&self) -> bool {
            false
        }
    }

    #[test]
    fn trait_is_object_safe() {
        use heracles_hw::ServerConfig;
        let mut server = Server::new(ServerConfig::small_test());
        let mut policy: Box<dyn ColocationPolicy> = Box::new(AlwaysOff);
        policy.init(&mut server);
        policy.tick(SimTime::ZERO, &mut server, &Measurements::default());
        assert_eq!(policy.name(), "always-off");
        assert!(!policy.be_enabled());
        assert_eq!(server.allocations().be_cores(), 0);
    }
}
