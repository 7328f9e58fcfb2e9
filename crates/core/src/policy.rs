//! The policy interface shared by Heracles and the baseline controllers.
//!
//! A colocation policy owns the decision of how the server's resources are
//! split between the LC workload and BE tasks.  The experiment harness calls
//! [`ColocationPolicy::tick`] once per measurement window with the latest
//! observations; the policy responds by mutating the server's allocations
//! through the isolation mechanisms.

use heracles_hw::Server;
use heracles_sim::SimTime;
use heracles_telemetry::TraceEvent;

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

    /// Reacts to one measurement window.  `now` is the simulated time at the
    /// end of the window.
    fn tick(&mut self, now: SimTime, server: &mut Server, measurements: &Measurements);

    /// True if BE tasks are currently allowed to execute.
    fn be_enabled(&self) -> bool;

    /// Turns decision tracing on or off.  The default ignores the request:
    /// the baseline policies make no decisions worth tracing, and a policy
    /// that never emits costs the harness nothing.
    fn set_trace(&mut self, enabled: bool) {
        let _ = enabled;
    }

    /// Drains the decision events buffered since the last call (empty unless
    /// the policy traces and [`set_trace`](Self::set_trace) enabled it).
    fn take_trace(&mut self) -> Vec<TraceEvent> {
        Vec::new()
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
        fn tick(&mut self, _now: SimTime, _server: &mut Server, _m: &Measurements) {}
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
