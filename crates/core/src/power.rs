//! The power sub-controller (Algorithm 3).
//!
//! Every cycle it reads package power through RAPL and the frequency of the
//! LC cores.  If the package is close to TDP *and* the LC cores are below
//! their guaranteed frequency, it lowers the DVFS cap of the BE cores by one
//! step, shifting power budget to the LC cores.  If there is power headroom
//! and the LC cores are at (or above) their guaranteed frequency, it raises
//! the BE cap to maximize BE performance.  Both conditions must hold before
//! acting, to avoid confusing active-idle frequency dips with power capping.
//!
//! The sub-controller keeps no state: the BE cap it moves lives in the
//! server's allocations.

use heracles_hw::{CounterSnapshot, Server};

use crate::config::{GUARANTEED_LC_FREQ_GHZ, POWER_THRESHOLD};
use crate::dvfs::step_be_cap;

/// Runs one power control cycle.
pub fn tick(server: &mut Server, counters: &CounterSnapshot) {
    let near_tdp = counters.power_fraction() > POWER_THRESHOLD;
    let lc_ghz = counters.lc_freq_ghz;
    if near_tdp && lc_ghz < GUARANTEED_LC_FREQ_GHZ {
        // Shift power from BE to LC cores.
        step_be_cap(server, false);
    } else if !near_tdp && lc_ghz >= GUARANTEED_LC_FREQ_GHZ {
        // Headroom available: let BE cores run faster.
        step_be_cap(server, true);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use heracles_hw::ServerConfig;

    fn counters(power_frac: f64, lc_ghz: f64) -> CounterSnapshot {
        CounterSnapshot {
            package_power_w: power_frac * 290.0,
            tdp_w: 290.0,
            lc_freq_ghz: lc_ghz,
            be_freq_ghz: 2.0,
            ..CounterSnapshot::default()
        }
    }

    fn cap(server: &Server) -> Option<f64> {
        server.allocations().be_freq_cap_ghz()
    }

    #[test]
    fn lowers_be_when_power_capped_and_lc_slow() {
        let mut server = Server::new(ServerConfig::default_haswell());
        tick(&mut server, &counters(0.96, 2.0));
        assert!(cap(&server).unwrap() < 3.3);
        // Repeated pressure walks the cap down to the chip minimum, one
        // 100 MHz step at a time, and never below it.
        let mut last = cap(&server).unwrap();
        for _ in 0..40 {
            tick(&mut server, &counters(0.96, 2.0));
            let next = cap(&server).unwrap();
            assert!(next <= last + 1e-9);
            last = next;
        }
        assert!((last - 1.2).abs() < 1e-9);
    }

    #[test]
    fn raises_be_when_headroom_and_lc_fast() {
        let mut server = Server::new(ServerConfig::default_haswell());
        server.allocations_mut().set_be_freq_cap_ghz(Some(1.2));
        tick(&mut server, &counters(0.5, 2.4));
        assert!(cap(&server).unwrap() > 1.2);
        // Repeated headroom walks the cap back up to max Turbo, not past it.
        for _ in 0..40 {
            tick(&mut server, &counters(0.5, 2.4));
        }
        assert!((cap(&server).unwrap() - 3.3).abs() < 1e-9);
    }

    #[test]
    fn steps_land_on_the_100mhz_grid() {
        let mut server = Server::new(ServerConfig::default_haswell());
        server.allocations_mut().set_be_freq_cap_ghz(Some(2.25));
        tick(&mut server, &counters(0.96, 2.0));
        let steps = cap(&server).unwrap() / 0.1;
        assert!((steps - steps.round()).abs() < 1e-9, "cap {:?} not on grid", cap(&server));
    }

    #[test]
    fn mixed_signals_take_no_action() {
        let mut server = Server::new(ServerConfig::default_haswell());
        server.allocations_mut().set_be_freq_cap_ghz(Some(2.0));
        // Near TDP but LC already at guaranteed frequency: do nothing.
        tick(&mut server, &counters(0.95, 2.35));
        assert_eq!(cap(&server), Some(2.0));
        // Headroom but LC below guaranteed (e.g. active-idle): do nothing.
        tick(&mut server, &counters(0.5, 1.8));
        assert_eq!(cap(&server), Some(2.0));
    }

    #[test]
    fn zero_tdp_reads_as_headroom() {
        let mut server = Server::new(ServerConfig::default_haswell());
        server.allocations_mut().set_be_freq_cap_ghz(Some(2.0));
        let m = CounterSnapshot { package_power_w: 100.0, tdp_w: 0.0, ..counters(0.0, 2.4) };
        tick(&mut server, &m);
        assert!(cap(&server).unwrap() > 2.0);
    }
}
