//! The power sub-controller (Algorithm 3).
//!
//! Every cycle it reads package power through RAPL and the frequency of the
//! LC cores.  If the package is close to TDP *and* the LC cores are below
//! their guaranteed frequency, it lowers the DVFS cap of the BE cores by one
//! step, shifting power budget to the LC cores.  If there is power headroom
//! and the LC cores are at (or above) their guaranteed frequency, it raises
//! the BE cap to maximize BE performance.  Both conditions must hold before
//! acting, to avoid confusing active-idle frequency dips with power capping.

use heracles_hw::{CounterSnapshot, Server};
use heracles_isolation::{FreqMonitor, PerCoreDvfs, RaplMonitor};

use crate::config::{GUARANTEED_LC_FREQ_GHZ, POWER_THRESHOLD};

/// The power sub-controller.
#[derive(Debug, Clone)]
pub struct PowerController {
    dvfs: PerCoreDvfs,
    rapl: RaplMonitor,
    freq: FreqMonitor,
}

impl PowerController {
    /// Creates the sub-controller for a server.
    pub fn new(server: &Server) -> Self {
        PowerController {
            dvfs: PerCoreDvfs::new(server),
            rapl: RaplMonitor::new(),
            freq: FreqMonitor::new(),
        }
    }

    /// The DVFS mechanism (for inspection in tests and reports).
    pub fn dvfs(&self) -> &PerCoreDvfs {
        &self.dvfs
    }

    /// Runs one control cycle.
    pub fn tick(&mut self, server: &mut Server, counters: &CounterSnapshot) {
        let power = self.rapl.read(counters);
        let freq = self.freq.read(counters);
        if power.near_tdp(POWER_THRESHOLD) && freq.lc_ghz < GUARANTEED_LC_FREQ_GHZ {
            // Shift power from BE to LC cores.
            let _ = self.dvfs.lower_be(server);
        } else if !power.near_tdp(POWER_THRESHOLD) && freq.lc_ghz >= GUARANTEED_LC_FREQ_GHZ {
            // Headroom available: let BE cores run faster.
            let _ = self.dvfs.raise_be(server);
        }
    }

    /// Clears the BE frequency cap (used when BE execution is disabled).
    pub fn reset(&mut self, server: &mut Server) {
        let _ = self.dvfs.set_be_cap_ghz(server, None);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use heracles_hw::ServerConfig;

    fn setup() -> (Server, PowerController) {
        let server = Server::new(ServerConfig::default_haswell());
        let ctl = PowerController::new(&server);
        (server, ctl)
    }

    fn counters(power_frac: f64, lc_ghz: f64) -> CounterSnapshot {
        CounterSnapshot {
            package_power_w: power_frac * 290.0,
            tdp_w: 290.0,
            lc_freq_ghz: lc_ghz,
            be_freq_ghz: 2.0,
            ..CounterSnapshot::default()
        }
    }

    #[test]
    fn lowers_be_when_power_capped_and_lc_slow() {
        let (mut server, mut ctl) = setup();
        let before = server.allocations().be_freq_cap_ghz();
        ctl.tick(&mut server, &counters(0.96, 2.0));
        let after = server.allocations().be_freq_cap_ghz().unwrap();
        assert!(before.is_none() || after < before.unwrap());
        // Repeated pressure keeps lowering towards the minimum.
        for _ in 0..40 {
            ctl.tick(&mut server, &counters(0.96, 2.0));
        }
        assert!((server.allocations().be_freq_cap_ghz().unwrap() - 1.2).abs() < 1e-9);
    }

    #[test]
    fn raises_be_when_headroom_and_lc_fast() {
        let (mut server, mut ctl) = setup();
        ctl.dvfs.set_be_cap_ghz(&mut server, Some(1.2)).unwrap();
        ctl.tick(&mut server, &counters(0.5, 2.4));
        assert!(server.allocations().be_freq_cap_ghz().unwrap() > 1.2);
    }

    #[test]
    fn mixed_signals_take_no_action() {
        let (mut server, mut ctl) = setup();
        ctl.dvfs.set_be_cap_ghz(&mut server, Some(2.0)).unwrap();
        // Near TDP but LC already at guaranteed frequency: do nothing.
        ctl.tick(&mut server, &counters(0.95, 2.35));
        assert_eq!(server.allocations().be_freq_cap_ghz(), Some(2.0));
        // Headroom but LC below guaranteed (e.g. active-idle): do nothing.
        ctl.tick(&mut server, &counters(0.5, 1.8));
        assert_eq!(server.allocations().be_freq_cap_ghz(), Some(2.0));
    }

    #[test]
    fn reset_clears_the_cap() {
        let (mut server, mut ctl) = setup();
        ctl.tick(&mut server, &counters(0.96, 2.0));
        assert!(server.allocations().be_freq_cap_ghz().is_some());
        ctl.reset(&mut server);
        assert!(server.allocations().be_freq_cap_ghz().is_none());
    }
}
