//! CPU power, Turbo and per-core DVFS model.
//!
//! Modern chips opportunistically raise frequency above nominal when there is
//! power headroom (Turbo Boost) and share a single package power budget (TDP)
//! across all cores.  A power-hungry best-effort task therefore steals Turbo
//! headroom from the latency-critical cores.  The model reproduces that
//! coupling: given how many cores of each class are active, how intense their
//! activity is, and any per-core DVFS cap imposed on the best-effort cores, it
//! finds the highest frequency the package can sustain within TDP and reports
//! the resulting per-class frequencies and RAPL-visible package power.

use serde::{Deserialize, Serialize};

use crate::config::{turbo_limit_ghz, ServerConfig};

/// Frequencies and power resulting from the package power budget.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PowerOutcome {
    /// Frequency of the cores running the latency-critical workload, in GHz.
    pub lc_freq_ghz: f64,
    /// Frequency of the cores running best-effort tasks, in GHz.
    pub be_freq_ghz: f64,
    /// The Turbo limit for the current number of active cores, in GHz.
    pub turbo_limit_ghz: f64,
    /// Total package power across sockets, in watts (what RAPL reports).
    pub package_power_w: f64,
    /// Total TDP across sockets, in watts.
    pub tdp_w: f64,
}

impl PowerOutcome {
    /// Package power as a fraction of TDP.
    pub fn power_fraction(&self) -> f64 {
        if self.tdp_w > 0.0 {
            self.package_power_w / self.tdp_w
        } else {
            0.0
        }
    }
}

/// The package power / frequency model.
///
/// # Example
///
/// ```
/// use heracles_hw::{PowerModel, ServerConfig};
/// let power = PowerModel::new(&ServerConfig::default_haswell());
/// // LC alone on 12 cores gets Turbo headroom...
/// let alone = power.solve(12.0, 0.9, 0.0, 0.0, None);
/// // ...which a 24-core power virus takes away.
/// let contended = power.solve(12.0, 0.9, 24.0, 1.3, None);
/// assert!(contended.lc_freq_ghz < alone.lc_freq_ghz);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PowerModel {
    nominal_ghz: f64,
    min_ghz: f64,
    max_turbo_ghz: f64,
    step_ghz: f64,
    idle_w: f64,
    core_dyn_w_nominal: f64,
    exponent: f64,
    tdp_w: f64,
    total_cores: usize,
}

impl PowerModel {
    /// Creates the power model for a server.
    pub fn new(config: &ServerConfig) -> Self {
        PowerModel {
            nominal_ghz: config.nominal_freq_ghz,
            min_ghz: config.min_freq_ghz,
            max_turbo_ghz: config.max_turbo_freq_ghz,
            step_ghz: config.freq_step_ghz,
            idle_w: config.idle_w(),
            core_dyn_w_nominal: config.core_dyn_w_nominal,
            exponent: config.freq_power_exponent,
            tdp_w: config.tdp_w(),
            total_cores: config.total_cores(),
        }
    }

    /// Nominal (guaranteed) frequency in GHz.
    pub fn nominal_ghz(&self) -> f64 {
        self.nominal_ghz
    }

    /// Minimum DVFS frequency in GHz.
    pub fn min_ghz(&self) -> f64 {
        self.min_ghz
    }

    /// Total package TDP in watts.
    pub fn tdp_w(&self) -> f64 {
        self.tdp_w
    }

    /// Dynamic power of `cores` cores with `activity` running at `freq_ghz`.
    fn dynamic_power(&self, cores: f64, activity: f64, freq_ghz: f64) -> f64 {
        if cores <= 0.0 || activity <= 0.0 {
            return 0.0;
        }
        cores
            * activity
            * self.core_dyn_w_nominal
            * (freq_ghz / self.nominal_ghz).powf(self.exponent)
    }

    /// Total package power for a candidate chip frequency, respecting the
    /// best-effort DVFS cap.
    fn package_power(
        &self,
        freq_ghz: f64,
        lc_cores: f64,
        lc_activity: f64,
        be_cores: f64,
        be_activity: f64,
        be_cap_ghz: Option<f64>,
    ) -> f64 {
        let be_freq = be_cap_ghz.map_or(freq_ghz, |cap| cap.min(freq_ghz)).max(self.min_ghz);
        self.idle_w
            + self.dynamic_power(lc_cores, lc_activity, freq_ghz)
            + self.dynamic_power(be_cores, be_activity, be_freq)
    }

    /// Finds the frequencies the package settles at.
    ///
    /// `lc_cores` / `be_cores` are the number of *active* cores of each class
    /// (fractional values express partial activity), `*_activity` is the
    /// per-core activity factor (1.0 ≈ a fully busy integer-heavy core; a
    /// power virus exceeds 1.0), and `be_cap_ghz` is the per-core DVFS limit
    /// the controller may have placed on the best-effort cores.
    pub fn solve(
        &self,
        lc_cores: f64,
        lc_activity: f64,
        be_cores: f64,
        be_activity: f64,
        be_cap_ghz: Option<f64>,
    ) -> PowerOutcome {
        self.solve_capped(lc_cores, lc_activity, be_cores, be_activity, be_cap_ghz, None)
    }

    /// [`solve`](PowerModel::solve) under an optional RAPL-style package
    /// power cap.
    ///
    /// The cap acts as an effective-TDP override: the frequency walk-down
    /// fits the package into `min(cap, TDP)` instead of TDP, lowering both
    /// classes' frequencies exactly as RAPL's power balancer would, and the
    /// reported package power is clipped at 105% of the cap (the same
    /// transient-overshoot allowance the uncapped model grants TDP).  A
    /// leaf capped at `c` watts therefore never reports more than
    /// `1.05 × c`, which is what lets a fleet coordinator turn a cluster
    /// watt budget into per-leaf caps with a provable sum bound.
    pub fn solve_capped(
        &self,
        lc_cores: f64,
        lc_activity: f64,
        be_cores: f64,
        be_activity: f64,
        be_cap_ghz: Option<f64>,
        package_cap_w: Option<f64>,
    ) -> PowerOutcome {
        let lc_cores = lc_cores.clamp(0.0, self.total_cores as f64);
        let be_cores = be_cores.clamp(0.0, self.total_cores as f64);
        let active = lc_cores + be_cores;
        let turbo_limit = turbo_limit_ghz(
            self.max_turbo_ghz,
            self.nominal_ghz,
            self.total_cores,
            active.max(1.0),
        );
        let budget = package_cap_w.map_or(self.tdp_w, |cap| cap.clamp(0.0, self.tdp_w));

        // Walk down from the Turbo limit in DVFS steps until the package fits
        // in the budget (this is what the hardware's power balancer converges
        // to).
        let mut freq = turbo_limit;
        let mut power =
            self.package_power(freq, lc_cores, lc_activity, be_cores, be_activity, be_cap_ghz);
        while power > budget && freq > self.min_ghz {
            freq = (freq - self.step_ghz).max(self.min_ghz);
            power =
                self.package_power(freq, lc_cores, lc_activity, be_cores, be_activity, be_cap_ghz);
        }
        // Snap to the DVFS step grid.
        freq = (freq / self.step_ghz).floor() * self.step_ghz;
        freq = freq.clamp(self.min_ghz, turbo_limit);
        let be_freq = be_cap_ghz.map_or(freq, |cap| cap.min(freq)).max(self.min_ghz);
        let power =
            self.package_power(freq, lc_cores, lc_activity, be_cores, be_activity, be_cap_ghz);

        PowerOutcome {
            lc_freq_ghz: freq,
            be_freq_ghz: if be_cores > 0.0 { be_freq } else { freq },
            turbo_limit_ghz: turbo_limit,
            package_power_w: power.min(budget * 1.05),
            tdp_w: self.tdp_w,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> PowerModel {
        PowerModel::new(&ServerConfig::default_haswell())
    }

    #[test]
    fn idle_package_stays_at_turbo() {
        let out = model().solve(1.0, 0.1, 0.0, 0.0, None);
        assert!(out.lc_freq_ghz > 3.0, "got {}", out.lc_freq_ghz);
        assert!(out.package_power_w < 60.0);
    }

    #[test]
    fn lightly_loaded_lc_gets_turbo() {
        let out = model().solve(8.0, 0.8, 0.0, 0.0, None);
        assert!(out.lc_freq_ghz > ServerConfig::default_haswell().nominal_freq_ghz);
    }

    #[test]
    fn power_virus_steals_turbo_headroom() {
        let m = model();
        let alone = m.solve(12.0, 0.9, 0.0, 0.0, None);
        let contended = m.solve(12.0, 0.9, 24.0, 1.3, None);
        assert!(contended.lc_freq_ghz < alone.lc_freq_ghz);
        assert!(contended.package_power_w >= alone.package_power_w);
    }

    #[test]
    fn dvfs_cap_on_be_restores_lc_frequency() {
        let m = model();
        let uncapped = m.solve(12.0, 0.9, 24.0, 1.3, None);
        let capped = m.solve(12.0, 0.9, 24.0, 1.3, Some(m.min_ghz()));
        assert!(capped.lc_freq_ghz >= uncapped.lc_freq_ghz);
        assert!(capped.be_freq_ghz <= uncapped.be_freq_ghz);
        assert!((capped.be_freq_ghz - m.min_ghz()).abs() < 1e-9);
    }

    #[test]
    fn package_power_never_wildly_exceeds_tdp() {
        let out = model().solve(36.0, 1.3, 0.0, 0.0, None);
        assert!(out.package_power_w <= out.tdp_w * 1.05 + 1e-9);
    }

    #[test]
    fn frequencies_respect_bounds() {
        let m = model();
        for be_cores in [0.0, 8.0, 24.0, 36.0] {
            let out = m.solve(10.0, 1.0, be_cores, 1.3, Some(1.5));
            assert!(out.lc_freq_ghz >= m.min_ghz() - 1e-9);
            assert!(out.lc_freq_ghz <= out.turbo_limit_ghz + 1e-9);
            assert!(out.be_freq_ghz <= out.lc_freq_ghz + 1e-9);
        }
    }

    #[test]
    fn package_cap_acts_as_an_effective_tdp() {
        let m = model();
        let uncapped = m.solve(36.0, 1.0, 0.0, 0.0, None);
        let capped = m.solve_capped(36.0, 1.0, 0.0, 0.0, None, Some(120.0));
        assert!(capped.package_power_w <= 120.0 * 1.05 + 1e-9, "{}", capped.package_power_w);
        assert!(capped.lc_freq_ghz <= uncapped.lc_freq_ghz);
        // No cap is exactly the uncapped solve — bit-identical.
        let unchanged = m.solve_capped(12.0, 0.9, 24.0, 1.3, None, None);
        assert_eq!(unchanged, m.solve(12.0, 0.9, 24.0, 1.3, None));
        // A cap above TDP is inert.
        let inert = m.solve_capped(12.0, 0.9, 24.0, 1.3, None, Some(1e6));
        assert_eq!(inert, m.solve(12.0, 0.9, 24.0, 1.3, None));
    }

    #[test]
    fn power_fraction_is_well_defined() {
        let out = model().solve(18.0, 1.0, 18.0, 1.0, None);
        assert!(out.power_fraction() > 0.3 && out.power_fraction() <= 1.05);
    }
}
