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

use crate::config::ServerConfig;

/// Frequencies and power resulting from the package power budget.
#[derive(Debug, PartialEq)]
pub(crate) struct PowerOutcome {
    /// Frequency of the cores running the latency-critical workload, in GHz.
    pub(crate) lc_freq_ghz: f64,
    /// Frequency of the cores running best-effort tasks, in GHz.
    pub(crate) be_freq_ghz: f64,
    /// The Turbo limit for the current number of active cores, in GHz.
    pub(crate) turbo_limit_ghz: f64,
    /// Total package power across sockets, in watts (what RAPL reports).
    pub(crate) package_power_w: f64,
}

/// Finds the frequencies `config`'s package settles at.
///
/// `lc_cores` / `be_cores` are the number of *active* cores of each class
/// (fractional values express partial activity), `*_activity` is the
/// per-core activity factor (1.0 ≈ a fully busy integer-heavy core; a
/// power virus exceeds 1.0), `be_cap_ghz` is the per-core DVFS limit
/// the controller may have placed on the best-effort cores, and
/// `package_cap_w` is an optional RAPL-style package power cap.
///
/// The package cap acts as an effective-TDP override: the frequency
/// walk-down fits the package into `min(cap, TDP)` instead of TDP,
/// lowering both classes' frequencies exactly as RAPL's power balancer
/// would, and the reported package power is clipped at 105% of the cap
/// (the same transient-overshoot allowance the uncapped model grants TDP).  A
/// leaf capped at `c` watts therefore never reports more than
/// `1.05 × c`, which is what lets a fleet coordinator turn a cluster
/// watt budget into per-leaf caps with a provable sum bound.
pub(crate) fn solve(
    config: &ServerConfig,
    lc_cores: f64,
    lc_activity: f64,
    be_cores: f64,
    be_activity: f64,
    be_cap_ghz: Option<f64>,
    package_cap_w: Option<f64>,
) -> PowerOutcome {
    let min_ghz = config.min_freq_ghz;
    let step_ghz = config.freq_step_ghz;
    let lc_cores = lc_cores.clamp(0.0, config.total_cores() as f64);
    let be_cores = be_cores.clamp(0.0, config.total_cores() as f64);
    let active = lc_cores + be_cores;
    let turbo_limit = config.turbo_limit_ghz(active.max(1.0));
    let idle_w = config.idle_w();
    let tdp_w = config.tdp_w();
    let budget = package_cap_w.map_or(tdp_w, |cap| cap.clamp(0.0, tdp_w));

    // Dynamic power of `cores` cores with `activity` running at `freq_ghz`.
    let dynamic_power = |cores: f64, activity: f64, freq_ghz: f64| {
        if cores <= 0.0 || activity <= 0.0 {
            return 0.0;
        }
        cores
            * activity
            * config.core_dyn_w_nominal
            * (freq_ghz / config.nominal_freq_ghz).powf(config.freq_power_exponent)
    };
    let be_freq_at =
        |freq_ghz: f64| be_cap_ghz.map_or(freq_ghz, |cap| cap.min(freq_ghz)).max(min_ghz);
    // Total package power at a candidate chip frequency, respecting the
    // best-effort DVFS cap.
    let package_power = |freq_ghz: f64| {
        idle_w
            + dynamic_power(lc_cores, lc_activity, freq_ghz)
            + dynamic_power(be_cores, be_activity, be_freq_at(freq_ghz))
    };

    // Walk down from the Turbo limit in DVFS steps until the package fits
    // in the budget (this is what the hardware's power balancer converges
    // to).
    let mut freq = turbo_limit;
    let mut power = package_power(freq);
    while power > budget && freq > min_ghz {
        freq = (freq - step_ghz).max(min_ghz);
        power = package_power(freq);
    }
    // Snap to the DVFS step grid.
    freq = (freq / step_ghz).floor() * step_ghz;
    freq = freq.clamp(min_ghz, turbo_limit);

    PowerOutcome {
        lc_freq_ghz: freq,
        be_freq_ghz: if be_cores > 0.0 { be_freq_at(freq) } else { freq },
        turbo_limit_ghz: turbo_limit,
        package_power_w: package_power(freq).min(budget * 1.05),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn haswell() -> ServerConfig {
        ServerConfig::default_haswell()
    }

    fn solve(
        lc_cores: f64,
        lc_activity: f64,
        be_cores: f64,
        be_activity: f64,
        be_cap_ghz: Option<f64>,
        package_cap_w: Option<f64>,
    ) -> PowerOutcome {
        super::solve(
            &haswell(),
            lc_cores,
            lc_activity,
            be_cores,
            be_activity,
            be_cap_ghz,
            package_cap_w,
        )
    }

    #[test]
    fn idle_package_stays_at_turbo() {
        let out = solve(1.0, 0.1, 0.0, 0.0, None, None);
        assert!(out.lc_freq_ghz > 3.0, "got {}", out.lc_freq_ghz);
        assert!(out.package_power_w < 60.0);
    }

    #[test]
    fn lightly_loaded_lc_gets_turbo() {
        let out = solve(8.0, 0.8, 0.0, 0.0, None, None);
        assert!(out.lc_freq_ghz > haswell().nominal_freq_ghz);
    }

    #[test]
    fn power_virus_steals_turbo_headroom() {
        let alone = solve(12.0, 0.9, 0.0, 0.0, None, None);
        let contended = solve(12.0, 0.9, 24.0, 1.3, None, None);
        assert!(contended.lc_freq_ghz < alone.lc_freq_ghz);
        assert!(contended.package_power_w >= alone.package_power_w);
    }

    #[test]
    fn dvfs_cap_on_be_restores_lc_frequency() {
        let uncapped = solve(12.0, 0.9, 24.0, 1.3, None, None);
        let capped = solve(12.0, 0.9, 24.0, 1.3, Some(haswell().min_freq_ghz), None);
        assert!(capped.lc_freq_ghz >= uncapped.lc_freq_ghz);
        assert!(capped.be_freq_ghz <= uncapped.be_freq_ghz);
        assert!((capped.be_freq_ghz - haswell().min_freq_ghz).abs() < 1e-9);
    }

    #[test]
    fn package_power_never_wildly_exceeds_tdp() {
        let out = solve(36.0, 1.3, 0.0, 0.0, None, None);
        assert!(out.package_power_w <= haswell().tdp_w() * 1.05 + 1e-9);
    }

    #[test]
    fn frequencies_respect_bounds() {
        for be_cores in [0.0, 8.0, 24.0, 36.0] {
            let out = solve(10.0, 1.0, be_cores, 1.3, Some(1.5), None);
            assert!(out.lc_freq_ghz >= haswell().min_freq_ghz - 1e-9);
            assert!(out.lc_freq_ghz <= out.turbo_limit_ghz + 1e-9);
            assert!(out.be_freq_ghz <= out.lc_freq_ghz + 1e-9);
        }
    }

    #[test]
    fn package_cap_acts_as_an_effective_tdp() {
        let uncapped = solve(36.0, 1.0, 0.0, 0.0, None, None);
        let capped = solve(36.0, 1.0, 0.0, 0.0, None, Some(120.0));
        assert!(capped.package_power_w <= 120.0 * 1.05 + 1e-9, "{}", capped.package_power_w);
        assert!(capped.lc_freq_ghz <= uncapped.lc_freq_ghz);
        // A cap above TDP is inert.
        let inert = solve(12.0, 0.9, 24.0, 1.3, None, Some(1e6));
        assert_eq!(inert, solve(12.0, 0.9, 24.0, 1.3, None, None));
    }

    #[test]
    fn power_fraction_is_well_defined() {
        let out = solve(18.0, 1.0, 18.0, 1.0, None, None);
        let fraction = out.package_power_w / haswell().tdp_w();
        assert!(fraction > 0.3 && fraction <= 1.05);
    }
}
