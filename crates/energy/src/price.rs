//! Time-of-day electricity pricing and the energy-plane configuration.

use serde::{Deserialize, Serialize};

/// Joules per kilowatt-hour.
const JOULES_PER_KWH: f64 = 3.6e6;

/// The hour-of-day (`[0, 24)`) a represented wall-clock time falls in.
///
/// Fleet steps represent `window_s × windows_per_step × time_compression`
/// seconds of wall time; feeding that cumulative represented time here maps
/// a simulated step onto the diurnal price curve.
pub fn hour_of_day(represented_seconds: f64) -> f64 {
    let h = (represented_seconds / 3600.0) % 24.0;
    if h < 0.0 {
        h + 24.0
    } else {
        h
    }
}

/// Converts metered joules into dollars at a $/kWh rate, grossed up by the
/// facility PUE (every IT joule drags `pue − 1` joules of cooling and
/// distribution overhead with it).
pub fn joules_to_dollars(joules: f64, per_kwh: f64, pue: f64) -> f64 {
    joules / JOULES_PER_KWH * per_kwh * pue
}

/// A deterministic time-of-day electricity price curve, in $/kWh.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum EnergyPriceSchedule {
    /// One price all day (the paper's TCO case study uses a flat
    /// $0.10/kWh).
    Flat {
        /// Price in $/kWh.
        per_kwh: f64,
    },
    /// A two-tier utility tariff: `peak_per_kwh` inside
    /// `[peak_start_hour, peak_end_hour)`, `offpeak_per_kwh` elsewhere.
    PeakOffpeak {
        /// Off-peak price in $/kWh.
        offpeak_per_kwh: f64,
        /// Peak price in $/kWh.
        peak_per_kwh: f64,
        /// First peak hour (inclusive, `0..24`).
        peak_start_hour: u32,
        /// Last peak hour (exclusive, `0..=24`).
        peak_end_hour: u32,
    },
    /// A carbon-intensity proxy curve: price (or carbon cost) is lowest
    /// when solar output peaks at midday and highest in the evening ramp.
    /// `price = base + premium × intensity(hour)` where the intensity is
    /// `1 − max(0, sin(π(hour − 6) / 12))` — 0 at solar noon, 1 all night.
    CarbonAware {
        /// Floor price in $/kWh at zero grid carbon intensity.
        base_per_kwh: f64,
        /// Additional $/kWh at full carbon intensity.
        premium_per_kwh: f64,
    },
}

impl EnergyPriceSchedule {
    /// The flat schedule matching the paper's $0.10/kWh TCO case study.
    pub(crate) fn paper_flat() -> Self {
        EnergyPriceSchedule::Flat { per_kwh: 0.10 }
    }

    /// A peak/off-peak tariff with the same 24h mean as
    /// `paper_flat`: $0.05 off-peak, $0.20 on-peak
    /// during the 8-hour business peak (hours 10–18).
    pub fn business_peak() -> Self {
        EnergyPriceSchedule::PeakOffpeak {
            offpeak_per_kwh: 0.05,
            peak_per_kwh: 0.20,
            peak_start_hour: 10,
            peak_end_hour: 18,
        }
    }

    /// The $/kWh price at an hour of day (`hour` taken modulo 24).
    pub fn price_at(&self, hour: f64) -> f64 {
        let hour = hour_of_day(hour * 3600.0);
        match *self {
            EnergyPriceSchedule::Flat { per_kwh } => per_kwh,
            EnergyPriceSchedule::PeakOffpeak {
                offpeak_per_kwh,
                peak_per_kwh,
                peak_start_hour,
                peak_end_hour,
            } => {
                let h = hour as u32;
                if h >= peak_start_hour && h < peak_end_hour {
                    peak_per_kwh
                } else {
                    offpeak_per_kwh
                }
            }
            EnergyPriceSchedule::CarbonAware { base_per_kwh, premium_per_kwh } => {
                let solar = (std::f64::consts::PI * (hour - 6.0) / 12.0).sin().max(0.0);
                base_per_kwh + premium_per_kwh * (1.0 - solar)
            }
        }
    }

    /// The schedule's mean price over the 24 hours, sampled hourly — the
    /// reference an energy-aware policy compares the current price against
    /// to call an hour "cheap" or "expensive".
    pub fn daily_mean(&self) -> f64 {
        (0..24).map(|h| self.price_at(h as f64 + 0.5)).sum::<f64>() / 24.0
    }
}

impl Default for EnergyPriceSchedule {
    fn default() -> Self {
        EnergyPriceSchedule::paper_flat()
    }
}

/// Configuration of the fleet energy plane.
///
/// Like `TelemetryConfig`, the default is everything off; metering is a
/// read-only shadow (bit-identical simulation on or off), while a power
/// cap is an explicit behavioral knob.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct EnergyConfig {
    /// Installs the [`EnergyMeter`](crate::EnergyMeter) ledgers
    /// (per-leaf / per-pool / fleet joules and dollars).
    pub metering: bool,
    /// The electricity price curve used to turn joules into dollars.
    pub price: EnergyPriceSchedule,
    /// Cluster-wide package power budget in watts.  When set, the
    /// [`PowerCapCoordinator`](crate::PowerCapCoordinator) distributes it
    /// into per-leaf RAPL caps every step.
    pub power_cap_w: Option<f64>,
}

impl EnergyConfig {
    /// Metering on, no cap: the read-only shadow configuration.
    pub fn metered() -> Self {
        EnergyConfig { metering: true, ..EnergyConfig::default() }
    }

    /// Metering on under a cluster watt budget.
    pub fn capped(budget_w: f64) -> Self {
        EnergyConfig { metering: true, power_cap_w: Some(budget_w), ..EnergyConfig::default() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hour_of_day_wraps_days() {
        assert_eq!(hour_of_day(0.0), 0.0);
        assert_eq!(hour_of_day(3600.0), 1.0);
        assert_eq!(hour_of_day(25.0 * 3600.0), 1.0);
        assert!((hour_of_day(-3600.0) - 23.0).abs() < 1e-12);
    }

    #[test]
    fn flat_price_matches_the_paper_case_study() {
        let p = EnergyPriceSchedule::paper_flat();
        for h in [0.0, 6.5, 12.0, 23.9] {
            assert_eq!(p.price_at(h), 0.10);
        }
        assert!((p.daily_mean() - 0.10).abs() < 1e-12);
    }

    #[test]
    fn peak_offpeak_steps_at_the_boundaries() {
        let p = EnergyPriceSchedule::business_peak();
        assert_eq!(p.price_at(9.9), 0.05);
        assert_eq!(p.price_at(10.0), 0.20);
        assert_eq!(p.price_at(17.9), 0.20);
        assert_eq!(p.price_at(18.0), 0.05);
        assert!((p.daily_mean() - 0.10).abs() < 1e-12);
    }

    #[test]
    fn carbon_curve_dips_at_solar_noon_and_peaks_at_night() {
        let p = EnergyPriceSchedule::CarbonAware { base_per_kwh: 0.05, premium_per_kwh: 0.10 };
        let noon = p.price_at(12.0);
        let night = p.price_at(0.0);
        assert!(noon < night, "noon {noon} night {night}");
        assert!((noon - 0.05).abs() < 1e-9);
        assert!((night - 0.15).abs() < 1e-9);
    }

    #[test]
    fn joules_to_dollars_applies_pue() {
        // 1 kWh of IT energy at $0.10/kWh and PUE 2.0 costs 20 cents.
        let d = joules_to_dollars(3.6e6, 0.10, 2.0);
        assert!((d - 0.20).abs() < 1e-12);
    }
}
