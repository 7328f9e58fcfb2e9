//! Telemetry configuration.

/// How much telemetry a run collects.
///
/// The default is fully disabled: components hold no trace logs, the fleet
/// holds no recorder, and the hot paths skip every telemetry branch with one
/// `Option` check.  `FleetConfig` embeds this struct, so every existing
/// construction site (`..FleetConfig::default()`) stays untraced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TelemetryConfig {
    /// Master switch: when false no events or metrics are collected
    /// anywhere.
    pub enabled: bool,
    /// Flight-recorder capacity in events; the oldest events are dropped
    /// (and counted) once the ring is full.
    pub trace_capacity: usize,
    /// Online health plane: per-cell quantile sketches and the burn-rate
    /// alert engine.  Requires `enabled` (the plane's events flow through
    /// the flight recorder).
    pub health: bool,
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        TelemetryConfig { enabled: false, trace_capacity: 1 << 16, health: false }
    }
}

impl TelemetryConfig {
    /// Telemetry on with the default ring capacity.
    pub fn enabled() -> Self {
        TelemetryConfig { enabled: true, ..TelemetryConfig::default() }
    }

    /// Telemetry on with the health plane observing.
    pub fn with_health() -> Self {
        TelemetryConfig { enabled: true, health: true, ..TelemetryConfig::default() }
    }

    /// Checks the configuration is internally consistent.
    pub fn validate(&self) -> Result<(), String> {
        if self.enabled && self.trace_capacity == 0 {
            return Err("telemetry.trace_capacity must be positive when enabled".into());
        }
        if self.health && !self.enabled {
            return Err("telemetry.health requires telemetry.enabled".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_disabled_and_valid() {
        let cfg = TelemetryConfig::default();
        assert!(!cfg.enabled);
        cfg.validate().unwrap();
        TelemetryConfig::enabled().validate().unwrap();
    }

    #[test]
    fn zero_capacity_is_rejected_only_when_enabled() {
        let cfg =
            TelemetryConfig { enabled: true, trace_capacity: 0, ..TelemetryConfig::default() };
        assert!(cfg.validate().is_err());
        let off =
            TelemetryConfig { enabled: false, trace_capacity: 0, ..TelemetryConfig::default() };
        off.validate().unwrap();
    }

    #[test]
    fn health_requires_the_master_switch() {
        TelemetryConfig::with_health().validate().unwrap();
        let orphan = TelemetryConfig { health: true, ..TelemetryConfig::default() };
        assert!(orphan.validate().is_err());
    }
}
