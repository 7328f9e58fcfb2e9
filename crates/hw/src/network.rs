//! NIC egress model with HTB-style traffic shaping.
//!
//! Within a server, network interference appears on the transmit side when
//! best-effort flows compete with the latency-critical service's responses
//! for the egress link.  Linux HTB (hierarchical token bucket) can cap the
//! total bandwidth of the best-effort class while leaving the LC class
//! unlimited.  Without shaping, the many small "mice" flows of a bandwidth
//! hungry BE task grab a proportional share of the link and the LC responses
//! queue behind them.

use crate::config::ServerConfig;

/// Result of offering egress traffic to the NIC for one measurement window.
#[derive(Debug, PartialEq)]
pub(crate) struct NetOutcome {
    /// Bandwidth achieved by the latency-critical class, in Gbps.
    pub(crate) lc_achieved_gbps: f64,
    /// Bandwidth achieved by the best-effort class, in Gbps.
    pub(crate) be_achieved_gbps: f64,
    /// Link utilization (achieved / line rate).
    pub(crate) utilization: f64,
    /// Extra per-response transmit delay experienced by the LC class, in
    /// seconds (queueing behind other traffic plus any backlog when the LC
    /// class itself cannot get its offered bandwidth).
    pub(crate) lc_extra_delay_s: f64,
}

/// Offers egress demands from the two classes to `config`'s NIC under the
/// best-effort class's HTB ceiling `be_ceil_gbps` (`None` when unshaped,
/// clamped to `[0, line rate]`) and computes what each achieves plus the
/// transmit-queueing delay seen by LC responses.  A validated
/// configuration's line rate is positive.
pub(crate) fn offer(
    config: &ServerConfig,
    lc_offered_gbps: f64,
    be_offered_gbps: f64,
    be_ceil_gbps: Option<f64>,
) -> NetOutcome {
    let link_gbps = config.nic_gbps;
    let lc_offered = lc_offered_gbps.max(0.0);
    let be_offered = be_offered_gbps.max(0.0);
    let be_ceil = be_ceil_gbps.map(|c| c.clamp(0.0, link_gbps));
    // HTB ceiling applies before link contention.
    let be_shaped = match be_ceil {
        Some(ceil) => be_offered.min(ceil),
        None => be_offered,
    };
    let total = lc_offered + be_shaped;
    let (lc_achieved, be_achieved) = if total <= link_gbps {
        (lc_offered, be_shaped)
    } else if be_ceil.is_some() {
        // With shaping in place the LC class is effectively prioritised:
        // it takes what it needs and the BE class gets the remainder.
        let lc = lc_offered.min(link_gbps);
        (lc, (link_gbps - lc).max(0.0).min(be_shaped))
    } else {
        // Unshaped: per-flow fair sharing. The BE antagonist's many mice
        // flows give it a share proportional to its offered load.
        let scale = link_gbps / total;
        (lc_offered * scale, be_shaped * scale)
    };
    let utilization = ((lc_achieved + be_achieved) / link_gbps).clamp(0.0, 1.0);

    // Queueing delay for an LC response: M/G/1-style growth with link
    // utilization, plus a backlog penalty if the LC class is being denied
    // part of its offered bandwidth (its socket buffers then fill and
    // responses wait for multiple milliseconds).
    let ser = serialization_s(config);
    let rho = utilization.min(0.99);
    let mut delay = ser * (1.0 + 2.0 * rho.powi(4) / (1.0 - rho));
    if lc_offered > 0.0 && lc_achieved < lc_offered * 0.999 {
        let shortfall = 1.0 - lc_achieved / lc_offered;
        delay += 0.002 + 0.010 * shortfall;
    }
    NetOutcome {
        lc_achieved_gbps: lc_achieved,
        be_achieved_gbps: be_achieved,
        utilization,
        lc_extra_delay_s: delay,
    }
}

/// Serialization time of one MTU-sized transfer at line rate, in seconds.
fn serialization_s(config: &ServerConfig) -> f64 {
    config.nic_mtu_bytes * 8.0 / (config.nic_gbps * 1e9)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn offer(lc_offered_gbps: f64, be_offered_gbps: f64, be_ceil: Option<f64>) -> NetOutcome {
        super::offer(&ServerConfig::default_haswell(), lc_offered_gbps, be_offered_gbps, be_ceil)
    }

    #[test]
    fn uncontended_traffic_is_fully_served() {
        let out = offer(2.0, 3.0, None);
        assert_eq!(out.lc_achieved_gbps, 2.0);
        assert_eq!(out.be_achieved_gbps, 3.0);
        assert!(out.lc_extra_delay_s < 20e-6);
    }

    #[test]
    fn unshaped_antagonist_starves_lc() {
        let out = offer(6.0, 30.0, None);
        assert!(out.lc_achieved_gbps < 6.0);
        assert!(out.lc_extra_delay_s > 1e-3, "delay {}", out.lc_extra_delay_s);
        assert!((out.utilization - 1.0).abs() < 1e-9);
    }

    #[test]
    fn htb_ceiling_protects_lc() {
        let out = offer(6.0, 30.0, Some(3.0));
        assert_eq!(out.lc_achieved_gbps, 6.0);
        assert!(out.be_achieved_gbps <= 3.0 + 1e-9);
        assert!(out.lc_extra_delay_s < 1e-3);
    }

    #[test]
    fn ceiling_is_clamped_to_link_rate() {
        assert_eq!(offer(9.0, 30.0, Some(50.0)), offer(9.0, 30.0, Some(10.0)));
        assert_eq!(offer(9.0, 30.0, Some(-3.0)), offer(9.0, 30.0, Some(0.0)));
        assert_eq!(offer(9.0, 30.0, Some(-3.0)).be_achieved_gbps, 0.0);
    }

    #[test]
    fn shaped_overload_prioritises_lc() {
        let out = offer(7.0, 20.0, Some(8.0));
        assert_eq!(out.lc_achieved_gbps, 7.0);
        assert!((out.be_achieved_gbps - 3.0).abs() < 1e-9);
    }

    #[test]
    fn zero_traffic_is_harmless() {
        let out = offer(0.0, 0.0, None);
        assert_eq!(out.utilization, 0.0);
        assert!(out.lc_extra_delay_s < 1e-5);
    }

    #[test]
    fn serialization_time_is_microseconds_at_10g() {
        let s = serialization_s(&ServerConfig::default_haswell());
        assert!(s > 0.5e-6 && s < 2e-6, "serialization {s}");
    }
}
