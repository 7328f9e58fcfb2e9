//! NIC egress model with HTB-style traffic shaping.
//!
//! Within a server, network interference appears on the transmit side when
//! best-effort flows compete with the latency-critical service's responses
//! for the egress link.  Linux HTB (hierarchical token bucket) can cap the
//! total bandwidth of the best-effort class while leaving the LC class
//! unlimited.  Without shaping, the many small "mice" flows of a bandwidth
//! hungry BE task grab a proportional share of the link and the LC responses
//! queue behind them.

use serde::{Deserialize, Serialize};

use crate::config::ServerConfig;

/// Result of offering egress traffic to the NIC for one measurement window.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NetOutcome {
    /// Bandwidth achieved by the latency-critical class, in Gbps.
    pub lc_achieved_gbps: f64,
    /// Bandwidth achieved by the best-effort class, in Gbps.
    pub(crate) be_achieved_gbps: f64,
    /// Link utilization (achieved / line rate).
    pub(crate) utilization: f64,
    /// Extra per-response transmit delay experienced by the LC class, in
    /// seconds (queueing behind other traffic plus any backlog when the LC
    /// class itself cannot get its offered bandwidth).
    pub lc_extra_delay_s: f64,
}

/// The egress NIC.
///
/// The model holds only the link: the HTB ceiling in force is the
/// allocation's, passed to [`offer`](NicModel::offer) at each call.
///
/// # Example
///
/// ```
/// use heracles_hw::{NicModel, ServerConfig};
/// let nic = NicModel::new(&ServerConfig::default_haswell());
/// // Unshaped: an iperf-style antagonist starves the LC class.
/// let starved = nic.offer(6.0, 20.0, None);
/// // Shaped: cap the BE class and the LC class gets its bandwidth back.
/// let shaped = nic.offer(6.0, 20.0, Some(3.0));
/// assert!(shaped.lc_achieved_gbps > starved.lc_achieved_gbps);
/// assert!(shaped.lc_extra_delay_s < starved.lc_extra_delay_s);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NicModel {
    link_gbps: f64,
    mtu_bytes: f64,
}

impl NicModel {
    /// Creates the NIC model for a server.
    pub fn new(config: &ServerConfig) -> Self {
        NicModel { link_gbps: config.nic_gbps, mtu_bytes: config.nic_mtu_bytes }
    }

    /// The line rate in Gbps.
    pub(crate) fn link_gbps(&self) -> f64 {
        self.link_gbps
    }

    /// Serialization time of one MTU-sized transfer at line rate, in seconds.
    pub(crate) fn serialization_s(&self) -> f64 {
        self.mtu_bytes * 8.0 / (self.link_gbps * 1e9)
    }

    /// Offers egress demands from the two classes under the best-effort
    /// class's HTB ceiling `be_ceil_gbps` (`None` when unshaped, clamped to
    /// `[0, line rate]`) and computes what each achieves plus the
    /// transmit-queueing delay seen by LC responses.
    pub fn offer(
        &self,
        lc_offered_gbps: f64,
        be_offered_gbps: f64,
        be_ceil_gbps: Option<f64>,
    ) -> NetOutcome {
        let lc_offered = lc_offered_gbps.max(0.0);
        let be_offered = be_offered_gbps.max(0.0);
        let be_ceil = be_ceil_gbps.map(|c| c.clamp(0.0, self.link_gbps));
        // HTB ceiling applies before link contention.
        let be_shaped = match be_ceil {
            Some(ceil) => be_offered.min(ceil),
            None => be_offered,
        };
        let total = lc_offered + be_shaped;
        let (lc_achieved, be_achieved) = if total <= self.link_gbps || total == 0.0 {
            (lc_offered, be_shaped)
        } else if be_ceil.is_some() {
            // With shaping in place the LC class is effectively prioritised:
            // it takes what it needs and the BE class gets the remainder.
            let lc = lc_offered.min(self.link_gbps);
            (lc, (self.link_gbps - lc).max(0.0).min(be_shaped))
        } else {
            // Unshaped: per-flow fair sharing. The BE antagonist's many mice
            // flows give it a share proportional to its offered load.
            let scale = self.link_gbps / total;
            (lc_offered * scale, be_shaped * scale)
        };
        let utilization = ((lc_achieved + be_achieved) / self.link_gbps).clamp(0.0, 1.0);

        // Queueing delay for an LC response: M/G/1-style growth with link
        // utilization, plus a backlog penalty if the LC class is being denied
        // part of its offered bandwidth (its socket buffers then fill and
        // responses wait for multiple milliseconds).
        let ser = self.serialization_s();
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
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nic() -> NicModel {
        NicModel::new(&ServerConfig::default_haswell())
    }

    #[test]
    fn uncontended_traffic_is_fully_served() {
        let out = nic().offer(2.0, 3.0, None);
        assert_eq!(out.lc_achieved_gbps, 2.0);
        assert_eq!(out.be_achieved_gbps, 3.0);
        assert!(out.lc_extra_delay_s < 20e-6);
    }

    #[test]
    fn unshaped_antagonist_starves_lc() {
        let out = nic().offer(6.0, 30.0, None);
        assert!(out.lc_achieved_gbps < 6.0);
        assert!(out.lc_extra_delay_s > 1e-3, "delay {}", out.lc_extra_delay_s);
        assert!((out.utilization - 1.0).abs() < 1e-9);
    }

    #[test]
    fn htb_ceiling_protects_lc() {
        let out = nic().offer(6.0, 30.0, Some(3.0));
        assert_eq!(out.lc_achieved_gbps, 6.0);
        assert!(out.be_achieved_gbps <= 3.0 + 1e-9);
        assert!(out.lc_extra_delay_s < 1e-3);
    }

    #[test]
    fn ceiling_is_clamped_to_link_rate() {
        let nic = nic();
        assert_eq!(nic.offer(9.0, 30.0, Some(50.0)), nic.offer(9.0, 30.0, Some(10.0)));
        assert_eq!(nic.offer(9.0, 30.0, Some(-3.0)), nic.offer(9.0, 30.0, Some(0.0)));
        assert_eq!(nic.offer(9.0, 30.0, Some(-3.0)).be_achieved_gbps, 0.0);
    }

    #[test]
    fn shaped_overload_prioritises_lc() {
        let out = nic().offer(7.0, 20.0, Some(8.0));
        assert_eq!(out.lc_achieved_gbps, 7.0);
        assert!((out.be_achieved_gbps - 3.0).abs() < 1e-9);
    }

    #[test]
    fn zero_traffic_is_harmless() {
        let out = nic().offer(0.0, 0.0, None);
        assert_eq!(out.utilization, 0.0);
        assert!(out.lc_extra_delay_s < 1e-5);
    }

    #[test]
    fn serialization_time_is_microseconds_at_10g() {
        let s = nic().serialization_s();
        assert!(s > 0.5e-6 && s < 2e-6, "serialization {s}");
    }
}
