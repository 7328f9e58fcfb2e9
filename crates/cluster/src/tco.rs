//! Total cost of ownership model (Barroso et al. calculator, low per-server
//! cost case study).
//!
//! The paper's parameters: $2000 servers, PUE of 2.0, 500 W peak server
//! power, $0.10/kWh electricity, a 10,000-server cluster.  Throughput is
//! proportional to achieved utilization; raising utilization raises the power
//! bill but none of the capital costs, so throughput/TCO improves.

/// Power usage effectiveness of the paper's case-study datacenter: every IT
/// joule drags one more joule of cooling and distribution with it.  The TCO
/// model and the fleet's energy billing both charge at this one value.
pub const FACILITY_PUE: f64 = 2.0;

/// The TCO calculator.
///
/// # Example
///
/// ```
/// use heracles_cluster::TcoModel;
/// let tco = TcoModel::paper_case_study();
/// // Raising a 75%-utilized cluster to 90% improves throughput/TCO by ~15%.
/// let gain = tco.throughput_per_tco_improvement(0.75, 0.90);
/// assert!(gain > 0.10 && gain < 0.25);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TcoModel {
    /// Purchase cost of one server, in dollars.
    pub server_capex: f64,
    /// Server amortization period, in years.
    pub server_lifetime_years: f64,
    /// Datacenter infrastructure cost attributable to one server, in dollars.
    pub infra_capex_per_server: f64,
    /// Infrastructure amortization period, in years.
    pub infra_lifetime_years: f64,
    /// Power usage effectiveness of the facility.
    pub pue: f64,
    /// Peak power draw of one server, in watts.
    pub peak_power_w: f64,
    /// Idle power as a fraction of peak (servers are not energy proportional).
    pub idle_power_fraction: f64,
    /// Electricity price, in dollars per kWh.
    pub electricity_per_kwh: f64,
    /// Number of servers in the cluster.
    pub cluster_servers: usize,
}

impl TcoModel {
    /// The parameters of the paper's case study (§5.3).
    pub fn paper_case_study() -> Self {
        TcoModel {
            server_capex: 2_000.0,
            server_lifetime_years: 3.0,
            infra_capex_per_server: 1_500.0,
            infra_lifetime_years: 12.0,
            pue: FACILITY_PUE,
            peak_power_w: 500.0,
            idle_power_fraction: 0.50,
            electricity_per_kwh: 0.10,
            cluster_servers: 10_000,
        }
    }

    /// Annual capital cost per server (server plus infrastructure
    /// amortization), in dollars.
    pub fn annual_capex_per_server(&self) -> f64 {
        self.server_capex / self.server_lifetime_years
            + self.infra_capex_per_server / self.infra_lifetime_years
    }

    /// Average server power draw at a given utilization, in watts.
    pub(crate) fn server_power_w(&self, utilization: f64) -> f64 {
        let u = utilization.clamp(0.0, 1.0);
        let idle = self.idle_power_fraction * self.peak_power_w;
        idle + (self.peak_power_w - idle) * u
    }

    /// Annual energy cost per server at a given utilization, in dollars.
    pub fn annual_energy_per_server(&self, utilization: f64) -> f64 {
        let kw = self.server_power_w(utilization) * self.pue / 1_000.0;
        kw * 8_760.0 * self.electricity_per_kwh
    }

    /// Annual TCO per server at a given utilization, in dollars.
    pub(crate) fn annual_tco_per_server(&self, utilization: f64) -> f64 {
        self.annual_capex_per_server() + self.annual_energy_per_server(utilization)
    }

    /// Annual TCO for the whole cluster, in dollars.
    pub fn annual_tco_cluster(&self, utilization: f64) -> f64 {
        self.annual_tco_per_server(utilization) * self.cluster_servers as f64
    }

    /// Throughput per TCO dollar at a given utilization (throughput is
    /// proportional to utilization).
    pub(crate) fn throughput_per_tco(&self, utilization: f64) -> f64 {
        utilization.clamp(0.0, 2.0) / self.annual_tco_per_server(utilization.clamp(0.0, 1.0))
    }

    /// Relative throughput/TCO improvement from raising utilization from
    /// `from` to `to` (0.15 = +15%).
    pub fn throughput_per_tco_improvement(&self, from: f64, to: f64) -> f64 {
        self.throughput_per_tco(to) / self.throughput_per_tco(from) - 1.0
    }

    /// Relative throughput/TCO improvement achievable by an
    /// energy-proportionality controller alone: it cannot raise throughput,
    /// it only recovers a fraction of the energy wasted at idle.
    ///
    /// `savings_fraction` is how much of the idle-power waste the controller
    /// recovers (PEGASUS-style controllers recover roughly a third).
    pub fn energy_proportionality_improvement(
        &self,
        utilization: f64,
        savings_fraction: f64,
    ) -> f64 {
        let u = utilization.clamp(0.0, 1.0);
        let waste_w = (self.server_power_w(u) - self.peak_power_w * u.max(0.05)).max(0.0);
        let saved_w = waste_w * savings_fraction.clamp(0.0, 1.0);
        let saved_annual = saved_w * self.pue / 1_000.0 * 8_760.0 * self.electricity_per_kwh;
        let before = self.annual_tco_per_server(u);
        before / (before - saved_annual) - 1.0
    }
}

impl Default for TcoModel {
    fn default() -> Self {
        Self::paper_case_study()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn power_model_endpoints() {
        let tco = TcoModel::paper_case_study();
        assert_eq!(tco.server_power_w(0.0), 250.0);
        assert_eq!(tco.server_power_w(1.0), 500.0);
        assert!(tco.server_power_w(0.5) > 250.0 && tco.server_power_w(0.5) < 500.0);
    }

    #[test]
    fn higher_utilization_costs_more_but_yields_more() {
        let tco = TcoModel::paper_case_study();
        assert!(tco.annual_tco_per_server(0.9) > tco.annual_tco_per_server(0.2));
        assert!(tco.throughput_per_tco(0.9) > tco.throughput_per_tco(0.2));
    }

    #[test]
    fn paper_headline_numbers_hold() {
        let tco = TcoModel::paper_case_study();
        // ~15% gain when a 75%-utilized cluster reaches 90% (paper: 15%).
        let high = tco.throughput_per_tco_improvement(0.75, 0.90);
        assert!((0.10..=0.22).contains(&high), "got {high:.3}");
        // Several-fold gain when a 20%-utilized cluster reaches 90%
        // (paper: ~300%).
        let low = tco.throughput_per_tco_improvement(0.20, 0.90);
        assert!((2.5..=4.0).contains(&low), "got {low:.3}");
        // Energy proportionality alone is far less effective (paper: ~3% at
        // high utilization, <7% at low utilization).
        let ep_high = tco.energy_proportionality_improvement(0.75, 0.35);
        let ep_low = tco.energy_proportionality_improvement(0.20, 0.35);
        assert!(ep_high < 0.07, "got {ep_high:.3}");
        assert!(ep_low < 0.12, "got {ep_low:.3}");
        assert!(ep_low > ep_high);
        assert!(low > 10.0 * ep_low);
    }

    #[test]
    fn cluster_tco_scales_with_size() {
        let tco = TcoModel::paper_case_study();
        let per_server = tco.annual_tco_per_server(0.5);
        assert!((tco.annual_tco_cluster(0.5) - per_server * 10_000.0).abs() < 1e-6);
    }

    #[test]
    fn improvement_is_zero_for_no_change() {
        let tco = TcoModel::paper_case_study();
        assert!(tco.throughput_per_tco_improvement(0.6, 0.6).abs() < 1e-12);
    }
}
