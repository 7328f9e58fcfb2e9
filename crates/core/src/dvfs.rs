//! The DVFS step of the BE cores' frequency cap, which the power
//! sub-controller takes one grid step at a time.

use heracles_hw::Server;

/// Moves the BE cores' DVFS cap one frequency step up or down, on the
/// step grid and within `[min_freq_ghz, max_turbo_freq_ghz]`.  No cap
/// counts as the maximum Turbo frequency.
pub(crate) fn step_be_cap(server: &mut Server, raise: bool) {
    let cfg = server.config();
    let (min, max, step) = (cfg.min_freq_ghz, cfg.max_turbo_freq_ghz, cfg.freq_step_ghz);
    let current = server.allocations().be_freq_cap_ghz().unwrap_or(max);
    let target = if raise { current + step } else { current - step };
    let next = ((target / step).round() * step).clamp(min, max);
    server.allocations_mut().set_be_freq_cap_ghz(Some(next));
}

#[cfg(test)]
mod tests {
    use super::*;
    use heracles_hw::ServerConfig;

    fn server() -> Server {
        Server::new(ServerConfig::default_haswell())
    }

    fn cap(server: &Server) -> f64 {
        server.allocations().be_freq_cap_ghz().unwrap()
    }

    #[test]
    fn lower_walks_down_to_minimum() {
        let mut s = server();
        let mut last = s.config().max_turbo_freq_ghz;
        for _ in 0..40 {
            step_be_cap(&mut s, false);
            let next = cap(&s);
            assert!(next <= last + 1e-9);
            last = next;
        }
        assert!((last - 1.2).abs() < 1e-9);
    }

    #[test]
    fn raise_walks_back_up_to_turbo() {
        let mut s = server();
        s.allocations_mut().set_be_freq_cap_ghz(Some(1.2));
        for _ in 0..40 {
            step_be_cap(&mut s, true);
        }
        assert!((cap(&s) - 3.3).abs() < 1e-9);
    }
}
