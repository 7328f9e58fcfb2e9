//! `LcWorkload::simulate_window`, pinned bit for bit.
//!
//! A leaf's every window is one `simulate_window` call, so its exact bits
//! are what the fleet digests and figures rest on.  This test sweeps all
//! three LC services × loads × serving cores × network delays, each without
//! and with a per-request extra delay drawn from the same generator (the
//! OS-only baseline's CFS interference path).  It folds every latency's
//! bits, the window's QPS and the generator's next uniform into one FNV-1a
//! digest; change it only for a deliberate change to the simulation.

use heracles_hw::{ContentionOutcome, Server, ServerConfig};
use heracles_sim::SimRng;
use heracles_workloads::LcWorkload;

/// FNV-1a 64 step over one `u64` word (little-endian bytes).
fn fnv1a_word(hash: u64, word: u64) -> u64 {
    word.to_le_bytes().iter().fold(hash, |h, &b| (h ^ b as u64).wrapping_mul(0x0100_0000_01b3))
}

const LOADS: [f64; 5] = [0.05, 0.3, 0.6, 0.9, 1.1];
const CORES: [usize; 5] = [1, 4, 12, 24, 36];
const NET_DELAYS_S: [f64; 2] = [0.0, 0.0007];
const REQUESTS: usize = 1200;

/// A CFS-like scheduling delay: most requests none, some a log-normal
/// timeslice wait.
fn cfs_like(rng: &mut SimRng) -> f64 {
    if rng.chance(0.2) {
        rng.lognormal(0.004, 1.2)
    } else {
        0.0
    }
}

#[test]
fn simulate_window_matches_recorded_digest() {
    let config = ServerConfig::default_haswell();
    let server = Server::new(config.clone());
    let mut digest = 0xcbf2_9ce4_8422_2325_u64;
    let mut windows = 0;
    for (index, lc) in [LcWorkload::websearch(), LcWorkload::ml_cluster(), LcWorkload::memkeyval()]
        .iter()
        .enumerate()
    {
        for load in LOADS {
            let cache = server.cache_split(lc.footprint_mb(load, &config), 0.0);
            let demand = lc.demand(load, config.total_cores(), cache.lc_mb, &config);
            let evaluated = server.evaluate(&demand);
            for cores in CORES {
                for net in NET_DELAYS_S {
                    let outcome = ContentionOutcome { lc_net_extra_delay_s: net, ..evaluated };
                    for with_extra in [false, true] {
                        let mut rng = SimRng::new(7 + index as u64 * 101 + cores as u64);
                        let mut extra = cfs_like;
                        let extra_opt: Option<&mut dyn FnMut(&mut SimRng) -> f64> =
                            if with_extra { Some(&mut extra) } else { None };
                        let window = lc.simulate_window(
                            &mut rng, load, cores, &outcome, &config, REQUESTS, extra_opt,
                        );
                        digest = fnv1a_word(digest, window.qps.to_bits());
                        digest = fnv1a_word(digest, window.latencies.len() as u64);
                        for sample in window.latencies.samples() {
                            digest = fnv1a_word(digest, sample.to_bits());
                        }
                        digest = fnv1a_word(digest, rng.uniform().to_bits());
                        windows += 1;
                    }
                }
            }
        }
    }
    assert_eq!(windows, 300);
    assert_eq!(digest, RECORDED_DIGEST, "got {digest:#018x}");
}

const RECORDED_DIGEST: u64 = 0xc584_c0ee_d649_d6ea;
