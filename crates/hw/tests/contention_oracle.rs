//! The contention model's outputs, pinned bit for bit.
//!
//! `Server::cache_split` and `Server::evaluate` turn an allocation and the
//! offered demands into every effective resource a leaf sees, so every fleet
//! digest and figure depends on their exact bits.  This test sweeps them over
//! each hardware generation × every CAT way split `set_cat` can be asked for
//! (out-of-range requests included, so the clamps are covered) and CAT off ×
//! HTB ceilings {none, 0, half the link, twice the link} × package caps
//! {none, below TDP} × DVFS caps {none, 1.6 GHz} × core sharing on and off ×
//! a handful of demands, and folds every result's bits into one FNV-1a
//! digest.  A second digest folds the counters `Server::counters` reports
//! for each outcome, which add the machine's DRAM peak, TDP and line rate.
//! A change to how the models read the allocation or the configuration
//! must reproduce both; change them only for a deliberate model change.

use heracles_hw::{ContentionOutcome, CounterSnapshot, ResourceDemand, Server, ServerConfig};

/// FNV-1a 64 step over one `u64` word (little-endian bytes).
fn fnv1a_word(hash: u64, word: u64) -> u64 {
    word.to_le_bytes().iter().fold(hash, |h, &b| (h ^ b as u64).wrapping_mul(0x0100_0000_01b3))
}

/// Demands that exercise each model: idle, a mixed colocation, a cache and
/// DRAM streamer, a network antagonist, and a HyperThread antagonist.
fn demands(config: &ServerConfig) -> Vec<ResourceDemand> {
    let half = config.total_cores() as f64 / 2.0;
    let mixed = ResourceDemand {
        lc_active_cores: half * 0.7,
        lc_compute_activity: 0.8,
        lc_dram_gbps: 20.0,
        lc_llc_footprint_mb: 30.0,
        lc_net_gbps: 0.5,
        be_active_cores: half,
        be_compute_activity: 1.0,
        be_dram_gbps_per_core: 2.0,
        be_llc_footprint_mb: 40.0,
        be_net_offered_gbps: 0.0,
        smt_antagonist_intensity: 0.0,
    };
    vec![
        ResourceDemand::default(),
        mixed,
        ResourceDemand {
            be_compute_activity: 1.3,
            be_dram_gbps_per_core: 9.0,
            be_llc_footprint_mb: 400.0,
            ..mixed
        },
        ResourceDemand {
            lc_net_gbps: config.nic_gbps * 0.6,
            be_net_offered_gbps: config.nic_gbps * 3.0,
            be_active_cores: 1.0,
            ..mixed
        },
        ResourceDemand { smt_antagonist_intensity: 0.7, be_active_cores: half * 1.5, ..mixed },
    ]
}

fn fold_outcome(digest: u64, out: &ContentionOutcome) -> u64 {
    [
        out.lc_freq_ghz,
        out.be_freq_ghz,
        out.turbo_limit_ghz,
        out.package_power_w,
        out.lc_cache_mb,
        out.be_cache_mb,
        out.dram_demand_ratio,
        out.dram_achieved_gbps,
        out.lc_dram_achieved_gbps,
        out.be_dram_achieved_gbps,
        out.mem_latency_multiplier,
        out.lc_net_achieved_gbps,
        out.be_net_achieved_gbps,
        out.net_utilization,
        out.lc_net_extra_delay_s,
        out.smt_slowdown,
        out.cpu_utilization,
        out.lc_pool_utilization,
    ]
    .iter()
    .fold(digest, |h, v| fnv1a_word(h, v.to_bits()))
}

fn fold_counters(digest: u64, c: &CounterSnapshot) -> u64 {
    [
        c.dram_total_gbps,
        c.dram_be_gbps,
        c.dram_peak_gbps,
        c.lc_freq_ghz,
        c.be_freq_ghz,
        c.package_power_w,
        c.tdp_w,
        c.cpu_utilization,
        c.lc_cpu_utilization,
        c.nic_lc_gbps,
        c.nic_be_gbps,
        c.nic_link_gbps,
    ]
    .iter()
    .fold(digest, |h, v| fnv1a_word(h, v.to_bits()))
}

/// The digest of every evaluation below, recorded on the models that kept
/// their own copy of the CAT split and HTB ceiling.
const RECORDED_CONTENTION_DIGEST: u64 = 0x674e_b4ce_059b_047d;

/// The digest of every evaluation's counters, recorded on the sub-models
/// that kept their own copy of the DRAM peak, TDP and line rate.
const RECORDED_COUNTERS_DIGEST: u64 = 0x4ee9_f85c_6f6c_636d;

#[test]
fn contention_outputs_match_recorded_digest() {
    let mut digest = 0xcbf2_9ce4_8422_2325;
    let mut counters_digest = 0xcbf2_9ce4_8422_2325;
    let mut evaluations = 0usize;
    for config in [
        ServerConfig::older_sandy_bridge(),
        ServerConfig::default_haswell(),
        ServerConfig::newer_skylake(),
    ] {
        let ways = config.llc_ways;
        let link = config.nic_gbps;
        let demands = demands(&config);
        // `None` is CAT off; every other entry is one `set_cat` request.
        let mut cat_requests = vec![None];
        for lc in 0..=ways {
            cat_requests.extend((0..=ways).map(|be| Some((lc, be))));
        }
        let mut server = Server::new(config.clone());
        for cat in &cat_requests {
            for ceil in [None, Some(0.0), Some(link * 0.5), Some(link * 2.0)] {
                for package_cap in [None, Some(config.tdp_w() * 0.6)] {
                    for freq_cap in [None, Some(1.6)] {
                        for shared in [false, true] {
                            let alloc = server.allocations_mut();
                            alloc.set_be_shares_lc_cores(shared);
                            alloc.set_lc_cores(config.total_cores() / 2);
                            alloc.set_be_cores(config.total_cores() / 2 + 3);
                            match *cat {
                                Some((lc, be)) => alloc.set_cat(lc, be),
                                None => alloc.clear_cat(),
                            }
                            alloc.set_be_net_ceil_gbps(ceil);
                            alloc.set_package_cap_w(package_cap);
                            alloc.set_be_freq_cap_ghz(freq_cap);
                            for demand in &demands {
                                let split = server.cache_split(
                                    demand.lc_llc_footprint_mb,
                                    demand.be_llc_footprint_mb,
                                );
                                digest = fnv1a_word(digest, split.lc_mb.to_bits());
                                digest = fnv1a_word(digest, split.be_mb.to_bits());
                                let outcome = server.evaluate(demand);
                                digest = fold_outcome(digest, &outcome);
                                counters_digest =
                                    fold_counters(counters_digest, &server.counters(&outcome));
                                evaluations += 1;
                            }
                        }
                    }
                }
            }
        }
    }
    assert!(evaluations > 100_000, "swept only {evaluations} evaluations");
    assert_eq!(
        digest, RECORDED_CONTENTION_DIGEST,
        "contention digest {digest:#018x} over {evaluations} evaluations"
    );
    assert_eq!(
        counters_digest, RECORDED_COUNTERS_DIGEST,
        "counters digest {counters_digest:#018x} over {evaluations} evaluations"
    );
}
