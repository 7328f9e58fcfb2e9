//! The offline DRAM model's lookups, pinned bit for bit.
//!
//! `OfflineDramModel::lc_bandwidth_gbps` feeds Algorithm 2's BE-bandwidth
//! estimate and its growth check, so every fleet digest depends on its exact
//! bits.  This test sweeps it densely over every (hardware generation, LC
//! service) cell a fleet profiles — loads well outside the profiled range
//! on both sides, every way count from none to more than any box has, and
//! each grid point exactly — on the profiled table and on a perturbed one,
//! and folds every result's bits into one FNV-1a digest.  A change to the
//! table's representation must reproduce it; change it only for a
//! deliberate model change.

use heracles_core::OfflineDramModel;
use heracles_hw::ServerConfig;
use heracles_workloads::{LcKind, LcWorkload};

/// FNV-1a 64 step over one `u64` word (little-endian bytes).
fn fnv1a_word(hash: u64, word: u64) -> u64 {
    word.to_le_bytes().iter().fold(hash, |h, &b| (h ^ b as u64).wrapping_mul(0x0100_0000_01b3))
}

/// Every (generation, service) cell's profiled model, the way a fleet
/// profiles them: older and newer boxes serve their service scaled to their
/// core count relative to Haswell.
fn cell_models() -> Vec<OfflineDramModel> {
    let haswell = ServerConfig::default_haswell();
    let generations =
        [ServerConfig::older_sandy_bridge(), haswell.clone(), ServerConfig::newer_skylake()];
    let mut models = Vec::new();
    for config in &generations {
        let ratio = config.total_cores() as f64 / haswell.total_cores() as f64;
        for kind in LcKind::all() {
            let base = LcWorkload::of_kind(kind);
            let lc = if config == &haswell { base } else { base.scaled_to_capacity(ratio) };
            models.push(OfflineDramModel::profile(&lc, config));
        }
    }
    models
}

/// The swept loads: −0.5 to 2.0 in steps of 0.001, then every multiple of
/// the profile's 0.05 grid step in that range, computed as the profile
/// computes its grid.
fn loads() -> Vec<f64> {
    let mut loads: Vec<f64> = (0..=2_500).map(|i| -0.5 + i as f64 * 0.001).collect();
    loads.extend((0..=40).map(|i| i as f64 * 0.05));
    loads
}

/// The digest of every lookup below, recorded on the nested-`Vec` table.
const RECORDED_DRAM_MODEL_DIGEST: u64 = 0xe02a_0c9d_6b02_77e3;

#[test]
fn dram_model_lookups_match_recorded_digest() {
    let loads = loads();
    let mut digest = 0xcbf2_9ce4_8422_2325;
    let mut lookups = 0usize;
    for model in cell_models() {
        for table in [model.clone(), model.perturbed(0.8)] {
            for &load in &loads {
                for ways in 0..=30 {
                    digest = fnv1a_word(digest, table.lc_bandwidth_gbps(load, ways).to_bits());
                    lookups += 1;
                }
            }
        }
    }
    assert_eq!(lookups, 9 * 2 * 2_542 * 31);
    assert_eq!(
        digest, RECORDED_DRAM_MODEL_DIGEST,
        "DRAM model lookups moved: digest {digest:#018x} over {lookups} lookups"
    );
}
