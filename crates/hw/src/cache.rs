//! Last-level cache model with way-partitioning (Intel CAT).
//!
//! CAT way-partitions a highly associative LLC into non-overlapping subsets:
//! cores assigned to a partition only *allocate* in their subset (they may hit
//! anywhere, but in steady state their resident footprint is bounded by their
//! partition).  The model therefore reduces to a capacity split: with CAT
//! enabled each class gets its partition's capacity; with CAT disabled the two
//! classes compete for capacity in proportion to the footprint pressure they
//! generate, which is how a streaming antagonist evicts a latency-critical
//! workload's working set.

use serde::{Deserialize, Serialize};

use crate::config::ServerConfig;

/// Effective LLC capacity received by each colocated class.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CacheSplit {
    /// Capacity the latency-critical workload can keep resident, in MB.
    pub lc_mb: f64,
    /// Capacity the best-effort tasks can keep resident, in MB.
    pub be_mb: f64,
}

/// The shared last-level cache.
///
/// The model holds only the cache's geometry: the CAT way split in force is
/// the allocation's, passed to [`split`](LlcModel::split) at each call.
///
/// # Example
///
/// ```
/// use heracles_hw::{LlcModel, ServerConfig};
/// let cfg = ServerConfig::default_haswell();
/// let llc = LlcModel::new(&cfg);
/// // Without CAT, a streaming task evicts most of the LC working set...
/// assert!(llc.split(30.0, 400.0, None).lc_mb < 10.0);
/// // ...and with 14 ways for LC and 6 for BE it cannot.
/// assert!(llc.split(30.0, 400.0, Some((14, 6))).lc_mb >= 30.0);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LlcModel {
    total_ways: usize,
    mb_per_way: f64,
}

impl LlcModel {
    /// Creates the LLC model for a server.
    pub fn new(config: &ServerConfig) -> Self {
        LlcModel { total_ways: config.llc_ways, mb_per_way: config.llc_mb_per_way() }
    }

    /// Total capacity in MB.
    pub(crate) fn total_mb(&self) -> f64 {
        self.total_ways as f64 * self.mb_per_way
    }

    /// Computes the capacity each class effectively keeps resident given the
    /// footprint pressure each class generates, under the CAT split
    /// `cat_ways` (`(lc_ways, be_ways)`, or `None` with CAT off).
    ///
    /// With CAT the answer is simply the partition capacities; the split is
    /// taken as given, so the caller keeps it within the cache
    /// ([`Allocations::set_cat`](crate::Allocations::set_cat) does).
    /// Without CAT, capacity is shared in proportion to footprint pressure (a
    /// streaming task with a huge footprint takes almost everything), but no
    /// class holds more than its own footprint; capacity freed by a
    /// small-footprint class is given back to the other.
    pub fn split(
        &self,
        lc_footprint_mb: f64,
        be_footprint_mb: f64,
        cat_ways: Option<(usize, usize)>,
    ) -> CacheSplit {
        if let Some((lc_ways, be_ways)) = cat_ways {
            return CacheSplit {
                lc_mb: lc_ways as f64 * self.mb_per_way,
                be_mb: be_ways as f64 * self.mb_per_way,
            };
        }
        let lc_fp = lc_footprint_mb.max(0.0);
        let be_fp = be_footprint_mb.max(0.0);
        let total = self.total_mb();
        if lc_fp + be_fp <= total {
            // Everything fits: no contention.
            return CacheSplit { lc_mb: lc_fp.min(total), be_mb: be_fp.min(total) };
        }
        if lc_fp + be_fp <= 0.0 {
            return CacheSplit { lc_mb: 0.0, be_mb: 0.0 };
        }
        // Proportional competition, then redistribute any slack from a class
        // whose share exceeds its footprint.
        let lc_share = total * lc_fp / (lc_fp + be_fp);
        let be_share = total - lc_share;
        let lc_mb = lc_share.min(lc_fp);
        let be_mb = be_share.min(be_fp);
        let slack = total - lc_mb - be_mb;
        if slack > 0.0 {
            if lc_mb < lc_fp {
                return CacheSplit { lc_mb: (lc_mb + slack).min(lc_fp), be_mb };
            }
            if be_mb < be_fp {
                return CacheSplit { lc_mb, be_mb: (be_mb + slack).min(be_fp) };
            }
        }
        CacheSplit { lc_mb, be_mb }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn llc() -> LlcModel {
        LlcModel::new(&ServerConfig::default_haswell())
    }

    #[test]
    fn starts_unpartitioned_with_full_capacity() {
        let llc = llc();
        assert!((llc.total_mb() - 90.0).abs() < 1e-9);
        let split = llc.split(200.0, 0.0, None);
        assert_eq!(split.lc_mb, llc.total_mb());
    }

    #[test]
    fn partition_capacity_is_respected() {
        let split = llc().split(200.0, 200.0, Some((16, 4)));
        assert!((split.lc_mb - 16.0 * 4.5).abs() < 1e-9);
        assert!((split.be_mb - 4.0 * 4.5).abs() < 1e-9);
    }

    #[test]
    fn unpartitioned_small_footprints_fit() {
        let split = llc().split(10.0, 20.0, None);
        assert_eq!(split.lc_mb, 10.0);
        assert_eq!(split.be_mb, 20.0);
    }

    #[test]
    fn unpartitioned_streaming_antagonist_evicts_lc() {
        // LC wants 30 MB, the antagonist streams through 400 MB.
        let split = llc().split(30.0, 400.0, None);
        assert!(split.lc_mb < 10.0, "LC kept {} MB", split.lc_mb);
        assert!(split.be_mb > 80.0);
    }

    #[test]
    fn cat_protects_lc_from_streaming_antagonist() {
        let split = llc().split(30.0, 400.0, Some((12, 8)));
        assert!(split.lc_mb >= 30.0);
    }

    #[test]
    fn slack_is_redistributed_to_the_needier_class() {
        let llc = llc();
        // LC tiny, BE huge: BE should get nearly the whole cache.
        let split = llc.split(1.0, 1000.0, None);
        assert!(split.be_mb > 85.0);
        assert!((split.lc_mb + split.be_mb) <= llc.total_mb() + 1e-9);
    }

    #[test]
    fn zero_footprints_get_zero_capacity() {
        let split = llc().split(0.0, 0.0, None);
        assert_eq!(split.lc_mb, 0.0);
        assert_eq!(split.be_mb, 0.0);
    }
}
