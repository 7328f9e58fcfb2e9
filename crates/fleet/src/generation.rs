//! Server generations and the fleet's generation mix.
//!
//! The paper's TCO argument is about datacenters as they exist: servers are
//! amortized over years, so at any moment the fleet mixes an older
//! generation being phased out, the current mainstream parts and a newer
//! generation being phased in.  A [`GenerationMix`] describes that blend as
//! two fractions (older / newer, the rest running the baseline Haswell), and
//! deterministically assigns a [`Generation`] to every server id so that the
//! generations interleave evenly across the fleet's diurnal phase offsets —
//! identical seeds and mixes always produce the identical fleet.

use heracles_hw::ServerConfig;
use heracles_sim::{diffuse, diffuse_counts};

/// A hardware generation a fleet server can belong to.
///
/// The discriminant doubles as the generation index used by the placement
/// store and the per-generation interference model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Generation {
    /// Sandy-Bridge-class: fewer cores, lower DRAM bandwidth.
    Older = 0,
    /// The paper's Haswell baseline.
    Haswell = 1,
    /// Skylake-class: more cores, more DRAM bandwidth.
    Newer = 2,
}

impl Generation {
    /// All generations, in generation-index order.
    pub fn all() -> [Generation; 3] {
        [Generation::Older, Generation::Haswell, Generation::Newer]
    }

    /// The generation's index into per-generation tables (0 = older,
    /// 1 = Haswell, 2 = newer).
    pub fn index(self) -> usize {
        self as usize
    }

    /// The generation's display name.
    pub fn name(self) -> &'static str {
        match self {
            Generation::Older => "sandy-bridge",
            Generation::Haswell => "haswell",
            Generation::Newer => "skylake",
        }
    }

    /// The generation's hardware configuration.  The Haswell slot returns
    /// the caller-supplied baseline (which is how tests run a whole fleet on
    /// `small_test` boxes); the other generations use the built-in presets.
    pub fn server_config(self, baseline: &ServerConfig) -> ServerConfig {
        match self {
            Generation::Older => ServerConfig::older_sandy_bridge(),
            Generation::Haswell => baseline.clone(),
            Generation::Newer => ServerConfig::newer_skylake(),
        }
    }
}

/// The fleet's blend of server generations.
///
/// # Example
///
/// ```
/// use heracles_fleet::GenerationMix;
/// let mix = GenerationMix::mixed_datacenter();
/// let gens = mix.assignments(8);
/// assert_eq!(gens.len(), 8);
/// // A quarter older, a quarter newer, the rest Haswell.
/// assert_eq!("0.25:0.25".parse::<GenerationMix>().unwrap(), mix);
/// assert_eq!("homogeneous".parse::<GenerationMix>().unwrap(), GenerationMix::homogeneous());
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GenerationMix {
    /// Fraction of the fleet on the older generation.
    pub older: f64,
    /// Fraction of the fleet on the newer generation.  The remainder runs
    /// the baseline Haswell configuration.
    pub newer: f64,
}

impl GenerationMix {
    /// Every server runs the baseline generation (the pre-heterogeneity
    /// fleet).
    pub fn homogeneous() -> Self {
        GenerationMix { older: 0.0, newer: 0.0 }
    }

    /// A typical mid-refresh datacenter: a quarter of the fleet is the older
    /// generation being phased out, a quarter the newer one being phased in.
    pub fn mixed_datacenter() -> Self {
        GenerationMix { older: 0.25, newer: 0.25 }
    }

    /// True if the mix contains only the baseline generation.
    pub(crate) fn is_homogeneous(&self) -> bool {
        self.older <= 0.0 && self.newer <= 0.0
    }

    /// Validates that both fractions are finite, non-negative and sum to at
    /// most 1.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the violation.
    pub(crate) fn validate(&self) -> Result<(), String> {
        if !self.older.is_finite() || !self.newer.is_finite() {
            return Err("generation fractions must be finite".into());
        }
        if self.older < 0.0 || self.newer < 0.0 {
            return Err(format!(
                "generation fractions must be non-negative (got {}:{})",
                self.older, self.newer
            ));
        }
        if self.older + self.newer > 1.0 + 1e-9 {
            return Err(format!(
                "generation fractions must sum to at most 1 (got {}:{})",
                self.older, self.newer
            ));
        }
        Ok(())
    }

    /// The fleet fractions in generation-index order (older, Haswell,
    /// newer).
    ///
    /// # Panics
    ///
    /// Panics if the mix does not `validate`.
    fn shares(&self) -> [f64; 3] {
        self.validate().unwrap_or_else(|e| panic!("invalid generation mix: {e}"));
        [self.older, (1.0 - self.older - self.newer).max(0.0), self.newer]
    }

    /// Assigns a generation to each of `fleet` server ids by proportional
    /// error diffusion ([`diffuse`]), so each generation's servers spread
    /// evenly across the id range — and, because the fleet's diurnal phase
    /// offsets are a function of the id, across the whole load cycle.  The
    /// assignment is a pure function of the mix and the fleet size.
    ///
    /// # Panics
    ///
    /// Panics if the mix does not `validate`.
    pub fn assignments(&self, fleet: usize) -> Vec<Generation> {
        diffuse(self.shares(), fleet).map(|g| Generation::all()[g]).collect()
    }

    /// How many servers of a `fleet` run each generation, in generation-index
    /// order (older, Haswell, newer).
    pub fn counts(&self, fleet: usize) -> [usize; 3] {
        diffuse_counts(self.shares(), fleet)
    }
}

impl Default for GenerationMix {
    fn default() -> Self {
        Self::homogeneous()
    }
}

impl std::str::FromStr for GenerationMix {
    type Err = String;

    /// Parses `"homogeneous"`, `"mixed"`, or explicit `"OLDER:NEWER"`
    /// fractions (e.g. `"0.4:0.3"`).
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "homogeneous" => return Ok(Self::homogeneous()),
            "mixed" => return Ok(Self::mixed_datacenter()),
            _ => {}
        }
        let (older, newer) = s
            .split_once(':')
            .ok_or_else(|| format!("unknown mix {s:?} (expected homogeneous, mixed or O:N)"))?;
        let parse = |frac: &str| {
            frac.parse::<f64>().map_err(|e| format!("invalid generation fraction {frac:?}: {e}"))
        };
        let mix = GenerationMix { older: parse(older)?, newer: parse(newer)? };
        mix.validate()?;
        Ok(mix)
    }
}

impl std::fmt::Display for GenerationMix {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.is_homogeneous() {
            write!(f, "homogeneous")
        } else {
            write!(f, "{:.2}:{:.2}", self.older, self.newer)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn homogeneous_mix_is_all_haswell() {
        let gens = GenerationMix::homogeneous().assignments(10);
        assert!(gens.iter().all(|&g| g == Generation::Haswell));
        assert_eq!(GenerationMix::homogeneous().counts(10), [0, 10, 0]);
    }

    #[test]
    fn mixed_counts_track_fractions_and_interleave() {
        let mix = GenerationMix::mixed_datacenter();
        let [older, haswell, newer] = mix.counts(8);
        assert_eq!(older, 2);
        assert_eq!(haswell, 4);
        assert_eq!(newer, 2);
        // The non-baseline generations do not cluster at one end of the id
        // range (which would pin them to one diurnal phase).
        let gens = mix.assignments(8);
        let first_half_older = gens[..4].iter().filter(|&&g| g == Generation::Older).count();
        assert_eq!(first_half_older, 1, "{gens:?}");
    }

    #[test]
    fn assignments_are_deterministic_and_proportional() {
        let mix = GenerationMix { older: 0.4, newer: 0.3 };
        assert_eq!(mix.assignments(50), mix.assignments(50));
        let [older, haswell, newer] = mix.counts(50);
        assert_eq!(older + haswell + newer, 50);
        assert!((older as i64 - 20).abs() <= 1, "older {older}");
        assert!((newer as i64 - 15).abs() <= 1, "newer {newer}");
    }

    #[test]
    fn parsing_round_trips() {
        assert_eq!("homogeneous".parse::<GenerationMix>().unwrap(), GenerationMix::homogeneous());
        assert_eq!("mixed".parse::<GenerationMix>().unwrap(), GenerationMix::mixed_datacenter());
        let explicit: GenerationMix = "0.4:0.3".parse().unwrap();
        assert_eq!(explicit, GenerationMix { older: 0.4, newer: 0.3 });
        assert!("0.9:0.9".parse::<GenerationMix>().is_err());
        assert!("-0.1:0.1".parse::<GenerationMix>().is_err());
        assert!("nonsense".parse::<GenerationMix>().is_err());
        assert_eq!(GenerationMix::homogeneous().to_string(), "homogeneous");
        assert_eq!(GenerationMix::mixed_datacenter().to_string(), "0.25:0.25");
    }

    #[test]
    fn generation_configs_come_from_the_presets() {
        let base = ServerConfig::small_test();
        assert_eq!(Generation::Haswell.server_config(&base), base);
        assert_eq!(Generation::Older.server_config(&base), ServerConfig::older_sandy_bridge());
        assert_eq!(Generation::Newer.server_config(&base), ServerConfig::newer_skylake());
        for (i, g) in Generation::all().into_iter().enumerate() {
            assert_eq!(g.index(), i);
        }
    }
}
