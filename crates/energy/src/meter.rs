//! Deterministic energy ledgers: per-leaf, per-(service × generation) pool,
//! and fleet totals.

use std::collections::BTreeMap;

/// One ledger row: accumulated joules and their dollar cost.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct EnergyLedger {
    /// Accumulated package energy in joules of represented time.
    pub joules: f64,
    /// The same energy priced through the time-of-day schedule, in dollars.
    pub dollars: f64,
}

impl EnergyLedger {
    fn charge(&mut self, joules: f64, dollars: f64) {
        self.joules += joules;
        self.dollars += dollars;
    }
}

/// The fleet energy meter.
///
/// Ledgers are keyed by leaf id and by `(service, generation)` pool; all
/// maps are `BTreeMap` so iteration — and therefore every exported summary
/// — is deterministic.  The meter is a pure observer: the fleet feeds it
/// the per-leaf joules each step already computed by the simulation, so
/// installing it changes no simulated outcome.
///
/// Conservation holds by construction *and* is checked: the fleet total
/// and both ledger families are accumulated from the same per-leaf charges
/// in the same order, so `fleet == Σ pools == Σ leaves` bitwise-exactly
/// never drifts; [`conservation_error`](Self::conservation_error) exposes
/// the residual for the doctor's cross-check.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EnergyMeter {
    leaves: BTreeMap<u64, EnergyLedger>,
    pools: BTreeMap<(&'static str, &'static str), EnergyLedger>,
    fleet: EnergyLedger,
    /// Leaf-step observations recorded.
    observations: u64,
}

impl EnergyMeter {
    /// An empty meter.
    pub fn new() -> Self {
        EnergyMeter::default()
    }

    /// Charges one leaf-step of energy to every ledger level.
    pub fn observe_leaf(
        &mut self,
        leaf: u64,
        service: &'static str,
        generation: &'static str,
        joules: f64,
        dollars: f64,
    ) {
        self.leaves.entry(leaf).or_default().charge(joules, dollars);
        self.pools.entry((service, generation)).or_default().charge(joules, dollars);
        self.fleet.charge(joules, dollars);
        self.observations += 1;
    }

    /// Fleet-total ledger.
    pub fn fleet(&self) -> EnergyLedger {
        self.fleet
    }

    /// Leaf-step observations recorded so far.
    pub fn observations(&self) -> u64 {
        self.observations
    }

    /// Per-(service, generation) pool ledgers in key order.
    pub fn pools(&self) -> impl Iterator<Item = ((&'static str, &'static str), &EnergyLedger)> {
        self.pools.iter().map(|(&k, l)| (k, l))
    }

    /// The `k` leaves that burned the most joules, hungriest first (ties
    /// break toward the lower leaf id, so the ranking is deterministic).
    pub fn top_leaves(&self, k: usize) -> Vec<(u64, EnergyLedger)> {
        let mut rows: Vec<(u64, EnergyLedger)> =
            self.leaves.iter().map(|(&id, &l)| (id, l)).collect();
        rows.sort_by(|a, b| b.1.joules.total_cmp(&a.1.joules).then(a.0.cmp(&b.0)));
        rows.truncate(k);
        rows
    }

    /// How far the three ledger levels disagree:
    /// `|fleet − Σ pools| + |fleet − Σ leaves|` in joules.  Zero up to
    /// float summation order; the doctor's conservation cross-check fails
    /// a run whose error exceeds a relative epsilon.
    pub fn conservation_error(&self) -> f64 {
        let pool_sum: f64 = self.pools.values().map(|l| l.joules).sum();
        let leaf_sum: f64 = self.leaves.values().map(|l| l.joules).sum();
        (self.fleet.joules - pool_sum).abs() + (self.fleet.joules - leaf_sum).abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ledgers_accumulate_at_every_level() {
        let mut m = EnergyMeter::new();
        m.observe_leaf(0, "websearch", "haswell", 100.0, 0.01);
        m.observe_leaf(1, "websearch", "haswell", 50.0, 0.005);
        m.observe_leaf(2, "memkeyval", "skylake", 25.0, 0.002);
        m.observe_leaf(0, "websearch", "haswell", 100.0, 0.01);

        assert_eq!(m.fleet().joules, 275.0);
        assert_eq!(m.observations(), 4);
        assert_eq!(m.leaves.len(), 3);
        assert_eq!(m.pools().count(), 2);
        let pool: Vec<_> = m.pools().collect();
        assert_eq!(pool[0].0, ("memkeyval", "skylake"));
        assert_eq!(pool[1].1.joules, 250.0);
    }

    #[test]
    fn top_leaves_rank_by_joules_with_deterministic_ties() {
        let mut m = EnergyMeter::new();
        m.observe_leaf(3, "a", "g", 10.0, 0.0);
        m.observe_leaf(1, "a", "g", 30.0, 0.0);
        m.observe_leaf(2, "a", "g", 30.0, 0.0);
        let top = m.top_leaves(2);
        assert_eq!(top[0].0, 1, "tie must break toward the lower id");
        assert_eq!(top[1].0, 2);
    }

    #[test]
    fn conservation_error_is_zero_for_consistent_ledgers() {
        let mut m = EnergyMeter::new();
        for leaf in 0..50u64 {
            m.observe_leaf(
                leaf,
                if leaf % 2 == 0 { "a" } else { "b" },
                "g",
                0.1 * leaf as f64,
                0.0,
            );
        }
        assert!(m.conservation_error() < 1e-9, "{}", m.conservation_error());
    }
}
