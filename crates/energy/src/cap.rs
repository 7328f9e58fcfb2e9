//! The cluster power-cap coordinator.
//!
//! Algorithm 3 in the paper caps one server: when RAPL reports the package
//! near TDP it first shaves the best-effort cores' DVFS frequency and only
//! ever defends the latency-critical cores' guaranteed frequency.  The
//! coordinator lifts that ordering to the fleet: a cluster watt budget is
//! split into per-leaf RAPL-style package caps (each leaf's power model
//! then walks *both* classes down only as far as its own cap requires),
//! and when the budget is tight the fleet additionally stops admitting new
//! best-effort jobs — BE work is shaved first, LC capacity is touched
//! last.

use std::collections::BTreeMap;

/// The transient-overshoot allowance the package power model grants its
/// effective TDP: a leaf capped at `c` watts never reports more than
/// `CAP_OVERSHOOT × c`.  The coordinator divides each leaf's budget share
/// by this factor, so the fleet's worst-case draw is exactly the budget.
pub(crate) const CAP_OVERSHOOT: f64 = 1.05;

/// When the budget falls below this fraction of the fleet's aggregate TDP,
/// the plan additionally throttles BE admission (shave BE first): DVFS
/// alone would have to push leaves so deep that latency-critical work pays
/// for best-effort joules.
pub(crate) const BE_THROTTLE_FRACTION: f64 = 0.7;

/// One leaf's share of the cluster budget.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LeafCapAssignment {
    /// The leaf (fleet server id).
    pub leaf: u64,
    /// The RAPL package cap to impose, in watts.
    pub cap_w: f64,
}

/// The coordinator's decision for one step.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CapPlan {
    /// The cluster budget the plan enforces, in watts.
    pub budget_w: f64,
    /// Aggregate TDP of the leaves the plan covers, in watts.
    pub total_tdp_w: f64,
    /// Per-leaf cap assignments, in leaf order.  Empty when the budget
    /// clears every leaf's TDP — uncapped leaves already cannot exceed it.
    pub assignments: Vec<LeafCapAssignment>,
    /// True when the budget is tight enough that BE admission must stop
    /// fleet-wide (Algorithm 3's "shave BE first", lifted to admission).
    pub throttle_be: bool,
}

/// Distributes a cluster watt budget into per-leaf RAPL caps.
///
/// The coordinator is analytic: a plan is a pure function of the fleet's
/// composition (leaf ids and TDPs) and the budget, recomputed every step,
/// so capping decisions are deterministic and identical across simulation
/// cores.  It remembers the caps it last applied so the fleet can emit a
/// trace event only when a leaf's cap actually changes.
#[derive(Debug, Clone, Default)]
pub struct PowerCapCoordinator {
    budget_w: f64,
    /// Cap bits last applied per leaf (bitwise, so "changed" is exact).
    applied: BTreeMap<u64, u64>,
}

impl PowerCapCoordinator {
    /// A coordinator enforcing `budget_w` watts across the fleet.
    pub fn new(budget_w: f64) -> Self {
        PowerCapCoordinator { budget_w: budget_w.max(0.0), applied: BTreeMap::new() }
    }

    /// Computes the plan for the current fleet composition: `leaves` is
    /// the `(leaf id, TDP watts)` roster of active servers.
    ///
    /// Each leaf's budget share is proportional to its TDP (a bigger
    /// machine gets a proportionally bigger slice, so all generations
    /// throttle to the same fraction of their capability), divided by
    /// `CAP_OVERSHOOT` so that even transient per-leaf overshoot keeps
    /// the fleet sum at or under the budget.  When the budget covers the
    /// whole roster's worst case, no caps are needed and the plan is
    /// empty.
    pub fn plan(&self, leaves: &[(u64, f64)]) -> CapPlan {
        let total_tdp_w: f64 = leaves.iter().map(|&(_, tdp)| tdp.max(0.0)).sum();
        let mut plan = CapPlan { budget_w: self.budget_w, total_tdp_w, ..CapPlan::default() };
        if leaves.is_empty() || total_tdp_w <= 0.0 {
            return plan;
        }
        if self.budget_w >= total_tdp_w * CAP_OVERSHOOT {
            // The uncapped fleet cannot exceed the budget even with every
            // package at its transient ceiling.
            return plan;
        }
        plan.throttle_be = self.budget_w < total_tdp_w * BE_THROTTLE_FRACTION;
        plan.assignments = leaves
            .iter()
            .map(|&(leaf, tdp)| {
                let share = tdp.max(0.0) / total_tdp_w;
                LeafCapAssignment { leaf, cap_w: self.budget_w * share / CAP_OVERSHOOT }
            })
            .collect();
        plan
    }

    /// Records that `cap` was applied to `leaf`, returning true when it
    /// differs (bitwise) from what the coordinator last applied there —
    /// the fleet traces exactly those transitions.
    pub fn note_applied(&mut self, leaf: u64, cap: Option<f64>) -> bool {
        match cap {
            Some(c) => self.applied.insert(leaf, c.to_bits()) != Some(c.to_bits()),
            None => self.applied.remove(&leaf).is_some(),
        }
    }

    /// Forgets a retired leaf.
    pub fn forget(&mut self, leaf: u64) {
        self.applied.remove(&leaf);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The worst-case fleet draw under `plan`, in watts: each capped leaf
    /// can transiently reach `CAP_OVERSHOOT × cap`, an uncapped fleet can
    /// reach `CAP_OVERSHOOT × ΣTDP`.
    fn worst_case_w(plan: &CapPlan) -> f64 {
        if plan.assignments.is_empty() {
            plan.total_tdp_w * CAP_OVERSHOOT
        } else {
            plan.assignments.iter().map(|a| a.cap_w * CAP_OVERSHOOT).sum()
        }
    }

    #[test]
    fn ample_budget_leaves_the_fleet_uncapped() {
        let c = PowerCapCoordinator::new(10_000.0);
        let plan = c.plan(&[(0, 290.0), (1, 290.0)]);
        assert!(plan.assignments.is_empty());
        assert!(!plan.throttle_be);
        assert!(worst_case_w(&plan) <= 10_000.0);
    }

    #[test]
    fn tight_budget_splits_proportionally_and_bounds_the_sum() {
        let c = PowerCapCoordinator::new(400.0);
        let plan = c.plan(&[(0, 290.0), (1, 290.0), (2, 165.0)]);
        assert_eq!(plan.assignments.len(), 3);
        // Proportional: equal-TDP leaves get equal caps.
        assert_eq!(plan.assignments[0].cap_w.to_bits(), plan.assignments[1].cap_w.to_bits());
        assert!(plan.assignments[2].cap_w < plan.assignments[0].cap_w);
        // The worst case (every leaf at 1.05 × cap) is exactly the budget.
        assert!((worst_case_w(&plan) - 400.0).abs() < 1e-9, "{}", worst_case_w(&plan));
        // 400 / 745 < 0.7 → BE admission throttles too.
        assert!(plan.throttle_be);
    }

    #[test]
    fn moderate_budget_caps_without_throttling_be() {
        let c = PowerCapCoordinator::new(600.0);
        let plan = c.plan(&[(0, 290.0), (1, 290.0)]);
        assert!(!plan.assignments.is_empty());
        assert!(!plan.throttle_be, "600 of 580 TDP is not a tight budget");
    }

    #[test]
    fn note_applied_reports_transitions_only() {
        let mut c = PowerCapCoordinator::new(100.0);
        assert!(c.note_applied(7, Some(50.0)), "first application is a transition");
        assert!(!c.note_applied(7, Some(50.0)), "same cap again is not");
        assert!(c.note_applied(7, Some(60.0)));
        assert!(c.note_applied(7, None), "clearing an applied cap is a transition");
        assert!(!c.note_applied(7, None));
    }

    #[test]
    fn empty_roster_yields_an_inert_plan() {
        let plan = PowerCapCoordinator::new(100.0).plan(&[]);
        assert!(plan.assignments.is_empty());
        assert_eq!(plan.total_tdp_w, 0.0);
    }
}
