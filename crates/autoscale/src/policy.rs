//! Autoscaling policies: when to buy, when to shed.
//!
//! Every policy sees the same [`ScaleSignals`] and answers with one
//! [`ScaleAction`] per step (one action per step is the controller's
//! natural rate limit).  The built-in kinds are one decision procedure over
//! named constants, differing only in what they look at:
//!
//! * [`AutoscaleKind::Static`] — never scales.  The baseline every elastic
//!   policy is judged against: same fleet, same job stream, full TCO bill.
//! * [`AutoscaleKind::Reactive`] — queue-driven thresholds with hysteresis
//!   and cooldown: buys when stranded (never-started, censored) jobs
//!   accumulate or the observed load reaches the re-buy ceiling, sheds
//!   after a sustained idle streak with spare admitting capacity.  Reacts
//!   *after* the evidence appears.
//! * [`AutoscaleKind::Predictive`] — additionally reads the diurnal
//!   forecast: a projection past the re-buy ceiling, or a climbing one
//!   while a queue forms, buys ahead of the peak (while the box still
//!   helps); a falling projection halves the scale-in hysteresis, shedding
//!   promptly once the peak has passed.
//! * [`AutoscaleKind::EnergyAware`] — the reactive core plus the energy
//!   price signal: during expensive hours it defers BE-backlog purchases
//!   (batch work waits for cheap power) and sheds with half the idle
//!   hysteresis; during cheap hours it buys on a lighter backlog, pulling
//!   deferred work into the cheap window.  The LC rebuy defense is never
//!   deferred — latency compliance is not traded for an energy dollar.

use heracles_fleet::LOAD_ENABLE_THRESHOLD;

use crate::action::{ScaleAction, ScaleSignals};

/// A fleet-level autoscaling policy.
///
/// Implementations must be deterministic functions of the signal sequence:
/// identical runs see identical signals and must emit identical actions
/// (the crate's property tests pin this).
pub trait AutoscalePolicy: Send {
    /// Short human-readable name used in experiment output.
    fn name(&self) -> &str;

    /// Decides this step's scale action.
    fn decide(&mut self, signals: &ScaleSignals) -> ScaleAction;
}

/// The built-in autoscaling policies, in reporting order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AutoscaleKind {
    /// Never scales (the fixed-fleet baseline).
    Static,
    /// Queue-threshold scaling with hysteresis and cooldown.
    Reactive,
    /// Reactive plus diurnal-forecast pre-provisioning.
    Predictive,
    /// Reactive plus energy-price awareness: shifts BE work toward
    /// cheap-energy hours.
    EnergyAware,
}

impl AutoscaleKind {
    /// All built-in policies, in reporting order.
    pub fn all() -> [AutoscaleKind; 4] {
        [
            AutoscaleKind::Static,
            AutoscaleKind::Reactive,
            AutoscaleKind::Predictive,
            AutoscaleKind::EnergyAware,
        ]
    }

    /// The policy's display name.
    pub fn name(self) -> &'static str {
        match self {
            AutoscaleKind::Static => "static",
            AutoscaleKind::Reactive => "reactive",
            AutoscaleKind::Predictive => "predictive",
            AutoscaleKind::EnergyAware => "energy-aware",
        }
    }

    /// Builds the policy.
    pub fn build(self) -> Box<dyn AutoscalePolicy> {
        Box::new(Autoscaler { kind: self, idle_streak: 0, cooldown_until: 0 })
    }
}

impl std::str::FromStr for AutoscaleKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        AutoscaleKind::all().into_iter().find(|kind| kind.name() == s).ok_or_else(|| {
            format!(
                "unknown autoscaler {s:?} (expected static, reactive, predictive or energy-aware)"
            )
        })
    }
}

/// Stranded (never-started, waited ≥ one step) jobs that trigger a
/// purchase.
const SCALE_OUT_STRANDED: usize = 3;

/// Steps the oldest stranded job must have waited before a purchase — one
/// overloaded dispatch round is noise, a persistent backlog is not.
const SCALE_OUT_WAIT_STEPS: usize = 2;

/// Consecutive empty-queue steps required before shedding a server (the
/// scale-in side of the hysteresis).
const SCALE_IN_IDLE_STEPS: usize = 4;

/// Free admitting BE slots that must remain *elsewhere* after the
/// candidate's residents have been absorbed — the consolidation guard.  An
/// empty candidate needs only this spare; an occupied one additionally
/// needs a free slot per resident, so a drain never sheds capacity its
/// migrations cannot land on.
const SCALE_IN_SPARE_SLOTS: usize = 1;

/// Steps between a purchase and the next action.  Shorter than the
/// scale-in cooldown — the asymmetry every production autoscaler ships
/// with: under-capacity strands work *now*, over-capacity merely costs a
/// few amortized dollars, so scale out fast, scale in slow.
const SCALE_OUT_COOLDOWN_STEPS: usize = 2;

/// Steps between a drain and the next action (the slow side of the
/// asymmetry: the fleet needs to show the effect of the last shed before
/// the policy may judge another one safe).
const SCALE_IN_COOLDOWN_STEPS: usize = 4;

/// Ceiling on the candidate pool's projected post-shed load
/// ([`ScaleSignals::post_shed_load`]): a drain is refused when the
/// re-routed LC share would push the surviving leaves' pool past this
/// fraction of capacity.  It sits at the leaf controllers' BE *re-enable*
/// threshold — shedding into a pool projected above it guarantees the
/// survivors park their batch work and flirt with their latency knee,
/// which is SLO risk no amortized dollar saving pays for.
const SHED_LOAD_CEILING: f64 = LOAD_ENABLE_THRESHOLD;

/// Observed fleet load at which capacity is bought back regardless of the
/// BE queue.  Under the conserving traffic plane a shrunken pool can sit
/// past its latency knee with an *empty* queue — LC overload produces no
/// stranded-job evidence, only violations — so the policy needs load
/// evidence too.  It sits just past the natural diurnal peak: a pool
/// observed there is over-demand (its traffic no longer fits the leaves it
/// has), not merely busy — the natural peak alone never crosses it, so a
/// healthy full-size fleet is never bought above its provision.
const REBUY_LOAD_CEILING: f64 = 0.92;

/// Load climb (forecast minus current, in load fraction) at which the
/// predictive policy pre-provisions once any queue has formed.
const FORECAST_CLIMB: f64 = 0.06;

/// Load fall (current minus forecast) past which the predictive policy
/// halves the scale-in hysteresis: the peak has passed, and idle capacity
/// will not be needed again soon.
const FORECAST_FALL: f64 = 0.06;

/// Current-to-daily-mean price ratio at or above which the energy-aware
/// policy counts an hour as expensive: BE-backlog purchases are deferred
/// and the scale-in hysteresis is halved.
const EXPENSIVE_PRICE_RATIO: f64 = 1.25;

/// Current-to-daily-mean price ratio at or below which the energy-aware
/// policy counts an hour as cheap: a lighter backlog (half the stranded
/// threshold, one step of wait) already justifies a purchase, pulling
/// deferred BE work into the cheap window.
const CHEAP_PRICE_RATIO: f64 = 0.80;

/// The built-in autoscaler: one decision procedure over the constants
/// above, branching on its [`AutoscaleKind`] only where the modes differ.
#[derive(Debug)]
struct Autoscaler {
    kind: AutoscaleKind,
    /// Consecutive empty-queue steps so far.  Counted on every decision,
    /// buys included, so a streak from before a purchase cannot trigger a
    /// scale-in moments after it.
    idle_streak: usize,
    /// First step at which the next action is allowed (set from the
    /// per-direction cooldowns when an action fires).
    cooldown_until: usize,
}

impl AutoscalePolicy for Autoscaler {
    fn name(&self) -> &str {
        self.kind.name()
    }

    fn decide(&mut self, s: &ScaleSignals) -> ScaleAction {
        if self.kind == AutoscaleKind::Static {
            return ScaleAction::Hold;
        }
        self.idle_streak = if s.queued_jobs == 0 { self.idle_streak + 1 } else { 0 };
        if s.step < self.cooldown_until {
            return ScaleAction::Hold;
        }
        let trend = s.load_ahead - s.mean_load;
        let price_ratio = s.energy_price_ratio();
        let buy_early = match self.kind {
            AutoscaleKind::Predictive => {
                s.load_ahead >= REBUY_LOAD_CEILING || (trend > FORECAST_CLIMB && s.queued_jobs > 0)
            }
            AutoscaleKind::EnergyAware => {
                price_ratio <= CHEAP_PRICE_RATIO
                    && s.stranded_jobs >= SCALE_OUT_STRANDED / 2
                    && s.oldest_wait_steps >= 1
            }
            AutoscaleKind::Static | AutoscaleKind::Reactive => false,
        };
        let (idle_needed, defer_be_buy) = match self.kind {
            AutoscaleKind::Predictive if trend < -FORECAST_FALL => (SCALE_IN_IDLE_STEPS / 2, false),
            AutoscaleKind::EnergyAware if price_ratio >= EXPENSIVE_PRICE_RATIO => {
                (SCALE_IN_IDLE_STEPS / 2, true)
            }
            _ => (SCALE_IN_IDLE_STEPS, false),
        };
        let be_backlog = !defer_be_buy
            && s.stranded_jobs >= SCALE_OUT_STRANDED
            && s.oldest_wait_steps >= SCALE_OUT_WAIT_STEPS;
        if (buy_early || s.mean_load >= REBUY_LOAD_CEILING || be_backlog) && s.can_buy() {
            self.cooldown_until = s.step + SCALE_OUT_COOLDOWN_STEPS;
            return ScaleAction::ScaleOut { generation: s.best_buy };
        }
        if self.idle_streak >= idle_needed
            && s.free_slots_elsewhere >= s.drain_candidate_residents + SCALE_IN_SPARE_SLOTS
            && s.can_sell()
            && s.draining_servers == 0
            && s.post_shed_load <= SHED_LOAD_CEILING
        {
            if let Some(server) = s.drain_candidate {
                self.cooldown_until = s.step + SCALE_IN_COOLDOWN_STEPS;
                self.idle_streak = 0;
                return ScaleAction::ScaleIn { server };
            }
        }
        ScaleAction::Hold
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use heracles_fleet::Generation;

    fn signals() -> ScaleSignals {
        ScaleSignals {
            step: 10,
            queued_jobs: 0,
            stranded_jobs: 0,
            oldest_wait_steps: 0,
            active_servers: 6,
            draining_servers: 0,
            free_slots_elsewhere: 6,
            drain_candidate_residents: 0,
            mean_load: 0.5,
            load_ahead: 0.5,
            min_servers: 2,
            max_servers: 12,
            best_buy: Generation::Newer,
            drain_candidate: Some(3),
            post_shed_load: 0.5,
            energy_price_per_kwh: 0.10,
            energy_price_mean_per_kwh: 0.10,
        }
    }

    #[test]
    fn kinds_round_trip_names() {
        for kind in AutoscaleKind::all() {
            assert_eq!(kind.name().parse::<AutoscaleKind>().unwrap(), kind);
            assert_eq!(kind.build().name(), kind.name());
        }
        assert!("nonsense".parse::<AutoscaleKind>().is_err());
    }

    #[test]
    fn static_policy_always_holds() {
        let mut policy = AutoscaleKind::Static.build();
        let mut s = signals();
        s.stranded_jobs = 100;
        s.oldest_wait_steps = 50;
        assert_eq!(policy.decide(&s), ScaleAction::Hold);
    }

    #[test]
    fn reactive_buys_on_stranded_backlog_and_respects_the_ceiling() {
        let mut policy = AutoscaleKind::Reactive.build();
        let mut s = signals();
        s.queued_jobs = 5;
        s.stranded_jobs = 4;
        s.oldest_wait_steps = 3;
        assert_eq!(policy.decide(&s), ScaleAction::ScaleOut { generation: Generation::Newer });
        // Cooldown: the immediately following step holds even with the
        // backlog still present.
        s.step += 1;
        assert_eq!(policy.decide(&s), ScaleAction::Hold);
        // At the ceiling nothing is bought.
        let mut full = AutoscaleKind::Reactive.build();
        s.step += 10;
        s.active_servers = 12;
        assert_eq!(full.decide(&s), ScaleAction::Hold);
    }

    #[test]
    fn reactive_sheds_only_after_a_sustained_idle_streak() {
        let mut policy = AutoscaleKind::Reactive.build();
        let mut s = signals();
        // Three idle steps: not yet.
        for _ in 0..3 {
            assert_eq!(policy.decide(&s), ScaleAction::Hold);
            s.step += 1;
        }
        // The fourth idle step trips the shed, naming the market's
        // candidate.
        assert_eq!(policy.decide(&s), ScaleAction::ScaleIn { server: 3 });
        // A single queued job resets the streak.
        let mut interrupted = AutoscaleKind::Reactive.build();
        let mut s2 = signals();
        interrupted.decide(&s2);
        s2.step += 1;
        s2.queued_jobs = 1;
        interrupted.decide(&s2);
        s2.step += 1;
        s2.queued_jobs = 0;
        assert_eq!(interrupted.decide(&s2), ScaleAction::Hold, "streak not reset");
    }

    #[test]
    fn reactive_never_sells_below_the_floor_or_while_draining() {
        let mut policy = AutoscaleKind::Reactive.build();
        let mut s = signals();
        s.active_servers = 2; // == min_servers
        for _ in 0..6 {
            assert_eq!(policy.decide(&s), ScaleAction::Hold);
            s.step += 1;
        }
        let mut draining = AutoscaleKind::Reactive.build();
        let mut s2 = signals();
        s2.draining_servers = 1;
        for _ in 0..6 {
            assert_eq!(draining.decide(&s2), ScaleAction::Hold);
            s2.step += 1;
        }
    }

    #[test]
    fn predictive_preprovisions_on_a_climbing_forecast() {
        let mut policy = AutoscaleKind::Predictive.build();
        let mut s = signals();
        // One queued job and a climbing forecast: the reactive trigger
        // (3 stranded, 2 steps) is nowhere near firing, but the peak is
        // coming — predictive buys now.
        s.queued_jobs = 1;
        s.load_ahead = 0.65;
        assert_eq!(policy.decide(&s), ScaleAction::ScaleOut { generation: Generation::Newer });
        // Without the climb, the same queue holds.
        let mut flat = AutoscaleKind::Predictive.build();
        s.load_ahead = 0.5;
        assert_eq!(flat.decide(&s), ScaleAction::Hold);
    }

    #[test]
    fn predictive_sheds_faster_on_the_descent() {
        let mut policy = AutoscaleKind::Predictive.build();
        let mut s = signals();
        s.load_ahead = 0.35; // falling past the threshold
                             // Half hysteresis: two idle steps suffice (4 / 2 = 2).
        assert_eq!(policy.decide(&s), ScaleAction::Hold);
        s.step += 1;
        assert_eq!(policy.decide(&s), ScaleAction::ScaleIn { server: 3 });
        // On a flat forecast the full four-step streak is still required.
        let mut flat = AutoscaleKind::Predictive.build();
        let mut s2 = signals();
        for _ in 0..3 {
            assert_eq!(flat.decide(&s2), ScaleAction::Hold);
            s2.step += 1;
        }
        assert_eq!(flat.decide(&s2), ScaleAction::ScaleIn { server: 3 });
    }

    #[test]
    fn shedding_is_refused_when_the_rerouted_share_risks_the_slo() {
        // Idle fleet, shed-ready — but retiring the candidate would push
        // its service pool past the knee: the policy holds instead.
        let mut policy = AutoscaleKind::Reactive.build();
        let mut s = signals();
        s.post_shed_load = 0.88;
        for _ in 0..8 {
            assert_eq!(policy.decide(&s), ScaleAction::Hold, "shed despite SLO risk");
            s.step += 1;
        }
        // Once the demand recedes, the same fleet sheds.
        s.post_shed_load = 0.6;
        assert_eq!(policy.decide(&s), ScaleAction::ScaleIn { server: 3 });
    }

    #[test]
    fn energy_aware_defers_be_buys_through_expensive_hours() {
        // A backlog that would make plain reactive buy immediately...
        let mut reactive = AutoscaleKind::Reactive.build();
        let mut s = signals();
        s.queued_jobs = 5;
        s.stranded_jobs = 4;
        s.oldest_wait_steps = 3;
        assert_eq!(reactive.decide(&s), ScaleAction::ScaleOut { generation: Generation::Newer });
        // ...is deferred at peak tariff: batch work waits for cheap power.
        let mut ea = AutoscaleKind::EnergyAware.build();
        s.energy_price_per_kwh = 0.20;
        assert_eq!(ea.decide(&s), ScaleAction::Hold);
        // The LC rebuy defense is never deferred, at any price.
        s.mean_load = 0.95;
        assert_eq!(ea.decide(&s), ScaleAction::ScaleOut { generation: Generation::Newer });
    }

    #[test]
    fn energy_aware_sheds_faster_and_buys_earlier_off_peak() {
        // Expensive hour: half the idle hysteresis suffices for a shed.
        let mut ea = AutoscaleKind::EnergyAware.build();
        let mut s = signals();
        s.energy_price_per_kwh = 0.20;
        assert_eq!(ea.decide(&s), ScaleAction::Hold);
        s.step += 1;
        assert_eq!(ea.decide(&s), ScaleAction::ScaleIn { server: 3 });

        // Cheap hour: a backlog below the reactive trigger (2 stranded,
        // 1 step of wait vs the default 3-and-2) already buys.
        let mut cheap = AutoscaleKind::EnergyAware.build();
        let mut s2 = signals();
        s2.energy_price_per_kwh = 0.05;
        s2.queued_jobs = 2;
        s2.stranded_jobs = 2;
        s2.oldest_wait_steps = 1;
        assert_eq!(cheap.decide(&s2), ScaleAction::ScaleOut { generation: Generation::Newer });
        // At the mean price the same light backlog holds: the policy
        // degenerates to plain reactive on a flat schedule.
        let mut flat = AutoscaleKind::EnergyAware.build();
        s2.energy_price_per_kwh = 0.10;
        assert_eq!(flat.decide(&s2), ScaleAction::Hold);
    }

    #[test]
    fn occupied_candidates_need_room_elsewhere() {
        // The consolidation guard: an occupied candidate is only shed when
        // its residents fit elsewhere with spare room.
        let mut policy = AutoscaleKind::Reactive.build();
        let mut s = signals();
        s.drain_candidate_residents = 2;
        s.free_slots_elsewhere = 2; // needs 2 + 1 spare
        for _ in 0..8 {
            assert_eq!(policy.decide(&s), ScaleAction::Hold);
            s.step += 1;
        }
        s.free_slots_elsewhere = 3;
        assert_eq!(policy.decide(&s), ScaleAction::ScaleIn { server: 3 });
    }
}
