//! Autoscaling policies: when to buy, when to shed.
//!
//! All policies see the same [`ScaleSignals`] and answer with one
//! [`ScaleAction`] per step (one action per step is the controller's
//! natural rate limit).  They differ in what they look at:
//!
//! * [`StaticPolicy`] — never scales.  The baseline every elastic policy is
//!   judged against: same fleet, same job stream, full TCO bill.
//! * [`ReactivePolicy`] — queue-driven thresholds with hysteresis and
//!   cooldown: buys when stranded (never-started, censored) jobs
//!   accumulate, sheds after a sustained idle streak with spare admitting
//!   capacity.  Reacts *after* the evidence appears.
//! * [`PredictivePolicy`] — additionally reads the diurnal forecast: a
//!   climbing load projection means the fleet is about to lose BE headroom,
//!   so it pre-provisions ahead of the peak (a queue is forming *and* the
//!   peak is coming — buy now, while the box still helps); a falling
//!   projection halves the scale-in hysteresis, shedding promptly once the
//!   peak has passed.
//! * [`EnergyAwarePolicy`] — the reactive core plus the energy price
//!   signal: during expensive hours it defers BE-backlog purchases (batch
//!   work waits for cheap power) and sheds with half the idle hysteresis;
//!   during cheap hours it buys on a lighter backlog, pulling deferred
//!   work into the cheap window.  The LC rebuy defense is never deferred —
//!   latency compliance is not traded for an energy dollar.

use heracles_fleet::LOAD_ENABLE_THRESHOLD;
use serde::{Deserialize, Serialize};

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
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
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

    /// Builds the policy with its default tuning.
    pub fn build(self) -> Box<dyn AutoscalePolicy> {
        match self {
            AutoscaleKind::Static => Box::new(StaticPolicy),
            AutoscaleKind::Reactive => Box::new(ReactivePolicy::new(ReactiveConfig::default())),
            AutoscaleKind::Predictive => {
                Box::new(PredictivePolicy::new(PredictiveConfig::default()))
            }
            AutoscaleKind::EnergyAware => {
                Box::new(EnergyAwarePolicy::new(EnergyAwareConfig::default()))
            }
        }
    }
}

impl std::str::FromStr for AutoscaleKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "static" => Ok(AutoscaleKind::Static),
            "reactive" => Ok(AutoscaleKind::Reactive),
            "predictive" => Ok(AutoscaleKind::Predictive),
            "energy-aware" => Ok(AutoscaleKind::EnergyAware),
            other => Err(format!(
                "unknown autoscaler {other:?} (expected static, reactive, predictive or energy-aware)"
            )),
        }
    }
}

/// The fixed-fleet baseline: never scales.
#[derive(Debug, Default)]
pub struct StaticPolicy;

impl AutoscalePolicy for StaticPolicy {
    fn name(&self) -> &str {
        "static"
    }

    fn decide(&mut self, _signals: &ScaleSignals) -> ScaleAction {
        ScaleAction::Hold
    }
}

/// Tuning of [`ReactivePolicy`] (shared by [`PredictivePolicy`]'s reactive
/// core).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ReactiveConfig {
    /// Stranded (never-started, waited ≥ one step) jobs that trigger a
    /// purchase.
    pub scale_out_stranded: usize,
    /// Steps the oldest stranded job must have waited before a purchase —
    /// one overloaded dispatch round is noise, a persistent backlog is not.
    pub scale_out_wait_steps: usize,
    /// Consecutive empty-queue steps required before shedding a server
    /// (the scale-in side of the hysteresis).
    pub scale_in_idle_steps: usize,
    /// Free admitting BE slots that must remain *elsewhere* after the
    /// candidate's residents have been absorbed — the consolidation guard.
    /// An empty candidate needs only this spare; an occupied one
    /// additionally needs a free slot per resident, so a drain never sheds
    /// capacity its migrations cannot land on.
    pub scale_in_spare_slots: usize,
    /// Steps between a purchase and the next action.  Shorter than the
    /// scale-in cooldown — the asymmetry every production autoscaler ships
    /// with: under-capacity strands work *now*, over-capacity merely costs
    /// a few amortized dollars, so scale out fast, scale in slow.
    pub scale_out_cooldown_steps: usize,
    /// Steps between a drain and the next action (the slow side of the
    /// asymmetry: the fleet needs to show the effect of the last shed
    /// before the policy may judge another one safe).
    pub scale_in_cooldown_steps: usize,
    /// Ceiling on the candidate pool's projected post-shed load
    /// ([`ScaleSignals::post_shed_load`]): a drain is refused when the
    /// re-routed LC share would push the surviving leaves' pool past this
    /// fraction of capacity.  The default sits at the leaf controllers' BE
    /// *re-enable* threshold — shedding into a pool projected above it
    /// guarantees the survivors park their batch work and flirt with their
    /// latency knee, which is SLO risk no amortized dollar saving pays for.
    pub shed_load_ceiling: f64,
    /// Observed fleet load at which capacity is bought back regardless of
    /// the BE queue.  Under the conserving traffic plane a shrunken pool
    /// can sit past its latency knee with an *empty* queue — LC overload
    /// produces no stranded-job evidence, only violations — so the policy
    /// needs load evidence too.  The default sits just past the natural
    /// diurnal peak: a pool observed there is over-demand (its traffic no
    /// longer fits the leaves it has), not merely busy — the natural peak
    /// alone never crosses it, so a healthy full-size fleet is never
    /// bought above its provision.
    pub rebuy_load_ceiling: f64,
}

impl Default for ReactiveConfig {
    fn default() -> Self {
        ReactiveConfig {
            scale_out_stranded: 3,
            scale_out_wait_steps: 2,
            scale_in_idle_steps: 4,
            scale_in_spare_slots: 1,
            scale_out_cooldown_steps: 2,
            scale_in_cooldown_steps: 4,
            shed_load_ceiling: LOAD_ENABLE_THRESHOLD,
            rebuy_load_ceiling: 0.92,
        }
    }
}

impl ReactiveConfig {
    /// The aggressive-consolidation tuning: sheds on the shortest idle
    /// streak, with no cooldown between drains and — crucially — *no*
    /// post-shed load ceiling.  This is the behaviour the old
    /// per-server-trace fleet silently modelled (a retired server's LC
    /// share evaporated, so shedding looked free); under the conserving
    /// traffic plane it demonstrably buys SLO violations, which is exactly
    /// what the integration tests use it to show.
    pub fn aggressive() -> Self {
        ReactiveConfig {
            scale_in_idle_steps: 1,
            scale_in_cooldown_steps: 1,
            shed_load_ceiling: f64::INFINITY,
            rebuy_load_ceiling: f64::INFINITY,
            ..Self::default()
        }
    }
}

/// Queue-threshold autoscaling with hysteresis and cooldown.
#[derive(Debug)]
pub struct ReactivePolicy {
    config: ReactiveConfig,
    idle_streak: usize,
    /// First step at which the next action is allowed (set from the
    /// per-direction cooldowns when an action fires).
    cooldown_until: usize,
}

impl ReactivePolicy {
    /// Creates the policy with the given tuning.
    pub fn new(config: ReactiveConfig) -> Self {
        ReactivePolicy { config, idle_streak: 0, cooldown_until: 0 }
    }

    fn cooled(&self, step: usize) -> bool {
        step >= self.cooldown_until
    }

    fn record_scale_out(&mut self, step: usize) {
        self.cooldown_until = step + self.config.scale_out_cooldown_steps;
    }

    /// The per-step hysteresis bookkeeping.  Runs every step for every
    /// decision path — a wrapper that takes an action before delegating to
    /// [`decide_with`](Self::decide_with) must still call this first, or a
    /// stale idle streak from before its action could trigger a scale-in
    /// moments after a purchase.
    fn note_queue(&mut self, signals: &ScaleSignals) {
        if signals.queued_jobs == 0 {
            self.idle_streak += 1;
        } else {
            self.idle_streak = 0;
        }
    }

    /// The shared decision core: `idle_needed` lets a wrapper relax the
    /// scale-in hysteresis, and `defer_be_buy` lets the energy-aware
    /// wrapper suppress the BE-backlog purchase during expensive hours
    /// (the LC rebuy defense fires regardless — stranded batch work can
    /// wait for cheap power, an overloaded LC pool cannot).  Assumes
    /// [`note_queue`](Self::note_queue) already ran this step.
    fn decide_with(
        &mut self,
        signals: &ScaleSignals,
        idle_needed: usize,
        defer_be_buy: bool,
    ) -> ScaleAction {
        if !self.cooled(signals.step) {
            return ScaleAction::Hold;
        }
        // LC SLO defense first: a pool observed past the controllers' BE
        // disable threshold is already past its knee — re-routed scale-in
        // load got it there, and no BE-queue evidence will ever appear
        // (batch work is simply parked).  Buy back capacity now.
        if signals.mean_load >= self.config.rebuy_load_ceiling && signals.can_buy() {
            self.record_scale_out(signals.step);
            return ScaleAction::ScaleOut { generation: signals.best_buy };
        }
        if !defer_be_buy
            && signals.stranded_jobs >= self.config.scale_out_stranded
            && signals.oldest_wait_steps >= self.config.scale_out_wait_steps
            && signals.can_buy()
        {
            self.record_scale_out(signals.step);
            return ScaleAction::ScaleOut { generation: signals.best_buy };
        }
        if self.idle_streak >= idle_needed
            && signals.free_slots_elsewhere
                >= signals.drain_candidate_residents + self.config.scale_in_spare_slots
            && signals.can_sell()
            && signals.draining_servers == 0
            && signals.post_shed_load <= self.config.shed_load_ceiling
        {
            if let Some(server) = signals.drain_candidate {
                self.cooldown_until = signals.step + self.config.scale_in_cooldown_steps;
                self.idle_streak = 0;
                return ScaleAction::ScaleIn { server };
            }
        }
        ScaleAction::Hold
    }
}

impl AutoscalePolicy for ReactivePolicy {
    fn name(&self) -> &str {
        "reactive"
    }

    fn decide(&mut self, signals: &ScaleSignals) -> ScaleAction {
        self.note_queue(signals);
        let idle_needed = self.config.scale_in_idle_steps;
        self.decide_with(signals, idle_needed, false)
    }
}

/// Tuning of [`PredictivePolicy`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PredictiveConfig {
    /// The reactive core's thresholds.
    pub reactive: ReactiveConfig,
    /// Load climb (forecast minus current, in load fraction) that triggers
    /// pre-provisioning when any queue has formed.
    pub climb_threshold: f64,
    /// Load fall below which the scale-in hysteresis is halved (the peak
    /// has passed; idle capacity will not be needed again soon).
    pub fall_threshold: f64,
}

impl Default for PredictiveConfig {
    fn default() -> Self {
        PredictiveConfig {
            reactive: ReactiveConfig::default(),
            climb_threshold: 0.06,
            fall_threshold: 0.06,
        }
    }
}

/// Diurnal-phase-aware autoscaling: the reactive core plus forecast-driven
/// pre-provisioning ahead of the load peak and prompt shedding after it.
#[derive(Debug)]
pub struct PredictivePolicy {
    config: PredictiveConfig,
    core: ReactivePolicy,
}

impl PredictivePolicy {
    /// Creates the policy with the given tuning.
    pub fn new(config: PredictiveConfig) -> Self {
        PredictivePolicy { config, core: ReactivePolicy::new(config.reactive) }
    }
}

impl AutoscalePolicy for PredictivePolicy {
    fn name(&self) -> &str {
        "predictive"
    }

    fn decide(&mut self, signals: &ScaleSignals) -> ScaleAction {
        self.core.note_queue(signals);
        let trend = signals.load_ahead - signals.mean_load;
        // LC SLO defense, ahead of time: if the forecast says the (possibly
        // shed-shrunken) pool will be past the re-buy line, buy *now* — by
        // the time the reactive core observes that load, the re-routed
        // share is already buying violations.  This is the signal that
        // lets a predictive fleet shed through the valley and still meet
        // the peak whole.
        if signals.load_ahead >= self.config.reactive.rebuy_load_ceiling
            && signals.can_buy()
            && self.core.cooled(signals.step)
        {
            self.core.record_scale_out(signals.step);
            return ScaleAction::ScaleOut { generation: signals.best_buy };
        }
        // Ahead of the peak: a forming queue plus a climbing forecast means
        // the fleet is about to lose BE headroom exactly when the backlog
        // needs it.  Buy now — the reactive trigger would only fire after
        // jobs have already stranded for several steps of the peak.
        if trend > self.config.climb_threshold
            && signals.queued_jobs > 0
            && signals.can_buy()
            && self.core.cooled(signals.step)
        {
            self.core.record_scale_out(signals.step);
            return ScaleAction::ScaleOut { generation: signals.best_buy };
        }
        // Past the peak the forecast only falls: shed with half the idle
        // hysteresis (capacity freed now stays free for the rest of the
        // descent).
        let idle_needed = if trend < -self.config.fall_threshold {
            (self.config.reactive.scale_in_idle_steps / 2).max(1)
        } else {
            self.config.reactive.scale_in_idle_steps
        };
        self.core.decide_with(signals, idle_needed, false)
    }
}

/// Tuning of [`EnergyAwarePolicy`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EnergyAwareConfig {
    /// The reactive core's thresholds.
    pub reactive: ReactiveConfig,
    /// Current-to-daily-mean price ratio at or above which an hour counts
    /// as expensive: BE-backlog purchases are deferred and the scale-in
    /// hysteresis is halved.
    pub expensive_ratio: f64,
    /// Current-to-daily-mean price ratio at or below which an hour counts
    /// as cheap: a lighter backlog (half the stranded threshold, one step
    /// of wait) already justifies a purchase, pulling deferred BE work
    /// into the cheap window.
    pub cheap_ratio: f64,
}

impl Default for EnergyAwareConfig {
    fn default() -> Self {
        EnergyAwareConfig {
            reactive: ReactiveConfig::default(),
            expensive_ratio: 1.25,
            cheap_ratio: 0.80,
        }
    }
}

/// Energy-price-aware autoscaling: the reactive core plus the
/// [`ScaleSignals::energy_price_ratio`] signal, shifting BE work toward
/// cheap-energy hours.
///
/// During expensive hours the policy behaves like a descent-phase
/// predictive fleet — shed on half the idle hysteresis, refuse new
/// BE-backlog purchases — because every watt saved then is priced at the
/// peak tariff.  During cheap hours it buys on a lighter backlog, so work
/// deferred through the peak completes while the tariff is low.  Two
/// invariants bound the SLO cost: the LC rebuy defense (load past the
/// re-buy ceiling) fires at *any* price, and sheds remain gated by the
/// reactive core's post-shed-load ceiling — the policy only ever trades
/// BE latency, never LC compliance, for energy dollars.  Under a flat
/// schedule the price ratio is constantly 1 and the policy degenerates to
/// plain reactive.
#[derive(Debug)]
pub struct EnergyAwarePolicy {
    config: EnergyAwareConfig,
    core: ReactivePolicy,
}

impl EnergyAwarePolicy {
    /// Creates the policy with the given tuning.
    pub fn new(config: EnergyAwareConfig) -> Self {
        EnergyAwarePolicy { config, core: ReactivePolicy::new(config.reactive) }
    }
}

impl AutoscalePolicy for EnergyAwarePolicy {
    fn name(&self) -> &str {
        "energy-aware"
    }

    fn decide(&mut self, signals: &ScaleSignals) -> ScaleAction {
        self.core.note_queue(signals);
        let ratio = signals.energy_price_ratio();
        if ratio >= self.config.expensive_ratio {
            // Expensive hour: defer BE purchases (the backlog waits for
            // cheap power) and shed with half the hysteresis — idle
            // capacity burning peak-tariff watts is the most expensive
            // kind.  The rebuy defense inside the core still fires.
            let idle_needed = (self.config.reactive.scale_in_idle_steps / 2).max(1);
            return self.core.decide_with(signals, idle_needed, true);
        }
        if ratio <= self.config.cheap_ratio
            && signals.stranded_jobs >= (self.config.reactive.scale_out_stranded / 2).max(1)
            && signals.oldest_wait_steps >= 1
            && signals.can_buy()
            && self.core.cooled(signals.step)
        {
            // Cheap hour with a backlog forming: buy early, while the
            // joules the new box will burn are at the off-peak price.
            self.core.record_scale_out(signals.step);
            return ScaleAction::ScaleOut { generation: signals.best_buy };
        }
        self.core.decide_with(signals, self.config.reactive.scale_in_idle_steps, false)
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
        let mut policy = StaticPolicy;
        let mut s = signals();
        s.stranded_jobs = 100;
        s.oldest_wait_steps = 50;
        assert_eq!(policy.decide(&s), ScaleAction::Hold);
    }

    #[test]
    fn reactive_buys_on_stranded_backlog_and_respects_the_ceiling() {
        let mut policy = ReactivePolicy::new(ReactiveConfig::default());
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
        let mut full = ReactivePolicy::new(ReactiveConfig::default());
        s.step += 10;
        s.active_servers = 12;
        assert_eq!(full.decide(&s), ScaleAction::Hold);
    }

    #[test]
    fn reactive_sheds_only_after_a_sustained_idle_streak() {
        let mut policy = ReactivePolicy::new(ReactiveConfig::default());
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
        let mut interrupted = ReactivePolicy::new(ReactiveConfig::default());
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
        let mut policy = ReactivePolicy::new(ReactiveConfig::default());
        let mut s = signals();
        s.active_servers = 2; // == min_servers
        for _ in 0..6 {
            assert_eq!(policy.decide(&s), ScaleAction::Hold);
            s.step += 1;
        }
        let mut draining = ReactivePolicy::new(ReactiveConfig::default());
        let mut s2 = signals();
        s2.draining_servers = 1;
        for _ in 0..6 {
            assert_eq!(draining.decide(&s2), ScaleAction::Hold);
            s2.step += 1;
        }
    }

    #[test]
    fn predictive_preprovisions_on_a_climbing_forecast() {
        let mut policy = PredictivePolicy::new(PredictiveConfig::default());
        let mut s = signals();
        // One queued job and a climbing forecast: the reactive trigger
        // (3 stranded, 2 steps) is nowhere near firing, but the peak is
        // coming — predictive buys now.
        s.queued_jobs = 1;
        s.load_ahead = 0.65;
        assert_eq!(policy.decide(&s), ScaleAction::ScaleOut { generation: Generation::Newer });
        // Without the climb, the same queue holds.
        let mut flat = PredictivePolicy::new(PredictiveConfig::default());
        s.load_ahead = 0.5;
        assert_eq!(flat.decide(&s), ScaleAction::Hold);
    }

    #[test]
    fn predictive_sheds_faster_on_the_descent() {
        let mut policy = PredictivePolicy::new(PredictiveConfig::default());
        let mut s = signals();
        s.load_ahead = 0.35; // falling past the threshold
                             // Half hysteresis: two idle steps suffice (4 / 2 = 2).
        assert_eq!(policy.decide(&s), ScaleAction::Hold);
        s.step += 1;
        assert_eq!(policy.decide(&s), ScaleAction::ScaleIn { server: 3 });
        // On a flat forecast the full four-step streak is still required.
        let mut flat = PredictivePolicy::new(PredictiveConfig::default());
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
        let mut policy = ReactivePolicy::new(ReactiveConfig::default());
        let mut s = signals();
        s.post_shed_load = 0.88;
        for _ in 0..8 {
            assert_eq!(policy.decide(&s), ScaleAction::Hold, "shed despite SLO risk");
            s.step += 1;
        }
        // Once the demand recedes, the same fleet sheds.
        s.post_shed_load = 0.6;
        assert_eq!(policy.decide(&s), ScaleAction::ScaleIn { server: 3 });

        // The aggressive tuning has no ceiling: it sheds straight into the
        // risk on the first idle step — the old API's hidden behaviour,
        // now an explicit opt-in.
        let mut reckless = ReactivePolicy::new(ReactiveConfig::aggressive());
        let mut s2 = signals();
        s2.post_shed_load = 1.2;
        assert_eq!(reckless.decide(&s2), ScaleAction::ScaleIn { server: 3 });
    }

    #[test]
    fn energy_aware_defers_be_buys_through_expensive_hours() {
        // A backlog that would make plain reactive buy immediately...
        let mut reactive = ReactivePolicy::new(ReactiveConfig::default());
        let mut s = signals();
        s.queued_jobs = 5;
        s.stranded_jobs = 4;
        s.oldest_wait_steps = 3;
        assert_eq!(reactive.decide(&s), ScaleAction::ScaleOut { generation: Generation::Newer });
        // ...is deferred at peak tariff: batch work waits for cheap power.
        let mut ea = EnergyAwarePolicy::new(EnergyAwareConfig::default());
        s.energy_price_per_kwh = 0.20;
        assert_eq!(ea.decide(&s), ScaleAction::Hold);
        // The LC rebuy defense is never deferred, at any price.
        s.mean_load = 0.95;
        assert_eq!(ea.decide(&s), ScaleAction::ScaleOut { generation: Generation::Newer });
    }

    #[test]
    fn energy_aware_sheds_faster_and_buys_earlier_off_peak() {
        // Expensive hour: half the idle hysteresis suffices for a shed.
        let mut ea = EnergyAwarePolicy::new(EnergyAwareConfig::default());
        let mut s = signals();
        s.energy_price_per_kwh = 0.20;
        assert_eq!(ea.decide(&s), ScaleAction::Hold);
        s.step += 1;
        assert_eq!(ea.decide(&s), ScaleAction::ScaleIn { server: 3 });

        // Cheap hour: a backlog below the reactive trigger (2 stranded,
        // 1 step of wait vs the default 3-and-2) already buys.
        let mut cheap = EnergyAwarePolicy::new(EnergyAwareConfig::default());
        let mut s2 = signals();
        s2.energy_price_per_kwh = 0.05;
        s2.queued_jobs = 2;
        s2.stranded_jobs = 2;
        s2.oldest_wait_steps = 1;
        assert_eq!(cheap.decide(&s2), ScaleAction::ScaleOut { generation: Generation::Newer });
        // At the mean price the same light backlog holds: the policy
        // degenerates to plain reactive on a flat schedule.
        let mut flat = EnergyAwarePolicy::new(EnergyAwareConfig::default());
        s2.energy_price_per_kwh = 0.10;
        assert_eq!(flat.decide(&s2), ScaleAction::Hold);
    }

    #[test]
    fn occupied_candidates_need_room_elsewhere() {
        // The consolidation guard: an occupied candidate is only shed when
        // its residents fit elsewhere with spare room.
        let mut policy = ReactivePolicy::new(ReactiveConfig::default());
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
