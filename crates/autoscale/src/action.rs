//! Scale actions, the controller's audit log, and the per-step signal
//! bundle policies decide from.

use heracles_fleet::{Generation, JobId, ServerId};
use serde::{Deserialize, Serialize};

/// What an [`AutoscalePolicy`](crate::AutoscalePolicy) may ask the elastic
/// controller to do at a step boundary.
///
/// Scale-out names the hardware generation to purchase — an autoscaler does
/// not buy "a server", it buys the generation with the best marginal BE
/// throughput per TCO dollar (see [`GenerationMarket`](crate::GenerationMarket)).
/// Scale-in names the server to drain; the controller then live-migrates its
/// residents away and retires it once empty.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ScaleAction {
    /// No change this step.
    Hold,
    /// Purchase and commission one server of the given generation.
    ScaleOut {
        /// The hardware generation to buy.
        generation: Generation,
    },
    /// Begin draining the given server towards retirement.
    ScaleIn {
        /// The server to drain.
        server: ServerId,
    },
}

/// One entry of the elastic controller's audit log.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ScaleEventKind {
    /// A server was purchased and commissioned.
    Bought {
        /// The generation purchased.
        generation: Generation,
        /// The id the new server was commissioned under.
        server: ServerId,
    },
    /// A server began draining (scale-in, phase one).
    DrainStarted {
        /// The draining server.
        server: ServerId,
    },
    /// A resident job was live-migrated off a draining server.
    Migrated {
        /// The migrated job.
        job: JobId,
        /// The drained server it left.
        from: ServerId,
        /// The destination it now runs on.
        to: ServerId,
    },
    /// A resident job was requeued instead of migrated — the drain pricer
    /// judged the migration overhead to exceed the job's residual demand.
    DrainRequeued {
        /// The requeued job.
        job: JobId,
        /// The drained server it left.
        from: ServerId,
    },
    /// An empty draining server was retired (scale-in, phase two).
    Retired {
        /// The retired server.
        server: ServerId,
    },
}

/// A scale event with the step it happened before.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ScaleEvent {
    /// Index of the step the event preceded.
    pub step: usize,
    /// What happened.
    pub kind: ScaleEventKind,
}

/// Everything a policy sees when deciding a step's scale action.
///
/// The queue-side signals follow the censored-job accounting of
/// `QueueingDelaySummary`: a *stranded* job has never started and has
/// already waited at least one full step — the population whose wait the
/// survivors-only mean hides, and exactly the evidence that the fleet is
/// undersized.  The forecast pair (`mean_load`, `load_ahead`) is what lets
/// a diurnal-phase-aware policy act before the peak instead of after it.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ScaleSignals {
    /// Index of the step about to run.
    pub step: usize,
    /// Jobs currently waiting in the queue (started or not).
    pub queued_jobs: usize,
    /// Never-started jobs that have waited at least one full step.
    pub stranded_jobs: usize,
    /// Longest wait among never-started queued jobs, in whole steps.
    pub oldest_wait_steps: usize,
    /// Servers currently active (excludes draining and retired).
    pub active_servers: usize,
    /// Servers currently draining.
    pub draining_servers: usize,
    /// Free BE slots across admitting servers *other than* the drain
    /// candidate — the capacity that would absorb the candidate's migrated
    /// residents.
    pub free_slots_elsewhere: usize,
    /// Resident jobs on the drain candidate (0 when the candidate is empty
    /// or absent).  Together with [`free_slots_elsewhere`] this is what
    /// makes consolidation drains capacity-aware: an occupied box is only
    /// shed when its residents fit elsewhere with spare room.
    ///
    /// [`free_slots_elsewhere`]: ScaleSignals::free_slots_elsewhere
    pub drain_candidate_residents: usize,
    /// Core-weighted mean LC load the next step will sample.
    pub mean_load: f64,
    /// Core-weighted mean LC load `FORECAST_LEAD_STEPS` ahead.
    pub load_ahead: f64,
    /// Floor on active servers (the controller refuses to drain below it).
    pub min_servers: usize,
    /// Ceiling on in-service servers (the controller refuses to buy above
    /// it).
    pub max_servers: usize,
    /// The generation the market currently rates the best buy.
    pub best_buy: Generation,
    /// The active server the market rates cheapest to shed, if any.
    pub drain_candidate: Option<ServerId>,
    /// The load fraction the drain candidate's service pool would run at
    /// if the candidate were retired and its traffic re-routed across the
    /// survivors (the worst of the next step and the forecast horizon;
    /// 0 when there is no candidate).  Scale-in is not free capacity
    /// shedding: the re-routed share is added load that can push the
    /// survivors over their latency knee, and this is the number a policy
    /// prices that risk with.
    pub post_shed_load: f64,
    /// The energy price the fleet is currently billed at, in dollars per
    /// kWh (the configured [`EnergyPriceSchedule`] sampled at the
    /// represented hour of day; PUE is applied at billing time, not here).
    ///
    /// [`EnergyPriceSchedule`]: heracles_fleet::EnergyPriceSchedule
    pub energy_price_per_kwh: f64,
    /// The schedule's daily mean price, in dollars per kWh — the reference
    /// an energy-aware policy compares the current price against to decide
    /// whether this hour is cheap or expensive.
    pub energy_price_mean_per_kwh: f64,
}

impl ScaleSignals {
    /// True if the purchase ceiling, which counts servers in service
    /// (active plus draining), still has room.
    pub fn can_buy(&self) -> bool {
        self.active_servers + self.draining_servers < self.max_servers
    }

    /// True if draining one more server would keep the active floor.
    pub fn can_sell(&self) -> bool {
        self.active_servers > self.min_servers
    }

    /// Current-to-daily-mean energy price ratio: above 1 this hour is
    /// pricier than average, below 1 it is cheaper.  Returns 1 for a flat
    /// or degenerate schedule, so price-gated branches simply never fire
    /// when energy pricing carries no signal.
    pub(crate) fn energy_price_ratio(&self) -> f64 {
        if self.energy_price_mean_per_kwh > 0.0 {
            self.energy_price_per_kwh / self.energy_price_mean_per_kwh
        } else {
            1.0
        }
    }
}
