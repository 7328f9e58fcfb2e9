//! End-to-end assertions for the traffic plane: LC demand is first-class
//! and conserved, mixed-service fleets are real, and scale-in carries the
//! SLO risk the old per-server-trace API hid.
//!
//! * On a mixed websearch+memkeyval fleet scheduling the evaluation job
//!   set (which includes the iperf network antagonist memkeyval cannot
//!   tolerate), slack-aware balancing plus interference-aware placement
//!   beats capacity-weighted plus least-loaded on violation server-steps
//!   at equal BE throughput — the (hardware, service) interference key and
//!   the balancer's divert-from-distress both pulling the same direction.
//! * Aggressive scale-in (no SLO-risk pricing — exactly the behaviour the
//!   old API silently modelled, since a retired leaf's traffic used to
//!   evaporate) now measurably buys SLO violations, while the predictive
//!   autoscaler — which prices the re-routed share before shedding and
//!   re-buys ahead of the forecast — avoids them entirely.
//! * Demand conservation is auditable end to end: every step of every run,
//!   routed QPS equals offered QPS to floating-point tolerance.

use heracles::autoscale::{
    AutoscaleConfig, AutoscaleKind, AutoscalePolicy, AutoscaleResult, ElasticFleet, ScaleAction,
    ScaleSignals,
};
use heracles::fleet::{
    BalancerKind, FleetConfig, FleetResult, FleetSim, Generation, JobMix, PolicyKind,
};
use heracles::hw::ServerConfig;
use heracles::workloads::{LcKind, ServiceMix};

/// The mixed websearch+memkeyval scenario: an evaluation job stream (which
/// includes the iperf network antagonist) over a two-service fleet, hot
/// enough that placement and balancing decisions show up in the violation
/// ledger.
fn mixed_lc_config(balancer: BalancerKind) -> FleetConfig {
    FleetConfig {
        services: ServiceMix { websearch: 0.5, ml_cluster: 0.0, memkeyval: 0.5 },
        balancer,
        jobs: heracles::fleet::JobStreamConfig {
            mix: JobMix::Evaluation,
            arrivals_per_step: 2.0,
            ..heracles::fleet::JobStreamConfig::default()
        },
        ..FleetConfig::fast_services()
    }
}

fn run(config: FleetConfig, policy: PolicyKind) -> FleetResult {
    FleetSim::new(config, ServerConfig::default_haswell(), policy).run()
}

#[test]
fn mixed_service_fleet_conserves_demand_and_serves_both_services() {
    let result = run(mixed_lc_config(BalancerKind::CapacityWeighted), PolicyKind::LeastLoaded);

    // Both services got leaves, and both pools carried traffic every step.
    let ws = LcKind::Websearch.index();
    let kv = LcKind::Memkeyval.index();
    for step in &result.steps {
        assert_eq!(step.in_service_by_service[ws], 4);
        assert_eq!(step.in_service_by_service[kv], 4);
        assert!(step.offered_qps[ws] > 0.0 && step.offered_qps[kv] > 0.0);
        assert_eq!(step.offered_qps[LcKind::MlCluster.index()], 0.0);
        // memkeyval's pool moves hundreds of thousands of QPS, websearch's
        // thousands — per-service accounting keeps them apart.
        assert!(step.offered_qps[kv] > 10.0 * step.offered_qps[ws]);
    }

    // The conservation audit: routed == offered on every step, for every
    // service — a leaf leaving or joining a pool re-divides traffic, it
    // never creates or destroys it.
    assert!(
        result.max_routing_imbalance() < 1e-9,
        "demand was not conserved: {}",
        result.max_routing_imbalance()
    );

    // Jobs actually ran on both services' leaves.
    let placed_services: std::collections::HashSet<usize> = result
        .events
        .iter()
        .filter(|e| e.kind == heracles::fleet::FleetEventKind::Placed)
        .map(|e| result.server_services[e.server])
        .collect();
    assert!(placed_services.contains(&ws), "no job ever placed on a websearch leaf");
    assert!(placed_services.contains(&kv), "no job ever placed on a memkeyval leaf");
}

#[test]
fn slack_aware_plus_interference_aware_beats_capacity_weighted_plus_least_loaded() {
    let naive = run(mixed_lc_config(BalancerKind::CapacityWeighted), PolicyKind::LeastLoaded);
    let informed = run(mixed_lc_config(BalancerKind::SlackAware), PolicyKind::InterferenceAware);

    // Fewer violation server-steps...
    assert!(
        informed.violation_server_steps() < naive.violation_server_steps(),
        "informed stack violated {} vs naive {}",
        informed.violation_server_steps(),
        naive.violation_server_steps()
    );
    // ...concentrated where the mechanism says: the per-(hardware, service)
    // interference key keeps network antagonists off the network-bound
    // memkeyval leaves.
    let kv = LcKind::Memkeyval.index();
    assert!(
        informed.violation_server_steps_by_service()[kv]
            <= naive.violation_server_steps_by_service()[kv],
        "informed stack hurt memkeyval more"
    );
    // ...at equal BE throughput: the latency win is not bought by idling
    // the batch tier.
    let ratio = informed.be_core_s_served() / naive.be_core_s_served();
    assert!(ratio >= 0.97, "informed stack served only {:.1}% of naive's work", ratio * 100.0);
}

/// Runs the canonical fast elastic scenario with a sparse BE stream — so
/// sparse that LC overload produces no stranded-job evidence, which is
/// precisely the regime where queue-driven autoscaling is blind to the
/// damage its sheds cause.
fn sparse_elastic(policy: Box<dyn AutoscalePolicy>) -> AutoscaleResult {
    let mut scenario = AutoscaleConfig::fast_test();
    scenario.fleet.jobs.arrivals_per_step = 0.2;
    let server = ServerConfig::default_haswell();
    ElasticFleet::new(scenario, server, PolicyKind::LeastLoaded, AutoscaleKind::Static)
        .with_autoscaler(policy)
        .run()
}

/// Aggressive consolidation: the reactive autoscaler's BE-backlog buy, but
/// sheds on any idle step, with a one-step cooldown after a drain, no
/// post-shed load ceiling and no load-evidence re-buy.  This is what the
/// old per-server-trace fleet silently modelled (a retired server's LC
/// share evaporated, so shedding looked free); under the conserving
/// traffic plane it buys SLO violations.
#[derive(Debug, Default)]
struct AggressiveConsolidation {
    cooldown_until: usize,
}

impl AutoscalePolicy for AggressiveConsolidation {
    fn name(&self) -> &str {
        "aggressive"
    }

    fn decide(&mut self, s: &ScaleSignals) -> ScaleAction {
        if s.step < self.cooldown_until {
            return ScaleAction::Hold;
        }
        if s.stranded_jobs >= 3 && s.oldest_wait_steps >= 2 && s.can_buy() {
            self.cooldown_until = s.step + 2;
            return ScaleAction::ScaleOut { generation: s.best_buy };
        }
        match s.drain_candidate {
            Some(server)
                if s.queued_jobs == 0
                    && s.free_slots_elsewhere > s.drain_candidate_residents
                    && s.can_sell()
                    && s.draining_servers == 0 =>
            {
                self.cooldown_until = s.step + 1;
                ScaleAction::ScaleIn { server }
            }
            _ => ScaleAction::Hold,
        }
    }
}

#[test]
fn aggressive_consolidation_sheds_into_the_rerouted_share() {
    // An idle fleet whose candidate's re-routed share would push the pool
    // past capacity: aggressive consolidation has no ceiling, so it sheds
    // straight into the risk on the first idle step.
    let s = ScaleSignals {
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
        post_shed_load: 1.2,
        energy_price_per_kwh: 0.10,
        energy_price_mean_per_kwh: 0.10,
    };
    let mut reckless = AggressiveConsolidation::default();
    assert_eq!(reckless.decide(&s), ScaleAction::ScaleIn { server: 3 });
}

#[test]
fn aggressive_scale_in_buys_violations_the_predictive_policy_avoids() {
    let fixed = sparse_elastic(AutoscaleKind::Static.build());
    let priced = sparse_elastic(AutoscaleKind::Reactive.build());
    let predictive = sparse_elastic(AutoscaleKind::Predictive.build());
    let aggressive = sparse_elastic(Box::new(AggressiveConsolidation::default()));

    // The static fleet never violates: the natural diurnal peak fits the
    // provisioned pool.  Every violation below is *induced by scale-in
    // re-routing* — the risk the old per-server-trace API structurally hid.
    assert_eq!(fixed.fleet.violation_server_steps(), 0, "static fleet violated");

    // Aggressive consolidation (no SLO-risk pricing, no load-evidence
    // re-buy — the old API's implicit model) sheds deep into the valley
    // and runs the survivors far past their knee on the climb.
    assert!(aggressive.scale_ins() > 0);
    assert!(
        aggressive.fleet.violation_server_steps() >= 10,
        "aggressive scale-in caused only {} violation server-steps — the re-routed \
         share no longer hurts?",
        aggressive.fleet.violation_server_steps()
    );

    // The priced reactive policy keeps the damage to a small transient —
    // it refuses sheds whose re-routed share is projected past the knee,
    // and buys back on load evidence — but it still *observes* the
    // overload before acting, so a handful of server-steps slip through.
    assert!(
        priced.fleet.violation_server_steps() < aggressive.fleet.violation_server_steps() / 2,
        "pricing did not reduce the violations ({} vs {})",
        priced.fleet.violation_server_steps(),
        aggressive.fleet.violation_server_steps()
    );

    // The predictive policy — shedding against the forecast and re-buying
    // ahead of the peak — avoids the re-route-induced violations entirely.
    assert_eq!(
        predictive.fleet.violation_server_steps(),
        0,
        "the predictive autoscaler did not avoid the re-route-induced violations"
    );
    assert!(predictive.scale_ins() > 0, "predictive never shed — the comparison is vacuous");

    // Demand conservation held throughout every elastic run: retiring and
    // purchasing leaves re-divides each service's traffic, never loses it.
    for result in [&fixed, &priced, &predictive, &aggressive] {
        assert!(result.fleet.max_routing_imbalance() < 1e-9);
    }
}
