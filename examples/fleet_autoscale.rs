//! Elastic fleet sweep: every built-in autoscaler against the static
//! baseline, across initial fleet sizes and generation mixes.
//!
//! Each run wraps the fleet scheduler in the closed-loop elastic controller
//! on the canonical diurnal scenario (the run compressed onto one full
//! 12-hour cycle, a phase-coherent fleet, a job stream sized to ~60% of
//! static capacity): the reactive policy scales on stranded-job evidence,
//! the predictive one additionally pre-provisions ahead of the load peak.
//! Scale-out buys the generation with the best marginal BE throughput per
//! TCO dollar; scale-in drains servers by live-migrating their residents.
//! The last column is the figure of merit: amortized TCO per 1000 completed
//! BE core·seconds, relative to the static fleet.
//!
//! Run with: `cargo run --release --example fleet_autoscale`

use heracles::autoscale::{AutoscaleConfig, AutoscaleKind, ElasticFleet};
use heracles::fleet::{FleetConfig, GenerationMix, PolicyKind};
use heracles::hw::ServerConfig;

fn main() {
    let server = ServerConfig::default_haswell();

    println!("Elastic fleet: autoscalers × fleet sizes × generation mixes");
    println!();
    println!(
        "{:>8} {:<12} {:<12} {:>8} {:>7} {:>7} {:>9} {:>10} {:>9} {:>10}",
        "servers",
        "mix",
        "autoscaler",
        "mean",
        "bought",
        "drained",
        "migrated",
        "core.s",
        "TCO $",
        "vs static"
    );

    for mix in [GenerationMix::homogeneous(), GenerationMix::mixed_datacenter()] {
        for servers in [8usize, 12] {
            let scenario =
                AutoscaleConfig::diurnal(FleetConfig { servers, mix, ..FleetConfig::fast_test() });
            let mut static_per_kcs = None;
            for kind in AutoscaleKind::all() {
                let result =
                    ElasticFleet::new(scenario, server.clone(), PolicyKind::LeastLoaded, kind)
                        .run();
                let per_kcs = result.fleet.tco_per_be_core_s() * 1_000.0;
                if kind == AutoscaleKind::Static {
                    static_per_kcs = Some(per_kcs);
                }
                let delta = static_per_kcs
                    .map(|s| format!("{:+.1}%", (per_kcs / s - 1.0) * 100.0))
                    .unwrap_or_default();
                println!(
                    "{:>8} {:<12} {:<12} {:>8.1} {:>7} {:>7} {:>9} {:>10.0} {:>9.2} {:>10}",
                    servers,
                    mix.to_string(),
                    result.autoscaler,
                    result.fleet.mean_in_service_servers(),
                    result.scale_outs(),
                    result.scale_ins(),
                    result.drain_migrations(),
                    result.fleet.be_core_s_served(),
                    result.fleet.total_tco_dollars(),
                    delta
                );
            }
            println!();
        }
    }
    println!("(identical seeded job stream per block; \"vs static\" compares amortized TCO per");
    println!(" completed core·second — negative means the elastic fleet does the same work");
    println!(" for fewer dollars.)");
}
