//! Post-hoc analysis of a flight-recorder trace (`heracles-trace/v1`
//! JSONL, as written by `fleet_scale --trace`).
//!
//! The reader is the telemetry crate's flat-field scanner over the
//! schema's fixed rendering — `{"t":...,"scope":"...","kind":"...",...}`
//! with keys in emission order — so the bench crate needs no JSON
//! dependency.  It produces three views:
//!
//! * **placement outcomes** — dispatch rounds, jobs placed vs unplaced,
//!   per placement policy (the trace header names the
//!   policy the run used),
//! * **violation attribution** — every SLO-violation server-step keyed by
//!   its `(service, generation, balancer-decision)` cause; the parse fails
//!   loudly if any violation line is missing one of the three, so an
//!   attributed report always covers 100% of violations,
//! * **wake attribution** — on event-driven-core traces, every woken
//!   leaf-step keyed by its wake-reason combination; the parse fails if a
//!   wake event carries no reason, or (on lossless traces) if a step
//!   reports more woken leaves than it has wake events — a leaf that
//!   stepped with no recorded reason is an attribution hole, not noise,
//! * **autoscale timeline** — buy/drain/migrate/requeue/retire actions in
//!   simulated-time order.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use heracles_fleet::Generation;
use heracles_telemetry::validate_trace_jsonl;
pub use heracles_telemetry::{field_f64, field_raw, field_str, field_u64};

/// One violation cause: the service the server ran, its hardware
/// generation, and what the balancer did to it on the violating step.
pub type ViolationKey = (String, String, String);

/// Everything the report extracts from one trace document.
#[derive(Debug, Clone, Default)]
pub struct TraceReport {
    /// Run metadata from the header line (policy, balancer, seed, ...),
    /// in rendered order.
    pub header: Vec<(String, String)>,
    /// Events retained / dropped by the flight recorder.
    pub events: u64,
    /// Events the bounded ring evicted before the run ended.
    pub dropped: u64,
    /// Dispatch rounds observed (one per step with pending jobs).
    pub dispatch_rounds: u64,
    /// Jobs placed, total.
    pub placed: u64,
    /// Jobs that no server admitted, total.
    pub unplaced: u64,
    /// Jobs completed.
    pub completed: u64,
    /// Jobs preempted.
    pub preempted: u64,
    /// SLO-violation server-steps by (service, generation, balancer
    /// decision) — sums to every `violation` line in the trace.
    pub violations: BTreeMap<ViolationKey, u64>,
    /// Balancer divert verdicts (shed / absorbed) by (service, verdict).
    pub diverts: BTreeMap<(String, String), u64>,
    /// Worst routing imbalance any conservation check saw.
    pub max_imbalance: f64,
    /// Per-server controller decision counts by kind (core scope).
    pub core_decisions: BTreeMap<String, u64>,
    /// Admission verdict flips recorded by the store.
    pub admission_flips: u64,
    /// Woken leaf-steps by wake-reason combination (event-driven core
    /// traces only) — sums to every `wake` line in the trace.
    pub wakes: BTreeMap<String, u64>,
    /// Woken leaf-steps reported by `step` events carrying the
    /// event-driven core's woken/quiescent split.
    pub woken_leaf_steps: u64,
    /// Quiescent leaf-steps reported by the same `step` events.
    pub quiescent_leaf_steps: u64,
    /// Steps whose `step` event carried the woken/quiescent split (zero on
    /// stepped-core traces, which record no wake machinery at all).
    pub event_core_steps: u64,
    /// Autoscale / fleet lifecycle actions in simulated-time order, as
    /// `(time_s, description)` rows.
    pub timeline: Vec<(f64, String)>,
    /// Health-plane alert transitions in simulated-time order, as
    /// `(time_s, description)` rows.
    pub alerts: Vec<(f64, String)>,
    /// `alert.firing` events by alert kind.
    pub alerts_fired: BTreeMap<String, u64>,
    /// `alert.resolved` events by alert kind.
    pub alerts_resolved: BTreeMap<String, u64>,
    /// Per-service attainment sums from `health`/`attainment` events:
    /// `(violating leaf-steps, total leaf-steps)`.
    pub attainment: BTreeMap<String, (u64, u64)>,
}

impl TraceReport {
    /// Parses a trace document, validating it against the schema first.
    ///
    /// Fails if the document is not schema-valid, or if any `violation`
    /// event lacks one of its three attribution fields — a report that
    /// silently dropped causes would defeat its purpose.
    pub fn from_jsonl(doc: &str) -> Result<TraceReport, String> {
        validate_trace_jsonl(doc)?;
        let mut lines = doc.lines();
        let header_line = lines.next().ok_or("empty trace document")?;
        let mut report = TraceReport {
            events: field_u64(header_line, "events").unwrap_or(0),
            dropped: field_u64(header_line, "dropped").unwrap_or(0),
            ..TraceReport::default()
        };
        for key in ["policy", "balancer", "autoscaler", "seed", "servers", "steps", "health"] {
            if let Some(value) = field_str(header_line, key) {
                report.header.push((key.to_string(), value));
            }
        }

        // Wake events since the last `step` line, for the per-step
        // attribution cross-check.
        let mut pending_wakes: u64 = 0;
        for (idx, line) in lines.enumerate() {
            let t = field_f64(line, "t").unwrap_or(0.0);
            let scope = field_str(line, "scope").unwrap_or_default();
            let kind = field_str(line, "kind").unwrap_or_default();
            match (scope.as_str(), kind.as_str()) {
                ("fleet", "wake") => {
                    let reasons = field_str(line, "reasons").unwrap_or_default();
                    if reasons.is_empty() {
                        return Err(format!(
                            "wake event {} has no recorded reason: {line}",
                            idx + 2
                        ));
                    }
                    *report.wakes.entry(reasons).or_insert(0) += 1;
                    pending_wakes += 1;
                }
                ("fleet", "step") => {
                    if let Some(woken) = field_u64(line, "woken") {
                        report.event_core_steps += 1;
                        report.woken_leaf_steps += woken;
                        report.quiescent_leaf_steps += field_u64(line, "quiescent").unwrap_or(0);
                        // Each woken leaf emits exactly one wake line, so on
                        // a lossless trace the counts must line up; a step
                        // that woke more leaves than it attributed stepped a
                        // leaf with no recorded reason.
                        if report.dropped == 0 && pending_wakes != woken {
                            return Err(format!(
                                "step event {} woke {woken} leaves but recorded {pending_wakes} \
                                 wake reasons: {line}",
                                idx + 2
                            ));
                        }
                    }
                    pending_wakes = 0;
                }
                ("fleet", "dispatch_round") => report.dispatch_rounds += 1,
                ("fleet", "place") => report.placed += 1,
                ("fleet", "unplaced") => report.unplaced += 1,
                ("fleet", "complete") => report.completed += 1,
                ("fleet", "preempt") => report.preempted += 1,
                ("fleet", "violation") => {
                    let service = field_str(line, "service");
                    let generation = field_u64(line, "generation")
                        .and_then(|g| Generation::all().get(g as usize).copied())
                        .map(|g| g.name().to_string());
                    let balancer = field_str(line, "balancer");
                    match (service, generation, balancer) {
                        (Some(s), Some(g), Some(b)) => {
                            *report.violations.entry((s, g, b)).or_insert(0) += 1;
                        }
                        _ => {
                            return Err(format!(
                                "violation event {} lacks (service, generation, balancer) \
                                 attribution: {line}",
                                idx + 2
                            ));
                        }
                    }
                }
                ("fleet", "migrate") => {
                    let (job, from, to) = (
                        field_u64(line, "job").unwrap_or(0),
                        field_u64(line, "from").unwrap_or(0),
                        field_u64(line, "to").unwrap_or(0),
                    );
                    report.timeline.push((t, format!("migrate job {job}: {from} -> {to}")));
                }
                ("fleet", "requeue") => {
                    let job = field_u64(line, "job").unwrap_or(0);
                    report.timeline.push((t, format!("requeue job {job}")));
                }
                ("traffic", "divert") => {
                    let service = field_str(line, "service").unwrap_or_default();
                    let verdict = field_str(line, "verdict").unwrap_or_default();
                    *report.diverts.entry((service, verdict)).or_insert(0) += 1;
                }
                ("traffic", "conservation") => {
                    if let Some(m) = field_f64(line, "max_imbalance") {
                        report.max_imbalance = report.max_imbalance.max(m);
                    }
                }
                ("core", _) => {
                    *report.core_decisions.entry(kind.clone()).or_insert(0) += 1;
                }
                ("store", "admission") => report.admission_flips += 1,
                ("store", "server_added") => {
                    let server = field_u64(line, "server").unwrap_or(0);
                    let gen = field_str(line, "generation")
                        .or_else(|| field_u64(line, "generation").map(|g| g.to_string()))
                        .unwrap_or_default();
                    report.timeline.push((t, format!("commission server {server} (gen {gen})")));
                }
                ("store", "drain_started") => {
                    let server = field_u64(line, "server").unwrap_or(0);
                    report.timeline.push((t, format!("drain server {server}")));
                }
                ("store", "retired") => {
                    let server = field_u64(line, "server").unwrap_or(0);
                    report.timeline.push((t, format!("retire server {server}")));
                }
                ("store", "reactivated") => {
                    let server = field_u64(line, "server").unwrap_or(0);
                    report.timeline.push((t, format!("reactivate server {server}")));
                }
                ("autoscale", "buy") => {
                    let gen = field_str(line, "generation").unwrap_or_default();
                    let server = field_u64(line, "server").unwrap_or(0);
                    report.timeline.push((t, format!("buy {gen} -> server {server}")));
                }
                ("autoscale", "drain") => {
                    let server = field_u64(line, "server").unwrap_or(0);
                    report.timeline.push((t, format!("scale-in: drain server {server}")));
                }
                ("alert", "firing") => {
                    let alert = field_str(line, "alert").unwrap_or_default();
                    let fast = field_f64(line, "fast").unwrap_or(0.0);
                    let slow = field_f64(line, "slow").unwrap_or(0.0);
                    *report.alerts_fired.entry(alert.clone()).or_insert(0) += 1;
                    report
                        .alerts
                        .push((t, format!("FIRING  {alert} (fast {fast:.3}, slow {slow:.3})")));
                }
                ("alert", "resolved") => {
                    let alert = field_str(line, "alert").unwrap_or_default();
                    let for_steps = field_u64(line, "for_steps").unwrap_or(0);
                    *report.alerts_resolved.entry(alert.clone()).or_insert(0) += 1;
                    report.alerts.push((t, format!("resolved {alert} (after {for_steps} steps)")));
                }
                ("health", "attainment") => {
                    let service = field_str(line, "service").unwrap_or_default();
                    let violating = field_u64(line, "violating").unwrap_or(0);
                    let leaves = field_u64(line, "leaves").unwrap_or(0);
                    let entry = report.attainment.entry(service).or_insert((0, 0));
                    entry.0 += violating;
                    entry.1 += leaves;
                }
                _ => {}
            }
        }
        Ok(report)
    }

    /// Total attributed SLO-violation server-steps.
    pub fn violation_total(&self) -> u64 {
        self.violations.values().sum()
    }

    /// True when the flight recorder evicted events before the run ended:
    /// every counting section of the report is then a lower bound over the
    /// *retained* suffix of the run, not a total.
    pub fn is_partial(&self) -> bool {
        self.dropped > 0
    }

    /// ` [PARTIAL]` marker for section headings when the trace is lossy.
    fn partial_marker(&self) -> &'static str {
        if self.is_partial() {
            " [PARTIAL]"
        } else {
            ""
        }
    }

    /// Renders the report as the text document the bin prints.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "flight-recorder trace report");
        for (key, value) in &self.header {
            let _ = writeln!(out, "  {key}: {value}");
        }
        let _ = writeln!(out, "  events: {} retained, {} dropped", self.events, self.dropped);
        if self.is_partial() {
            let _ = writeln!(
                out,
                "\n  WARNING: the flight recorder dropped {} events (ring capacity exceeded).\n  \
                 Sections marked [PARTIAL] count only the retained suffix of the run;\n  \
                 their totals are lower bounds.  Re-run with a larger --recorder-capacity\n  \
                 for a lossless trace.",
                self.dropped
            );
        }

        let _ = writeln!(out, "\nplacement outcomes{}", self.partial_marker());
        let _ = writeln!(out, "  dispatch rounds: {}", self.dispatch_rounds);
        let _ = writeln!(
            out,
            "  jobs: {} placed, {} unplaced, {} completed, {} preempted",
            self.placed, self.unplaced, self.completed, self.preempted
        );
        let _ = writeln!(out, "  admission verdict flips: {}", self.admission_flips);

        if self.is_partial() {
            let _ = writeln!(
                out,
                "\nviolation attribution ({} server-steps retained) [PARTIAL]",
                self.violation_total()
            );
        } else {
            let _ = writeln!(
                out,
                "\nviolation attribution ({} server-steps, 100% attributed)",
                self.violation_total()
            );
        }
        if self.violations.is_empty() {
            let _ = writeln!(out, "  (no SLO violations recorded)");
        }
        for ((service, generation, balancer), count) in &self.violations {
            let _ = writeln!(
                out,
                "  {count:>6}  service {service:<12} generation {generation:<12} balancer {balancer}"
            );
        }

        let _ = writeln!(out, "\ntraffic plane");
        let _ = writeln!(out, "  max routing imbalance: {:.2e}", self.max_imbalance);
        for ((service, verdict), count) in &self.diverts {
            let _ = writeln!(out, "  {count:>6}  {service} leaves {verdict}");
        }

        if !self.core_decisions.is_empty() {
            let _ = writeln!(out, "\nper-server controller decisions");
            for (kind, count) in &self.core_decisions {
                let _ = writeln!(out, "  {count:>6}  {kind}");
            }
        }

        if self.event_core_steps > 0 {
            let total = self.woken_leaf_steps + self.quiescent_leaf_steps;
            let pct =
                if total > 0 { 100.0 * self.woken_leaf_steps as f64 / total as f64 } else { 0.0 };
            let _ = writeln!(
                out,
                "\nwake attribution ({} woken / {} quiescent leaf-steps, {:.1}% woken){}",
                self.woken_leaf_steps,
                self.quiescent_leaf_steps,
                pct,
                self.partial_marker()
            );
            for (reasons, count) in &self.wakes {
                let _ = writeln!(out, "  {count:>6}  {reasons}");
            }
        }

        let health_on = self.header.iter().any(|(k, v)| k == "health" && v == "on");
        if health_on || !self.alerts.is_empty() || !self.attainment.is_empty() {
            let fired: u64 = self.alerts_fired.values().sum();
            let resolved: u64 = self.alerts_resolved.values().sum();
            let _ = writeln!(
                out,
                "\nhealth alerts ({fired} fired, {resolved} resolved){}",
                self.partial_marker()
            );
            if self.alerts.is_empty() {
                let _ = writeln!(out, "  (no alert transitions recorded)");
            }
            for (t, what) in &self.alerts {
                let _ = writeln!(out, "  t={t:>10.1}s  {what}");
            }
            if !self.attainment.is_empty() {
                let _ = writeln!(
                    out,
                    "\nslo attainment (leaf-step aggregate){}",
                    self.partial_marker()
                );
                for (service, &(violating, leaves)) in &self.attainment {
                    let pct = if leaves > 0 {
                        100.0 * (1.0 - violating as f64 / leaves as f64)
                    } else {
                        100.0
                    };
                    let _ = writeln!(
                        out,
                        "  {service:<12} {pct:>6.2}%  ({violating} violating of {leaves} leaf-steps)"
                    );
                }
            }
        }

        let _ = writeln!(out, "\nautoscale / lifecycle timeline ({} actions)", self.timeline.len());
        for (t, what) in &self.timeline {
            let _ = writeln!(out, "  t={t:>10.1}s  {what}");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use heracles_fleet::{FleetConfig, FleetSim, PolicyKind, SimCore, TelemetryConfig};
    use heracles_hw::ServerConfig;

    #[test]
    fn field_scanners_handle_strings_numbers_and_escapes() {
        let line = r#"{"t":12.500000,"scope":"fleet","kind":"violation","service":"a\"b","generation":1,"load":0.750000}"#;
        assert_eq!(field_f64(line, "t"), Some(12.5));
        assert_eq!(field_str(line, "scope").as_deref(), Some("fleet"));
        assert_eq!(field_str(line, "service").as_deref(), Some("a\"b"));
        assert_eq!(field_u64(line, "generation"), Some(1));
        assert_eq!(field_f64(line, "load"), Some(0.75));
        assert_eq!(field_raw(line, "missing"), None);
    }

    #[test]
    fn report_attributes_every_violation_of_a_real_run() {
        let cfg = FleetConfig { telemetry: TelemetryConfig::enabled(), ..FleetConfig::fast_test() };
        let mut sim = FleetSim::new(cfg, ServerConfig::default_haswell(), PolicyKind::LeastLoaded);
        for _ in 0..cfg.steps {
            sim.step_once();
        }
        let telemetry = sim.take_telemetry().expect("telemetry on");
        let violations_in_trace =
            telemetry.recorder.iter().filter(|e| e.kind() == "violation").count() as u64;
        let doc = telemetry.trace_jsonl(&[("policy", "least-loaded".to_string())]);

        let report = TraceReport::from_jsonl(&doc).expect("trace parses");
        assert_eq!(report.violation_total(), violations_in_trace);
        assert!(report.placed + report.unplaced > 0, "no dispatch outcomes parsed");
        assert!(report.header.iter().any(|(k, v)| k == "policy" && v == "least-loaded"));
        let rendered = report.render();
        assert!(rendered.contains("100% attributed"));
        assert!(rendered.contains("placement outcomes"));
    }

    #[test]
    fn unattributed_violations_fail_the_parse() {
        let doc = "{\"schema\":\"heracles-trace/v1\",\"events\":1,\"dropped\":0}\n\
                   {\"t\":1.000000,\"scope\":\"fleet\",\"kind\":\"violation\",\"server\":3}\n";
        let err = TraceReport::from_jsonl(doc).unwrap_err();
        assert!(err.contains("attribution"), "{err}");
    }

    #[test]
    fn report_attributes_every_wake_of_an_event_core_run() {
        let cfg = FleetConfig {
            telemetry: TelemetryConfig::enabled(),
            sim_core: SimCore::EventDriven,
            ..FleetConfig::fast_test()
        };
        let mut sim = FleetSim::new(cfg, ServerConfig::default_haswell(), PolicyKind::LeastLoaded);
        for _ in 0..cfg.steps {
            sim.step_once();
        }
        let telemetry = sim.take_telemetry().expect("telemetry on");
        let woken = telemetry.metrics.counter("fleet.woken_leaf_steps");
        let quiescent = telemetry.metrics.counter("fleet.quiescent_leaf_steps");
        assert!(
            telemetry.metrics.counter("fleet.jobs_completed") > 0,
            "the run must complete jobs"
        );
        let doc = telemetry.trace_jsonl(&[("policy", "least-loaded".to_string())]);

        let report = TraceReport::from_jsonl(&doc).expect("trace parses");
        assert_eq!(report.event_core_steps, cfg.steps as u64);
        assert_eq!(report.woken_leaf_steps, woken);
        assert_eq!(report.quiescent_leaf_steps, quiescent);
        assert_eq!(report.wakes.values().sum::<u64>(), woken);
        assert!(!report.wakes.is_empty(), "an active fleet must wake some leaves");
        let rendered = report.render();
        assert!(rendered.contains("wake attribution"), "{rendered}");

        // A completion or preemption re-attaches its leaf's BE, so the
        // leaf's wake on the next step must name it.  Steps are keyed by
        // the timestamps of their `step` events.
        let kind = |line: &str| field_str(line, "kind").unwrap_or_default();
        let step_times: Vec<&str> =
            doc.lines().filter(|l| kind(l) == "step").filter_map(|l| field_raw(l, "t")).collect();
        let step_of = |line: &str| {
            let t = field_raw(line, "t").expect("timestamped");
            step_times.iter().position(|&s| s == t).expect("event at a step time")
        };
        let released: Vec<(usize, u64)> = doc
            .lines()
            .filter(|l| matches!(kind(l).as_str(), "complete" | "preempt"))
            .map(|l| (step_of(l) + 1, field_u64(l, "server").expect("server")))
            .collect();
        let mut checked = 0;
        for line in doc.lines().filter(|l| kind(l) == "wake") {
            let key = (step_of(line), field_u64(line, "server").expect("server"));
            if released.contains(&key) {
                let reasons = field_str(line, "reasons").expect("reasons");
                assert!(reasons.split('+').any(|r| r == "job-completion"), "{line}");
                checked += 1;
            }
        }
        assert!(checked > 0, "no leaf woke on the step after a release");
    }

    #[test]
    fn stepped_core_traces_skip_the_wake_section() {
        let cfg = FleetConfig { telemetry: TelemetryConfig::enabled(), ..FleetConfig::fast_test() };
        let mut sim = FleetSim::new(cfg, ServerConfig::default_haswell(), PolicyKind::LeastLoaded);
        for _ in 0..cfg.steps {
            sim.step_once();
        }
        let telemetry = sim.take_telemetry().expect("telemetry on");
        let doc = telemetry.trace_jsonl(&[]);
        let report = TraceReport::from_jsonl(&doc).expect("stepped trace parses");
        assert_eq!(report.event_core_steps, 0);
        assert!(!report.render().contains("wake attribution"));
    }

    #[test]
    fn reasonless_wakes_fail_the_parse() {
        let doc = "{\"schema\":\"heracles-trace/v1\",\"events\":2,\"dropped\":0}\n\
                   {\"t\":1.000000,\"scope\":\"fleet\",\"kind\":\"wake\",\"server\":3}\n\
                   {\"t\":1.000000,\"scope\":\"fleet\",\"kind\":\"step\",\"woken\":1,\"quiescent\":7}\n";
        let err = TraceReport::from_jsonl(doc).unwrap_err();
        assert!(err.contains("no recorded reason"), "{err}");
    }

    #[test]
    fn lossy_traces_render_as_explicitly_partial() {
        let doc = "{\"schema\":\"heracles-trace/v1\",\"events\":1,\"dropped\":42}\n\
                   {\"t\":1.000000,\"scope\":\"fleet\",\"kind\":\"step\",\"step\":0}\n";
        let report = TraceReport::from_jsonl(doc).expect("lossy trace still parses");
        assert!(report.is_partial());
        let rendered = report.render();
        assert!(rendered.contains("WARNING: the flight recorder dropped 42 events"), "{rendered}");
        assert!(rendered.contains("[PARTIAL]"), "{rendered}");
        assert!(!rendered.contains("100% attributed"), "{rendered}");
    }

    #[test]
    fn lossless_traces_do_not_claim_partiality() {
        let doc = "{\"schema\":\"heracles-trace/v1\",\"events\":1,\"dropped\":0}\n\
                   {\"t\":1.000000,\"scope\":\"fleet\",\"kind\":\"step\",\"step\":0}\n";
        let report = TraceReport::from_jsonl(doc).expect("trace parses");
        assert!(!report.is_partial());
        let rendered = report.render();
        assert!(!rendered.contains("[PARTIAL]"), "{rendered}");
        assert!(rendered.contains("100% attributed"), "{rendered}");
    }

    #[test]
    fn alert_and_attainment_events_populate_the_health_section() {
        let doc = "{\"schema\":\"heracles-trace/v1\",\"events\":4,\"dropped\":0,\"health\":\"on\"}\n\
                   {\"t\":1.000000,\"scope\":\"health\",\"kind\":\"attainment\",\"service\":\"websearch\",\"leaves\":4,\"violating\":1,\"attainment\":0.750000}\n\
                   {\"t\":2.000000,\"scope\":\"alert\",\"kind\":\"firing\",\"alert\":\"slo-burn\",\"cause\":\"x\",\"fast\":0.500000,\"slow\":0.300000}\n\
                   {\"t\":3.000000,\"scope\":\"health\",\"kind\":\"attainment\",\"service\":\"websearch\",\"leaves\":4,\"violating\":0,\"attainment\":1.000000}\n\
                   {\"t\":4.000000,\"scope\":\"alert\",\"kind\":\"resolved\",\"alert\":\"slo-burn\",\"cause\":\"x\",\"fast\":0.000000,\"for_steps\":2}\n";
        let report = TraceReport::from_jsonl(doc).expect("trace parses");
        assert_eq!(report.alerts_fired.get("slo-burn"), Some(&1));
        assert_eq!(report.alerts_resolved.get("slo-burn"), Some(&1));
        assert_eq!(report.attainment.get("websearch"), Some(&(1, 8)));
        let rendered = report.render();
        assert!(rendered.contains("health alerts (1 fired, 1 resolved)"), "{rendered}");
        assert!(rendered.contains("FIRING  slo-burn"), "{rendered}");
        assert!(rendered.contains("slo attainment"), "{rendered}");
        assert!(rendered.contains("87.50%"), "{rendered}");
    }

    #[test]
    fn field_str_recovers_every_writer_escape() {
        let line =
            "{\"t\":1.000000,\"scope\":\"x\",\"kind\":\"y\",\"s\":\"a\\\"b\\\\c\\nd\\te\\u0001f\"}";
        assert_eq!(field_str(line, "s").as_deref(), Some("a\"b\\c\nd\te\u{1}f"));
    }

    #[test]
    fn steps_with_unattributed_woken_leaves_fail_the_parse() {
        let doc = "{\"schema\":\"heracles-trace/v1\",\"events\":2,\"dropped\":0}\n\
                   {\"t\":1.000000,\"scope\":\"fleet\",\"kind\":\"wake\",\"server\":3,\"reasons\":\"load_delta\"}\n\
                   {\"t\":1.000000,\"scope\":\"fleet\",\"kind\":\"step\",\"woken\":2,\"quiescent\":6}\n";
        let err = TraceReport::from_jsonl(doc).unwrap_err();
        assert!(err.contains("wake reasons"), "{err}");
    }
}
