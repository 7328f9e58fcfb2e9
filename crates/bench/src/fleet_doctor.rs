//! The report behind the `fleet_doctor` binary: the one reader of a
//! flight-recorder trace (`heracles-trace/v1` JSONL, as written by
//! `fleet_scale --trace`).
//!
//! A doctor report answers "what did this fleet decide, did it hold its
//! SLO, and if not, where does it hurt?" from the run's own artifacts.
//! One pass over the trace fills every section, rendered in this order:
//!
//! * **placement outcomes** — dispatch rounds, jobs placed, unplaced,
//!   completed and preempted, and the store's admission verdict flips,
//! * **violation attribution** — every SLO-violation server-step keyed by
//!   its `(service, generation, balancer-decision)` cause; the parse fails
//!   if any `violation` line lacks one of the three, so an attributed
//!   report always covers 100% of violations,
//! * **traffic plane** — the worst routing imbalance any conservation
//!   check saw and the balancer's shed/absorbed verdicts per service,
//! * **controller decisions** — the per-server Heracles actions by kind,
//! * **wake attribution** (event-driven-core traces only) — every woken
//!   leaf-step keyed by its wake-reason combination; the parse fails if a
//!   `wake` line carries no reason, or (on a lossless trace) if a step
//!   reports more woken leaves than it has `wake` lines — a leaf that
//!   stepped with no recorded reason is an attribution hole, not noise,
//! * **SLO attainment by service** — the per-step `health`/`attainment`
//!   series as a sparkline per service, with the mean, the worst step and
//!   the leaf-step aggregate,
//! * **alert timeline** — every `alert`/`firing` and `alert`/`resolved`
//!   transition the burn-rate engine emitted, in simulated-time order,
//! * **unhealthiest leaves** — the health plane's top-k leaves ranked by
//!   latency-sketch p99, from the end-of-run `health`/`leaf` summary,
//! * **sketch-vs-exact cross-check** — the per-step worst normalized
//!   latencies (available exactly, one per `fleet`/`step` event) replayed
//!   into a fresh [`QuantileSketch`] and compared against sorted
//!   exact quantiles; every estimate must land within the sketch's
//!   documented relative-error bound or the check (and the binary) fails.
//!   When a metrics document is present, the per-leaf view is printed
//!   alongside: the `fleet.normalized_latency` row's sketch quantiles over
//!   every leaf-step, read back by the trace's own parser,
//! * **energy plane** (from the energy columns every `fleet`/`step` line
//!   carries) — a per-generation package-watts sparkline, the top-k
//!   energy-hungriest leaves from the meter's end-of-run summary, and the
//!   joules-vs-∫watts conservation cross-check: each step's fleet joules
//!   must equal its per-generation watts decomposition integrated over
//!   the step, and (on a lossless trace) the meter's fleet ledger must
//!   equal the step column's sum.  A broken conservation identity fails
//!   the binary the same way a broken sketch bound does,
//! * **autoscale / lifecycle timeline** — commission, buy, drain,
//!   migrate, requeue and retire actions in simulated-time order.
//!
//! A lossy trace (recorder drops > 0) renders every section explicitly as
//! `[PARTIAL]` rather than presenting a truncated view as the whole story.
//!
//! Every line is parsed once, by the telemetry crate's strict reader, and
//! every field a section reads is required: a missing, duplicated or
//! mistyped field fails the parse with its line and key.  The only
//! optional columns are `woken`/`quiescent` on `fleet`/`step` lines, which
//! the stepped core never writes.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use heracles_fleet::Generation;
use heracles_telemetry::{
    validate_metrics_json, Object, QuantileSketch, ReadError, TraceCheck, RELATIVE_ERROR,
};

/// The per-generation package-watts columns of a `fleet`/`step` line, in
/// [`Generation::all`] order.
const GEN_WATTS_KEYS: [&str; 3] = ["watts_sandy_bridge", "watts_haswell", "watts_skylake"];

/// The per-leaf latency row of a metrics document's `histograms`.
const PER_LEAF_ROW: &str = "fleet.normalized_latency";

/// One violation cause: the service the server ran, its hardware
/// generation, and what the balancer did to it on the violating step.
pub(crate) type ViolationKey = (String, String, String);

/// One step's attainment sample for a service: `(attainment, violating
/// leaves, in-service leaves)`.
pub(crate) type AttainmentSample = (f64, u64, u64);

/// One row of the unhealthiest-leaves table (a parsed `health`/`leaf`
/// summary event).
#[derive(Debug, Clone, PartialEq)]
pub struct LeafHealth {
    /// Placement-store server id.
    pub(crate) leaf: u64,
    /// Leaf-steps the sketches observed.
    pub(crate) count: u64,
    /// Median worst normalized window latency.
    pub(crate) lat_p50: f64,
    /// p99 worst normalized window latency — the ranking key.
    pub(crate) lat_p99: f64,
    /// p95 of full (not fast-forwarded) windows per step.
    pub(crate) wakes_p95: f64,
}

/// One quantile of the sketch-vs-exact cross-check.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct QuantileCheck {
    /// Display label ("p50", "p95", "p99").
    pub(crate) label: &'static str,
    /// The exact nearest-rank quantile from the sorted stream.
    pub(crate) exact: f64,
    /// The sketch's estimate for the same rank.
    pub(crate) sketch: f64,
}

impl QuantileCheck {
    /// Relative error of the sketch estimate against the exact quantile.
    pub(crate) fn relative_error(&self) -> f64 {
        if self.exact == 0.0 {
            self.sketch.abs()
        } else {
            (self.sketch - self.exact).abs() / self.exact.abs()
        }
    }

    /// Whether the estimate honors the sketch's documented bound.
    pub(crate) fn ok(&self) -> bool {
        // A hair of slack over RELATIVE_ERROR covers the float rounding in
        // the bucket-index/representative round trip at bucket edges.
        self.relative_error() <= RELATIVE_ERROR * 1.01 + 1e-12
    }
}

/// Everything `fleet_doctor` parses out of one run's artifacts.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DoctorReport {
    /// Selected run metadata from the trace header, in display order.
    pub(crate) header: Vec<(String, String)>,
    /// Events the flight recorder evicted — nonzero makes every section
    /// `[PARTIAL]`.
    pub(crate) dropped: u64,
    /// Events retained in the trace.
    pub(crate) events: u64,
    /// Dispatch rounds observed (one per step with pending jobs).
    pub(crate) dispatch_rounds: u64,
    /// Jobs placed, total.
    pub(crate) placed: u64,
    /// Jobs that no server admitted, total.
    pub(crate) unplaced: u64,
    /// Jobs completed.
    pub(crate) completed: u64,
    /// Jobs preempted.
    pub(crate) preempted: u64,
    /// Admission verdict flips recorded by the store.
    pub(crate) admission_flips: u64,
    /// SLO-violation server-steps by (service, generation, balancer
    /// decision) — sums to every `violation` line in the trace.
    pub(crate) violations: BTreeMap<ViolationKey, u64>,
    /// Balancer divert verdicts (shed / absorbed) by (service, verdict).
    pub(crate) diverts: BTreeMap<(String, String), u64>,
    /// Worst routing imbalance any conservation check saw.
    pub(crate) max_imbalance: f64,
    /// Per-server controller decision counts by kind (core scope).
    pub(crate) core_decisions: BTreeMap<String, u64>,
    /// Woken leaf-steps by wake-reason combination (event-driven core
    /// traces only) — sums to every `wake` line in the trace.
    pub(crate) wakes: BTreeMap<String, u64>,
    /// Woken leaf-steps reported by `step` events carrying the
    /// event-driven core's woken/quiescent split.
    pub(crate) woken_leaf_steps: u64,
    /// Quiescent leaf-steps reported by the same `step` events.
    pub(crate) quiescent_leaf_steps: u64,
    /// Steps whose `step` event carried the woken/quiescent split (zero on
    /// stepped-core traces, which record no wake attribution at all).
    pub(crate) event_core_steps: u64,
    /// Per-service SLO attainment series, time-ordered (one sample per
    /// step the service had in-service leaves).
    pub attainment: BTreeMap<String, Vec<AttainmentSample>>,
    /// Alert transitions as `(sim seconds, rendered row)`.
    pub(crate) alerts: Vec<(f64, String)>,
    /// `alert`/`firing` transitions by alert kind.
    pub(crate) alerts_fired: BTreeMap<String, u64>,
    /// `alert`/`resolved` transitions by alert kind.
    pub(crate) alerts_resolved: BTreeMap<String, u64>,
    /// Top-k unhealthiest leaves from the latest `health`/`leaf` summary.
    pub leaves: Vec<LeafHealth>,
    /// Worst normalized latency per `fleet`/`step` event, in step order —
    /// the exactly-known stream the cross-check replays.
    pub step_latencies: Vec<f64>,
    /// The `fleet.normalized_latency` row of the metrics document: its
    /// observation count (one per leaf-step) and its p50/p95/p99.
    pub(crate) per_leaf: Option<(u64, [f64; 3])>,
    /// Fleet joules per `fleet`/`step` event, in step order.
    pub(crate) step_energy_j: Vec<f64>,
    /// Per-generation package watts per step event (same order and length
    /// as [`step_energy_j`](Self::step_energy_j)), indexed by generation.
    pub(crate) gen_watts: [Vec<f64>; 3],
    /// Represented seconds each step averaged its watts over
    /// (`step_represented_s`): a time-compressed run's watts integrate over
    /// represented time, not over the raw sim timestamps.
    pub(crate) step_dt_s: Vec<f64>,
    /// The meter's end-of-run fleet ledger from the `energy`/`summary`
    /// event: (joules, dollars, conservation residual in joules).
    pub energy_summary: Option<(f64, f64, f64)>,
    /// Top-k energy-hungriest leaves from the latest `energy`/`top_leaf`
    /// snapshot: (server id, joules, dollars).
    pub(crate) energy_leaves: Vec<(u64, f64, f64)>,
    /// Autoscale / fleet lifecycle actions in simulated-time order, as
    /// `(time_s, description)` rows.
    pub(crate) timeline: Vec<(f64, String)>,
}

/// The joules-vs-∫watts conservation cross-check of the energy section.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyConservation {
    /// Worst per-step relative error between the fleet joules column and
    /// the per-generation watts decomposition integrated over the step.
    pub(crate) worst_step_rel_err: f64,
    /// Relative error between the meter's end-of-run fleet joules and the
    /// sum of the step column — `None` on a partial trace (evicted steps
    /// make the sum a suffix) or when no meter summary was emitted.
    pub(crate) meter_rel_err: Option<f64>,
    /// The meter's own fleet-vs-pools-vs-leaves residual, in joules,
    /// relative to the fleet total.
    pub(crate) ledger_residual_rel: Option<f64>,
}

impl EnergyConservation {
    /// The identities are exact up to float summation order and the trace's
    /// six-decimal field rounding; anything past this bound is a real
    /// conservation break.
    pub(crate) const BOUND: f64 = 1e-6;

    /// Whether every available identity holds within `BOUND`.
    pub fn ok(&self) -> bool {
        self.worst_step_rel_err <= Self::BOUND
            && self.meter_rel_err.is_none_or(|e| e <= Self::BOUND)
            && self.ledger_residual_rel.is_none_or(|e| e <= Self::BOUND)
    }
}

/// What the trace parse carries from one line to the next.
#[derive(Default)]
struct ParseState {
    /// The times of the latest health and energy leaf snapshots: the
    /// summaries may be emitted more than once on resumed runs, and only
    /// the latest snapshot's rows are kept.
    leaves_t: Option<f64>,
    energy_leaves_t: Option<f64>,
    /// Wake lines since the last `step` line, for the per-step attribution
    /// cross-check.
    pending_wakes: u64,
}

/// Adds `row`, at time `t`, to the latest snapshot in `rows`: trace lines
/// are time-ordered, so a row at a new time starts a new snapshot.
fn snapshot<T>(rows: &mut Vec<T>, snapshot_t: &mut Option<f64>, t: f64, row: T) {
    if *snapshot_t != Some(t) {
        rows.clear();
        *snapshot_t = Some(t);
    }
    rows.push(row);
}

impl DoctorReport {
    /// Parses a report from a trace document, given line by line, and an
    /// optional metrics document (both as written by `fleet_scale
    /// --trace/--metrics`).
    ///
    /// Fails if either document is malformed, if a line lacks, duplicates
    /// or mistypes a field its section reads (a `violation` line its
    /// (service, generation, balancer) cause, a `step` line its worst
    /// latency, energy columns or represented duration, ...), if a `wake`
    /// line carries no reason, or if a step of a lossless trace woke more
    /// leaves than it has `wake` lines — a report that silently dropped
    /// causes would defeat its purpose.
    pub fn from_artifacts<L: AsRef<str>>(
        trace: impl IntoIterator<Item = L>,
        metrics: Option<&str>,
    ) -> Result<DoctorReport, String> {
        let mut lines = trace.into_iter();
        let header = lines.next().ok_or("empty document")?;
        let (mut check, header) = TraceCheck::header(header.as_ref())?;
        let mut report = DoctorReport {
            dropped: header.u64("dropped")?,
            events: header.u64("events")?,
            ..DoctorReport::default()
        };
        for key in ["policy", "balancer", "autoscaler", "seed", "servers", "steps", "health"] {
            if header.has(key) {
                report.header.push((key.to_string(), header.str(key)?.to_string()));
            }
        }

        // One pass: every line is parsed and validated once, and read
        // until the first read error.  A schema error anywhere in the
        // trace, then a malformed metrics document, takes precedence over
        // a read error.
        let mut state = ParseState::default();
        let mut parse_error = None;
        for (idx, text) in lines.enumerate() {
            let line = check.line(text.as_ref())?;
            if parse_error.is_none() {
                parse_error = report.parse_line(&mut state, &line, idx + 2).err();
            }
        }
        check.finish()?;
        let metrics = metrics.map(|doc| validate_metrics_json(doc).map(|parsed| (doc, parsed)));
        let metrics = metrics.transpose().map_err(|e| format!("metrics document: {e}"))?;
        if let Some(e) = parse_error {
            return Err(e);
        }
        if let Some((doc, parsed)) = metrics {
            report.per_leaf = per_leaf_row(&parsed)
                .map_err(|e| format!("metrics document: {}", e.in_lines(doc)))?;
        }
        Ok(report)
    }

    /// Folds one parsed trace event line (1-based `lineno`) into the
    /// report.
    fn parse_line(
        &mut self,
        state: &mut ParseState,
        line: &Object<'_>,
        lineno: usize,
    ) -> Result<(), String> {
        let (scope, kind, t) = (line.str("scope")?, line.str("kind")?, line.f64("t")?);
        let at = |e: ReadError| format!("line {lineno}: {scope}/{kind}: {}", String::from(e));
        let int = |key: &str| line.u64(key).map_err(at);
        let num = |key: &str| line.f64(key).map_err(at);
        let text = |key: &str| line.str(key).map_err(at);
        // Leaf counts are bounded by the fleet size; one past `u32` is
        // corrupt, and would overflow the report's sums over the run.
        let count = |key: &str| match int(key)? {
            n if n > u64::from(u32::MAX) => {
                Err(format!("line {lineno}: {scope}/{kind}: an impossible {key:?} {n}"))
            }
            n => Ok(n),
        };
        match (scope, kind) {
            ("fleet", "dispatch_round") => self.dispatch_rounds += 1,
            ("fleet", "place") => self.placed += 1,
            ("fleet", "unplaced") => self.unplaced += 1,
            ("fleet", "complete") => self.completed += 1,
            ("fleet", "preempt") => self.preempted += 1,
            ("store", "admission") => self.admission_flips += 1,
            ("fleet", "violation") => {
                let (service, g, balancer) =
                    (text("service")?, int("generation")?, text("balancer")?);
                let generation = Generation::all().get(g as usize).copied().ok_or_else(|| {
                    format!("line {lineno}: {scope}/{kind}: \"generation\" {g} is not a generation")
                })?;
                let cause = (service.into(), generation.name().into(), balancer.into());
                *self.violations.entry(cause).or_insert(0) += 1;
            }
            ("traffic", "divert") => {
                let key = (text("service")?.to_string(), text("verdict")?.to_string());
                *self.diverts.entry(key).or_insert(0) += 1;
            }
            ("traffic", "conservation") => {
                self.max_imbalance = self.max_imbalance.max(num("max_imbalance")?);
            }
            ("core", _) => *self.core_decisions.entry(kind.to_string()).or_insert(0) += 1,
            ("fleet", "wake") => {
                let reasons = text("reasons")?;
                if reasons.is_empty() {
                    return Err(format!("line {lineno}: {scope}/{kind}: no recorded reason"));
                }
                *self.wakes.entry(reasons.to_string()).or_insert(0) += 1;
                state.pending_wakes += 1;
            }
            ("fleet", "step") => {
                let pending = state.pending_wakes;
                state.pending_wakes = 0;
                if line.has("woken") {
                    let woken = count("woken")?;
                    self.event_core_steps += 1;
                    self.woken_leaf_steps += woken;
                    self.quiescent_leaf_steps += count("quiescent")?;
                    // Each woken leaf emits exactly one wake line, so on
                    // a lossless trace the counts must line up; a step
                    // that woke more leaves than it attributed stepped a
                    // leaf with no recorded reason.
                    if self.dropped == 0 && pending != woken {
                        return Err(format!(
                            "line {lineno}: {scope}/{kind}: \"woken\" is {woken} but the step \
                             recorded {pending} wake reasons"
                        ));
                    }
                } else if pending > 0 {
                    return Err(format!(
                        "line {lineno}: {scope}/{kind}: missing \"woken\" after {pending} wake lines"
                    ));
                }
                self.step_latencies.push(num("worst_normalized_latency")?);
                self.step_energy_j.push(num("energy_joules")?);
                for (watts, key) in self.gen_watts.iter_mut().zip(GEN_WATTS_KEYS) {
                    watts.push(num(key)?);
                }
                self.step_dt_s.push(num("step_represented_s")?);
            }
            ("health", "attainment") => {
                let sample = (num("attainment")?, count("violating")?, count("leaves")?);
                self.attainment.entry(text("service")?.to_string()).or_default().push(sample);
            }
            ("alert", "firing") => {
                let (alert, cause) = (text("alert")?, text("cause")?);
                let (fast, slow) = (num("fast")?, num("slow")?);
                self.alerts.push((
                    t,
                    format!("FIRING   {alert} (fast {fast:.3}, slow {slow:.3}) — {cause}"),
                ));
                *self.alerts_fired.entry(alert.to_string()).or_insert(0) += 1;
            }
            ("alert", "resolved") => {
                let (alert, for_steps) = (text("alert")?, int("for_steps")?);
                self.alerts.push((t, format!("resolved {alert} (after {for_steps} steps)")));
                *self.alerts_resolved.entry(alert.to_string()).or_insert(0) += 1;
            }
            ("health", "leaf") => {
                let leaf = LeafHealth {
                    leaf: int("leaf")?,
                    count: int("count")?,
                    lat_p50: num("lat_p50")?,
                    lat_p99: num("lat_p99")?,
                    wakes_p95: num("wakes_p95")?,
                };
                snapshot(&mut self.leaves, &mut state.leaves_t, t, leaf);
            }
            ("energy", "summary") => {
                self.energy_summary = Some((
                    num("fleet_joules")?,
                    num("fleet_dollars")?,
                    num("conservation_error_j")?,
                ));
            }
            ("energy", "top_leaf") => {
                let row = (int("server")?, num("joules")?, num("dollars")?);
                snapshot(&mut self.energy_leaves, &mut state.energy_leaves_t, t, row);
            }
            _ => {}
        }
        let server = || int("server");
        let action = match (scope, kind) {
            ("fleet", "migrate") => {
                format!("migrate job {}: {} -> {}", int("job")?, int("from")?, int("to")?)
            }
            ("fleet", "requeue") => format!("requeue job {}", int("job")?),
            ("store", "server_added") => {
                format!("commission server {} (gen {})", server()?, int("generation")?)
            }
            ("store", "drain_started") => format!("drain server {}", server()?),
            ("store", "retired") => format!("retire server {}", server()?),
            ("autoscale", "buy") => format!("buy {} -> server {}", text("generation")?, server()?),
            ("autoscale", "drain") => format!("scale-in: drain server {}", server()?),
            _ => return Ok(()),
        };
        self.timeline.push((t, action));
        Ok(())
    }

    /// Total attributed SLO-violation server-steps.
    pub(crate) fn violation_total(&self) -> u64 {
        self.violations.values().sum()
    }

    /// True when the recorder evicted events and every section therefore
    /// covers only the retained suffix of the run: its counts are lower
    /// bounds, not totals.
    pub(crate) fn is_partial(&self) -> bool {
        self.dropped > 0
    }

    /// The sketch-vs-exact cross-check rows for p50/p95/p99 of the
    /// per-step worst-latency stream.  Empty when the trace retained no
    /// step events.
    pub(crate) fn cross_checks(&self) -> Vec<QuantileCheck> {
        if self.step_latencies.is_empty() {
            return Vec::new();
        }
        let mut sketch = QuantileSketch::new();
        for &v in &self.step_latencies {
            sketch.observe(v);
        }
        let mut sorted = self.step_latencies.clone();
        sorted.sort_by(f64::total_cmp);
        [("p50", 0.50), ("p95", 0.95), ("p99", 0.99)]
            .into_iter()
            .map(|(label, q)| {
                // The same nearest-rank definition the sketch documents.
                let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
                QuantileCheck { label, exact: sorted[rank - 1], sketch: sketch.quantile(q) }
            })
            .collect()
    }

    /// Whether every cross-check row honors the sketch's error bound.
    pub fn cross_checks_ok(&self) -> bool {
        self.cross_checks().iter().all(QuantileCheck::ok)
    }

    /// The energy-conservation cross-check, or `None` when the trace
    /// retained no step events.
    pub fn energy_conservation(&self) -> Option<EnergyConservation> {
        if self.step_energy_j.is_empty() {
            return None;
        }
        let rel = |a: f64, b: f64| {
            if b.abs() > 0.0 {
                (a - b).abs() / b.abs()
            } else {
                a.abs()
            }
        };
        let worst_step_rel_err = (0..self.step_energy_j.len())
            .map(|i| {
                let integrated =
                    self.gen_watts.iter().map(|w| w[i]).sum::<f64>() * self.step_dt_s[i];
                rel(integrated, self.step_energy_j[i])
            })
            .fold(0.0, f64::max);
        let meter_rel_err = match self.energy_summary {
            Some((joules, _, _)) if !self.is_partial() => {
                Some(rel(self.step_energy_j.iter().sum::<f64>(), joules))
            }
            _ => None,
        };
        let ledger_residual_rel =
            self.energy_summary.map(|(joules, _, residual)| rel(joules + residual, joules));
        Some(EnergyConservation { worst_step_rel_err, meter_rel_err, ledger_residual_rel })
    }

    /// Whether the energy section's conservation identities hold (trivially
    /// true when the trace retained no step events).
    pub fn energy_ok(&self) -> bool {
        self.energy_conservation().is_none_or(|c| c.ok())
    }

    /// Renders every section of the report as the text the binary prints.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "fleet_doctor triage report (trace artifacts)");
        let meta: Vec<String> = self.header.iter().map(|(k, v)| format!("{k} {v}")).collect();
        let _ = writeln!(
            out,
            "  {} events retained, {} dropped; {}",
            self.events,
            self.dropped,
            meta.join(", ")
        );
        let marker = if self.is_partial() { " [PARTIAL]" } else { "" };
        if self.is_partial() {
            let _ = writeln!(
                out,
                "\nWARNING: the flight recorder dropped {} events (ring capacity exceeded).\n\
                 Every section below is marked [PARTIAL]: it covers only the retained\n\
                 suffix of the run, so its counts are lower bounds.  Re-run with a larger\n\
                 --recorder-capacity for a lossless report.",
                self.dropped
            );
        }

        let _ = writeln!(out, "\nplacement outcomes{marker}");
        let _ = writeln!(out, "  dispatch rounds: {}", self.dispatch_rounds);
        let _ = writeln!(
            out,
            "  jobs: {} placed, {} unplaced, {} completed, {} preempted",
            self.placed, self.unplaced, self.completed, self.preempted
        );
        let _ = writeln!(out, "  admission verdict flips: {}", self.admission_flips);

        let coverage = if self.is_partial() { "retained" } else { "100% attributed" };
        let _ = writeln!(
            out,
            "\nviolation attribution ({} server-steps, {coverage}){marker}",
            self.violation_total()
        );
        if self.violations.is_empty() {
            let _ = writeln!(out, "  (no SLO violations recorded)");
        }
        for ((service, generation, balancer), count) in &self.violations {
            let _ = writeln!(
                out,
                "  {count:>6}  service {service:<12} generation {generation:<12} balancer {balancer}"
            );
        }

        let _ = writeln!(out, "\ntraffic plane{marker}");
        let _ = writeln!(out, "  max routing imbalance: {:.2e}", self.max_imbalance);
        for ((service, verdict), count) in &self.diverts {
            let _ = writeln!(out, "  {count:>6}  {service} leaves {verdict}");
        }

        if !self.core_decisions.is_empty() {
            let _ = writeln!(out, "\nper-server controller decisions{marker}");
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
                "\nwake attribution ({} woken / {} quiescent leaf-steps, {pct:.1}% woken){marker}",
                self.woken_leaf_steps, self.quiescent_leaf_steps,
            );
            for (reasons, count) in &self.wakes {
                let _ = writeln!(out, "  {count:>6}  {reasons}");
            }
        }

        let _ = writeln!(out, "\nslo attainment by service{marker}");
        if self.attainment.is_empty() {
            let _ = writeln!(
                out,
                "  (no attainment events in the trace — was the run traced with --health?)"
            );
        }
        for (service, series) in &self.attainment {
            let values: Vec<f64> = series.iter().map(|s| s.0).collect();
            let mean = values.iter().sum::<f64>() / values.len() as f64;
            let worst = values.iter().copied().fold(f64::INFINITY, f64::min);
            let violating: u64 = series.iter().map(|s| s.1).sum();
            let leaves: u64 = series.iter().map(|s| s.2).sum();
            let aggregate = if leaves > 0 { 1.0 - violating as f64 / leaves as f64 } else { 1.0 };
            let _ = writeln!(
                out,
                "  {service:<12} mean {:>6.2}%  worst-step {:>6.2}%  leaf-steps {:>6.2}% \
                 ({violating} violating of {leaves})  {}  ({} samples)",
                mean * 100.0,
                worst * 100.0,
                aggregate * 100.0,
                sparkline(&values),
                values.len()
            );
        }

        let fired: u64 = self.alerts_fired.values().sum();
        let resolved: u64 = self.alerts_resolved.values().sum();
        let _ = writeln!(out, "\nalert timeline ({fired} fired, {resolved} resolved){marker}");
        if self.alerts.is_empty() {
            let _ = writeln!(out, "  (no alert transitions recorded)");
        }
        for (t, row) in &self.alerts {
            let _ = writeln!(out, "  t={t:>10.1}s  {row}");
        }

        let _ = writeln!(
            out,
            "\nunhealthiest leaves (top-{} by latency p99){marker}",
            self.leaves.len()
        );
        if self.leaves.is_empty() {
            let _ =
                writeln!(out, "  (no leaf summary in the trace — was emit_health_summary called?)");
        } else {
            let _ = writeln!(
                out,
                "  {:>6} {:>10} {:>9} {:>9} {:>10}",
                "leaf", "leaf-steps", "lat p50", "lat p99", "wakes p95"
            );
            for l in &self.leaves {
                let _ = writeln!(
                    out,
                    "  {:>6} {:>10} {:>9.3} {:>9.3} {:>10.1}",
                    l.leaf, l.count, l.lat_p50, l.lat_p99, l.wakes_p95
                );
            }
        }

        let checks = self.cross_checks();
        let _ = writeln!(
            out,
            "\nsketch-vs-exact cross-check (per-step worst normalized latency, {} steps){marker}",
            self.step_latencies.len()
        );
        if checks.is_empty() {
            let _ = writeln!(out, "  (no step events retained — nothing to cross-check)");
        } else {
            let _ = writeln!(
                out,
                "  {:>4} {:>10} {:>10} {:>8} {:>8}   verdict",
                "q", "exact", "sketch", "rel err", "bound"
            );
            for c in &checks {
                let _ = writeln!(
                    out,
                    "  {:>4} {:>10.4} {:>10.4} {:>7.3}% {:>7.1}%   {}",
                    c.label,
                    c.exact,
                    c.sketch,
                    c.relative_error() * 100.0,
                    RELATIVE_ERROR * 100.0,
                    if c.ok() { "ok" } else { "FAIL" }
                );
            }
            if let Some((count, [p50, p95, p99])) = self.per_leaf {
                let _ = writeln!(
                    out,
                    "  per-leaf sketch fleet.normalized_latency ({count} obs): \
                     p50 {p50:.3}, p95 {p95:.3}, p99 {p99:.3}"
                );
            }
        }

        let _ = writeln!(out, "\nenergy plane{marker}");
        match self.energy_conservation() {
            None => {
                let _ = writeln!(out, "  (no step events retained — nothing to cross-check)");
            }
            Some(conservation) => {
                if let Some((joules, dollars, residual)) = self.energy_summary {
                    let _ = writeln!(
                        out,
                        "  fleet energy: {:.2} MJ (${dollars:.2}), meter residual {residual:.3} J",
                        joules / 1e6
                    );
                }
                let _ = writeln!(out, "  package watts by generation:");
                for (generation, series) in Generation::all().iter().zip(&self.gen_watts) {
                    let mean = series.iter().sum::<f64>() / series.len() as f64;
                    let _ = writeln!(
                        out,
                        "    {:<12} mean {mean:>8.0} W  {}",
                        generation.name(),
                        sparkline(series)
                    );
                }
                if !self.energy_leaves.is_empty() {
                    let _ = writeln!(
                        out,
                        "  energy-hungriest leaves (top-{}):",
                        self.energy_leaves.len()
                    );
                    let _ = writeln!(out, "    {:>6} {:>14} {:>10}", "leaf", "joules", "dollars");
                    for (leaf, joules, dollars) in &self.energy_leaves {
                        let _ = writeln!(out, "    {leaf:>6} {joules:>14.1} {dollars:>10.6}");
                    }
                }
                let meter_note = match conservation.meter_rel_err {
                    Some(e) => format!(", meter-vs-steps {e:.2e}"),
                    None => String::new(),
                };
                let _ = writeln!(
                    out,
                    "  joules-vs-∫watts cross-check: worst step rel err {:.2e}{meter_note} \
                     (bound {:.0e})   {}",
                    conservation.worst_step_rel_err,
                    EnergyConservation::BOUND,
                    if conservation.ok() { "ok" } else { "FAIL" }
                );
            }
        }

        let _ = writeln!(
            out,
            "\nautoscale / lifecycle timeline ({} actions){marker}",
            self.timeline.len()
        );
        for (t, what) in &self.timeline {
            let _ = writeln!(out, "  t={t:>10.1}s  {what}");
        }
        out
    }
}

/// Renders a series as an 8-level sparkline, chunk-averaged down to at
/// most 60 glyphs, scaled to the series' own [min, max] (a flat series
/// renders mid-scale).
pub(crate) fn sparkline(series: &[f64]) -> String {
    const GLYPHS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    if series.is_empty() {
        return String::new();
    }
    let chunks = series.len().min(60);
    let lo = series.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = series.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    (0..chunks)
        .map(|i| {
            let start = i * series.len() / chunks;
            let end = ((i + 1) * series.len() / chunks).max(start + 1);
            let mean = series[start..end].iter().sum::<f64>() / (end - start) as f64;
            if hi > lo {
                // A chunk of huge values can sum past `f64::MAX`: its mean
                // is then infinite, and the level saturates to the top.
                let level = (((mean - lo) / (hi - lo)) * 7.0).round() as usize;
                GLYPHS[level.min(GLYPHS.len() - 1)]
            } else {
                GLYPHS[3]
            }
        })
        .collect()
}

/// The `fleet.normalized_latency` row of a parsed metrics document — its
/// count and p50/p95/p99 — or `None` when the document has no such row.
fn per_leaf_row(metrics: &Object<'_>) -> Result<Option<(u64, [f64; 3])>, ReadError> {
    let histograms = metrics.obj("histograms")?;
    if !histograms.has(PER_LEAF_ROW) {
        return Ok(None);
    }
    let row = histograms.obj(PER_LEAF_ROW)?;
    Ok(Some((row.u64("count")?, [row.f64("p50")?, row.f64("p95")?, row.f64("p99")?])))
}

#[cfg(test)]
mod tests {
    use super::*;
    use heracles_colo::ColoConfig;
    use heracles_fleet::{
        EnergyConfig, FleetConfig, FleetSim, PolicyKind, SimCore, TelemetryConfig,
    };
    use heracles_hw::ServerConfig;
    use heracles_workloads::ServiceMix;

    /// A small fleet with the health plane and energy metering on: every
    /// section of the report has something to show.
    fn doctor_config() -> FleetConfig {
        FleetConfig {
            servers: 4,
            steps: 16,
            windows_per_step: 2,
            services: ServiceMix::websearch_only(),
            colo: ColoConfig { requests_per_window: 400, ..ColoConfig::fast_test() },
            telemetry: TelemetryConfig::with_health(),
            energy: EnergyConfig::metered(),
            ..FleetConfig::fast_test()
        }
    }

    /// Runs `cfg` with tracing on and returns the run's telemetry, with the
    /// end-of-run health and energy summaries `fleet_scale --trace` writes.
    fn traced_run(cfg: FleetConfig) -> heracles_telemetry::Telemetry {
        let mut sim = FleetSim::new(cfg, ServerConfig::default_haswell(), PolicyKind::LeastLoaded);
        for _ in 0..cfg.steps {
            sim.step_once();
        }
        sim.emit_health_summary();
        sim.emit_energy_summary();
        sim.take_telemetry().expect("telemetry on")
    }

    /// The report `fleet_doctor` renders from the trace and metrics
    /// artifacts of a [`doctor_config`] run.
    fn doctor_report() -> DoctorReport {
        let telemetry = traced_run(doctor_config());
        let header = [("policy", "least-loaded".to_string()), ("health", "on".to_string())];
        let trace = telemetry.trace_jsonl(&header).to_string();
        DoctorReport::from_artifacts(trace.lines(), Some(&telemetry.metrics_json()))
            .expect("a real run's artifacts parse")
    }

    #[test]
    fn live_report_covers_all_four_sections() {
        let report = doctor_report();
        assert!(!report.attainment.is_empty(), "no attainment series");
        assert!(!report.leaves.is_empty(), "no leaf summary");
        assert_eq!(report.step_latencies.len(), 16);
        assert!(report.per_leaf.is_some(), "metrics per-leaf row missing");
        let rendered = report.render();
        for section in [
            "placement outcomes",
            "violation attribution",
            "traffic plane",
            "per-server controller decisions",
            "slo attainment by service",
            "alert timeline",
            "unhealthiest leaves",
            "sketch-vs-exact cross-check",
            "energy plane",
            "autoscale / lifecycle timeline",
        ] {
            assert!(rendered.contains(section), "missing section {section:?}:\n{rendered}");
        }
        assert!(!rendered.contains("[PARTIAL]"), "lossless run rendered partial");
    }

    #[test]
    fn cross_check_honors_the_sketch_bound_on_a_real_run() {
        let report = doctor_report();
        let checks = report.cross_checks();
        assert_eq!(checks.len(), 3);
        for c in &checks {
            assert!(
                c.ok(),
                "{}: sketch {} vs exact {} (rel err {:.4}%)",
                c.label,
                c.sketch,
                c.exact,
                c.relative_error() * 100.0
            );
        }
        assert!(report.cross_checks_ok());
    }

    /// A `fleet`/`step` line carrying every column the writer always
    /// writes.
    const STEP_LINE: &str = "{\"t\":1.000000,\"scope\":\"fleet\",\"kind\":\"step\",\"step\":0,\
        \"worst_normalized_latency\":0.900000,\"energy_joules\":300.000000,\
        \"watts_sandy_bridge\":0.000000,\"watts_haswell\":100.000000,\
        \"watts_skylake\":0.000000,\"step_represented_s\":3.000000}\n";

    #[test]
    fn lossy_trace_marks_sections_partial() {
        let trace = "{\"schema\":\"heracles-trace/v1\",\"events\":1,\"dropped\":5,\"policy\":\"least-loaded\"}\n"
            .to_string()
            + STEP_LINE;
        let report = DoctorReport::from_artifacts(trace.lines(), None).unwrap();
        assert!(report.is_partial());
        let rendered = report.render();
        assert!(rendered.contains("WARNING: the flight recorder dropped 5 events"));
        assert!(rendered.contains("[PARTIAL]"));
    }

    /// A homogeneous websearch-only fleet has one (service × generation)
    /// health cell, fed the same per-leaf worst-latency stream as the
    /// `fleet.normalized_latency` distribution.  Both are sketches, which
    /// are order-free, so the metrics row the doctor reads back reports
    /// exactly the cell's `health`/`summary` quantiles.
    #[test]
    fn per_leaf_metrics_quantiles_equal_the_health_cell() {
        let cfg =
            FleetConfig { telemetry: TelemetryConfig::with_health(), ..FleetConfig::fast_test() };
        let telemetry = traced_run(cfg);
        let trace = telemetry.trace_jsonl(&[]).to_string();
        let metrics = telemetry.metrics_json();
        let lines: Vec<Object<'_>> =
            trace.lines().skip(1).map(|l| Object::parse(l).expect("a trace line")).collect();
        let summaries: Vec<&Object<'_>> =
            lines.iter().filter(|l| l.str("kind") == Ok("summary")).collect();
        let [cell] = summaries[..] else { panic!("expected one health cell: {summaries:?}") };

        let report =
            DoctorReport::from_artifacts(trace.lines(), Some(&metrics)).expect("artifacts parse");
        let (count, quantiles) = report.per_leaf.expect("a per-leaf row");
        let leaf_steps = (cfg.servers * cfg.steps) as u64;
        assert_eq!((count, cell.u64("count")), (leaf_steps, Ok(leaf_steps)));
        for (key, quantile) in ["lat_p50", "lat_p95", "lat_p99"].into_iter().zip(quantiles) {
            assert_eq!(cell.f64(key), Ok(quantile), "{key}: {cell:?}\n{metrics}");
        }
        let sketch = telemetry.metrics.histogram("fleet.normalized_latency").expect("observed");
        assert_eq!(sketch.count(), count);

        let without = metrics.replace("fleet.normalized_latency", "fleet.other");
        let report = DoctorReport::from_artifacts(trace.lines(), Some(&without)).expect("parses");
        assert_eq!(report.per_leaf, None);
        let broken = metrics.replace("\"p95\"", "\"q95\"");
        let err = DoctorReport::from_artifacts(trace.lines(), Some(&broken)).unwrap_err();
        assert!(
            err.starts_with("metrics document: line ") && err.ends_with("missing \"p95\""),
            "{err}"
        );
    }

    /// A metrics document that is not one fails the parse, as a malformed
    /// trace does, instead of silently dropping the per-leaf section.
    #[test]
    fn a_malformed_metrics_document_fails_the_parse() {
        let cfg =
            FleetConfig { telemetry: TelemetryConfig::with_health(), ..FleetConfig::fast_test() };
        let trace = traced_run(cfg).trace_jsonl(&[]).to_string();
        for (name, metrics, at) in [
            ("an empty file", "", "line 1: expected '{'"),
            ("the trace itself", trace.as_str(), "line 2: trailing bytes after the object"),
            (
                "a trace line",
                trace.lines().next().unwrap(),
                "missing schema tag \"heracles-metrics/v3\"",
            ),
        ] {
            let err = DoctorReport::from_artifacts(trace.lines(), Some(metrics)).unwrap_err();
            assert_eq!(err.strip_prefix("metrics document: "), Some(at), "{name}: {err}");
        }
    }

    #[test]
    fn steps_without_their_represented_duration_fail_the_parse() {
        let cfg = FleetConfig { telemetry: TelemetryConfig::enabled(), ..FleetConfig::fast_test() };
        let trace = traced_run(cfg).trace_jsonl(&[]).to_string();
        DoctorReport::from_artifacts(trace.lines(), None).expect("the real trace parses");
        let step = trace.lines().find(|l| l.contains("\"kind\":\"step\"")).expect("a step");
        let at = step.find(",\"step_represented_s\":").expect("the column");
        let cut = format!("{}}}", &step[..at]);
        let err =
            DoctorReport::from_artifacts(trace.replacen(step, &cut, 1).lines(), None).unwrap_err();
        assert!(err.contains("step_represented_s"), "{err}");
    }

    #[test]
    fn sparkline_is_bounded_and_scaled() {
        assert_eq!(sparkline(&[]), "");
        assert_eq!(sparkline(&[1.0, 1.0, 1.0]).chars().count(), 3);
        let long: Vec<f64> = (0..500).map(|i| i as f64).collect();
        let s = sparkline(&long);
        assert_eq!(s.chars().count(), 60);
        assert!(s.starts_with('▁') && s.ends_with('█'));
        // Two huge values sum past `f64::MAX` within a chunk: its mean is
        // infinite and renders as the top glyph.
        assert!(sparkline(&[1e308, 1e308, 0.0].repeat(40)).starts_with('█'));
    }

    #[test]
    fn report_attributes_every_violation_of_a_real_run() {
        let cfg = FleetConfig { telemetry: TelemetryConfig::enabled(), ..FleetConfig::fast_test() };
        let telemetry = traced_run(cfg);
        let violations_in_trace =
            telemetry.recorder.iter().filter(|e| e.kind() == "violation").count() as u64;
        let doc = telemetry.trace_jsonl(&[("policy", "least-loaded".to_string())]).to_string();

        let report = DoctorReport::from_artifacts(doc.lines(), None).expect("trace parses");
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
        let err = DoctorReport::from_artifacts(doc.lines(), None).unwrap_err();
        assert!(
            err.starts_with("line 2: fleet/violation: ") && err.contains("\"service\""),
            "{err}"
        );
    }

    #[test]
    fn report_attributes_every_wake_of_an_event_core_run() {
        let cfg = FleetConfig {
            telemetry: TelemetryConfig::enabled(),
            sim_core: SimCore::EventDriven,
            ..FleetConfig::fast_test()
        };
        let telemetry = traced_run(cfg);
        let woken = telemetry.metrics.counter("fleet.woken_leaf_steps");
        let quiescent = telemetry.metrics.counter("fleet.quiescent_leaf_steps");
        assert!(
            telemetry.metrics.counter("fleet.jobs_completed") > 0,
            "the run must complete jobs"
        );
        let doc = telemetry.trace_jsonl(&[("policy", "least-loaded".to_string())]).to_string();

        let report = DoctorReport::from_artifacts(doc.lines(), None).expect("trace parses");
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
        let lines: Vec<Object<'_>> =
            doc.lines().skip(1).map(|l| Object::parse(l).expect("a trace line")).collect();
        let of_kind = |kinds: &'static [&str]| {
            lines.iter().filter(move |l| kinds.contains(&l.str("kind").expect("a kind")))
        };
        let step_times: Vec<f64> = of_kind(&["step"]).map(|l| l.f64("t").expect("t")).collect();
        let step_of = |line: &Object<'_>| {
            let t = line.f64("t").expect("timestamped");
            step_times.iter().position(|&s| s == t).expect("event at a step time")
        };
        let released: Vec<(usize, u64)> = of_kind(&["complete", "preempt"])
            .map(|l| (step_of(l) + 1, l.u64("server").expect("server")))
            .collect();
        let mut checked = 0;
        for line in of_kind(&["wake"]) {
            let key = (step_of(line), line.u64("server").expect("server"));
            if released.contains(&key) {
                let reasons = line.str("reasons").expect("reasons");
                assert!(reasons.split('+').any(|r| r == "job-completion"), "{line:?}");
                checked += 1;
            }
        }
        assert!(checked > 0, "no leaf woke on the step after a release");
    }

    #[test]
    fn stepped_core_traces_skip_the_wake_section() {
        let cfg = FleetConfig { telemetry: TelemetryConfig::enabled(), ..FleetConfig::fast_test() };
        let doc = traced_run(cfg).trace_jsonl(&[]).to_string();
        let report = DoctorReport::from_artifacts(doc.lines(), None).expect("stepped trace parses");
        assert_eq!(report.event_core_steps, 0);
        assert!(!report.render().contains("wake attribution"));
    }

    #[test]
    fn reasonless_wakes_fail_the_parse() {
        let doc = "{\"schema\":\"heracles-trace/v1\",\"events\":2,\"dropped\":0}\n\
                   {\"t\":1.000000,\"scope\":\"fleet\",\"kind\":\"wake\",\"server\":3}\n\
                   {\"t\":1.000000,\"scope\":\"fleet\",\"kind\":\"step\",\"woken\":1,\"quiescent\":7}\n";
        let err = DoctorReport::from_artifacts(doc.lines(), None).unwrap_err();
        assert!(err.ends_with("missing \"reasons\""), "{err}");
        let empty = doc.replace("\"server\":3", "\"server\":3,\"reasons\":\"\"");
        let err = DoctorReport::from_artifacts(empty.lines(), None).unwrap_err();
        assert!(err.ends_with("fleet/wake: no recorded reason"), "{err}");
    }

    #[test]
    fn steps_with_unattributed_woken_leaves_fail_the_parse() {
        let doc = "{\"schema\":\"heracles-trace/v1\",\"events\":2,\"dropped\":0}\n\
                   {\"t\":1.000000,\"scope\":\"fleet\",\"kind\":\"wake\",\"server\":3,\"reasons\":\"load_delta\"}\n\
                   {\"t\":1.000000,\"scope\":\"fleet\",\"kind\":\"step\",\"woken\":2,\"quiescent\":6}\n";
        let err = DoctorReport::from_artifacts(doc.lines(), None).unwrap_err();
        assert!(err.contains("wake reasons"), "{err}");
    }

    #[test]
    fn lossy_traces_render_as_explicitly_partial() {
        let doc = "{\"schema\":\"heracles-trace/v1\",\"events\":1,\"dropped\":42}\n".to_string()
            + STEP_LINE;
        let report =
            DoctorReport::from_artifacts(doc.lines(), None).expect("lossy trace still parses");
        assert!(report.is_partial());
        let rendered = report.render();
        assert!(rendered.contains("WARNING: the flight recorder dropped 42 events"), "{rendered}");
        assert!(rendered.contains("[PARTIAL]"), "{rendered}");
        assert!(!rendered.contains("100% attributed"), "{rendered}");
    }

    #[test]
    fn lossless_traces_do_not_claim_partiality() {
        let doc = "{\"schema\":\"heracles-trace/v1\",\"events\":1,\"dropped\":0}\n".to_string()
            + STEP_LINE;
        let report = DoctorReport::from_artifacts(doc.lines(), None).expect("trace parses");
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
        let report = DoctorReport::from_artifacts(doc.lines(), None).expect("trace parses");
        assert_eq!(report.alerts_fired.get("slo-burn"), Some(&1));
        assert_eq!(report.alerts_resolved.get("slo-burn"), Some(&1));
        assert_eq!(report.attainment.get("websearch"), Some(&vec![(0.75, 1, 4), (1.0, 0, 4)]));
        let rendered = report.render();
        assert!(rendered.contains("alert timeline (1 fired, 1 resolved)"), "{rendered}");
        assert!(rendered.contains("FIRING   slo-burn"), "{rendered}");
        assert!(rendered.contains("slo attainment"), "{rendered}");
        // The leaf-step aggregate: 1 violating of 8 leaf-steps.
        assert!(rendered.contains("leaf-steps  87.50% (1 violating of 8)"), "{rendered}");
    }
}
