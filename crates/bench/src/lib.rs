//! Shared helpers for the figure-reproduction binaries.
//!
//! Each binary in `src/bin/` regenerates one table or figure from the paper's
//! evaluation section.  The experiments consist of many independent cells
//! (workload × antagonist × load), so `heracles_sim::parallel_map` fans
//! them out over the machine's cores, [`cli`] parses the binaries' `--flag value`
//! overrides, and [`percent`] / [`print_row`] render the same percent-of-SLO
//! format the paper uses.  The single-server figures share one
//! [`FigureRun`]: its set-up, and for Figures 4–7 the one Heracles
//! colocation run behind every cell.  [`fleet_doctor`] holds the one reader
//! of a flight-recorder trace: the report behind the binary of the same name.

#![warn(missing_docs)]
#![warn(unreachable_pub)]
#![forbid(unsafe_code)]

pub mod cli;
pub mod fleet_doctor;

use heracles_colo::{ColoConfig, ColoRunner, ColoSummary};
use heracles_core::{Heracles, HeraclesConfig, OfflineDramModel};
use heracles_hw::ServerConfig;
use heracles_workloads::{BeWorkload, LcWorkload};

/// The set-up the single-server figure binaries (Figures 1 and 3–7) share,
/// and the colocation run behind every cell of Figures 4–7.
#[derive(Debug, Clone)]
pub struct FigureRun {
    /// `--quick`: the fast-test colocation config, half the windows, and
    /// each binary's coarser load grid.
    pub quick: bool,
    /// The paper's Haswell server.
    pub server: ServerConfig,
    /// The colocation config each cell runs under.
    pub colo: ColoConfig,
    /// Windows per Heracles run; the back half is the steady state.
    pub(crate) windows: usize,
}

impl FigureRun {
    /// The set-up for a full (`quick == false`) or `--quick` run.
    pub(crate) fn new(quick: bool) -> Self {
        FigureRun {
            quick,
            server: ServerConfig::default_haswell(),
            colo: if quick { ColoConfig::fast_test() } else { ColoConfig::default() },
            windows: if quick { 60 } else { 120 },
        }
    }

    /// The set-up the process arguments ask for.  `--quick` is the only
    /// argument; anything else is a usage error (exit 2).
    pub fn from_args() -> Self {
        let args = cli::Args::from_env();
        if let Err(e) = args.reject_all_but_flags(&["--quick"]) {
            cli::exit_usage(&e);
        }
        Self::new(args.flag("--quick"))
    }

    /// Runs `lc` (colocated with `be`, if any) at `load` under Heracles with
    /// its default config and summarises the steady-state back half.  A run
    /// is a pure function of its inputs.
    pub fn heracles(&self, lc: &LcWorkload, be: Option<&BeWorkload>, load: f64) -> ColoSummary {
        let policy = Heracles::new(
            HeraclesConfig::default(),
            lc.slo(),
            OfflineDramModel::profile(lc, &self.server),
        );
        let mut runner = ColoRunner::new(
            self.server.clone(),
            lc.clone(),
            be.cloned(),
            Box::new(policy),
            self.colo,
        );
        let records = runner.run_steady(load, self.windows);
        ColoSummary::from_records(&records[self.windows - self.windows / 2..])
    }
}

/// Formats a ratio the way the paper's figures print it: as a percentage,
/// saturated at ">300%" (used for latencies normalized to the SLO).
pub fn percent(value: f64) -> String {
    if value > 3.0 {
        ">300%".to_string()
    } else {
        format!("{:.0}%", value * 100.0)
    }
}

/// Prints one row of a fixed-width table: a label followed by formatted cells.
pub fn print_row(label: &str, cells: &[String]) {
    print!("{label:<14}");
    for cell in cells {
        print!("{cell:>8}");
    }
    println!();
}

/// Prints one row of fractions as whole percentages (`0.634` → `63%`).
pub fn print_percent_row(label: &str, values: impl IntoIterator<Item = f64>) {
    let cells: Vec<String> = values.into_iter().map(|v| format!("{:.0}%", v * 100.0)).collect();
    print_row(label, &cells);
}

/// Prints a table header with one column per load point (as percentages).
pub fn print_load_header(label: &str, loads: &[f64]) {
    print!("{label:<14}");
    for load in loads {
        print!("{:>8}", format!("{:.0}%", load * 100.0));
    }
    println!();
}

/// The load points used by the paper's Figure 1 (5% to 95% in 5% steps).
pub fn figure1_loads() -> Vec<f64> {
    (1..=19).map(|i| i as f64 * 0.05).collect()
}

/// The load points used for the Heracles evaluation figures (5% to 95% in
/// 10% steps, a subset of Figure 4's x-axis that keeps runtimes reasonable).
pub fn evaluation_loads() -> Vec<f64> {
    (0..10).map(|i| 0.05 + i as f64 * 0.10).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percent_formatting_matches_figure_1() {
        assert_eq!(percent(0.96), "96%");
        assert_eq!(percent(1.34), "134%");
        assert_eq!(percent(3.5), ">300%");
    }

    #[test]
    fn load_grids_match_the_paper() {
        let f1 = figure1_loads();
        assert_eq!(f1.len(), 19);
        assert!((f1[0] - 0.05).abs() < 1e-12);
        assert!((f1[18] - 0.95).abs() < 1e-12);
        assert_eq!(evaluation_loads().len(), 10);
    }

    /// Figure 6 prints three tables from one run per cell, so a cell must
    /// come out the same however often it is run, and equal to the run it
    /// stands for.
    #[test]
    fn a_heracles_cell_is_a_pure_function_of_its_inputs() {
        let run = FigureRun { windows: 24, ..FigureRun::new(true) };
        let (lc, be) = (LcWorkload::websearch(), BeWorkload::brain());
        let first = run.heracles(&lc, Some(&be), 0.5);
        assert_eq!(first, run.heracles(&lc, Some(&be), 0.5));

        let policy = Heracles::new(
            HeraclesConfig::default(),
            lc.slo(),
            OfflineDramModel::profile(&lc, &run.server),
        );
        let mut runner =
            ColoRunner::new(run.server.clone(), lc, Some(be), Box::new(policy), run.colo);
        let records = runner.run_steady(0.5, 24);
        assert_eq!(first, ColoSummary::from_records(&records[12..]));
        assert_eq!(first.windows, 12);
    }
}
