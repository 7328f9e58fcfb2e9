//! Shared helpers for the figure-reproduction binaries.
//!
//! Each binary in `src/bin/` regenerates one table or figure from the paper's
//! evaluation section.  The experiments consist of many independent cells
//! (workload × antagonist × load), so [`parallel_map`] (re-exported from
//! `heracles_sim`, which also serves the fleet simulator) fans them out over
//! the machine's cores, [`cli`] parses the binaries' `--flag value`
//! overrides, and [`percent`] / [`print_row`] render the same percent-of-SLO
//! format the paper uses.  [`fleet_doctor`] holds the one reader of a
//! flight-recorder trace: the report behind the binary of the same name.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod cli;
pub mod fleet_doctor;

pub use heracles_sim::{parallel_map, parallel_map_mut};

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
    fn parallel_map_reexport_preserves_order() {
        let items: Vec<usize> = (0..100).collect();
        let doubled = parallel_map(&items, |&x| x * 2);
        assert_eq!(doubled, items.iter().map(|x| x * 2).collect::<Vec<_>>());
        let mut mutable = vec![1u32, 2, 3];
        assert_eq!(parallel_map_mut(&mut mutable, |x| *x + 1), vec![2, 3, 4]);
    }

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
}
