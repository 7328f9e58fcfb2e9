//! Every option `fleet_scale` takes has an effect in each of its three
//! modes: set to a value other than its default, it changes stdout or a
//! written artifact compared with the same run without it, or the run exits
//! 2 because that mode does not read it.  Every option `fig8_cluster` takes
//! changes its stdout.  With `Args::finish` rejecting what a run does not
//! read, no option is silently ignored.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::process::Command;

/// Every run starts from the smallest fleet that runs each mode.
const SMALL: [&str; 5] = ["--fast", "--servers", "4", "--steps", "2"];

/// The three modes.  `{dir}` stands for the run's own directory.
const MODES: [(&str, &[&str]); 3] = [
    ("policy sweep", &[]),
    ("elastic sweep", &["--autoscale", "reactive"]),
    ("traced run", &["--trace", "{dir}/trace.jsonl"]),
];

/// Every option `fleet_scale` takes, with a value other than its default
/// (`None`: a flag, toggled).
const OPTIONS: [(&str, Option<&str>); 20] = [
    ("--fast", None),
    ("--servers", Some("5")),
    ("--steps", Some("3")),
    ("--seed", Some("7")),
    ("--slots", Some("1")),
    ("--mix", Some("0.4:0.3")),
    ("--services", Some("websearch:0.5,memkeyval:0.5")),
    ("--balancer", Some("slack-aware")),
    ("--autoscale", Some("predictive")),
    ("--csv", None),
    ("--trace", Some("{dir}/other.jsonl")),
    ("--metrics", Some("{dir}/metrics.json")),
    ("--health", None),
    ("--recorder-capacity", Some("10")),
    ("--policy", Some("first-fit")),
    ("--sim-core", Some("event")),
    ("--demand-hold", Some("3")),
    ("--energy", None),
    ("--power-cap", Some("300")),
    ("--energy-price", Some("peak")),
];

/// Where the smallest run cannot show an option's effect: the mode, the
/// option, and the options both runs of the pair take so that it shows.
type Context = (&'static str, &'static str, &'static [(&'static str, Option<&'static str>)]);
const CONTEXTS: [Context; 3] = [
    // Held demand moves leaf loads by less than the summary rows print.
    ("policy sweep", "--demand-hold", &[("--csv", None)]),
    // No job arrives in two steps, so no slot is ever taken.
    ("elastic sweep", "--slots", &[("--steps", Some("8"))]),
    // The elastic sweep prints no configuration, and the slack-aware
    // balancer diverts load only between leaves whose SLO slack differs:
    // two generations, and enough steps for the diurnal load to part them.
    ("elastic sweep", "--balancer", &[("--steps", Some("16")), ("--mix", Some("0.5:0.5"))]),
];

/// The one option with no effect by contract: the two sweeps print results
/// only, and the event-driven core's results are bit-identical to the
/// stepped core's (`tests/fleet_simcore.rs`).  A traced run shows it in its
/// wake attribution.
const BIT_IDENTICAL: [(&str, &str); 2] =
    [("policy sweep", "--sim-core"), ("elastic sweep", "--sim-core")];

/// `args` with `name` set to `value`, or the flag `name` toggled.
fn with_option(args: &[String], name: &str, value: Option<&str>) -> Vec<String> {
    let mut out = args.to_vec();
    match (out.iter().position(|a| a == name), value) {
        (Some(at), Some(value)) => out[at + 1] = value.to_string(),
        (Some(at), None) => {
            out.remove(at);
        }
        (None, Some(value)) => out.extend([name.to_string(), value.to_string()]),
        (None, None) => out.push(name.to_string()),
    }
    out
}

/// What one run shows: its exit code, its stdout and every file it wrote.
#[derive(Debug, PartialEq)]
struct Shown {
    code: Option<i32>,
    stdout: String,
    files: Vec<(PathBuf, Vec<u8>)>,
}

/// Runs `fleet_scale` with `args` in a fresh directory `dir`.
fn run(args: &[String], dir: &Path) -> Shown {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).expect("temp dir");
    let dir_str = dir.to_str().expect("temp path is UTF-8");
    let args: Vec<String> = args.iter().map(|a| a.replace("{dir}", dir_str)).collect();
    let out = Command::new(env!("CARGO_BIN_EXE_fleet_scale")).args(&args).output().expect("runs");
    let mut files: Vec<(PathBuf, Vec<u8>)> = std::fs::read_dir(dir)
        .expect("temp dir")
        .map(|entry| {
            let path = entry.expect("dir entry").path();
            let bytes = std::fs::read(&path).expect("artifact");
            (path.strip_prefix(dir).expect("in dir").to_path_buf(), bytes)
        })
        .collect();
    files.sort();
    std::fs::remove_dir_all(dir).expect("temp dir");
    Shown { code: out.status.code(), stdout: String::from_utf8_lossy(&out.stdout).into(), files }
}

#[test]
fn every_option_changes_the_run_or_is_refused() {
    let root = std::env::temp_dir().join(format!("option-effects-{}", std::process::id()));
    let mut silent = Vec::new();
    let mut without_runs: HashMap<Vec<String>, Shown> = HashMap::new();
    for (mode, mode_args) in MODES {
        for (name, value) in OPTIONS {
            if BIT_IDENTICAL.contains(&(mode, name)) {
                continue;
            }
            let context = CONTEXTS
                .iter()
                .find(|&&(m, option, _)| (m, option) == (mode, name))
                .map_or(&[][..], |&(_, _, context)| context);
            let mut base: Vec<String> =
                SMALL.iter().chain(mode_args).map(|a| a.to_string()).collect();
            for &(option, value) in context {
                base = with_option(&base, option, value);
            }
            let given = with_option(&base, name, value);
            let with = run(&given, &root);
            let without = without_runs.entry(base).or_insert_with_key(|base| run(base, &root));
            assert_eq!(without.code, Some(0), "{mode}: {}", without.stdout);
            match with.code {
                Some(0) if with == *without => silent.push(format!("{mode}: {given:?}")),
                Some(0 | 2) => {}
                code => panic!("{mode} {given:?} exited {code:?}: {}", with.stdout),
            }
        }
    }
    assert!(silent.is_empty(), "options that changed nothing:\n{}", silent.join("\n"));
}

/// Every option `fig8_cluster` takes, with a value other than the base
/// run's.
const FIG8_OPTIONS: [(&str, &str); 3] = [("--leaves", "3"), ("--steps", "5"), ("--seed", "7")];

#[test]
fn every_fig8_cluster_option_changes_stdout() {
    let stdout = |args: &[String]| {
        let out =
            Command::new(env!("CARGO_BIN_EXE_fig8_cluster")).args(args).output().expect("runs");
        assert_eq!(out.status.code(), Some(0), "fig8_cluster {args:?}");
        out.stdout
    };
    let base: Vec<String> =
        ["--quick", "--leaves", "2", "--steps", "4"].iter().map(|a| a.to_string()).collect();
    let without = stdout(&base);
    for (name, value) in FIG8_OPTIONS {
        let given = with_option(&base, name, Some(value));
        assert_ne!(stdout(&given), without, "fig8_cluster {given:?} changed nothing");
    }
}
