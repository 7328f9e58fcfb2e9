//! Every bench binary refuses an argument its run does not read, an empty
//! value and a value it cannot use: each exits 2 with a message on stderr
//! before printing, simulating or writing anything, so a typo never
//! silently starts a full grid or a run nobody asked for.

use std::process::Command;

const BINARIES: [(&str, &str); 8] = [
    ("fig1_characterization", env!("CARGO_BIN_EXE_fig1_characterization")),
    ("fig3_convexity", env!("CARGO_BIN_EXE_fig3_convexity")),
    ("fig4_latency_slo", env!("CARGO_BIN_EXE_fig4_latency_slo")),
    ("fig5_emu", env!("CARGO_BIN_EXE_fig5_emu")),
    ("fig6_resource_util", env!("CARGO_BIN_EXE_fig6_resource_util")),
    ("fig7_network", env!("CARGO_BIN_EXE_fig7_network")),
    ("fig8_cluster", env!("CARGO_BIN_EXE_fig8_cluster")),
    ("table_tco", env!("CARGO_BIN_EXE_table_tco")),
];

#[test]
fn unknown_options_exit_2_with_nothing_on_stdout() {
    for (name, exe) in BINARIES {
        let out = Command::new(exe).arg("--bogus").output().expect("binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{name}: {stderr}");
        assert!(out.stdout.is_empty(), "{name} printed {:?}", String::from_utf8_lossy(&out.stdout));
        assert!(stderr.contains(name) && stderr.contains("--bogus"), "{name}: {stderr}");
    }
}

/// Runs `exe` with `args` and requires a usage error naming `option`.
fn assert_usage_error(exe: &str, args: &[&str], option: &str) {
    let out = Command::new(exe).args(args).output().expect("runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{exe} {args:?}: {stderr}");
    assert!(out.stdout.is_empty(), "{args:?} printed {:?}", String::from_utf8_lossy(&out.stdout));
    assert!(stderr.contains(option), "{exe} {args:?}: {stderr}");
}

/// Runs `fleet_scale` with `args` and requires a usage error naming `option`.
fn assert_fleet_scale_usage_error(args: &[&str], option: &str) {
    assert_usage_error(env!("CARGO_BIN_EXE_fleet_scale"), args, option);
}

/// A path under the temp directory unique to this test process.
fn temp_path(name: &str) -> String {
    let path = std::env::temp_dir().join(format!("usage-errors-{}-{name}", std::process::id()));
    path.to_str().expect("temp path is UTF-8").to_string()
}

#[test]
fn fleet_scale_rejects_a_power_cap_that_is_not_positive_watts() {
    for cap in ["-5", "0", "NaN", "inf"] {
        let args = ["--fast", "--servers", "4", "--steps", "2", "--energy", "--power-cap", cap];
        assert_fleet_scale_usage_error(&args, "--power-cap");
    }
}

#[test]
fn fleet_scale_rejects_a_repeated_option() {
    let base = ["--fast", "--servers", "4", "--steps", "2"];
    for repeat in [
        &["--seed", "1", "--seed", "2"][..],
        &["--seed=1", "--seed", "2"],
        &["--seed=1", "--seed=1"],
    ] {
        assert_fleet_scale_usage_error(&[&base[..], repeat].concat(), "--seed");
    }
}

#[test]
fn fleet_scale_rejects_trace_only_options_without_trace() {
    let metrics = std::env::temp_dir().join(format!("usage-errors-{}.json", std::process::id()));
    let metrics = metrics.to_str().expect("temp path is UTF-8");
    for (option, value) in
        [("--metrics", metrics), ("--policy", "first-fit"), ("--recorder-capacity", "100")]
    {
        assert_fleet_scale_usage_error(&["--fast", option, value], option);
        assert_fleet_scale_usage_error(&["--fast", &format!("{option}={value}")], option);
    }
    assert_fleet_scale_usage_error(&["--fast", "--health"], "--health");
    assert!(!std::path::Path::new(metrics).exists(), "{metrics} was written");
}

#[test]
fn fleet_scale_rejects_a_value_on_a_flag() {
    let small = ["--servers", "4", "--steps", "2"];
    for (flag, given) in [("--fast", &["--fast=yes"][..]), ("--csv", &["--fast", "--csv=1"])] {
        assert_fleet_scale_usage_error(&[given, &small[..]].concat(), flag);
    }
}

#[test]
fn an_option_the_mode_does_not_read_is_an_error() {
    let trace = temp_path("csv.jsonl");
    let small = ["--fast", "--servers", "4", "--steps", "2"];
    assert_fleet_scale_usage_error(&[&small[..], &["--trace", &trace, "--csv"]].concat(), "--csv");
    assert!(!std::path::Path::new(&trace).exists(), "{trace} was written");
    // The policy sweep bills energy only when metering or writing its CSV.
    let unbilled = [&small[..], &["--energy-price", "peak"]].concat();
    assert_fleet_scale_usage_error(&unbilled, "--energy-price");
    assert_usage_error(env!("CARGO_BIN_EXE_fig8_cluster"), &["--quick", "--fast"], "--fast");
    assert_usage_error(env!("CARGO_BIN_EXE_table_tco"), &["stray"], "stray");
}

#[test]
fn fig8_cluster_rejects_an_empty_cluster_or_run() {
    let fig8 = env!("CARGO_BIN_EXE_fig8_cluster");
    assert_usage_error(fig8, &["--quick", "--leaves", "0", "--steps", "2"], "--leaves");
    assert_usage_error(fig8, &["--quick", "--leaves", "2", "--steps", "0"], "--steps");
}

#[test]
fn an_empty_value_is_an_error() {
    let small = ["--fast", "--servers", "4", "--steps", "2"];
    let trace = temp_path("empty.jsonl");
    for (given, option) in [
        (&["--trace="][..], "--trace"),
        (&["--autoscale="], "--autoscale"),
        (&["--energy", "--energy-price="], "--energy-price"),
        (&["--trace", &trace, "--metrics="], "--metrics"),
    ] {
        assert_fleet_scale_usage_error(&[&small[..], given].concat(), option);
    }
    assert!(!std::path::Path::new(&trace).exists(), "{trace} was written");

    let out = Command::new(env!("CARGO_BIN_EXE_fleet_scale"))
        .args([&small[..], &["--trace", &trace]].concat())
        .output()
        .expect("runs");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let doctor = env!("CARGO_BIN_EXE_fleet_doctor");
    assert_usage_error(doctor, &["--trace", &trace, "--metrics="], "--metrics");
    std::fs::remove_file(&trace).expect("the trace was written");
}
