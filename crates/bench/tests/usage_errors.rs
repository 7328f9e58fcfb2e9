//! Every figure and table binary refuses an option it does not know, and
//! `fleet_scale` refuses a value or an option combination it would
//! otherwise ignore: each exits 2 with a message on stderr before printing
//! or simulating anything, so a typo never silently starts a full grid.

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

/// Runs `fleet_scale` with `args` and requires a usage error naming `option`.
fn assert_fleet_scale_usage_error(args: &[&str], option: &str) {
    let out = Command::new(env!("CARGO_BIN_EXE_fleet_scale")).args(args).output().expect("runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(out.stdout.is_empty(), "{args:?} printed {:?}", String::from_utf8_lossy(&out.stdout));
    assert!(stderr.contains(option), "{args:?}: {stderr}");
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
