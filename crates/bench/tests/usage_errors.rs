//! Every figure and table binary refuses an option it does not know: it
//! exits 2 with a message on stderr before printing or simulating anything,
//! so a typo never silently starts a full grid.

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
