//! The three knobs every run reads are checked at start-up by every
//! bench entry point: a malformed `DUET_SCALE`, `DUET_JOBS` or
//! `DUET_SNAPSHOT` exits with status 2 and names the variable and the
//! value, before any work is done. (Each used to be silently ignored;
//! the parser's own cases are in `sim_core::knobs`.)

use std::process::{Command, Output};

/// One entry point of each kind: the `bench` CLI, `repro_all`, and a
/// harness binary that goes through `bench::run_main`.
const ENTRY_POINTS: [&str; 3] = [
    env!("CARGO_BIN_EXE_bench"),
    env!("CARGO_BIN_EXE_repro_all"),
    env!("CARGO_BIN_EXE_fig9_cpu_overhead"),
];

fn run(bin: &str, arg: &str, env: &[(&str, &str)]) -> Output {
    let mut cmd = Command::new(bin);
    cmd.arg(arg);
    for var in ["DUET_SCALE", "DUET_JOBS", "DUET_SNAPSHOT"] {
        cmd.env_remove(var);
    }
    cmd.envs(env.iter().copied())
        .output()
        .expect("the binary was built for this test")
}

#[test]
fn malformed_knobs_exit_2_naming_variable_and_value() {
    for bin in ENTRY_POINTS {
        for (var, value) in [
            ("DUET_SCALE", "abc"),
            ("DUET_SCALE", "0"),
            ("DUET_JOBS", "x"),
            ("DUET_JOBS", "0"),
            ("DUET_SNAPSHOT", "off"),
        ] {
            let out = run(bin, "no-such-command", &[(var, value)]);
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(2), "{bin} {var}={value}: {stderr}");
            assert!(
                stderr.contains(var) && stderr.contains(&format!("{value:?}")),
                "{bin} {var}={value}: {stderr}"
            );
            assert!(out.stdout.is_empty(), "{bin} {var}={value} did work");
        }
    }
}

#[test]
fn the_values_the_gate_and_the_benchmark_use_stay_valid() {
    let env = [
        ("DUET_SCALE", "512"),
        ("DUET_JOBS", "2"),
        ("DUET_SNAPSHOT", "0"),
    ];
    // Past the knob check, an unknown command is the ordinary usage
    // error (status 1) of the two CLIs that take one.
    for bin in &ENTRY_POINTS[..2] {
        let out = run(bin, "no-such-command", &env);
        assert_eq!(out.status.code(), Some(1), "{bin}");
    }
}
