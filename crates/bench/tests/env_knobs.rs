//! The `bench` binary end to end: strict env knobs, the harness
//! registry behind `bench run`, and the summary it writes.
//!
//! The five knobs are checked at start-up, whatever the subcommand: a
//! malformed `DUET_SCALE`, `DUET_JOBS`, `DUET_TRACE`, `DUET_FAULT_SEED`
//! or `DUET_CHECK_SEED` exits with status 2 and names the variable and
//! the value, before any work is done. (Each used to be silently
//! ignored — `DUET_TRACE=off` even turned tracing *on*; the parser's
//! own cases are in `sim_core::knobs`.)

use sim_core::knobs::Knob;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// Runs `bench <args>` in cargo's per-test scratch directory (`bench
/// run` writes `results/` under its cwd) with only `env`'s knobs set.
fn bench(args: &[&str], env: &[(&str, &str)]) -> Output {
    bench_in(Path::new(env!("CARGO_TARGET_TMPDIR")), args, env)
}

/// [`bench`] with `dir` as its cwd, for a test whose `results/` must
/// not race another test's.
#[expect(
    clippy::expect_used,
    reason = "test helper: a binary that cannot start fails the calling test"
)]
fn bench_in(dir: &Path, args: &[&str], env: &[(&str, &str)]) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_bench"));
    cmd.args(args).current_dir(dir);
    for knob in Knob::ALL {
        cmd.env_remove(knob.var());
    }
    cmd.envs(env.iter().copied())
        .output()
        .expect("the binary was built for this test")
}

#[test]
fn malformed_knobs_exit_2_naming_variable_and_value() {
    for sub in ["run", "golden"] {
        for (var, value) in [
            ("DUET_SCALE", "abc"),
            ("DUET_SCALE", "0"),
            ("DUET_JOBS", "x"),
            ("DUET_JOBS", "0"),
            ("DUET_TRACE", "off"),
            ("DUET_TRACE", "false"),
            ("DUET_TRACE", ""),
            ("DUET_FAULT_SEED", "0xZZ"),
            ("DUET_CHECK_SEED", "+7"),
        ] {
            let out = bench(&[sub], &[(var, value)]);
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(
                out.status.code(),
                Some(2),
                "bench {sub} {var}={value}: {stderr}"
            );
            assert!(
                stderr.contains(var) && stderr.contains(&format!("{value:?}")),
                "bench {sub} {var}={value}: {stderr}"
            );
            assert!(out.stdout.is_empty(), "bench {sub} {var}={value} did work");
        }
    }
}

#[test]
fn the_values_the_smoke_and_the_benchmark_use_stay_valid() {
    let env = [
        ("DUET_SCALE", "512"),
        ("DUET_JOBS", "2"),
        ("DUET_TRACE", "0"),
    ];
    // Past the knob check, an unknown command is the ordinary usage
    // error (status 1).
    let out = bench(&["no-such-command"], &env);
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage: bench"));
}

#[test]
fn an_unknown_harness_exits_1_listing_the_registry() {
    let out = bench(&["run", "fig2_scrub_saved", "no_such_harness"], &[]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("no_such_harness"), "{stderr}");
    for h in bench::figs::ALL {
        assert!(stderr.contains(h.name), "{} not listed: {stderr}", h.name);
    }
    assert!(out.stdout.is_empty(), "ran something: {out:?}");
}

/// `bench run` is the only way to run a harness: the deleted `micro`,
/// `gate` and `baseline` subcommands are usage errors, not aliases.
#[test]
fn removed_subcommands_are_usage_errors() {
    for sub in ["micro", "gate", "baseline"] {
        let out = bench(&[sub], &[]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "bench {sub}: {stderr}");
        assert!(
            stderr.contains("usage: bench <run [harness...]|golden>\n"),
            "bench {sub}: {stderr}"
        );
        assert!(!stderr.contains(sub), "usage still lists {sub}: {stderr}");
        assert!(out.stdout.is_empty(), "bench {sub} did work");
    }
}

/// Two copies of one harness would run concurrently and both write
/// `results/<name>.csv`; the repeat is refused before any work.
#[test]
fn a_repeated_harness_exits_1_naming_it() {
    let out = bench(
        &[
            "run",
            "fig2_scrub_saved",
            "fig1_distributions",
            "fig2_scrub_saved",
        ],
        &[("DUET_SCALE", "512")],
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(
        stderr.contains("harness named twice: fig2_scrub_saved"),
        "{stderr}"
    );
    assert!(out.stdout.is_empty(), "ran something: {out:?}");
}

/// `bench run` of two harnesses at `scripts/check.sh`'s smoke settings
/// writes their CSVs and a summary carrying their exact simulated-op
/// counts. Ops are deterministic, so any drift is a behaviour change;
/// this is the one place the two numbers are pinned.
///
/// The second run carries `DUET_SNAPSHOT=off`: the variable was the
/// warm-start escape hatch (and that value an exit-2 error) until the
/// knob was deleted. Set, it is read by nothing: same exit status,
/// same CSVs, and the summary checked below is that run's.
#[test]
fn run_writes_csvs_and_the_sweeps_summary() {
    let harnesses = ["fig2_scrub_saved", "fig6_scrub_backup_completed"];
    let results = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("results");
    let run = |snapshot: &[(&str, &str)]| {
        let mut env = vec![("DUET_SCALE", "512"), ("DUET_JOBS", "2")];
        env.extend_from_slice(snapshot);
        let out = bench(&[&["run"][..], &harnesses[..]].concat(), &env);
        assert!(out.status.success(), "{snapshot:?}: {out:?}");
        harnesses
            .map(|name| std::fs::read_to_string(results.join(format!("{name}.csv"))).expect("csv"))
    };
    let unset = run(&[]);
    assert_eq!(run(&[("DUET_SNAPSHOT", "off")]), unset);
    let summary = std::fs::read_to_string(results.join("BENCH_sweeps.json")).expect("summary");
    assert!(summary.contains("\"schema_version\": 3,"), "{summary}");
    assert!(summary.contains("\"scale\": 512,"), "{summary}");
    assert!(summary.contains("\"jobs\": 2,"), "{summary}");
    for (name, ops) in [
        ("fig2_scrub_saved", 32058),
        ("fig6_scrub_backup_completed", 16821),
    ] {
        let row = summary
            .lines()
            .find(|l| l.contains(&format!("\"name\": \"{name}\"")))
            .unwrap_or_else(|| panic!("{name} missing: {summary}"));
        assert!(
            row.contains(&format!("\"ops\": {ops},")) && row.contains("\"ok\": true"),
            "{row}"
        );
    }
    for csv in unset {
        assert_eq!(csv.lines().count(), 12, "header + 11 utilizations: {csv}");
    }
}

/// `bench run` puts the harnesses it is given in registry order, whatever
/// order they are named in: their stdout blocks, like their summary rows,
/// come fig2 first.
#[test]
fn harness_output_comes_in_registry_order() {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("registry_order");
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let out = bench_in(
        &dir,
        &["run", "fig6_scrub_backup_completed", "fig2_scrub_saved"],
        &[("DUET_SCALE", "512"), ("DUET_JOBS", "2")],
    );
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let headers: Vec<&str> = stdout.lines().filter(|l| l.starts_with("===== ")).collect();
    assert_eq!(
        headers,
        [
            "===== fig2_scrub_saved (DUET_SCALE=512) =====",
            "===== fig6_scrub_backup_completed (DUET_SCALE=512) =====",
        ],
        "{stdout}"
    );
    let summary = std::fs::read_to_string(dir.join("results/BENCH_sweeps.json")).expect("summary");
    let fig2 = summary.find("fig2_scrub_saved").expect("fig2 row");
    let fig6 = summary
        .find("fig6_scrub_backup_completed")
        .expect("fig6 row");
    assert!(fig2 < fig6, "{summary}");
}

/// fig5 and fig6 read 66 cells, 52 of them distinct (fig6's Duet
/// column is fig5's 100 %-overlap column, and fig5's 0 % row is one run
/// four times); the summary says so, and each harness keeps its ops.
#[test]
fn the_summary_counts_requested_cells_and_distinct_runs() {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("cells_and_runs");
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let out = bench_in(
        &dir,
        &[
            "run",
            "fig5_scrub_backup_saved",
            "fig6_scrub_backup_completed",
        ],
        &[("DUET_SCALE", "512"), ("DUET_JOBS", "2")],
    );
    assert!(out.status.success(), "{out:?}");
    let summary = std::fs::read_to_string(dir.join("results/BENCH_sweeps.json")).expect("summary");
    assert!(
        summary.contains("\"cells\": 66,\n  \"runs\": 52,\n"),
        "{summary}"
    );
    let row = summary
        .lines()
        .find(|l| l.contains("\"name\": \"fig6_scrub_backup_completed\""))
        .unwrap_or_else(|| panic!("fig6 missing: {summary}"));
    assert!(row.contains("\"ops\": 16821,"), "{row}");
}

/// `mem_overhead` makes one run, and goes through a batch of cells like
/// every harness that simulates: under `DUET_TRACE=1` it writes
/// its trace counters and credits its exact simulated ops, and both are
/// the same bytes at one worker and at two.
#[test]
fn a_single_run_harness_traces_and_credits_its_ops() {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("single_run");
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let run = |jobs: &str| {
        let env = [
            ("DUET_SCALE", "512"),
            ("DUET_JOBS", jobs),
            ("DUET_TRACE", "1"),
        ];
        let out = bench_in(&dir, &["run", "mem_overhead"], &env);
        assert!(out.status.success(), "jobs {jobs}: {out:?}");
        let read = |file: &str| {
            std::fs::read_to_string(dir.join("results").join(file))
                .unwrap_or_else(|e| panic!("jobs {jobs}: {file}: {e}"))
        };
        let summary = read("BENCH_sweeps.json");
        let row = summary
            .lines()
            .find(|l| l.contains("\"name\": \"mem_overhead\""))
            .unwrap_or_else(|| panic!("mem_overhead missing: {summary}"));
        assert!(
            row.contains("\"ops\": 903,") && row.contains("\"ok\": true"),
            "jobs {jobs}: {row}"
        );
        let trace = read("mem_overhead_trace.csv");
        assert!(trace.lines().count() > 1, "no counters: {trace}");
        (read("mem_overhead.csv"), trace)
    };
    assert_eq!(run("1"), run("2"));
}
