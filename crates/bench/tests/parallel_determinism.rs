//! Golden tests for the tentpole claim: cells produce *byte-identical*
//! results at any worker count, and whether a harness shares them with
//! another or runs alone. Each cell is a self-contained seeded
//! simulation, results are collected by cell index, so `DUET_JOBS=1`
//! and `DUET_JOBS=4` (here: explicit `jobs` arguments 1 and 4, which is
//! what the env var feeds) must agree to the last bit (`f64`s compared
//! via `to_bits`, not approximate equality).

use bench::cell::{each, grid, Batch, Sim, GOLDEN_GRIDS};
use bench::figs::{self, HarnessSpec};
use bench::{pool, suite, Sink};
use experiments::{paper_scaled, run_experiment_with, ExperimentConfig, ExperimentResult};
use experiments::{RunOptions, TaskKind};
use sim_core::trace::TraceHandle;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use workloads::{DistKind, Personality};

/// Tiny scale: the paper setup shrunk 512× keeps each cell to a few
/// milliseconds while still exercising the full runner.
const SCALE: u64 = 512;

fn bits(cells: &[f64]) -> Vec<u64> {
    cells.iter().map(|v| v.to_bits()).collect()
}

/// Every grid row reproduces its committed fixture — `f64` bit patterns,
/// so the CSV rows formatted from them too — from one worker and from
/// four: the grids are pinned across builds, not merely
/// self-consistent. And the table is the directory: a fixture without
/// a row would be a golden nobody checks.
#[test]
fn golden_grids_match_their_fixtures_at_any_width() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");
    for (file, produce) in GOLDEN_GRIDS {
        let fixture = std::fs::read_to_string(dir.join(file)).expect(file);
        for jobs in [1, 4] {
            assert_eq!(produce(jobs).expect(file), fixture, "{file} at jobs={jobs}");
        }
        // And the grid is not degenerate: some cell is non-zero.
        assert!(
            fixture.split_whitespace().any(|c| c != "0000000000000000"),
            "{file}"
        );
    }
    let mut committed: Vec<String> = std::fs::read_dir(&dir)
        .expect("fixture directory")
        .map(|e| e.expect("entry").file_name().into_string().expect("utf-8"))
        .collect();
    committed.sort();
    let mut rows = GOLDEN_GRIDS.map(|(file, _)| file);
    rows.sort();
    assert_eq!(committed, rows, "fixture directory vs GOLDEN_GRIDS");
}

/// The aggregated trace counters of a traced batch must also be
/// byte-identical at any worker count: each cell owns a private
/// (non-`Send`) handle, and a report's counters are a keyed sum.
#[test]
fn traced_sweep_counters_are_byte_identical_at_any_width() {
    let run = |jobs: usize| {
        let columns = [(1.0, true)];
        let cells = grid("t", SCALE, &[0.2, 0.6], &columns, &[TaskKind::Scrub], None);
        let batch = Batch::run(vec![cells], jobs, true);
        let saved = each(
            &batch.results(0).expect("sweep"),
            ExperimentResult::io_saved,
        )
        .expect("Btrfs cells");
        let traces = batch.traces(0);
        let rows: Vec<(String, u64)> = traces["t"]
            .rows()
            .map(|(k, n)| (k.to_string(), n))
            .collect();
        (bits(&saved), batch.ops(0), rows)
    };
    let sequential = run(1);
    let parallel = run(4);
    assert_eq!(sequential, parallel, "trace aggregate differs by width");
    assert!(
        !sequential.2.is_empty(),
        "a traced sweep must produce counters"
    );
}

/// The per-cell JSONL traces of a pinned scenario grid, collected in
/// cell order, are byte-identical across `jobs = 1` and `jobs = 4` —
/// the `DUET_JOBS` guarantee extended to the event stream itself.
#[test]
fn traced_cell_jsonl_is_byte_identical_at_any_width() {
    let cells = [0.2, 0.6];
    let run = |jobs: usize| -> Vec<String> {
        pool::try_run_indexed(cells.len(), jobs, |i| {
            let mut cfg = paper_scaled(
                SCALE,
                Personality::WebServer,
                DistKind::Uniform,
                1.0,
                cells[i],
                vec![TaskKind::Scrub],
                true,
            );
            cfg.seed = 7;
            let t = TraceHandle::with_default_capacity();
            let traced = RunOptions {
                trace: Some(&t),
                ..RunOptions::default()
            };
            run_experiment_with(&cfg, &traced)?;
            sim_core::SimResult::Ok(t.dump_jsonl())
        })
        .expect("sweep")
    };
    let sequential = run(1);
    let parallel = run(4);
    assert_eq!(sequential, parallel, "JSONL traces differ by width");
    assert!(sequential.iter().all(|j| !j.is_empty()));
}

/// Each harness's files (its CSVs and `_trace.csv`s) and ops, as
/// [`suite::render`] leaves them when harness `i` of `batch` is rendered
/// into its own directory under `dir`.
type Rendered = Vec<(BTreeMap<String, Vec<u8>>, u64)>;

#[expect(
    clippy::expect_used,
    reason = "test helper: a failure fails the calling test"
)]
fn render_all(batch: &Batch, specs: &[&HarnessSpec], dir: &Path) -> Rendered {
    specs
        .iter()
        .enumerate()
        .map(|(i, spec)| {
            let out = dir.join(spec.name);
            std::fs::create_dir_all(&out).expect("scratch dir");
            let mut sink = Sink::buffer();
            suite::render(batch, i, spec, SCALE, &out, &mut sink).expect(spec.name);
            let files = std::fs::read_dir(&out)
                .expect("rendered dir")
                .map(|e| {
                    let e = e.expect("entry");
                    let name = e.file_name().into_string().expect("utf-8");
                    (name, std::fs::read(e.path()).expect("file"))
                })
                .collect();
            (files, sink.ops())
        })
        .collect()
}

#[expect(
    clippy::expect_used,
    reason = "test helper: a failure fails the calling test"
)]
fn scratch(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    // A stale file from an earlier run must not pass for a fresh one.
    if dir.exists() {
        std::fs::remove_dir_all(&dir).expect("clean scratch dir");
    }
    dir
}

/// Renders fig5 and fig6 from one batch whose cells are shared by
/// `same`, and compares each harness's files and ops with its solo run.
#[expect(
    clippy::expect_used,
    reason = "test helper: a failure fails the calling test"
)]
fn shared_vs_solo(
    tag: &str,
    jobs: usize,
    same: fn(&Sim, &Sim) -> bool,
) -> (usize, usize, Result<(), String>) {
    let specs = ["fig5_scrub_backup_saved", "fig6_scrub_backup_completed"]
        .map(|name| figs::find(name).expect("registered"));
    let solo_dir = scratch(&format!("{tag}_solo"));
    let solo: Rendered = specs
        .iter()
        .flat_map(|spec| {
            let batch = Batch::run(vec![(spec.cells)(SCALE)], 1, true);
            render_all(&batch, &[spec], &solo_dir)
        })
        .collect();
    let cells = specs.iter().map(|spec| (spec.cells)(SCALE)).collect();
    let batch = Batch::run_by(cells, jobs, true, same);
    let shared = render_all(&batch, &specs, &scratch(&format!("{tag}_shared")));
    let verdict =
        specs
            .iter()
            .zip(solo.iter().zip(&shared))
            .try_for_each(|(spec, (alone, together))| {
                assert!(alone.0.len() == 2, "{}: a CSV and a _trace.csv", spec.name);
                if alone == together {
                    Ok(())
                } else {
                    Err(format!("{} differs when shared", spec.name))
                }
            });
    (batch.cells(), batch.runs(), verdict)
}

/// fig6's Duet column is fig5's 100 %-overlap column, and fig5's 0 %
/// row is four copies of one run: together they read 66 cells, of which
/// 52 are distinct, and each harness renders the same CSV, trace
/// counters and ops as alone — at one worker and at four.
#[test]
fn shared_cells_render_the_same_bytes_as_solo_runs() {
    for jobs in [1, 4] {
        let (cells, runs, verdict) = shared_vs_solo(&format!("shared_j{jobs}"), jobs, Sim::eq);
        assert_eq!((cells, runs), (66, 52), "jobs={jobs}");
        assert_eq!(verdict, Ok(()), "jobs={jobs}");
    }
}

/// The check above can fail: an equality that ignores the Duet flag
/// makes fig6's baseline column read fig5's Duet runs.
#[test]
fn sharing_cells_that_differ_only_in_duet_is_caught() {
    fn ignoring_duet(a: &Sim, b: &Sim) -> bool {
        match (a, b) {
            (Sim::Btrfs(x), Sim::Btrfs(y)) => {
                ExperimentConfig {
                    duet: y.duet,
                    ..x.clone()
                } == *y
            }
            _ => a == b,
        }
    }
    let (_, runs, verdict) = shared_vs_solo("sabotage", 1, ignoring_duet);
    assert!(runs < 52, "the sabotage shared nothing more: {runs}");
    assert_eq!(
        verdict,
        Err("fig6_scrub_backup_completed differs when shared".into())
    );
}

/// A harness whose cell cannot run: mem_overhead's one cell, which it
/// shares, plus that cell with `informed_replacement` set, which
/// `run_experiment_with` rejects.
static BROKEN: HarnessSpec = HarnessSpec {
    name: "broken_harness",
    run: |_, _| Ok(()),
    cells: |scale| {
        let mut cells = figs::mem_overhead::cells(scale);
        let mut broken = cells[0].clone();
        if let Sim::Btrfs(cfg) = &mut broken.sim {
            cfg.informed_replacement = true;
        }
        cells.push(broken);
        cells
    },
    render: |_, _, _| Ok(Vec::new()),
    default_scale: SCALE,
    wall_clock: false,
};

/// A failed cell fails only the harnesses that read it: the other
/// harness of the batch renders and is credited exactly as alone, and
/// the batch's error names the broken harness.
#[test]
fn a_failing_cell_fails_only_its_readers() {
    let good = figs::find("mem_overhead").expect("registered");
    let dir = scratch("failing_cell");
    assert_eq!(
        suite::run(&[(&BROKEN, SCALE), (good, SCALE)], 2, true, &dir),
        Err("failed harnesses: broken_harness".into())
    );
    let summary = std::fs::read_to_string(dir.join("BENCH_sweeps.json")).expect("summary");
    assert!(
        summary.contains("\"cells\": 3,\n  \"runs\": 2,"),
        "{summary}"
    );
    let row = |name: &str| {
        let key = format!("\"name\": \"{name}\"");
        summary.lines().find(|l| l.contains(&key)).expect(name)
    };
    assert!(row("broken_harness").contains("\"ok\": false"), "{summary}");
    let alone = Batch::run(vec![(good.cells)(SCALE)], 1, true);
    let solo = &render_all(&alone, &[good], &scratch("failing_cell_solo"))[0];
    assert!(
        row("mem_overhead").contains(&format!("\"ops\": {}, \"ok\": true", solo.1)),
        "{summary}"
    );
    for (file, bytes) in &solo.0 {
        assert_eq!(&std::fs::read(dir.join(file)).expect(file), bytes, "{file}");
    }
    assert!(
        !dir.join("broken_harness_trace.csv").exists(),
        "a failed harness saves nothing"
    );
}

/// Untraced, a harness saves its CSV and nothing more: no `_trace.csv`
/// and no line announcing one.
#[test]
fn an_untraced_batch_saves_no_trace_files() {
    let spec = figs::find("mem_overhead").expect("registered");
    let batch = Batch::run(vec![(spec.cells)(SCALE)], 1, false);
    assert!(batch.traces(0).is_empty(), "untraced, yet trace counters");
    let dir = scratch("untraced");
    let mut sink = Sink::buffer();
    suite::render(&batch, 0, spec, SCALE, &dir, &mut sink).expect("render");
    let mut files: Vec<String> = std::fs::read_dir(&dir)
        .expect("rendered dir")
        .map(|e| e.expect("entry").file_name().into_string().expect("utf-8"))
        .collect();
    files.sort();
    assert_eq!(files, ["mem_overhead.csv"]);
    let saved: Vec<&String> = sink
        .lines()
        .iter()
        .filter(|l| l.starts_with("[saved"))
        .collect();
    let csv = dir.join("mem_overhead.csv");
    assert_eq!(saved, [&format!("[saved {}]", csv.display())]);
}
