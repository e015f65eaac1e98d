//! Golden tests for the tentpole claim: sweeps produce *byte-identical*
//! results at any worker count. Each cell is a self-contained seeded
//! simulation, results are collected by cell index, so `DUET_JOBS=1`
//! and `DUET_JOBS=4` (here: explicit `jobs` arguments 1 and 4, which is
//! what the env var feeds) must agree to the last bit (`f64`s compared
//! via `to_bits`, not approximate equality).

use bench::pool;
use bench::sweeps::{saved_cells, GOLDEN_GRIDS};
use experiments::{paper_scaled, run_experiment_with, DeviceKind, RunOptions, TaskKind};
use sim_core::trace::TraceHandle;
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

/// The aggregated trace counters of a traced sweep must also be
/// byte-identical at any worker count: each cell owns a private
/// (non-`Send`) handle, and the merge folds in cell-index order.
#[test]
fn traced_sweep_counters_are_byte_identical_at_any_width() {
    let utils = [0.2, 0.6];
    let overlaps = [1.0];
    let run = |jobs: usize| {
        let swept = saved_cells(
            SCALE,
            DeviceKind::Hdd,
            Personality::WebServer,
            DistKind::Uniform,
            &utils,
            &overlaps,
            &[TaskKind::Scrub],
            None,
            jobs,
            true,
        )
        .expect("sweep");
        let rows: Vec<(String, u64)> = swept
            .traces
            .rows()
            .map(|(k, n)| (k.to_string(), n))
            .collect();
        (bits(&swept.values), swept.ops, rows)
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
