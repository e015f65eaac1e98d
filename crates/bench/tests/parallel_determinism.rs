//! Golden tests for the tentpole claim: sweeps produce *byte-identical*
//! results at any worker count. Each cell is a self-contained seeded
//! simulation, results are collected by cell index, so `DUET_JOBS=1`
//! and `DUET_JOBS=4` (here: explicit `jobs` arguments 1 and 4, which is
//! what the env var feeds) must agree to the last bit — both in the raw
//! `f64`s (compared via `to_bits`, not approximate equality) and in the
//! formatted report rows that become the CSVs.

use bench::sweeps::{completed_cells, saved_cells};
use bench::{f2, pool};
use experiments::{paper_scaled, run_experiment_with, DeviceKind, RunOptions, TaskKind};
use sim_core::trace::TraceHandle;
use workloads::{DistKind, Personality};

/// Tiny scale: the paper setup shrunk 512× keeps each cell to a few
/// milliseconds while still exercising the full runner.
const SCALE: u64 = 512;

fn bits(cells: &[f64]) -> Vec<u64> {
    cells.iter().map(|v| v.to_bits()).collect()
}

/// Renders a row-major grid in the committed fixture format: `per_row`
/// cells a line, as hex `f64` bit patterns (the `bench golden`
/// serialization).
fn grid_lines(cells: &[f64], per_row: usize) -> String {
    cells
        .chunks(per_row)
        .map(|row| {
            row.iter()
                .map(|v| format!("{:016x}", v.to_bits()))
                .collect::<Vec<_>>()
                .join(" ")
        })
        .collect::<Vec<_>>()
        .join("\n")
        + "\n"
}

fn render(cells: &[f64], utils: &[f64]) -> Vec<String> {
    utils
        .iter()
        .zip(cells.chunks(cells.len() / utils.len()))
        .map(|(u, row)| {
            let mut cols = vec![f2(*u)];
            cols.extend(row.iter().map(|&v| f2(v)));
            cols.join("\t")
        })
        .collect()
}

#[test]
fn saved_sweep_is_byte_identical_at_any_width() {
    let utils = [0.2, 0.6];
    let overlaps = [0.5, 1.0];
    let run = |jobs: usize| {
        saved_cells(
            SCALE,
            DeviceKind::Hdd,
            Personality::WebServer,
            DistKind::Uniform,
            &utils,
            &overlaps,
            &[TaskKind::Scrub],
            None,
            jobs,
            false,
        )
        .expect("sweep")
        .values
    };
    let sequential = run(1);
    let parallel = run(4);
    assert_eq!(
        bits(&sequential),
        bits(&parallel),
        "raw f64 bits differ between jobs=1 and jobs=4"
    );
    assert_eq!(
        render(&sequential, &utils),
        render(&parallel, &utils),
        "formatted report rows differ between jobs=1 and jobs=4"
    );
    // And the grid is not degenerate: some cell saved some I/O.
    assert!(sequential.iter().any(|&v| v > 0.0));
    // Both widths must also reproduce the committed fixture, so the
    // grid is pinned across builds, not merely self-consistent.
    let fixture = include_str!("fixtures/golden_saved_grid.txt");
    let per_row = overlaps.len();
    assert_eq!(
        grid_lines(&sequential, per_row),
        fixture,
        "jobs=1 grid vs fixture"
    );
    assert_eq!(
        grid_lines(&parallel, per_row),
        fixture,
        "jobs=4 grid vs fixture"
    );
}

#[test]
fn completed_sweep_is_byte_identical_at_any_width() {
    let utils = [0.0, 0.3, 0.6];
    let run = |jobs: usize| {
        completed_cells(
            SCALE,
            Personality::WebServer,
            &utils,
            &[TaskKind::Scrub, TaskKind::Backup],
            None,
            jobs,
            false,
        )
        .expect("sweep")
        .values
    };
    let sequential = run(1);
    let parallel = run(4);
    assert_eq!(bits(&sequential), bits(&parallel));
    assert_eq!(render(&sequential, &utils), render(&parallel, &utils));
    assert!(sequential.iter().any(|&v| v > 0.0));
    let fixture = include_str!("fixtures/golden_completed_grid.txt");
    assert_eq!(
        grid_lines(&sequential, 2),
        fixture,
        "jobs=1 grid vs fixture"
    );
    assert_eq!(grid_lines(&parallel, 2), fixture, "jobs=4 grid vs fixture");
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
