//! The sweep-cell driver and the two sweep shapes built on it.
//!
//! A sweep is a grid of independent experiment cells. [`run_cells`] is
//! the one place that runs such a grid: cells execute on up to `jobs`
//! workers through [`pool::try_run_indexed`] and come back in grid
//! order, so the rendered report is byte-identical to a sequential run.
//! Every cell runs `PROFILED` and, when `traced`, with a private
//! trace handle whose counters are merged in cell-index order.
//! [`Swept::credit`] then books the simulated ops on the harness's
//! [`Sink`] and saves the merged counters as `results/<name>_trace.csv`
//! (see [`crate::trace`]). Every harness that simulates calls [`cells`],
//! which does both at the `DUET_JOBS` / `DUET_TRACE` settings: a cell
//! is one experiment, a bisection of them, or a whole single-run
//! harness, and it credits the `workload_ops` of every run it made.
//!
//! [`GOLDEN_GRIDS`] pins one small grid of each shape against a
//! committed fixture, at any worker count.

use crate::pool;
use crate::trace::{self, TraceAgg};
use crate::{f2, BenchResult, Report, Sink};
use experiments::{paper_scaled, run_experiment_with, DeviceKind, RunOptions, TaskKind};
use sim_core::trace::TraceHandle;
use sim_core::SimResult;
use workloads::{DistKind, Personality};

/// Utilization grid of the paper's figures: 0–100 % in 10 % steps.
pub fn util_grid() -> Vec<f64> {
    (0..=10).map(|i| i as f64 / 10.0).collect()
}

/// How every cell runs its experiments: with the §6.1.2 profiled
/// throttle (one memoized calibration pass per workload shape, not one
/// per cell).
const PROFILED: RunOptions<'static> = RunOptions {
    trace: None,
    profiled: true,
    stop_when_tasks_done: false,
};

/// A finished grid: the cells' values in cell order, plus the two
/// aggregates folded in cell-index order (so both are byte-identical at
/// any worker count).
#[derive(Debug)]
pub struct Swept<T> {
    /// One value per cell, in cell order.
    pub values: Vec<T>,
    /// Summed simulated operations the cells reported.
    pub ops: u64,
    /// Merged trace counters (inert unless the sweep was traced).
    pub traces: TraceAgg,
}

impl<T> Swept<T> {
    /// Books the sweep on its harness: credits the ops to `sink` and
    /// saves the trace counters (when traced) under `name`.
    pub fn credit(self, name: &str, sink: &mut Sink) -> std::io::Result<Vec<T>> {
        sink.add_ops(self.ops);
        self.traces.save(name, sink)?;
        Ok(self.values)
    }
}

/// Runs `cell(0..n)` on up to `jobs` workers. Each cell gets the
/// [`RunOptions`] to run its experiment(s) under — profiled, and armed
/// with the cell's own trace handle when `traced` — and returns its
/// value plus the simulated ops to credit.
pub fn run_cells<T, F>(n: usize, jobs: usize, traced: bool, cell: F) -> SimResult<Swept<T>>
where
    T: Send,
    F: Fn(usize, &RunOptions<'_>) -> SimResult<(T, u64)> + Sync,
{
    let ran = pool::try_run_indexed(n, jobs, |i| {
        // Handles are `Rc`-based and deliberately not `Send`: each is
        // built on the worker that runs the cell, and only its counters
        // (plain data) travel back.
        let handle = traced.then(TraceHandle::with_default_capacity);
        let opts = RunOptions {
            trace: handle.as_ref(),
            ..PROFILED
        };
        let (value, ops) = cell(i, &opts)?;
        let counters = handle.map(|h| h.counters()).unwrap_or_default();
        SimResult::Ok((value, ops, counters))
    })?;
    let mut swept = Swept {
        values: Vec::with_capacity(ran.len()),
        ops: 0,
        traces: TraceAgg::new(traced),
    };
    for (value, ops, counters) in ran {
        swept.values.push(value);
        swept.ops += ops;
        swept.traces.merge(counters);
    }
    Ok(swept)
}

/// [`run_cells`] as a harness runs it: at `DUET_JOBS` width, traced iff
/// `DUET_TRACE=1`, and credited to `sink` under `name`.
pub fn cells<T, F>(name: &str, n: usize, sink: &mut Sink, cell: F) -> BenchResult<Vec<T>>
where
    T: Send,
    F: Fn(usize, &RunOptions<'_>) -> SimResult<(T, u64)> + Sync,
{
    Ok(run_cells(n, pool::jobs(), trace::enabled(), cell)?.credit(name, sink)?)
}

/// Runs the `utilization × overlap` grid of a saved-style sweep,
/// returning `io_saved` per cell, row-major (`overlaps.len()` cells per
/// utilization).
#[expect(
    clippy::too_many_arguments,
    reason = "one argument per sweep axis, as the figure harnesses call it"
)]
pub fn saved_cells(
    scale: u64,
    device: DeviceKind,
    personality: Personality,
    dist: DistKind,
    utils: &[f64],
    overlaps: &[f64],
    tasks: &[TaskKind],
    fragmentation: Option<(f64, u64)>,
    jobs: usize,
    traced: bool,
) -> SimResult<Swept<f64>> {
    let grid: Vec<(f64, f64)> = utils
        .iter()
        .flat_map(|&u| overlaps.iter().map(move |&o| (u, o)))
        .collect();
    run_cells(grid.len(), jobs, traced, |i, opts| {
        let (util, overlap) = grid[i];
        let mut cfg = paper_scaled(
            scale,
            personality,
            dist,
            overlap,
            util,
            tasks.to_vec(),
            true,
        );
        cfg.device = device;
        cfg.fragmentation = fragmentation;
        let result = run_experiment_with(&cfg, opts)?;
        Ok((result.io_saved(), result.workload_ops))
    })
}

/// Renders a row-major grid as report rows, one per utilization.
pub(crate) fn util_rows(
    report: &mut Report,
    sink: &mut Sink,
    utils: &[f64],
    values: &[f64],
    per_row: usize,
) {
    for (util, vals) in utils.iter().zip(values.chunks(per_row)) {
        let mut row = vec![f2(*util)];
        row.extend(vals.iter().map(|&v| f2(v)));
        report.row(sink, &row);
    }
}

/// Sweeps `utilization × overlap` and reports the I/O-saved fraction of
/// Duet-enabled `tasks` (the Figure 2/3/5/7/10 shape).
#[expect(
    clippy::too_many_arguments,
    reason = "one argument per sweep axis, as the figure harnesses call it"
)]
pub fn saved_sweep(
    name: &'static str,
    scale: u64,
    device: DeviceKind,
    personality: Personality,
    dist: DistKind,
    overlaps: &[f64],
    tasks: &[TaskKind],
    fragmentation: Option<(f64, u64)>,
    sink: &mut Sink,
) -> BenchResult<Report> {
    let mut header: Vec<String> = vec!["utilization".into()];
    for &o in overlaps {
        header.push(format!("saved_overlap_{:.0}%", o * 100.0));
    }
    let hdr_refs: Vec<&str> = header.iter().map(|s| s.as_str()).collect();
    let mut report = Report::new(name, &hdr_refs);
    report.print_header(sink);
    let utils = util_grid();
    let saved = saved_cells(
        scale,
        device,
        personality,
        dist,
        &utils,
        overlaps,
        tasks,
        fragmentation,
        pool::jobs(),
        trace::enabled(),
    )?
    .credit(name, sink)?;
    util_rows(&mut report, sink, &utils, &saved, overlaps.len().max(1));
    Ok(report)
}

/// Runs the `utilization × {baseline, duet}` grid of a completed-style
/// sweep, returning `work_completed` per cell, row-major (baseline then
/// Duet per utilization).
pub fn completed_cells(
    scale: u64,
    personality: Personality,
    utils: &[f64],
    tasks: &[TaskKind],
    fragmentation: Option<(f64, u64)>,
    jobs: usize,
    traced: bool,
) -> SimResult<Swept<f64>> {
    let grid: Vec<(f64, bool)> = utils
        .iter()
        .flat_map(|&u| [false, true].into_iter().map(move |d| (u, d)))
        .collect();
    run_cells(grid.len(), jobs, traced, |i, opts| {
        let (util, duet) = grid[i];
        let mut cfg = paper_scaled(
            scale,
            personality,
            DistKind::Uniform,
            1.0,
            util,
            tasks.to_vec(),
            duet,
        );
        cfg.fragmentation = fragmentation;
        let result = run_experiment_with(&cfg, opts)?;
        Ok((result.work_completed(), result.workload_ops))
    })
}

/// Sweeps utilization and reports the work-completed fraction for
/// baseline and Duet modes (the Figure 6/8 shape).
pub fn completed_sweep(
    name: &'static str,
    scale: u64,
    personality: Personality,
    tasks: &[TaskKind],
    fragmentation: Option<(f64, u64)>,
    sink: &mut Sink,
) -> BenchResult<Report> {
    let mut report = Report::new(
        name,
        &["utilization", "baseline_completed", "duet_completed"],
    );
    report.print_header(sink);
    let utils = util_grid();
    let completed = completed_cells(
        scale,
        personality,
        &utils,
        tasks,
        fragmentation,
        pool::jobs(),
        trace::enabled(),
    )?
    .credit(name, sink)?;
    util_rows(&mut report, sink, &utils, &completed, 2);
    Ok(report)
}

/// One committed sweep-grid fixture: its file name and the function
/// producing its bytes on `jobs` workers.
pub type GridFixture = (&'static str, fn(jobs: usize) -> SimResult<String>);

/// Every committed fixture under `crates/bench/tests/fixtures/`.
/// `bench golden` writes them from one worker; the tests demand the
/// same bytes from one and from four.
pub const GOLDEN_GRIDS: [GridFixture; 2] = [
    ("golden_saved_grid.txt", |jobs| {
        let overlaps = [0.5, 1.0];
        let saved = saved_cells(
            512,
            DeviceKind::Hdd,
            Personality::WebServer,
            DistKind::Uniform,
            &[0.2, 0.6],
            &overlaps,
            &[TaskKind::Scrub],
            None,
            jobs,
            false,
        )?;
        Ok(grid_lines(&saved.values, overlaps.len()))
    }),
    ("golden_completed_grid.txt", |jobs| {
        let completed = completed_cells(
            512,
            Personality::WebServer,
            &[0.0, 0.3, 0.6],
            &[TaskKind::Scrub, TaskKind::Backup],
            None,
            jobs,
            false,
        )?;
        Ok(grid_lines(&completed.values, 2))
    }),
];

/// A row-major grid, `per_row` cells a line, as hex `f64` bit patterns.
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
