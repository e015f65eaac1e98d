//! Table 5: maximum utilization at which each Btrfs maintenance task
//! still completes within the window, baseline vs Duet, across the
//! paper's workload grid.
//!
//! Rows: webserver at 25/50/75/100 % overlap (uniform) and 100 % with
//! the MS-trace distribution; webproxy and fileserver at 100 % overlap,
//! uniform and MS-trace. Columns: scrubbing, backup, defragmentation —
//! baseline and Duet.
//!
//! Each of the 54 cells is an independent bisection (a dozen or so
//! experiment runs), so the cells — not the inner runs — are the unit
//! of parallelism. The workload profile depends only on the
//! (personality, distribution) shape, so 5 memoized calibration runs
//! serve the whole table.

use crate::sweeps::cells;
use crate::{pct, BenchResult, Report, Sink};
use experiments::{max_utilization, paper_scaled, run_experiment_with, RunOptions, TaskKind};
use sim_core::SimResult;
use workloads::{DistKind, Personality};

type CellSpec = (Personality, DistKind, f64, TaskKind, bool);

/// Runs the harness at 1/`scale` of the paper setup.
pub fn run(scale: u64, sink: &mut Sink) -> BenchResult<()> {
    sink.line(format!(
        "table5: maximum utilization, scale 1/{scale} (this sweep runs many experiments)"
    ));
    let rows: Vec<(&str, Personality, f64, DistKind)> = vec![
        (
            "webserver 25% uniform",
            Personality::WebServer,
            0.25,
            DistKind::Uniform,
        ),
        (
            "webserver 50% uniform",
            Personality::WebServer,
            0.50,
            DistKind::Uniform,
        ),
        (
            "webserver 75% uniform",
            Personality::WebServer,
            0.75,
            DistKind::Uniform,
        ),
        (
            "webserver 100% uniform",
            Personality::WebServer,
            1.0,
            DistKind::Uniform,
        ),
        (
            "webserver 100% mstrace",
            Personality::WebServer,
            1.0,
            DistKind::MsTrace(0),
        ),
        (
            "webproxy 100% uniform",
            Personality::WebProxy,
            1.0,
            DistKind::Uniform,
        ),
        (
            "webproxy 100% mstrace",
            Personality::WebProxy,
            1.0,
            DistKind::MsTrace(0),
        ),
        (
            "fileserver 100% uniform",
            Personality::FileServer,
            1.0,
            DistKind::Uniform,
        ),
        (
            "fileserver 100% mstrace",
            Personality::FileServer,
            1.0,
            DistKind::MsTrace(0),
        ),
    ];
    let mut report = Report::new(
        "table5_max_util",
        &[
            "workload",
            "scrub_base",
            "scrub_duet",
            "backup_base",
            "backup_duet",
            "defrag_base",
            "defrag_duet",
        ],
    );
    report.print_header(sink);
    let tasks = [TaskKind::Scrub, TaskKind::Backup, TaskKind::Defrag];
    let grid: Vec<CellSpec> = rows
        .iter()
        .flat_map(|&(_, personality, overlap, dist)| {
            tasks.iter().flat_map(move |&task| {
                [false, true]
                    .into_iter()
                    .map(move |duet| (personality, dist, overlap, task, duet))
            })
        })
        .collect();
    let values = cells("table5_max_util", grid.len(), sink, |i, opts| {
        let (personality, dist, overlap, task, duet) = grid[i];
        // The completion probe stops simulating the moment the last
        // task finishes — `all_completed()` is exactly the full run's,
        // for a fraction of the wall time. Forked setup prefixes
        // (experiments::snapshot) make the bisection's repeat builds
        // nearly free on top of that. The inner runs share the cell's
        // trace handle, so their counters accumulate.
        let probe = RunOptions {
            stop_when_tasks_done: true,
            ..*opts
        };
        let completes = |util: f64| -> SimResult<bool> {
            let mut cfg = paper_scaled(scale, personality, dist, overlap, util, vec![task], duet);
            if task == TaskKind::Defrag {
                cfg.fragmentation = Some((0.1, 5));
            }
            Ok(run_experiment_with(&cfg, &probe)?.all_completed())
        };
        let label = match max_utilization(completes)? {
            Some(u) => pct(u),
            None => "never".into(),
        };
        // No ops credited: a probe's truncated window has none to report.
        Ok((label, 0))
    })?;
    let per_row = tasks.len() * 2;
    for ((label, ..), vals) in rows.iter().zip(values.chunks(per_row)) {
        let mut row = vec![label.to_string()];
        row.extend(vals.iter().cloned());
        report.row(sink, &row);
    }
    report.save(sink)?;
    Ok(())
}
