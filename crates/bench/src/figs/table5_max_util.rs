//! Table 5: maximum utilization at which each Btrfs maintenance task
//! still completes within the window, baseline vs Duet, across the
//! paper's workload grid.
//!
//! Rows: webserver at 25/50/75/100 % overlap (uniform) and 100 % with
//! the MS-trace distribution; webproxy and fileserver at 100 % overlap,
//! uniform and MS-trace. Columns: scrubbing, backup, defragmentation —
//! baseline and Duet.
//!
//! Each of the 54 cells is a bisection (at most four early-stopping
//! probes, see [`experiments::max_utilization`]); a probe is not a full
//! run, so the probes stay inside their cell. The workload profile
//! depends only on the (personality, distribution) shape, so each
//! worker runs at most 6 calibrations for the whole table.

use crate::cell::{Cell, Ran, Sim, MISMATCH};
use crate::{pct, BenchResult, Report, Sink};
use experiments::{paper_scaled, TaskKind};
use workloads::DistKind::{self, MsTrace, Uniform};
use workloads::Personality::{self, FileServer, WebProxy, WebServer};

const NAME: &str = "table5_max_util";

/// The table's rows: label, personality, overlap, distribution.
const ROWS: [(&str, Personality, f64, DistKind); 9] = [
    ("webserver 25% uniform", WebServer, 0.25, Uniform),
    ("webserver 50% uniform", WebServer, 0.50, Uniform),
    ("webserver 75% uniform", WebServer, 0.75, Uniform),
    ("webserver 100% uniform", WebServer, 1.0, Uniform),
    ("webserver 100% mstrace", WebServer, 1.0, MsTrace(0)),
    ("webproxy 100% uniform", WebProxy, 1.0, Uniform),
    ("webproxy 100% mstrace", WebProxy, 1.0, MsTrace(0)),
    ("fileserver 100% uniform", FileServer, 1.0, Uniform),
    ("fileserver 100% mstrace", FileServer, 1.0, MsTrace(0)),
];

const TASKS: [TaskKind; 3] = [TaskKind::Scrub, TaskKind::Backup, TaskKind::Defrag];

/// One bisection per row, task and mode (baseline then Duet).
pub fn cells(scale: u64) -> Vec<Cell> {
    ROWS.iter()
        .flat_map(|&(_, personality, overlap, dist)| {
            TASKS.iter().flat_map(move |&task| {
                [false, true].map(|duet| {
                    // The bisection sets the target utilization.
                    let mut cfg =
                        paper_scaled(scale, personality, dist, overlap, 0.5, vec![task], duet);
                    cfg.fragmentation = (task == TaskKind::Defrag).then_some((0.1, 5));
                    Cell {
                        report: NAME,
                        sim: Sim::MaxUtil(cfg),
                    }
                })
            })
        })
        .collect()
}

/// The highest completing utilization per row and column.
pub fn render(scale: u64, results: &[&Ran], sink: &mut Sink) -> BenchResult<Vec<Report>> {
    sink.line(format!(
        "table5: maximum utilization, scale 1/{scale} (this sweep runs many experiments)"
    ));
    let mut report = Report::new(
        NAME,
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
    for ((label, ..), vals) in ROWS.iter().zip(results.chunks(TASKS.len() * 2)) {
        let mut row = vec![label.to_string()];
        for r in vals {
            row.push(match r {
                Ran::MaxUtil(Some(u)) => pct(*u),
                Ran::MaxUtil(None) => "never".into(),
                _ => return Err(MISMATCH.into()),
            });
        }
        report.row(sink, &row);
    }
    Ok(vec![report])
}
