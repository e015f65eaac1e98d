//! Figure 5: I/O saved when scrubbing and backup run *together* with
//! the webserver workload.
//!
//! Expected shape (§6.3): even at 0 % utilization the two tasks share
//! one pass over the data, saving ≥ 50 % of total maintenance I/O;
//! higher utilization and overlap push savings further.

use crate::cell::{grid, saved_report, util_grid, Cell, Ran, SAVED};
use crate::{BenchResult, Report, Sink};
use experiments::TaskKind::{Backup, Scrub};

const NAME: &str = "fig5_scrub_backup_saved";

/// Scrubbing and backup under the webserver, at every utilization × overlap.
pub fn cells(scale: u64) -> Vec<Cell> {
    grid(NAME, scale, &util_grid(), &SAVED, &[Scrub, Backup], None)
}

/// The I/O saved per utilization (rows) and overlap (columns).
pub fn render(scale: u64, results: &[&Ran], sink: &mut Sink) -> BenchResult<Vec<Report>> {
    sink.line(format!("fig5: scrub + backup + webserver, scale 1/{scale}"));
    Ok(vec![saved_report(NAME, results, sink)?])
}
