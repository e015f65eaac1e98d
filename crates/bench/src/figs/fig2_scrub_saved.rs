//! Figure 2: I/O saved when the scrubbing task runs together with the
//! webserver workload, across device utilization (0–100 %) and data
//! overlap (25/50/75/100 %).
//!
//! Expected shape (§6.2): savings rise with utilization until they
//! plateau at the overlap fraction — the workload reads all shared data
//! before the sequential scan gets to it.

use crate::cell::{grid, saved_report, util_grid, Cell, Ran, SAVED};
use crate::{BenchResult, Report, Sink};
use experiments::TaskKind::Scrub;

const NAME: &str = "fig2_scrub_saved";

/// Scrubbing under the webserver, at every utilization × overlap.
pub fn cells(scale: u64) -> Vec<Cell> {
    grid(NAME, scale, &util_grid(), &SAVED, &[Scrub], None)
}

/// The I/O saved per utilization (rows) and overlap (columns).
pub fn render(scale: u64, results: &[&Ran], sink: &mut Sink) -> BenchResult<Vec<Report>> {
    sink.line(format!(
        "fig2: scrub + webserver, scale 1/{scale} of the paper setup"
    ));
    Ok(vec![saved_report(NAME, results, sink)?])
}
