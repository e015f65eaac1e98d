//! Figure 8: maintenance work completed when scrubbing, backup and
//! defragmentation run together with the webserver workload.
//!
//! Expected shape (§6.3): "Without Duet, maintenance work fails to
//! complete even when the device is idle" (the three baselines contend
//! for the window); Duet completes everything up to ~50 % utilization.

use crate::cell::{completed_report, grid, util_grid, Cell, Ran, COMPLETED};
use crate::{BenchResult, Report, Sink};
use experiments::TaskKind::{Backup, Defrag, Scrub};

const NAME: &str = "fig8_three_tasks_completed";

/// Scrubbing, backup and defragmentation on a 10 % fragmented
/// filesystem under the webserver at 100 % overlap, baseline and Duet,
/// at every utilization.
pub fn cells(scale: u64) -> Vec<Cell> {
    grid(
        NAME,
        scale,
        &util_grid(),
        &COMPLETED,
        &[Scrub, Backup, Defrag],
        Some((0.1, 5)),
    )
}

/// The work completed per utilization, baseline and Duet.
pub fn render(scale: u64, results: &[&Ran], sink: &mut Sink) -> BenchResult<Vec<Report>> {
    sink.line(format!(
        "fig8: work completed, three tasks + webserver, scale 1/{scale}"
    ));
    Ok(vec![completed_report(NAME, results, sink)?])
}
