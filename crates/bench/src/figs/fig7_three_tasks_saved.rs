//! Figure 7: I/O saved when scrubbing, backup and defragmentation run
//! together with the webserver workload.
//!
//! Expected shape (§6.3): ~55 % saved with no workload (one shared pass
//! over the data; defragmentation writes cannot be saved), rising to
//! ~80 % with the read-mostly webserver.

use crate::cell::{grid, saved_report, util_grid, Cell, Ran, SAVED};
use crate::{BenchResult, Report, Sink};
use experiments::TaskKind::{Backup, Defrag, Scrub};

const NAME: &str = "fig7_three_tasks_saved";

/// Scrubbing, backup and defragmentation on a 10 % fragmented
/// filesystem under the webserver, at every utilization × overlap.
pub fn cells(scale: u64) -> Vec<Cell> {
    grid(
        NAME,
        scale,
        &util_grid(),
        &SAVED,
        &[Scrub, Backup, Defrag],
        Some((0.1, 5)),
    )
}

/// The I/O saved per utilization (rows) and overlap (columns).
pub fn render(scale: u64, results: &[&Ran], sink: &mut Sink) -> BenchResult<Vec<Report>> {
    sink.line(format!(
        "fig7: scrub + backup + defrag + webserver, scale 1/{scale}"
    ));
    Ok(vec![saved_report(NAME, results, sink)?])
}
