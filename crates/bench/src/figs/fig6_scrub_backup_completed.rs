//! Figure 6: maintenance work completed when scrubbing and backup run
//! together with the webserver workload, baseline vs Duet.
//!
//! Expected shape (§6.3): the baseline pair stops completing beyond
//! ~30 % utilization; Duet sustains completion to 70–90 %.

use crate::cell::{completed_report, grid, util_grid, Cell, Ran, COMPLETED};
use crate::{BenchResult, Report, Sink};
use experiments::TaskKind::{Backup, Scrub};

const NAME: &str = "fig6_scrub_backup_completed";

/// Scrubbing and backup under the webserver at 100 % overlap, baseline
/// and Duet, at every utilization.
pub fn cells(scale: u64) -> Vec<Cell> {
    grid(
        NAME,
        scale,
        &util_grid(),
        &COMPLETED,
        &[Scrub, Backup],
        None,
    )
}

/// The work completed per utilization, baseline and Duet.
pub fn render(scale: u64, results: &[&Ran], sink: &mut Sink) -> BenchResult<Vec<Report>> {
    sink.line(format!(
        "fig6: work completed, scrub + backup + webserver, scale 1/{scale}"
    ));
    Ok(vec![completed_report(NAME, results, sink)?])
}
