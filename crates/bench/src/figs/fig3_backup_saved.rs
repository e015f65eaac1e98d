//! Figure 3: I/O saved when the backup task runs together with the
//! webserver workload, across utilization and overlap.
//!
//! Expected shape (§6.2): like Figure 2, but the plateau is reached at
//! *lower* utilization — backup is random-I/O bound and takes longer,
//! giving the workload more time to touch shared data.

use crate::cell::{grid, saved_report, util_grid, Cell, Ran, SAVED};
use crate::{BenchResult, Report, Sink};
use experiments::TaskKind::Backup;

const NAME: &str = "fig3_backup_saved";

/// Backup under the webserver, at every utilization × overlap.
pub fn cells(scale: u64) -> Vec<Cell> {
    grid(NAME, scale, &util_grid(), &SAVED, &[Backup], None)
}

/// The I/O saved per utilization (rows) and overlap (columns).
pub fn render(scale: u64, results: &[&Ran], sink: &mut Sink) -> BenchResult<Vec<Report>> {
    sink.line(format!(
        "fig3: backup + webserver, scale 1/{scale} of the paper setup"
    ));
    Ok(vec![saved_report(NAME, results, sink)?])
}
