//! Figure 10: I/O saved on a solid-state drive (§6.5).
//!
//! Expected shape: scrubbing saves about the same as on the hard drive
//! (it finishes in half the time, but the workload also runs faster, so
//! the overlap exploited is similar); backup saves *more* on the SSD
//! because the workload's higher throughput creates more overlap while
//! the backup's 64 KiB random reads run no faster.

use crate::cell::{util_grid, util_report, webserver, Cell, Ran};
use crate::{BenchResult, Report, Sink};
use experiments::{DeviceKind, ExperimentResult, TaskKind};

const NAME: &str = "fig10_ssd";

/// The cells of a row, in order, and the report's columns they fill.
const VARIANTS: [(TaskKind, DeviceKind, &str); 4] = [
    (TaskKind::Scrub, DeviceKind::Hdd, "scrub_saved_hdd"),
    (TaskKind::Scrub, DeviceKind::Ssd, "scrub_saved_ssd"),
    (TaskKind::Backup, DeviceKind::Hdd, "backup_saved_hdd"),
    (TaskKind::Backup, DeviceKind::Ssd, "backup_saved_ssd"),
];

/// Scrubbing and backup, each alone under the webserver at 100 %
/// overlap, on either device, at every utilization.
pub fn cells(scale: u64) -> Vec<Cell> {
    util_grid()
        .into_iter()
        .flat_map(|util| {
            VARIANTS.map(|(task, device, _)| {
                let mut cfg = webserver(scale, 1.0, util, &[task], true);
                cfg.device = device;
                Cell::btrfs(NAME, cfg)
            })
        })
        .collect()
}

/// The I/O saved per utilization, task and device.
pub fn render(scale: u64, results: &[&Ran], sink: &mut Sink) -> BenchResult<Vec<Report>> {
    sink.line(format!(
        "fig10: scrub and backup on HDD vs SSD, webserver, scale 1/{scale}"
    ));
    let columns = VARIANTS.map(|(.., column)| column);
    let report = util_report(NAME, &columns, results, ExperimentResult::io_saved, sink)?;
    Ok(vec![report])
}
