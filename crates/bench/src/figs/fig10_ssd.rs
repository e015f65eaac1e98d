//! Figure 10: I/O saved on a solid-state drive (§6.5).
//!
//! Expected shape: scrubbing saves about the same as on the hard drive
//! (it finishes in half the time, but the workload also runs faster, so
//! the overlap exploited is similar); backup saves *more* on the SSD
//! because the workload's higher throughput creates more overlap while
//! the backup's 64 KiB random reads run no faster.

use crate::sweeps::{cells, util_grid, util_rows};
use crate::{BenchResult, Report, Sink};
use experiments::{paper_scaled, run_experiment_with, DeviceKind, TaskKind};
use workloads::{DistKind, Personality};

/// Runs the harness at 1/`scale` of the paper setup.
pub fn run(scale: u64, sink: &mut Sink) -> BenchResult<()> {
    sink.line(format!(
        "fig10: scrub and backup on HDD vs SSD, webserver, scale 1/{scale}"
    ));
    let mut report = Report::new(
        "fig10_ssd",
        &[
            "utilization",
            "scrub_saved_hdd",
            "scrub_saved_ssd",
            "backup_saved_hdd",
            "backup_saved_ssd",
        ],
    );
    report.print_header(sink);
    let utils = util_grid();
    let variants = [
        (TaskKind::Scrub, DeviceKind::Hdd),
        (TaskKind::Scrub, DeviceKind::Ssd),
        (TaskKind::Backup, DeviceKind::Hdd),
        (TaskKind::Backup, DeviceKind::Ssd),
    ];
    let grid: Vec<(f64, TaskKind, DeviceKind)> = utils
        .iter()
        .flat_map(|&u| variants.iter().map(move |&(t, d)| (u, t, d)))
        .collect();
    let saved = cells("fig10_ssd", grid.len(), sink, |i, opts| {
        let (util, task, device) = grid[i];
        let mut cfg = paper_scaled(
            scale,
            Personality::WebServer,
            DistKind::Uniform,
            1.0,
            util,
            vec![task],
            true,
        );
        cfg.device = device;
        let result = run_experiment_with(&cfg, opts)?;
        Ok((result.io_saved(), result.workload_ops))
    })?;
    util_rows(&mut report, sink, &utils, &saved, variants.len());
    report.save(sink)?;
    Ok(())
}
