//! Figure 4: runtime speedup of opportunistic rsync as data overlap
//! with the (unthrottled) webserver workload varies.
//!
//! Expected shape (§6.2): speedup grows with overlap, reaching about
//! 2× at 100 % (all source reads saved; destination writes remain).

use crate::sweeps::cells;
use crate::{f2, BenchResult, Report, Sink};
use experiments::{paper_scaled, run_rsync_experiment_with, speedup};
use workloads::{DistKind, Personality};

/// Runs the harness at 1/`scale` of the paper setup.
pub fn run(scale: u64, sink: &mut Sink) -> BenchResult<()> {
    sink.line(format!(
        "fig4: rsync speedup vs overlap, webserver unthrottled, scale 1/{scale}"
    ));
    let mut report = Report::new(
        "fig4_rsync_speedup",
        &[
            "overlap",
            "baseline_secs",
            "duet_secs",
            "speedup",
            "duet_reads_saved",
        ],
    );
    report.print_header(sink);
    let overlaps = [0.25, 0.5, 0.75, 1.0];
    let grid: Vec<(f64, bool)> = overlaps
        .iter()
        .flat_map(|&o| [false, true].into_iter().map(move |d| (o, d)))
        .collect();
    let runs = cells("fig4_rsync_speedup", grid.len(), sink, |i, opts| {
        let (overlap, duet) = grid[i];
        let cfg = paper_scaled(
            scale,
            Personality::WebServer,
            DistKind::Uniform,
            overlap,
            1.0, // Unthrottled: rsync runs at normal priority (§6.2).
            vec![],
            true,
        );
        // 0: this harness credits no simulated ops to its sink.
        Ok((run_rsync_experiment_with(&cfg, duet, opts)?, 0))
    })?;
    for (&overlap, pair) in overlaps.iter().zip(runs.chunks(2)) {
        let (base, duet) = (&pair[0], &pair[1]);
        report.row(
            sink,
            &[
                f2(overlap),
                f2(base.completion.as_secs_f64()),
                f2(duet.completion.as_secs_f64()),
                f2(speedup(base.completion, duet.completion)),
                f2(duet.metrics.io_saved_fraction()),
            ],
        );
    }
    report.save(sink)?;
    Ok(())
}
