//! Figure 4: runtime speedup of opportunistic rsync as data overlap
//! with the (unthrottled) webserver workload varies.
//!
//! Expected shape (§6.2): speedup grows with overlap, reaching about
//! 2× at 100 % (all source reads saved; destination writes remain).

use crate::cell::{webserver, Cell, Ran, Sim, MISMATCH};
use crate::{f2, BenchResult, Report, Sink};
use experiments::{speedup, ExperimentConfig};

const NAME: &str = "fig4_rsync_speedup";

const OVERLAPS: [f64; 4] = [0.25, 0.5, 0.75, 1.0];

/// rsync against the unthrottled webserver at every overlap, baseline
/// then Duet, on an unaged layout.
pub fn cells(scale: u64) -> Vec<Cell> {
    OVERLAPS
        .iter()
        .flat_map(|&overlap| {
            [false, true].map(|duet| Cell {
                report: NAME,
                // Unthrottled: rsync runs at normal priority (§6.2).
                sim: Sim::Rsync(ExperimentConfig {
                    scatter_layout: false,
                    ..webserver(scale, overlap, 1.0, &[], duet)
                }),
            })
        })
        .collect()
}

/// Transfer times and the speedup per overlap.
pub fn render(scale: u64, results: &[&Ran], sink: &mut Sink) -> BenchResult<Vec<Report>> {
    sink.line(format!(
        "fig4: rsync speedup vs overlap, webserver unthrottled, scale 1/{scale}"
    ));
    let mut report = Report::new(
        NAME,
        &[
            "overlap",
            "baseline_secs",
            "duet_secs",
            "speedup",
            "duet_reads_saved",
        ],
    );
    report.print_header(sink);
    for (&overlap, pair) in OVERLAPS.iter().zip(results.chunks(2)) {
        let [Ran::Rsync(base), Ran::Rsync(duet)] = pair else {
            return Err(MISMATCH.into());
        };
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
    Ok(vec![report])
}
