//! Table 6: F2fs segment cleaning time with and without Duet, under
//! the fileserver workload at 40–70 % device utilization.
//!
//! Expected shape (§6.2): baseline cleaning time is roughly flat
//! (~17 ms in the paper); Duet cleaning gets *faster* as utilization
//! grows, because more of the victim segments' valid blocks are cached
//! and need no synchronous read.

use crate::cell::{Cell, Ran, Sim, MISMATCH};
use crate::{f2, BenchResult, Report, Sink};
use experiments::GcExperimentConfig;
use sim_core::SimDuration;
use sim_disk::SchedulerPolicy;
use sim_f2fs::VictimPolicy;
use workloads::{DistKind, FileSetConfig, Personality, WorkloadConfig};

fn gc_cfg(scale: u64, util: f64, duet: bool) -> GcExperimentConfig {
    // Paper setup scaled: 2 MiB segments (512 blocks); data ≈ 60 % of
    // the device so cleaning pressure is real.
    let seg_blocks = 512u64;
    let nsegs = ((48u64 << 30) / scale / (seg_blocks * sim_core::PAGE_SIZE)).max(64) as u32;
    let data_bytes = (24u64 << 30) / scale;
    let num_files = (data_bytes / (256 * 1024)).max(16) as usize;
    GcExperimentConfig {
        nsegs,
        seg_blocks,
        cache_pages: (((2u64 << 30) / scale) / sim_core::PAGE_SIZE).max(512) as usize,
        fileset: FileSetConfig {
            num_files,
            mean_file_bytes: 256 * 1024,
            sigma: 0.4,
        },
        workload: WorkloadConfig {
            personality: Personality::FileServer,
            dist: DistKind::Uniform,
            coverage: 1.0,
            target_util: util,
            burst: 8,
            append_bytes: 16 * 1024,
            seed: 11,
        },
        duet,
        victim_policy: VictimPolicy::Greedy,
        gc_window: 4096.min(nsegs),
        gc_interval: SimDuration::from_millis(200),
        policy: SchedulerPolicy::default_cfq(),
        duration: SimDuration::from_secs((30 * 60) / scale),
        seed: 11,
    }
}

const NAME: &str = "table6_gc_cleaning";

const UTILS: [f64; 4] = [0.4, 0.5, 0.6, 0.7];

/// The cleaner under the fileserver at every utilization, baseline then
/// Duet.
pub fn cells(scale: u64) -> Vec<Cell> {
    UTILS
        .iter()
        .flat_map(|&util| {
            [false, true].map(|duet| Cell {
                report: NAME,
                sim: Sim::Gc(gc_cfg(scale, util, duet)),
            })
        })
        .collect()
}

/// Cleaning time and count per utilization, baseline and Duet.
pub fn render(scale: u64, results: &[&Ran], sink: &mut Sink) -> BenchResult<Vec<Report>> {
    sink.line(format!(
        "table6: F2fs segment cleaning time, fileserver, scale 1/{scale}"
    ));
    let mut report = Report::new(
        NAME,
        &[
            "utilization",
            "baseline_ms",
            "baseline_cleanings",
            "duet_ms",
            "duet_cleanings",
            "duet_mean_cached",
        ],
    );
    report.print_header(sink);
    for (&util, pair) in UTILS.iter().zip(results.chunks(2)) {
        let [Ran::Gc(base), Ran::Gc(duet)] = pair else {
            return Err(MISMATCH.into());
        };
        report.row(
            sink,
            &[
                f2(util),
                f2(base.mean_cleaning_ms),
                base.cleanings.to_string(),
                f2(duet.mean_cleaning_ms),
                duet.cleanings.to_string(),
                f2(duet.mean_cached),
            ],
        );
    }
    Ok(vec![report])
}
