//! Table 6: F2fs segment cleaning time with and without Duet, under
//! the fileserver workload at 40–70 % device utilization.
//!
//! Expected shape (§6.2): baseline cleaning time is roughly flat
//! (~17 ms in the paper); Duet cleaning gets *faster* as utilization
//! grows, because more of the victim segments' valid blocks are cached
//! and need no synchronous read.

use crate::sweeps::cells;
use crate::{f2, BenchResult, Report, Sink};
use experiments::{run_gc_experiment_with, GcExperimentConfig};
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

/// Runs the harness at 1/`scale` of the paper setup.
pub fn run(scale: u64, sink: &mut Sink) -> BenchResult<()> {
    sink.line(format!(
        "table6: F2fs segment cleaning time, fileserver, scale 1/{scale}"
    ));
    let mut report = Report::new(
        "table6_gc_cleaning",
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
    let utils = [0.4, 0.5, 0.6, 0.7];
    let grid: Vec<(f64, bool)> = utils
        .iter()
        .flat_map(|&u| [false, true].into_iter().map(move |d| (u, d)))
        .collect();
    let runs = cells("table6_gc_cleaning", grid.len(), sink, |i, opts| {
        let (util, duet) = grid[i];
        // 0: this harness credits no simulated ops to its sink.
        Ok((run_gc_experiment_with(&gc_cfg(scale, util, duet), opts)?, 0))
    })?;
    for (&util, pair) in utils.iter().zip(runs.chunks(2)) {
        let (base, duet) = (&pair[0], &pair[1]);
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
    report.save(sink)?;
    Ok(())
}
