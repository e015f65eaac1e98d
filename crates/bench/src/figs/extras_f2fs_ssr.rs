//! §6.2's segment-pressure claim: "Reducing the segment cleaning time
//! is crucial when the file system is running out of clean segments. In
//! that case, F2fs transitions to overwriting invalid blocks in
//! scattered segments [SSR]. When that happens, we have measured a 57 %
//! increase in filebench latency, and 29 % increase in device
//! utilization."
//!
//! We run the fileserver workload on two filesystems at the same
//! operation rate: one with plenty of clean segments, and one sized so
//! tightly that logging exhausts the free segments and writes fall back
//! to SSR (no cleaner runs in either case). SSR turns the sequential
//! log into scattered writes, inflating latency and device busy time.

use crate::cell::{Cell, Ran, Sim, MISMATCH};
use crate::{f2, BenchResult, Report, Sink};
use experiments::GcExperimentConfig;
use sim_core::SimDuration;
use sim_disk::SchedulerPolicy;
use sim_f2fs::VictimPolicy;
use workloads::{DistKind, FileSetConfig, Personality, WorkloadConfig};

fn cfg(nsegs: u32, data_files: usize) -> GcExperimentConfig {
    GcExperimentConfig {
        nsegs,
        seg_blocks: 512,
        cache_pages: 4096,
        fileset: FileSetConfig {
            num_files: data_files,
            mean_file_bytes: 256 * 1024,
            sigma: 0.3,
        },
        workload: WorkloadConfig {
            personality: Personality::FileServer,
            dist: DistKind::Uniform,
            coverage: 1.0,
            target_util: 0.5,
            burst: 8,
            append_bytes: 16 * 1024,
            seed: 21,
        },
        duet: false,
        victim_policy: VictimPolicy::Greedy,
        gc_window: 1,
        // Effectively disable cleaning so SSR pressure builds.
        gc_interval: SimDuration::from_secs(10_000),
        policy: SchedulerPolicy::default_cfq(),
        duration: SimDuration::from_secs(30),
        seed: 21,
    }
}

const NAME: &str = "extras_f2fs_ssr";

/// The roomy then the tight filesystem. `scale` is unused: the segment
/// counts are absolute (the tight/roomy contrast is the experiment).
pub fn cells(_scale: u64) -> Vec<Cell> {
    // Roomy: data fills ~25 % of the device. Tight: data fills ~85 %;
    // COW logging exhausts the free segments within the window.
    [(1024, 512), (160, 512)]
        .map(|(nsegs, files)| Cell {
            report: NAME,
            sim: Sim::Gc(cfg(nsegs, files)),
        })
        .to_vec()
}

/// Latency, utilization and ops of both, and the SSR cost.
pub fn render(_scale: u64, results: &[&Ran], sink: &mut Sink) -> BenchResult<Vec<Report>> {
    sink.line("extras_f2fs_ssr: fileserver latency with and without clean segments");
    let mut report = Report::new(
        NAME,
        &[
            "setup",
            "latency_ms",
            "ci95_ms",
            "achieved_util",
            "workload_ops",
            "ended_in_ssr",
        ],
    );
    report.print_header(sink);
    let [Ran::Gc(roomy), Ran::Gc(tight)] = results else {
        return Err(MISMATCH.into());
    };
    for (label, r) in [("roomy (log appends)", roomy), ("tight (SSR)", tight)] {
        report.row(
            sink,
            &[
                label.into(),
                f2(r.workload_latency_ms.0),
                f2(r.workload_latency_ms.1),
                f2(r.achieved_util),
                r.workload_ops.to_string(),
                r.ended_in_ssr.to_string(),
            ],
        );
    }
    let inc = 100.0 * (tight.workload_latency_ms.0 / roomy.workload_latency_ms.0 - 1.0);
    let ops_drop = 100.0 * (1.0 - tight.workload_ops as f64 / roomy.workload_ops as f64);
    sink.line(format!(
        "\nlatency increase under SSR: {inc:.0}%  (paper: 57%).\n\
         The paper also reports +29% device utilization at a fixed op\n\
         rate; our throttle instead holds utilization fixed, so the same\n\
         cost appears as {ops_drop:.0}% fewer operations in the window."
    ));
    Ok(vec![report])
}
