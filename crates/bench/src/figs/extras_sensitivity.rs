//! §6.5 sensitivity checks and the §6.1.3 latency-impact measurement:
//!
//! 1. **Workload latency impact**: webserver mean op latency at 50 %
//!    utilization without maintenance vs with scrubbing or backup at
//!    idle priority (the paper: 11.67 ms vs 11.60/11.82 — insignificant).
//! 2. **I/O prioritization**: CFQ idle class vs a no-priority Deadline
//!    scheduler — without prioritization the workload slows and I/O
//!    saved drops.
//! 3. **Page cache size**: varying the cache : data ratio has only a
//!    marginal effect on savings (out-of-order processing, not cache
//!    locality, provides most of the benefit).

use crate::sweeps::cells;
use crate::{f2, pct, BenchResult, Report, Sink};
use experiments::{paper_scaled, run_experiment_with, TaskKind};
use sim_disk::SchedulerPolicy;
use workloads::{DistKind, Personality};

/// Runs the harness at 1/`scale` of the paper setup.
pub fn run(scale: u64, sink: &mut Sink) -> BenchResult<()> {
    sink.line(format!("extras: §6.5 sensitivity, scale 1/{scale}"));

    // 1. Workload latency impact at 50 % utilization: the paper reports
    //    11.67 ± 0.12 ms without maintenance, 11.60 ± 0.25 ms with
    //    scrubbing, 11.82 ± 0.16 ms with backup — i.e. insignificant.
    let mut lat = Report::new(
        "extras_latency_impact",
        &[
            "setup",
            "latency_ms",
            "ci95_ms",
            "workload_ops",
            "achieved_util",
        ],
    );
    lat.print_header(sink);
    let setups: [(&str, &[TaskKind]); 3] = [
        ("no maintenance", &[]),
        ("with scrub", &[TaskKind::Scrub]),
        ("with backup", &[TaskKind::Backup]),
    ];
    let lat_runs = cells("extras_latency_impact", setups.len(), sink, |i, opts| {
        let cfg = paper_scaled(
            scale,
            Personality::WebServer,
            DistKind::Uniform,
            1.0,
            0.5,
            setups[i].1.to_vec(),
            true,
        );
        let r = run_experiment_with(&cfg, opts)?;
        let ops = r.workload_ops;
        Ok((r, ops))
    })?;
    for ((label, _), r) in setups.iter().zip(&lat_runs) {
        lat.row(
            sink,
            &[
                (*label).into(),
                f2(r.workload_latency_ms.0),
                f2(r.workload_latency_ms.1),
                r.workload_ops.to_string(),
                f2(r.achieved_util),
            ],
        );
    }
    lat.save(sink)?;

    // 2. Prioritization ablation.
    let mut prio = Report::new(
        "extras_prioritization",
        &["scheduler", "io_saved", "work_completed", "workload_ops"],
    );
    prio.print_header(sink);
    let policies = [
        ("cfq-idle", SchedulerPolicy::default_cfq()),
        ("deadline (no priority)", SchedulerPolicy::NoPriority),
    ];
    let prio_runs = cells("extras_prioritization", policies.len(), sink, |i, opts| {
        let mut cfg = paper_scaled(
            scale,
            Personality::WebServer,
            DistKind::Uniform,
            1.0,
            0.6,
            vec![TaskKind::Scrub],
            true,
        );
        cfg.policy = policies[i].1;
        let r = run_experiment_with(&cfg, opts)?;
        let ops = r.workload_ops;
        Ok((r, ops))
    })?;
    for ((label, _), r) in policies.iter().zip(&prio_runs) {
        prio.row(
            sink,
            &[
                (*label).into(),
                pct(r.io_saved()),
                pct(r.work_completed()),
                r.workload_ops.to_string(),
            ],
        );
    }
    prio.save(sink)?;

    // 3. Page-cache size sweep.
    let mut cache = Report::new(
        "extras_cache_size",
        &["cache_fraction_of_data", "io_saved", "work_completed"],
    );
    cache.print_header(sink);
    let fracs = [0.01, 0.02, 0.04, 0.08, 0.16];
    let cache_runs = cells("extras_cache_size", fracs.len(), sink, |i, opts| {
        let mut cfg = paper_scaled(
            scale,
            Personality::WebServer,
            DistKind::Uniform,
            1.0,
            0.5,
            vec![TaskKind::Scrub, TaskKind::Backup],
            true,
        );
        let data_bytes = cfg.fileset.num_files as u64 * cfg.fileset.mean_file_bytes;
        cfg.cache_pages =
            ((data_bytes as f64 * fracs[i]) as u64 / sim_core::PAGE_SIZE).max(256) as usize;
        let r = run_experiment_with(&cfg, opts)?;
        let ops = r.workload_ops;
        Ok((r, ops))
    })?;
    for (&frac, r) in fracs.iter().zip(&cache_runs) {
        cache.row(
            sink,
            &[f2(frac), pct(r.io_saved()), pct(r.work_completed())],
        );
    }
    cache.save(sink)?;
    sink.line(
        "\nPaper shape: latency/throughput impact of idle-priority \
         maintenance is small; removing prioritization hurts savings; \
         cache size has a marginal effect.",
    );
    Ok(())
}
