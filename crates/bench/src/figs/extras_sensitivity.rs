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

use crate::cell::{each, webserver, Cell, Ran};
use crate::{f2, pct, BenchResult, Report, Sink};
use experiments::TaskKind;
use sim_disk::SchedulerPolicy;

/// Maintenance setups of the latency measurement.
const SETUPS: [(&str, &[TaskKind]); 3] = [
    ("no maintenance", &[]),
    ("with scrub", &[TaskKind::Scrub]),
    ("with backup", &[TaskKind::Backup]),
];

/// Schedulers of the prioritization ablation.
fn policies() -> [(&'static str, SchedulerPolicy); 2] {
    [
        ("cfq-idle", SchedulerPolicy::default_cfq()),
        ("deadline (no priority)", SchedulerPolicy::NoPriority),
    ]
}

/// Page-cache sizes, as fractions of the data set.
const FRACS: [f64; 5] = [0.01, 0.02, 0.04, 0.08, 0.16];

/// The latency setups, the schedulers, then the cache sizes.
pub fn cells(scale: u64) -> Vec<Cell> {
    let latency = SETUPS.map(|(_, tasks)| {
        Cell::btrfs(
            "extras_latency_impact",
            webserver(scale, 1.0, 0.5, tasks, true),
        )
    });
    let prio = policies().map(|(_, policy)| {
        let mut cfg = webserver(scale, 1.0, 0.6, &[TaskKind::Scrub], true);
        cfg.policy = policy;
        Cell::btrfs("extras_prioritization", cfg)
    });
    let cache = FRACS.map(|frac| {
        let mut cfg = webserver(scale, 1.0, 0.5, &[TaskKind::Scrub, TaskKind::Backup], true);
        let data_bytes = cfg.fileset.num_files as u64 * cfg.fileset.mean_file_bytes;
        cfg.cache_pages =
            ((data_bytes as f64 * frac) as u64 / sim_core::PAGE_SIZE).max(256) as usize;
        Cell::btrfs("extras_cache_size", cfg)
    });
    latency.into_iter().chain(prio).chain(cache).collect()
}

/// One report per check.
pub fn render(scale: u64, results: &[&Ran], sink: &mut Sink) -> BenchResult<Vec<Report>> {
    sink.line(format!("extras: §6.5 sensitivity, scale 1/{scale}"));
    let (lat_runs, rest) = results.split_at(SETUPS.len());
    let (prio_runs, cache_runs) = rest.split_at(policies().len());

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
    for ((label, _), r) in SETUPS.iter().zip(lat_runs) {
        let r = r.btrfs()?;
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

    // 2. Prioritization ablation.
    let mut prio = Report::new(
        "extras_prioritization",
        &["scheduler", "io_saved", "work_completed", "workload_ops"],
    );
    prio.print_header(sink);
    for ((label, _), r) in policies().iter().zip(prio_runs) {
        let r = r.btrfs()?;
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

    // 3. Page-cache size sweep.
    let mut cache = Report::new(
        "extras_cache_size",
        &["cache_fraction_of_data", "io_saved", "work_completed"],
    );
    cache.print_header(sink);
    let saved = each(cache_runs, |r| (r.io_saved(), r.work_completed()))?;
    for (&frac, (io_saved, completed)) in FRACS.iter().zip(saved) {
        cache.row(sink, &[f2(frac), pct(io_saved), pct(completed)]);
    }
    sink.line(
        "\nPaper shape: latency/throughput impact of idle-priority \
         maintenance is small; removing prioritization hurts savings; \
         cache size has a marginal effect.",
    );
    Ok(vec![lat, prio, cache])
}
