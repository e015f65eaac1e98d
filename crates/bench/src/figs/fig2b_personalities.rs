//! §6.2 text claims: how the read-write ratio and access skew change
//! the I/O saved by scrubbing and backup.
//!
//! The paper (webserver = 10:1, webproxy = 4:1, fileserver = 1:2, all
//! at 100 % overlap):
//!
//! - scrubbing: "the webproxy performs similarly to the webserver ...
//!   the write-intensive fileserver workload has 40 % of the IO savings
//!   compared to the other two";
//! - backup: webproxy "yields 80 % of the I/O savings of webserver,
//!   while fileserver ... yields up to 40 %";
//! - both: "using the skewed file access distribution reduces the I/O
//!   saved by 15-30 %".

use crate::sweeps::cells;
use crate::{f2, BenchResult, Report, Sink};
use experiments::{paper_scaled, run_experiment_with, TaskKind};
use workloads::{DistKind, Personality};

/// Runs the harness at 1/`scale` of the paper setup.
pub fn run(scale: u64, sink: &mut Sink) -> BenchResult<()> {
    let util = 0.6;
    sink.line(format!(
        "fig2b: I/O saved by personality and distribution at {:.0}% utilization, scale 1/{scale}",
        util * 100.0
    ));
    let mut report = Report::new(
        "fig2b_personalities",
        &[
            "task",
            "webserver",
            "webproxy",
            "fileserver",
            "webserver_mstrace",
            "fileserver_rel_to_webserver",
            "mstrace_reduction",
        ],
    );
    report.print_header(sink);
    let combos = [
        (Personality::WebServer, DistKind::Uniform),
        (Personality::WebProxy, DistKind::Uniform),
        (Personality::FileServer, DistKind::Uniform),
        (Personality::WebServer, DistKind::MsTrace(0)),
    ];
    let tasks = [TaskKind::Scrub, TaskKind::Backup];
    let grid: Vec<(TaskKind, Personality, DistKind)> = tasks
        .iter()
        .flat_map(|&t| combos.iter().map(move |&(p, d)| (t, p, d)))
        .collect();
    let saved = cells("fig2b_personalities", grid.len(), sink, |i, opts| {
        let (task, personality, dist) = grid[i];
        let cfg = paper_scaled(scale, personality, dist, 1.0, util, vec![task], true);
        let result = run_experiment_with(&cfg, opts)?;
        Ok((result.io_saved(), result.workload_ops))
    })?;
    for (task, s) in tasks.iter().zip(saved.chunks(combos.len())) {
        let (web, proxy, file, web_ms) = (s[0], s[1], s[2], s[3]);
        report.row(
            sink,
            &[
                format!("{task:?}"),
                f2(web),
                f2(proxy),
                f2(file),
                f2(web_ms),
                f2(file / web.max(1e-9)),
                f2(1.0 - web_ms / web.max(1e-9)),
            ],
        );
    }
    report.save(sink)?;
    sink.line(
        "\nPaper shape: webproxy ≈ webserver; fileserver well below both \
         (~40%); the skewed distribution costs 15-30% of the savings.",
    );
    Ok(())
}
