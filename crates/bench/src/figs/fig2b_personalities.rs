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

use crate::cell::{each, Cell, Ran};
use crate::{f2, BenchResult, Report, Sink};
use experiments::{paper_scaled, ExperimentResult, TaskKind};
use workloads::{DistKind, Personality};

const NAME: &str = "fig2b_personalities";

/// The device utilization every cell runs at.
const UTIL: f64 = 0.6;

const TASKS: [TaskKind; 2] = [TaskKind::Scrub, TaskKind::Backup];

/// The report's workload columns, in cell order.
const COMBOS: [(Personality, DistKind); 4] = [
    (Personality::WebServer, DistKind::Uniform),
    (Personality::WebProxy, DistKind::Uniform),
    (Personality::FileServer, DistKind::Uniform),
    (Personality::WebServer, DistKind::MsTrace(0)),
];

/// Scrubbing and backup, each alone at 100 % overlap, under every
/// personality and distribution of the report.
pub fn cells(scale: u64) -> Vec<Cell> {
    TASKS
        .iter()
        .flat_map(|&task| {
            COMBOS.map(|(personality, dist)| {
                let cfg = paper_scaled(scale, personality, dist, 1.0, UTIL, vec![task], true);
                Cell::btrfs(NAME, cfg)
            })
        })
        .collect()
}

/// The I/O saved per task and workload, and the two ratios §6.2 quotes.
pub fn render(scale: u64, results: &[&Ran], sink: &mut Sink) -> BenchResult<Vec<Report>> {
    sink.line(format!(
        "fig2b: I/O saved by personality and distribution at {:.0}% utilization, scale 1/{scale}",
        UTIL * 100.0
    ));
    let mut report = Report::new(
        NAME,
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
    let saved = each(results, ExperimentResult::io_saved)?;
    for (task, s) in TASKS.iter().zip(saved.chunks(COMBOS.len())) {
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
    sink.line(
        "\nPaper shape: webproxy ≈ webserver; fileserver well below both \
         (~40%); the skewed distribution costs 15-30% of the savings.",
    );
    Ok(vec![report])
}
