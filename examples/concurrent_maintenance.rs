//! The paper's headline scenario (§6.3): scrubbing, backup and
//! defragmentation run concurrently against a busy device, first as
//! baselines, then Duet-enabled — showing the I/O they save and how
//! much of their work completes inside the window.
//!
//! Run with: `cargo run --release --example concurrent_maintenance`

use experiments::{paper_scaled, run_experiment, TaskKind};
use sim_core::SimResult;
use workloads::{DistKind, Personality};

fn main() -> SimResult<()> {
    let scale = 64;
    let util = 0.5;
    println!(
        "webserver workload at {:.0}% utilization; scrub + backup + defrag;\n\
         scale 1/{scale} of the paper's 50 GB / 30 min setup\n",
        util * 100.0
    );
    for duet in [false, true] {
        let mut cfg = paper_scaled(
            scale,
            Personality::WebServer,
            DistKind::Uniform,
            1.0,
            util,
            vec![TaskKind::Scrub, TaskKind::Backup, TaskKind::Defrag],
            duet,
        );
        cfg.fragmentation = Some((0.1, 5));
        let r = run_experiment(&cfg)?;
        println!("{}:", if duet { "DUET-ENABLED" } else { "BASELINE" });
        for t in &r.tasks {
            println!(
                "  {:<18} {:>6.1}% done  {:>6.1}% saved  {:>9} blocks of maintenance I/O{}",
                t.name,
                t.metrics.work_fraction() * 100.0,
                t.metrics.io_saved_fraction() * 100.0,
                t.metrics.blocks_read + t.metrics.blocks_written,
                match t.completion_time {
                    Some(d) => format!("  (finished at {d})"),
                    None => "  (DID NOT FINISH)".into(),
                }
            );
        }
        println!(
            "  combined: {:.1}% of work completed, {:.1}% of maintenance I/O saved\n",
            r.work_completed() * 100.0,
            r.io_saved() * 100.0
        );
    }
    println!(
        "The paper's observation: baselines contend and fail to finish, while\n\
         Duet tasks share one pass over the data and complete with less I/O."
    );
    Ok(())
}
