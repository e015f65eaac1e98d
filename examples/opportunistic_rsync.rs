//! Opportunistic rsync (§5.5, Figure 4): synchronize a directory tree
//! to an empty destination while a foreground workload hammers the
//! source, and compare baseline vs Duet transfer times.
//!
//! Run with: `cargo run --release --example opportunistic_rsync`

use experiments::{paper_scaled, run_rsync_experiment, speedup};
use sim_core::SimResult;
use workloads::{DistKind, Personality};

fn main() -> SimResult<()> {
    let scale = 64;
    println!(
        "rsync of the full file set (1/{scale} of 50 GB) with an unthrottled\n\
         webserver workload on the source device, 100% data overlap\n"
    );
    let cfg = paper_scaled(
        scale,
        Personality::WebServer,
        DistKind::Uniform,
        1.0,
        1.0, // rsync runs at normal priority against an unthrottled workload
        vec![],
        true,
    );
    let base = run_rsync_experiment(&cfg, false)?;
    let duet = run_rsync_experiment(&cfg, true)?;
    println!(
        "baseline rsync: {:>8}  ({} source blocks read from disk)",
        base.completion, base.metrics.blocks_read
    );
    println!(
        "duet rsync:     {:>8}  ({} source blocks read from disk, {:.0}% of reads saved)",
        duet.completion,
        duet.metrics.blocks_read,
        duet.metrics.io_saved_fraction() * 200.0 // savings are of the read half
    );
    println!(
        "\nspeedup: {:.2}x  (the paper reports ~2x at 100% overlap)",
        speedup(base.completion, duet.completion)
    );
    Ok(())
}
