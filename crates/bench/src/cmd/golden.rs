//! `bench golden`: regenerates the committed golden-determinism
//! fixtures.
//!
//! The fixtures pin every output that must stay byte-identical:
//! experiment golden CSVs, the rsync line, the trace JSONL digest, the
//! parallel sweep grids (bit patterns), and the scripted
//! cache/prioqueue/extent op-mix logs. Run from the repo root:
//!
//! ```text
//! cargo run --release -p bench -- golden
//! ```
//!
//! Only do this deliberately (see DESIGN.md §12): rewriting the
//! fixtures re-baselines the golden contract, and the diff must be
//! reviewed as a behaviour change, not as noise.

use bench::sweeps::{completed_cells, saved_cells};
use experiments::golden::{
    cache_event_log, extent_oplog, fnv128_hex, golden_csv, golden_rsync_line, prioqueue_pop_log,
};
use experiments::{
    paper_scaled, run_experiment, run_experiment_with, run_rsync_experiment, DeviceKind,
    RunOptions, TaskKind,
};
use sim_core::trace::TraceHandle;
use workloads::{DistKind, Personality};

const SCALE: u64 = 512;

fn experiment_cfg() -> experiments::ExperimentConfig {
    let mut c = paper_scaled(
        SCALE,
        Personality::WebServer,
        DistKind::MsTrace(0),
        1.0,
        0.4,
        vec![TaskKind::Scrub, TaskKind::Backup],
        true,
    );
    c.seed = 7;
    c
}

fn baseline_cfg() -> experiments::ExperimentConfig {
    let mut c = paper_scaled(
        SCALE,
        Personality::FileServer,
        DistKind::Uniform,
        1.0,
        0.6,
        vec![TaskKind::Scrub],
        false,
    );
    c.seed = 21;
    c
}

fn traced_cfg() -> experiments::ExperimentConfig {
    let mut c = paper_scaled(
        SCALE,
        Personality::WebServer,
        DistKind::Uniform,
        1.0,
        0.4,
        vec![TaskKind::Scrub, TaskKind::Backup],
        true,
    );
    c.seed = 7;
    c
}

/// A row-major grid, `per_row` cells a line, as hex `f64` bit patterns.
fn grid_lines(cells: &[f64], per_row: usize) -> String {
    cells
        .chunks(per_row)
        .map(|row| {
            row.iter()
                .map(|v| format!("{:016x}", v.to_bits()))
                .collect::<Vec<_>>()
                .join(" ")
        })
        .collect::<Vec<_>>()
        .join("\n")
        + "\n"
}

/// Rewrites every fixture under `tests/fixtures/` and
/// `crates/bench/tests/fixtures/` (relative to the current directory).
pub fn run() -> Result<(), String> {
    let root_fixtures = std::path::Path::new("tests/fixtures");
    let bench_fixtures = std::path::Path::new("crates/bench/tests/fixtures");
    for d in [root_fixtures, bench_fixtures] {
        std::fs::create_dir_all(d).map_err(|e| format!("creating {}: {e}", d.display()))?;
    }
    let write = |path: &std::path::Path, name: &str, contents: &str| {
        let p = path.join(name);
        std::fs::write(&p, contents).expect("write fixture");
        println!("wrote {}", p.display());
    };

    // 1. Golden experiment CSVs (the determinism.rs presets).
    let exp = run_experiment(&experiment_cfg()).expect("experiment preset");
    write(
        root_fixtures,
        "golden_experiment_seed7.csv",
        &golden_csv(&exp),
    );
    let base = run_experiment(&baseline_cfg()).expect("baseline preset");
    write(
        root_fixtures,
        "golden_baseline_seed21.csv",
        &golden_csv(&base),
    );

    // 2. Rsync golden line.
    let rsync_cfg = paper_scaled(
        SCALE,
        Personality::WebServer,
        DistKind::Uniform,
        1.0,
        1.0,
        vec![],
        true,
    );
    let rs = run_rsync_experiment(&rsync_cfg, true).expect("rsync preset");
    write(
        root_fixtures,
        "golden_rsync.txt",
        &(golden_rsync_line(&rs) + "\n"),
    );

    // 3. Trace JSONL digest + counters.
    let t = TraceHandle::with_default_capacity();
    let traced = RunOptions {
        trace: Some(&t),
        ..RunOptions::default()
    };
    let r = run_experiment_with(&traced_cfg(), &traced).expect("traced preset");
    let jsonl = t.dump_jsonl();
    let trace_out = format!(
        "golden_csv_digest {}\njsonl_lines {}\njsonl_digest {}\ncounters_digest {}\n",
        fnv128_hex(golden_csv(&r).as_bytes()),
        jsonl.lines().count(),
        fnv128_hex(jsonl.as_bytes()),
        fnv128_hex(format!("{:?}", t.counters()).as_bytes())
    );
    write(root_fixtures, "golden_trace_seed7.txt", &trace_out);

    // 4. Parallel sweep grids (the parallel_determinism.rs scenarios),
    // dumped at jobs=1 — the tests assert jobs=1 and jobs=4 both match.
    let saved = saved_cells(
        SCALE,
        DeviceKind::Hdd,
        Personality::WebServer,
        DistKind::Uniform,
        &[0.2, 0.6],
        &[0.5, 1.0],
        &[TaskKind::Scrub],
        None,
        1,
        false,
    )
    .expect("saved sweep");
    write(
        bench_fixtures,
        "golden_saved_grid.txt",
        &grid_lines(&saved.values, 2),
    );
    let completed = completed_cells(
        SCALE,
        Personality::WebServer,
        &[0.0, 0.3, 0.6],
        &[TaskKind::Scrub, TaskKind::Backup],
        None,
        1,
        false,
    )
    .expect("completed sweep");
    write(
        bench_fixtures,
        "golden_completed_grid.txt",
        &grid_lines(&completed.values, 2),
    );

    // 5. Structure-level op-mix logs: the exact event/pop sequences the
    // hot-path containers produce under a scripted deterministic mix.
    write(
        root_fixtures,
        "golden_cache_events.txt",
        &cache_event_log(0xCAFE, 4000),
    );
    write(
        root_fixtures,
        "golden_prioqueue_pops.txt",
        &prioqueue_pop_log(0x9A11, 4000),
    );
    write(
        root_fixtures,
        "golden_extent_oplog.txt",
        &extent_oplog(0xE47E, 4000),
    );

    println!("all fixtures written");
    Ok(())
}
