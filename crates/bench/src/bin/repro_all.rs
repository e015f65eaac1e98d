//! Runs every table/figure harness **in-process**, writing all CSVs
//! under `results/` plus a machine-readable timing summary in
//! `results/BENCH_sweeps.json`.
//!
//! Harnesses fan out across cores (bounded by `DUET_JOBS`); each runs
//! against a buffered sink and the captured output is printed in
//! registry order afterwards, so the console transcript and every CSV
//! are byte-identical at any job count. The one wall-clock harness
//! (fig9) runs alone after the parallel batch so concurrent load
//! cannot skew its measurement; its CSV is excluded from byte-identity
//! claims (it reports hardware timings).
//!
//! Usage: `repro_all [harness...]` — with arguments, runs only the
//! named harnesses. Control fidelity with `DUET_SCALE` (default here:
//! 64, which keeps the full reproduction to a few minutes).

use bench::figs::{self, HarnessSpec};
use bench::harness::Stopwatch;
use bench::{pool, scale_from_env, BenchError, Sink};
use std::process::ExitCode;

struct Outcome {
    spec: &'static HarnessSpec,
    lines: Vec<String>,
    err: Option<String>,
    wall_ms: f64,
    /// Simulated operations the harness credited to its sink (0 for
    /// harnesses that do not run sweep cells).
    ops: u64,
}

fn run_buffered(spec: &'static HarnessSpec, scale: u64) -> Outcome {
    let mut sink = Sink::buffer();
    let sw = Stopwatch::start();
    let err = (spec.run)(scale, &mut sink).err().map(|e| e.to_string());
    let wall_ms = sw.elapsed_ns() as f64 / 1e6;
    Outcome {
        spec,
        err,
        wall_ms,
        ops: sink.ops(),
        lines: sink.into_lines(),
    }
}

fn write_summary(
    scale: u64,
    jobs: usize,
    outcomes: &[Outcome],
    total_ms: f64,
) -> std::io::Result<()> {
    // Hand-rolled JSON: names are static identifiers, nothing needs
    // escaping.
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str("  \"schema_version\": 2,\n");
    s.push_str(&format!("  \"scale\": {scale},\n"));
    s.push_str(&format!("  \"jobs\": {jobs},\n"));
    s.push_str("  \"harnesses\": [\n");
    for (i, o) in outcomes.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"name\": \"{}\", \"wall_ms\": {:.3}, \"ops\": {}, \"ok\": {}, \
             \"wall_clock\": {}}}{}\n",
            o.spec.name,
            o.wall_ms,
            o.ops,
            o.err.is_none(),
            o.spec.wall_clock,
            if i + 1 < outcomes.len() { "," } else { "" }
        ));
    }
    s.push_str("  ],\n");
    s.push_str(&format!("  \"total_wall_ms\": {total_ms:.3}\n"));
    s.push_str("}\n");
    std::fs::create_dir_all("results")?;
    std::fs::write("results/BENCH_sweeps.json", s)
}

fn main() -> ExitCode {
    if let Err(code) = bench::check_env() {
        return code;
    }
    let scale = scale_from_env(64);
    let jobs = pool::jobs();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let selected: Vec<&'static HarnessSpec> = if args.is_empty() {
        figs::ALL.iter().collect()
    } else {
        let mut v = Vec::new();
        for a in &args {
            match figs::find(a) {
                Some(h) => v.push(h),
                None => {
                    eprintln!("error: {}", BenchError::UnknownHarness(a.clone()));
                    let known: Vec<&str> = figs::ALL.iter().map(|h| h.name).collect();
                    eprintln!("known harnesses: {}", known.join(" "));
                    return ExitCode::FAILURE;
                }
            }
        }
        v
    };
    println!(
        "repro_all: {} harnesses in-process, DUET_SCALE={scale}, DUET_JOBS={jobs}",
        selected.len()
    );
    let total = Stopwatch::start();
    let parallel: Vec<&'static HarnessSpec> =
        selected.iter().copied().filter(|h| !h.wall_clock).collect();
    let serial: Vec<&'static HarnessSpec> =
        selected.iter().copied().filter(|h| h.wall_clock).collect();
    let mut outcomes =
        pool::run_indexed(parallel.len(), jobs, |i| run_buffered(parallel[i], scale));
    for o in &outcomes {
        println!("\n===== {} (DUET_SCALE={scale}) =====", o.spec.name);
        for line in &o.lines {
            println!("{line}");
        }
        if let Some(e) = &o.err {
            eprintln!("{} failed: {e}", o.spec.name);
        }
    }
    // Wall-clock harnesses run alone, after the parallel load drains.
    for spec in serial {
        println!(
            "\n===== {} (DUET_SCALE={scale}, wall-clock, runs alone) =====",
            spec.name
        );
        let mut sink = Sink::live();
        let sw = Stopwatch::start();
        let err = (spec.run)(scale, &mut sink).err().map(|e| e.to_string());
        if let Some(e) = &err {
            eprintln!("{} failed: {e}", spec.name);
        }
        outcomes.push(Outcome {
            spec,
            lines: Vec::new(),
            err,
            wall_ms: sw.elapsed_ns() as f64 / 1e6,
            ops: sink.ops(),
        });
    }
    // Report in registry order regardless of execution order.
    outcomes.sort_by_key(|o| figs::ALL.iter().position(|h| h.name == o.spec.name));
    let total_ms = total.elapsed_ns() as f64 / 1e6;
    if let Err(e) = write_summary(scale, jobs, &outcomes, total_ms) {
        eprintln!("error: writing results/BENCH_sweeps.json failed: {e}");
        return ExitCode::FAILURE;
    }
    let failed: Vec<&str> = outcomes
        .iter()
        .filter(|o| o.err.is_some())
        .map(|o| o.spec.name)
        .collect();
    println!(
        "\nAll harnesses done in {:.1}s; CSVs in ./results/, timings in \
         ./results/BENCH_sweeps.json",
        total_ms / 1e3
    );
    if failed.is_empty() {
        ExitCode::SUCCESS
    } else {
        eprintln!("failed harnesses: {}", failed.join(" "));
        ExitCode::FAILURE
    }
}
