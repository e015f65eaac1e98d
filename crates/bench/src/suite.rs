//! The `bench run` driver: harnesses run as one batch of cells.
//!
//! [`run`] collects the cells of every harness it is given, runs each
//! distinct cell once in one [`Batch`], then renders the harnesses in
//! turn. [`HarnessSpec::run`] is the same driver applied to one harness.

use crate::cell::Batch;
use crate::figs::{find, HarnessSpec};
use crate::harness::Stopwatch;
use crate::{pool, trace, BenchError, BenchResult, Sink};
use std::path::Path;

/// Renders `spec`, reader `reader` of `batch`, into `sink`, crediting its
/// ops and saving its reports and traces under `dir`; or fails, saving
/// nothing, when one of its cells failed.
pub fn render(
    batch: &Batch,
    reader: usize,
    spec: &HarnessSpec,
    scale: u64,
    dir: &Path,
    sink: &mut Sink,
) -> BenchResult<()> {
    let results = batch.results(reader)?;
    sink.add_ops(batch.ops(reader));
    for report in (spec.render)(scale, &results, sink)? {
        report.save(dir, sink)?;
    }
    for (report, counters) in batch.traces(reader) {
        counters.save(dir, report, sink)?;
    }
    Ok(())
}

/// [`HarnessSpec::run`]: the harness named `name` as a batch of one, at
/// the `DUET_JOBS` / `DUET_TRACE` settings.
pub(crate) fn solo(name: &str, scale: u64, sink: &mut Sink) -> BenchResult<()> {
    let spec = find(name).ok_or_else(|| BenchError::UnknownHarness(name.into()))?;
    let batch = Batch::run(vec![(spec.cells)(scale)], pool::jobs(), trace::enabled());
    render(&batch, 0, spec, scale, Path::new("results"), sink)
}

/// Runs every distinct cell of `harnesses` once on up to `jobs` workers
/// (traced when `traced`), then renders each harness in the order
/// given: its block to stdout, its CSVs under `dir`, and a row in
/// `dir/BENCH_sweeps.json`. Rendering starts when the last cell is done,
/// so the wall-clock harness runs alone. A failed cell fails the
/// harnesses that read it, named in the `Err`; the others still render.
pub fn run(
    harnesses: &[(&'static HarnessSpec, u64)],
    jobs: usize,
    traced: bool,
    dir: &Path,
) -> Result<(), String> {
    let total = Stopwatch::start();
    let cells = harnesses
        .iter()
        .map(|&(spec, scale)| (spec.cells)(scale))
        .collect();
    let batch = Batch::run(cells, jobs, traced);
    let mut rows = Vec::new();
    let mut failed = Vec::new();
    for (i, &(spec, scale)) in harnesses.iter().enumerate() {
        let alone = spec.wall_clock.then_some(", wall-clock, runs alone");
        let alone = alone.unwrap_or_default();
        println!("\n===== {} (DUET_SCALE={scale}{alone}) =====", spec.name);
        let mut sink = Sink::live();
        let sw = Stopwatch::start();
        if let Err(e) = render(&batch, i, spec, scale, dir, &mut sink) {
            eprintln!("{} failed: {e}", spec.name);
            failed.push(spec.name);
        }
        // A harness's wall time: its render plus the cells it reads.
        let wall_ms = sw.elapsed_ns() as f64 / 1e6 + batch.wall_ms(i);
        rows.push(format!(
            "    {{\"name\": \"{}\", \"wall_ms\": {wall_ms:.3}, \"ops\": {}, \"ok\": {}, \
             \"wall_clock\": {}}}",
            spec.name,
            sink.ops(),
            !failed.contains(&spec.name),
            spec.wall_clock,
        ));
    }
    let total_ms = total.elapsed_ns() as f64 / 1e6;
    // The one scale every harness ran at, or `null` when `DUET_SCALE`
    // is unset and their defaults differ.
    let mut scales: Vec<u64> = harnesses.iter().map(|&(_, scale)| scale).collect();
    scales.dedup();
    let scale = match scales[..] {
        [one] => one.to_string(),
        _ => "null".to_string(),
    };
    // Hand-rolled JSON: names are static identifiers, nothing needs
    // escaping.
    let summary = format!(
        "{{\n  \"schema_version\": 3,\n  \"scale\": {scale},\n  \"jobs\": {jobs},\n  \
         \"cells\": {},\n  \"runs\": {},\n  \"harnesses\": [\n{}\n  ],\n  \
         \"total_wall_ms\": {total_ms:.3}\n}}\n",
        batch.cells(),
        batch.runs(),
        rows.join(",\n"),
    );
    std::fs::create_dir_all(dir)
        .and_then(|()| std::fs::write(dir.join("BENCH_sweeps.json"), summary))
        .map_err(|e| format!("writing {}/BENCH_sweeps.json failed: {e}", dir.display()))?;
    let dir = dir.display();
    println!(
        "\nAll harnesses done in {:.1}s; CSVs in {dir}/, timings in {dir}/BENCH_sweeps.json",
        total_ms / 1e3
    );
    if failed.is_empty() {
        Ok(())
    } else {
        Err(format!("failed harnesses: {}", failed.join(" ")))
    }
}
