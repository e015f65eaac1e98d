//! `bench run [harness…]`: runs the named table/figure harnesses (no
//! names = all of them) **in-process**, writing their CSVs under
//! `results/` plus a machine-readable timing summary in
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
//! Fidelity is `DUET_SCALE`; unset, each harness runs at its own
//! `default_scale` (`DUET_SCALE=64` keeps the full reproduction to a few
//! minutes).

use bench::figs::{self, HarnessSpec};
use bench::harness::Stopwatch;
use bench::{pool, scale_from_env, BenchError, Sink};

struct Outcome {
    spec: &'static HarnessSpec,
    lines: Vec<String>,
    err: Option<String>,
    wall_ms: f64,
    /// Simulated operations the harness credited to its sink (0 for
    /// harnesses that do not run sweep cells).
    ops: u64,
}

/// The scale `spec` runs at: `DUET_SCALE`, else its own default.
fn scale_of(spec: &HarnessSpec) -> u64 {
    scale_from_env(spec.default_scale)
}

fn run_one(spec: &'static HarnessSpec, mut sink: Sink) -> Outcome {
    let sw = Stopwatch::start();
    let err = (spec.run)(scale_of(spec), &mut sink)
        .err()
        .map(|e| e.to_string());
    let wall_ms = sw.elapsed_ns() as f64 / 1e6;
    Outcome {
        spec,
        err,
        wall_ms,
        ops: sink.ops(),
        lines: sink.into_lines(),
    }
}

fn write_summary(jobs: usize, outcomes: &[Outcome], total_ms: f64) -> std::io::Result<()> {
    // The one scale every harness ran at, or `null` when `DUET_SCALE`
    // is unset and their defaults differ.
    let mut scales: Vec<u64> = outcomes.iter().map(|o| scale_of(o.spec)).collect();
    scales.dedup();
    let scale = match scales[..] {
        [one] => one.to_string(),
        _ => "null".to_string(),
    };
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

/// Runs the harnesses named in `names` (all when empty).
pub fn run(names: &[&str]) -> Result<(), String> {
    // Two copies of one harness would run concurrently on the pool and
    // both write `results/<name>.csv`.
    if let Some(dup) = names
        .iter()
        .enumerate()
        .find_map(|(i, n)| names[..i].contains(n).then_some(n))
    {
        return Err(format!("harness named twice: {dup}"));
    }
    let selected: Vec<&'static HarnessSpec> = if names.is_empty() {
        figs::ALL.iter().collect()
    } else {
        names
            .iter()
            .map(|name| {
                figs::find(name).ok_or_else(|| {
                    let known: Vec<&str> = figs::ALL.iter().map(|h| h.name).collect();
                    format!(
                        "{}\nknown harnesses: {}",
                        BenchError::UnknownHarness(name.to_string()),
                        known.join(" ")
                    )
                })
            })
            .collect::<Result<_, _>>()?
    };
    let jobs = pool::jobs();
    println!(
        "bench run: {} harnesses in-process, DUET_JOBS={jobs}",
        selected.len()
    );
    let total = Stopwatch::start();
    let (serial, parallel): (Vec<_>, Vec<_>) = selected.iter().copied().partition(|h| h.wall_clock);
    let mut outcomes = pool::run_indexed(parallel.len(), jobs, |i| {
        run_one(parallel[i], Sink::buffer())
    });
    for o in &outcomes {
        println!(
            "\n===== {} (DUET_SCALE={}) =====",
            o.spec.name,
            scale_of(o.spec)
        );
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
            "\n===== {} (DUET_SCALE={}, wall-clock, runs alone) =====",
            spec.name,
            scale_of(spec)
        );
        let o = run_one(spec, Sink::live());
        if let Some(e) = &o.err {
            eprintln!("{} failed: {e}", spec.name);
        }
        outcomes.push(o);
    }
    // Report in registry order regardless of execution order.
    outcomes.sort_by_key(|o| figs::ALL.iter().position(|h| h.name == o.spec.name));
    let total_ms = total.elapsed_ns() as f64 / 1e6;
    write_summary(jobs, &outcomes, total_ms)
        .map_err(|e| format!("writing results/BENCH_sweeps.json failed: {e}"))?;
    println!(
        "\nAll harnesses done in {:.1}s; CSVs in ./results/, timings in \
         ./results/BENCH_sweeps.json",
        total_ms / 1e3
    );
    let failed: Vec<&str> = outcomes
        .iter()
        .filter(|o| o.err.is_some())
        .map(|o| o.spec.name)
        .collect();
    if failed.is_empty() {
        Ok(())
    } else {
        Err(format!("failed harnesses: {}", failed.join(" ")))
    }
}
