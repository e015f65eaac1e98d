//! `bench run [harness…]`: runs the named table/figure harnesses (no
//! names = all of them) **in-process**, writing their CSVs under
//! `results/` plus a machine-readable summary in
//! `results/BENCH_sweeps.json`.
//!
//! The selection is put in registry order up front, then [`suite::run`]
//! runs it. Fidelity is `DUET_SCALE`; unset, each harness runs at its
//! own `default_scale`.

use bench::figs::{self, HarnessSpec};
use bench::{pool, scale_from_env, suite, trace, BenchError};
use std::path::Path;

/// Runs the harnesses named in `names` (all when empty).
pub fn run(names: &[&str]) -> Result<(), String> {
    // Two copies of one harness would both write `results/<name>.csv`.
    if let Some(dup) = names
        .iter()
        .enumerate()
        .find_map(|(i, n)| names[..i].contains(n).then_some(n))
    {
        return Err(format!("harness named twice: {dup}"));
    }
    if let Some(unknown) = names.iter().find(|name| figs::find(name).is_none()) {
        let known: Vec<&str> = figs::ALL.iter().map(|h| h.name).collect();
        return Err(format!(
            "{}\nknown harnesses: {}",
            BenchError::UnknownHarness(unknown.to_string()),
            known.join(" ")
        ));
    }
    let selected: Vec<(&'static HarnessSpec, u64)> = figs::ALL
        .iter()
        .filter(|h| names.is_empty() || names.contains(&h.name))
        .map(|h| (h, scale_from_env(h.default_scale)))
        .collect();
    let jobs = pool::jobs();
    println!(
        "bench run: {} harnesses in-process, DUET_JOBS={jobs}",
        selected.len()
    );
    suite::run(&selected, jobs, trace::enabled(), Path::new("results"))
}
