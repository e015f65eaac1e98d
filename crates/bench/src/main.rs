//! The `bench` CLI — the workspace's one binary: the table/figure
//! harnesses and the golden-fixture regenerator.
//!
//! - `bench run [harness…]` runs the named harnesses of
//!   [`bench::figs::ALL`] in-process (no names = the full
//!   reproduction) and writes their CSVs plus
//!   `results/BENCH_sweeps.json` (see [`cmd::run`]).
//! - `bench golden` rewrites the committed golden fixtures (see
//!   [`cmd::golden`]; a deliberate, reviewed act).
//!
//! Host cost — wall time, per-layer attribution, container and
//! framework kernels — is measured by `benchmark/` (duetbench), not
//! here; see the question → tool table in DESIGN.md §12.

use std::process::ExitCode;

mod cmd;

fn main() -> ExitCode {
    if let Err(code) = bench::check_env() {
        return code;
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args: Vec<&str> = args.iter().map(String::as_str).collect();
    let outcome = match args.as_slice() {
        ["run", names @ ..] => cmd::run::run(names),
        ["golden"] => cmd::golden::run(),
        _ => {
            eprintln!(
                "usage: bench <run [harness...]|golden>\n\
                 \n\
                 run       run the named table/figure harnesses (default: all), write\n\
                 \x20         results/<name>.csv and results/BENCH_sweeps.json\n\
                 golden    rewrite the golden fixtures under tests/fixtures/ (repo root)"
            );
            return ExitCode::FAILURE;
        }
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
