//! `duetbench`: end-to-end and per-layer host-cost benchmark of the
//! Duet simulator, measured from outside — it only calls the crates'
//! public functions and times them with `bench::harness::Stopwatch`.
//! See `README.md` for the workload and metric dictionary.

mod child;
mod cli;
mod compare;
mod json;
mod kernels;
mod metrics;
mod mirror;
mod procfs;
mod report;
mod runner;
mod spans;
mod stats;
mod workloads;

#[cfg(test)]
mod smoke_tests;

use cli::Command;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let command = match cli::parse(&args) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("duetbench: {e}");
            return ExitCode::from(2);
        }
    };
    match execute(command) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("duetbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// `Ok(false)`: the command ran and its verdict is "not fine".
fn execute(command: Command) -> Result<bool, String> {
    match command {
        Command::Manifest => {
            print!("{}", metrics::manifest());
            Ok(true)
        }
        Command::Compare(a, b) => compare::run(&a, &b),
        Command::Child {
            workload,
            seed,
            mode,
            dump_spans,
        } => {
            println!(
                "{}",
                child::run(workload, seed, mode, dump_spans.as_deref())?.render()
            );
            Ok(true)
        }
        Command::Run(plan) => {
            let conditions = report::Conditions::record();
            let outcomes = runner::run(&plan)?;
            report::print_table(&outcomes);
            let all_passed = outcomes.iter().all(|o| o.checks.failed() == 0);
            match plan.trace {
                None => {
                    let path = report::write_results(&plan, &conditions, &outcomes)?;
                    println!("[saved {}]", path.display());
                    Ok(all_passed)
                }
                // Under the contract a failed check is data, not a
                // crash: the result line carries it and the exit is 0.
                Some(trace) => {
                    println!("{}", report::contract_line(&outcomes[0], trace));
                    Ok(true)
                }
            }
        }
    }
}
