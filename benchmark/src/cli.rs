//! Command-line parsing. Everything malformed is a hard error with a
//! message, never a silent default.

use crate::child::Mode;
use crate::metrics::RUN_SECONDS;
use crate::workloads::{self, Workload};
use std::path::PathBuf;

/// The seed the committed `expected/*.json` pins were recorded at.
pub const PINNED_SEED: u64 = 42;
/// Rounds per workload when neither `--rounds` nor `--seconds` is given.
pub const DEFAULT_ROUNDS: usize = 5;

pub const USAGE: &str = "\
usage:
  duetbench [--only W] [--rounds N | --seconds T] [--seed S] [--bless] [--dump-spans]
      every workload (or one): end-to-end rounds, traced pass, layer kernels;
      prints every metric and writes benchmark/out/results.json
  duetbench --workload W --seed S --seconds T --trace 0|1
      one workload under the benchmark contract: the last line of stdout is
      one JSON object (end-to-end metrics with --trace 0, per-layer with 1)
  duetbench compare A.json B.json
      per workload and end-to-end metric: improved | unchanged | regressed | unresolved
  duetbench manifest
      prints BENCHMARK.json as rendered from the metric dictionary";

/// When measuring stops.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stop {
    /// After this many rounds of every workload.
    Rounds(usize),
    /// After the first round that ends past this many seconds.
    Seconds(u64),
}

/// What a run measures and how it reports.
pub struct Plan {
    pub workloads: Vec<&'static Workload>,
    pub seed: u64,
    pub stop: Stop,
    /// `--trace`: `None` runs both passes and prints the full table;
    /// `Some` runs one pass and ends with the contract's JSON line.
    pub trace: Option<bool>,
    pub bless: bool,
    pub dump_spans: bool,
}

pub enum Command {
    Run(Plan),
    /// Internal: one cold child process (see `child.rs`).
    Child {
        workload: &'static Workload,
        seed: u64,
        mode: Mode,
        dump_spans: Option<PathBuf>,
    },
    Compare(PathBuf, PathBuf),
    Manifest,
}

/// Whether `s` is a name the benchmark contract accepts: starts with a
/// letter or digit, then letters, digits, `_`, `.` and `-`.
pub fn is_safe_name(s: &str) -> bool {
    s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

fn workload_named(name: &str) -> Result<&'static Workload, String> {
    if !is_safe_name(name) {
        return Err(format!(
            "workload name {name:?} has characters outside [A-Za-z0-9_.-]"
        ));
    }
    workloads::find(name).ok_or_else(|| {
        let known: Vec<&str> = workloads::ALL.iter().map(|w| w.name).collect();
        format!("unknown workload {name:?}; known: {}", known.join(", "))
    })
}

fn number<T: std::str::FromStr>(flag: &str, value: &str) -> Result<T, String> {
    value
        .parse()
        .map_err(|_| format!("{flag} wants a whole number, got {value:?}"))
}

pub fn parse(args: &[String]) -> Result<Command, String> {
    match args.first().map(String::as_str) {
        Some("child") => parse_child(&args[1..]),
        Some("compare") => match &args[1..] {
            [a, b] => Ok(Command::Compare(a.into(), b.into())),
            _ => Err("compare wants exactly two result files".into()),
        },
        Some("manifest") if args.len() == 1 => Ok(Command::Manifest),
        _ => parse_run(args).map(Command::Run),
    }
}

fn parse_child(args: &[String]) -> Result<Command, String> {
    let (mode, workload, seed, dump) = match args {
        [mode, workload, seed] => (mode, workload, seed, None),
        [mode, workload, seed, dump] => (mode, workload, seed, Some(dump)),
        _ => return Err("child wants: MODE WORKLOAD SEED [SPAN-DUMP-PATH]".into()),
    };
    Ok(Command::Child {
        workload: workload_named(workload)?,
        seed: number("child SEED", seed)?,
        mode: Mode::parse(mode).ok_or_else(|| format!("unknown child mode {mode:?}"))?,
        dump_spans: dump.map(PathBuf::from),
    })
}

fn parse_run(args: &[String]) -> Result<Plan, String> {
    let mut only = None;
    let mut seed = None;
    let mut rounds = None;
    let mut seconds = None;
    let mut trace = None;
    let mut bless = false;
    let mut dump_spans = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} wants a value\n{USAGE}"))
        };
        match flag.as_str() {
            "--workload" | "--only" => only = Some(workload_named(value()?)?),
            "--seed" => seed = Some(number::<u64>(flag, value()?)?),
            "--rounds" => match number::<usize>(flag, value()?)? {
                n @ 1..=99 => rounds = Some(n),
                n => return Err(format!("--rounds {n} is outside 1..=99")),
            },
            "--seconds" => match number::<u64>(flag, value()?)? {
                t @ 1..=600 => seconds = Some(t),
                t => return Err(format!("--seconds {t} is outside 1..=600")),
            },
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace wants 0 or 1, got {other:?}")),
                })
            }
            "--bless" => bless = true,
            "--dump-spans" => dump_spans = true,
            other => return Err(format!("unknown argument {other:?}\n{USAGE}")),
        }
    }
    let stop = match (rounds, seconds, trace) {
        (Some(_), Some(_), _) => return Err("--rounds and --seconds exclude each other".into()),
        (Some(n), None, _) => Stop::Rounds(n),
        (None, Some(t), _) => Stop::Seconds(t),
        (None, None, Some(_)) => Stop::Seconds(RUN_SECONDS),
        (None, None, None) => Stop::Rounds(DEFAULT_ROUNDS),
    };
    if trace.is_some() && only.is_none() {
        return Err("--trace reports one workload: name it with --workload".into());
    }
    let seed = seed.unwrap_or(PINNED_SEED);
    if bless && (seed != PINNED_SEED || trace.is_some()) {
        return Err(format!(
            "--bless records the pins of a full run at seed {PINNED_SEED}; drop --seed and --trace"
        ));
    }
    Ok(Plan {
        workloads: only.map_or_else(|| workloads::ALL.iter().collect(), |w| vec![w]),
        seed,
        stop,
        trace,
        bless,
        dump_spans,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    fn plan(s: &str) -> Result<Plan, String> {
        match parse(&args(s))? {
            Command::Run(p) => Ok(p),
            _ => Err("not a run".into()),
        }
    }

    #[test]
    fn contract_invocation_and_defaults() {
        let p = plan("--workload read_hot_duet --seed 7 --seconds 12 --trace 1").expect("parses");
        assert_eq!(p.workloads.len(), 1);
        assert_eq!(
            (p.seed, p.stop, p.trace),
            (7, Stop::Seconds(12), Some(true))
        );
        let p = plan("").expect("parses");
        assert_eq!(p.workloads.len(), workloads::ALL.len());
        assert_eq!(
            (p.seed, p.stop, p.trace),
            (PINNED_SEED, Stop::Rounds(DEFAULT_ROUNDS), None)
        );
        let p = plan("--workload sweep_table5 --trace 0").expect("parses");
        assert_eq!(p.stop, Stop::Seconds(RUN_SECONDS));
        assert!(
            plan("--only f2fs_gc_write --rounds 7 --bless")
                .expect("parses")
                .bless
        );
    }

    #[test]
    fn malformed_input_is_a_hard_error_not_a_default() {
        for bad in [
            "--workload nope --trace 0",
            "--workload read/hot --trace 0",
            "--workload -read_hot_duet --trace 0",
            "--seed 4x2",
            "--seed -1",
            "--seed",
            "--rounds 0",
            "--rounds five",
            "--rounds 3 --seconds 5",
            "--seconds 0",
            "--trace 2 --workload read_hot_duet",
            "--trace 1",
            "--bless --seed 7",
            "--bless --workload read_hot_duet --trace 0",
            "--frobnicate",
            "compare only_one.json",
            "child e2e read_hot_duet",
            "child warm read_hot_duet 42",
            "child e2e nope 42",
        ] {
            assert!(parse(&args(bad)).is_err(), "{bad:?} must be rejected");
        }
    }

    #[test]
    fn safe_names() {
        for ok in ["wall_s", "sim-btrfs.k_fork_ms", "9lives", "a"] {
            assert!(is_safe_name(ok), "{ok}");
        }
        for bad in ["", "_x", "-x", ".x", "a b", "a/b", "naïve", "a\n"] {
            assert!(!is_safe_name(bad), "{bad:?}");
        }
    }
}
