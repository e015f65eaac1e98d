//! The parent process: spawns cold children, aggregates their reports
//! and checks them.
//!
//! Closed loop, one simulation at a time — this is a batch simulator,
//! so "load" is input size, not arrival rate. Noise discipline:
//!
//! - one unmeasured warm-up child first (the first process after idle
//!   pays for faulting the VM's memory in and runs set-up up to 2× slow);
//! - rounds interleave the workloads (`for round { for workload }`), so
//!   a slow minute of the host spreads over all of them;
//! - children start from an empty environment plus `DUET_JOBS=2`:
//!   `DUET_SCALE`, `DUET_SNAPSHOT`, `DUET_TRACE`, `DUET_FAULT_*` are
//!   never inherited;
//! - every timing is a median over rounds, reported with its extremes,
//!   quartiles and sample count;
//! - end-to-end round 0 runs `--seed` itself and every later round a
//!   seed derived from it (see [`round_seed`]): host cost per simulated
//!   block swings up to 30 % from one seed to the next on the read-heavy
//!   workload, deterministically, so a run has to average over seeds
//!   before its median says anything about the code.

use crate::child::Mode;
use crate::cli::{Plan, Stop, PINNED_SEED};
use crate::json::Json;
use crate::metrics::{EndToEnd, PerLayer, END_TO_END, PER_LAYER};
use crate::stats::Summary;
use crate::workloads::Workload;
use bench::harness::Stopwatch;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

/// Worker threads every child's `bench::pool` gets: the reference VM
/// has two cores, and only `sweep_table5` uses more than one.
const JOBS: &str = "2";

/// The benchmark's directory, as compiled: children work under its
/// `out/`, pins live in its `expected/`. The binary is always built
/// from the checkout it measures.
pub const HOME: &str = env!("CARGO_MANIFEST_DIR");

/// Correctness checks of one workload: how many ran, which failed.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failures: Vec<String>,
}

impl Checks {
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failures.push(what());
        }
    }

    pub fn failed(&self) -> u64 {
        self.failures.len() as u64
    }
}

/// Everything measured for one workload.
pub struct Outcome {
    pub workload: &'static Workload,
    /// One summary per end-to-end metric, in dictionary order; empty
    /// when the end-to-end pass did not run.
    pub e2e: Vec<(&'static EndToEnd, Summary)>,
    /// One value per per-layer metric, in dictionary order (median over
    /// traced rounds); empty when the traced pass did not run.
    pub layers: Vec<(&'static PerLayer, f64)>,
    /// The simulated statistics seen, per seed; `--seed`'s own first.
    pub stats: Vec<(u64, Json)>,
    pub checks: Checks,
}

/// The seed end-to-end round `round` runs: `seed` itself first (so the
/// pins and the traced pass have a twin to be compared with), then one
/// SplitMix64 draw per round.
fn round_seed(seed: u64, round: usize) -> u64 {
    if round == 0 {
        return seed;
    }
    let mut z = seed.wrapping_add((round as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A directory under `out/` that children run in, removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn create() -> Result<Scratch, String> {
        let dir = Path::new(HOME)
            .join("out")
            .join(format!("scratch-{}", std::process::id()));
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(Scratch(dir))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        // Best effort: a leftover scratch directory is git-ignored.
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Runs one child to completion and parses its report.
fn spawn(
    scratch: &Scratch,
    w: &Workload,
    seed: u64,
    mode: Mode,
    dump: Option<&Path>,
) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating duetbench: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["child", mode.as_str(), w.name, &seed.to_string()]);
    if let Some(path) = dump {
        cmd.arg(path);
    }
    let out = cmd
        .env_clear()
        .env("DUET_JOBS", JOBS)
        .current_dir(&scratch.0)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawning a {} child: {e}", w.name))?;
    if !out.status.success() {
        return Err(format!(
            "{} {} child: {}",
            w.name,
            mode.as_str(),
            out.status
        ));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    let line = text.lines().last().unwrap_or("");
    Json::parse(line).map_err(|e| format!("{} {} child's report: {e}", w.name, mode.as_str()))
}

/// A child's report (or why there is none) and the seed it ran.
type Seeded = (u64, Result<Json, String>);

/// Runs `one` over every workload, round after round, until `stop`
/// (seconds counted on `clock`). Returns per workload the reports of
/// its rounds.
fn rounds(
    workloads: &[&'static Workload],
    stop: Stop,
    clock: Stopwatch,
    mut one: impl FnMut(&'static Workload, usize) -> Seeded,
) -> Vec<Vec<Seeded>> {
    let mut reports: Vec<Vec<_>> = workloads.iter().map(|_| Vec::new()).collect();
    for round in 0.. {
        for (w, out) in workloads.iter().zip(&mut reports) {
            out.push(one(w, round));
        }
        let done = match stop {
            Stop::Rounds(n) => round + 1 >= n,
            Stop::Seconds(t) => clock.elapsed_ns() >= u128::from(t) * 1_000_000_000,
        };
        if done {
            break;
        }
    }
    reports
}

fn num(report: &Json, key: &str) -> Option<f64> {
    report.get(key).and_then(Json::as_f64)
}

/// Checks one pass's reports — children alive, and the same seed giving
/// the same simulated statistics wherever it ran before — and returns
/// the good ones.
fn vet<'a>(
    pass: &str,
    reports: &'a [Seeded],
    stats: &mut Vec<(u64, Json)>,
    checks: &mut Checks,
) -> Vec<&'a Json> {
    let mut good = Vec::new();
    for (round, (seed, r)) in reports.iter().enumerate() {
        let report = match r {
            Ok(report) => report,
            Err(e) => {
                checks.check(false, || format!("{pass} round {round}: {e}"));
                continue;
            }
        };
        let Some(got) = report.get("stats") else {
            checks.check(false, || format!("{pass} round {round}: no statistics"));
            continue;
        };
        checks.check(true, String::new);
        match stats.iter().find(|(s, _)| s == seed) {
            Some((_, seen)) => checks.check(got == seen, || {
                format!("{pass} round {round}: seed {seed} gave other statistics than before")
            }),
            None => stats.push((*seed, got.clone())),
        }
        good.push(report);
    }
    good
}

fn summarize_e2e(good: &[&Json]) -> Vec<(&'static EndToEnd, Summary)> {
    END_TO_END
        .iter()
        .filter_map(|m| {
            let samples: Vec<f64> = good
                .iter()
                .filter_map(|r| match m.name {
                    "units_per_s" => Some(num(r, "units")? / num(r, "wall_s")?),
                    name => num(r, name),
                })
                .collect();
            Some((m, Summary::of(&samples)?))
        })
        .collect()
}

/// Per-layer values: the median over traced rounds of what the traced
/// children report, the kernels, and what derives from both. A metric
/// nothing reports for this workload reads 0.
fn summarize_layers(
    good: &[&Json],
    kernels: Option<&Json>,
    checks: &mut Checks,
) -> Vec<(&'static PerLayer, f64)> {
    let median = |sample: &dyn Fn(&Json) -> Option<f64>| {
        let samples: Vec<f64> = good.iter().filter_map(|r| sample(r)).collect();
        Summary::of(&samples).map(|s| s.median)
    };
    let value = |name: &str| {
        median(&|r| num(r.get("layers")?, name))
            .or_else(|| num(kernels?.get("layers")?, name))
            .unwrap_or(0.0)
    };
    for r in good {
        for (name, ok) in r.get("checks").map_or(&[][..], Json::fields) {
            checks.check(*ok == Json::Bool(true), || {
                format!("traced run: {name} failed")
            });
        }
    }
    PER_LAYER
        .iter()
        .map(|m| {
            let v = match m.name {
                "bench.pool_parallelism" => {
                    median(&|r| Some(num(r, "cpu_s")? / num(r, "wall_s")?)).unwrap_or(0.0)
                }
                // What the cache and the disk model would cost at the
                // isolated kernels' per-operation price: an estimate,
                // because beneath a real filesystem call the mix and
                // the locality differ.
                "sim-cache.est_s" => {
                    (value("sim-cache.insertions") * value("sim-cache.k_insert_evict_ns")
                        + value("sim-cache.hits") * value("sim-cache.k_lookup_hit_ns")
                        + value("sim-cache.writebacks") * value("sim-cache.k_dirty_writeback_ns"))
                        / 1e9
                }
                "sim-disk.est_s" => {
                    (value("sim-disk.fg_requests") + value("sim-disk.maint_requests"))
                        * (value("sim-disk.k_hdd_rand_ns") + value("sim-disk.k_hdd_seq_ns"))
                        / 2.0
                        / 1e9
                }
                name => value(name),
            };
            (m, v)
        })
        .collect()
}

fn expected_path(w: &Workload) -> PathBuf {
    Path::new(HOME)
        .join("expected")
        .join(format!("{}.json", w.name))
}

/// Compares (or, blessing, records) the simulated statistics against
/// the committed pin. Only the pinned seed has one.
fn check_pin(plan: &Plan, o: &mut Outcome) -> Result<(), String> {
    if plan.seed != PINNED_SEED {
        return Ok(());
    }
    let path = expected_path(o.workload);
    let Some((_, stats)) = o.stats.iter().find(|(s, _)| *s == PINNED_SEED) else {
        o.checks
            .check(false, || "no statistics to compare with the pin".into());
        return Ok(());
    };
    if plan.bless {
        return std::fs::write(&path, stats.render_pretty())
            .map_err(|e| format!("{}: {e}", path.display()));
    }
    let pinned = std::fs::read_to_string(&path)
        .map_err(|e| e.to_string())
        .and_then(|text| Json::parse(&text));
    o.checks
        .check(pinned.as_ref() == Ok(stats), || match pinned {
            Ok(_) => format!("simulated statistics differ from {}", path.display()),
            Err(e) => format!("{}: {e}", path.display()),
        });
    Ok(())
}

/// Executes `plan`.
pub fn run(plan: &Plan) -> Result<Vec<Outcome>, String> {
    let scratch = Scratch::create()?;
    let seed = plan.seed;
    let e2e = (plan.trace != Some(true)).then(|| {
        // Unmeasured, but its statistics are round 0's twin.
        let warm_up = spawn(&scratch, plan.workloads[0], seed, Mode::E2e, None);
        let reports = rounds(
            &plan.workloads,
            plan.stop,
            Stopwatch::start(),
            |w, round| {
                let seed = round_seed(seed, round);
                (seed, spawn(&scratch, w, seed, Mode::E2e, None))
            },
        );
        ((seed, warm_up), reports)
    });
    let traced = (plan.trace != Some(false)).then(|| {
        // The full run traces each workload once. Under the contract
        // the kernels and the traced rounds share the run's seconds.
        let clock = Stopwatch::start();
        let kernels = spawn(&scratch, plan.workloads[0], seed, Mode::Kernels, None);
        let stop = plan.trace.map_or(Stop::Rounds(1), |_| plan.stop);
        let reports = rounds(&plan.workloads, stop, clock, |w, round| {
            let dump = (plan.dump_spans && round == 0).then(|| {
                Path::new(HOME)
                    .join("out")
                    .join(format!("spans-{}.csv", w.name))
            });
            (
                seed,
                spawn(&scratch, w, seed, Mode::Traced, dump.as_deref()),
            )
        });
        (reports, kernels)
    });

    let mut outcomes = Vec::new();
    for (i, &workload) in plan.workloads.iter().enumerate() {
        let mut o = Outcome {
            workload,
            e2e: Vec::new(),
            layers: Vec::new(),
            stats: Vec::new(),
            checks: Checks::default(),
        };
        if let Some((warm_up, reports)) = &e2e {
            if i == 0 {
                vet(
                    "warm-up",
                    std::slice::from_ref(warm_up),
                    &mut o.stats,
                    &mut o.checks,
                );
            }
            let good = vet("end-to-end", &reports[i], &mut o.stats, &mut o.checks);
            o.e2e = summarize_e2e(&good);
        }
        if let Some((reports, kernels)) = &traced {
            let good = vet("traced", &reports[i], &mut o.stats, &mut o.checks);
            o.checks.check(kernels.is_ok(), || {
                format!(
                    "layer kernels: {}",
                    kernels.as_ref().err().map_or("", String::as_str)
                )
            });
            o.layers = summarize_layers(&good, kernels.as_ref().ok(), &mut o.checks);
        }
        check_pin(plan, &mut o)?;
        outcomes.push(o);
    }
    Ok(outcomes)
}
