//! The cell: the unit of `bench run`.
//!
//! A [`Cell`] says *what* is simulated — a [`Sim`] — and names the
//! report whose `_trace.csv` its counters go to. A [`Batch`] runs the
//! cells of any number of readers (harnesses, see [`crate::figs`]): each
//! equal `Sim` once, all through one [`pool::try_run_indexed`] call, with
//! a `Result` per distinct run, so a failure fails only its readers. A
//! reader gets its results in its own cell order, and its ops and trace
//! counters as keyed sums over its cells: the same bytes whether it
//! shared the batch or ran alone, at any worker count.
//!
//! Building a grid is data: [`grid`] is the shape six figures share,
//! [`util_report`] renders it. [`GOLDEN_GRIDS`] pins two small grids
//! against committed fixtures, at any worker count.

use crate::harness::Stopwatch;
use crate::pool;
use crate::trace::TraceAgg;
use crate::{f2, BenchResult, Report, Sink};
use experiments::{
    max_utilization, paper_scaled, run_experiment_with, run_gc_experiment_with,
    run_rsync_experiment_with, ExperimentConfig, ExperimentResult, GcExperimentConfig, GcResult,
    RsyncResult, RunOptions, TaskKind,
};
use sim_core::trace::TraceHandle;
use sim_core::{SimError, SimResult};
use std::collections::BTreeMap;
use std::convert::Infallible;
use workloads::{DistKind, Personality};

/// What one cell simulates. Two cells with equal `Sim`s are one run.
#[derive(Debug, Clone, PartialEq)]
pub enum Sim {
    /// One Btrfs experiment.
    Btrfs(ExperimentConfig),
    /// One rsync transfer, with Duet (`true`) or as the baseline.
    Rsync(ExperimentConfig, bool),
    /// One F2fs cleaning run.
    Gc(GcExperimentConfig),
    /// Table 5's bisection: the highest utilization, in 10 % steps, at
    /// which `task` still completes. Each probe is [`paper_scaled`] of
    /// the other fields at its utilization, with `fragmentation` set on
    /// it; the probes stop early and share the cell's trace handle and
    /// ops.
    MaxUtil {
        scale: u64,
        personality: Personality,
        dist: DistKind,
        overlap: f64,
        task: TaskKind,
        duet: bool,
        fragmentation: Option<(f64, u64)>,
    },
}

/// One cell: a simulation, and the report its trace counters go to.
#[derive(Debug, Clone, PartialEq)]
pub struct Cell {
    /// The report whose `_trace.csv` gets this cell's counters.
    pub report: &'static str,
    /// What is simulated.
    pub sim: Sim,
}

impl Cell {
    /// A cell of one Btrfs experiment.
    pub fn btrfs(report: &'static str, cfg: ExperimentConfig) -> Cell {
        Cell {
            report,
            sim: Sim::Btrfs(cfg),
        }
    }
}

/// What a cell's simulation produced.
#[derive(Debug, Clone)]
pub enum Ran {
    /// A [`Sim::Btrfs`] result.
    Btrfs(ExperimentResult),
    /// A [`Sim::Rsync`] result.
    Rsync(RsyncResult),
    /// A [`Sim::Gc`] result.
    Gc(GcResult),
    /// A [`Sim::MaxUtil`] result: `None` when no utilization completes.
    MaxUtil(Option<f64>),
}

/// A render read a result of another kind than its cell ran.
pub const MISMATCH: SimError = SimError::Unsupported("a render read a cell of another kind");

impl Ran {
    /// The Btrfs experiment's result.
    pub fn btrfs(&self) -> SimResult<&ExperimentResult> {
        match self {
            Ran::Btrfs(r) => Ok(r),
            _ => Err(MISMATCH),
        }
    }
}

/// `f` of each result; all must be Btrfs experiments'.
pub fn each<T>(results: &[&Ran], f: impl Fn(&ExperimentResult) -> T) -> SimResult<Vec<T>> {
    results.iter().map(|r| r.btrfs().map(&f)).collect()
}

impl Sim {
    /// Runs the simulation under `opts`; returns the simulated ops to
    /// credit and its result.
    fn run(&self, opts: &RunOptions<'_>) -> SimResult<(u64, Ran)> {
        match self {
            Sim::Btrfs(cfg) => {
                run_experiment_with(cfg, opts).map(|r| (r.workload_ops, Ran::Btrfs(r)))
            }
            Sim::Rsync(cfg, duet) => {
                run_rsync_experiment_with(cfg, *duet, opts).map(|r| (r.workload_ops, Ran::Rsync(r)))
            }
            Sim::Gc(cfg) => run_gc_experiment_with(cfg, opts).map(|r| (r.workload_ops, Ran::Gc(r))),
            &Sim::MaxUtil {
                scale,
                personality,
                dist,
                overlap,
                task,
                duet,
                fragmentation,
            } => {
                // The completion probe stops simulating the moment the
                // last task finishes: `all_completed()` is exactly the
                // full run's, for a fraction of the wall time.
                let probe = RunOptions {
                    stop_when_tasks_done: true,
                    ..*opts
                };
                let mut ops = 0;
                let max = max_utilization(|util| {
                    let mut cfg =
                        paper_scaled(scale, personality, dist, overlap, util, vec![task], duet);
                    cfg.fragmentation = fragmentation;
                    let r = run_experiment_with(&cfg, &probe)?;
                    ops += r.workload_ops;
                    Ok(r.all_completed())
                })?;
                Ok((ops, Ran::MaxUtil(max)))
            }
        }
    }
}

/// One distinct simulation after it ran.
#[derive(Debug)]
struct Run {
    ran: SimResult<Ran>,
    ops: u64,
    /// Its trace counters (empty unless the batch was traced).
    counters: Vec<(String, u64)>,
    ns: u128,
}

/// The cells of some readers, each distinct simulation run once.
#[derive(Debug)]
pub struct Batch {
    /// Per reader, per cell in its order: the report it credits and the
    /// index of its run.
    readers: Vec<Vec<(&'static str, usize)>>,
    runs: Vec<Run>,
    traced: bool,
}

impl Batch {
    /// Runs the cells of `readers` on up to `jobs` workers, each equal
    /// [`Sim`] once, every run profiled and, when `traced`, armed with
    /// its own trace handle.
    pub fn run(readers: Vec<Vec<Cell>>, jobs: usize, traced: bool) -> Batch {
        Batch::run_by(readers, jobs, traced, Sim::eq)
    }

    /// [`Batch::run`] with `same` deciding which simulations are one
    /// run: the tests hand it a wrong one to show that sharing is
    /// checked.
    pub fn run_by(
        readers: Vec<Vec<Cell>>,
        jobs: usize,
        traced: bool,
        same: impl Fn(&Sim, &Sim) -> bool,
    ) -> Batch {
        let mut sims: Vec<Sim> = Vec::new();
        let readers = readers
            .into_iter()
            .map(|cells| {
                cells
                    .into_iter()
                    .map(|Cell { report, sim }| {
                        let i = sims.iter().position(|s| same(s, &sim));
                        let i = i.unwrap_or_else(|| {
                            sims.push(sim);
                            sims.len() - 1
                        });
                        (report, i)
                    })
                    .collect()
            })
            .collect();
        let Ok(runs) = pool::try_run_indexed(sims.len(), jobs, |i| {
            let sw = Stopwatch::start();
            // Handles are `Rc`-based and deliberately not `Send`: each is
            // built on the worker that runs the cell, and only its
            // counters (plain data) travel back.
            let handle = traced.then(TraceHandle::with_default_capacity);
            let opts = RunOptions {
                trace: handle.as_ref(),
                // The §6.1.2 profiled throttle: one memoized calibration
                // pass per workload shape, not one per cell.
                profiled: true,
                stop_when_tasks_done: false,
            };
            let (ops, ran) = match sims[i].run(&opts) {
                Ok((ops, ran)) => (ops, Ok(ran)),
                Err(e) => (0, Err(e)),
            };
            let counters = handle.map(|h| h.counters()).unwrap_or_default();
            Ok::<_, Infallible>(Run {
                ran,
                ops,
                counters,
                ns: sw.elapsed_ns(),
            })
        });
        Batch {
            readers,
            runs,
            traced,
        }
    }

    /// Cells the readers asked for.
    pub fn cells(&self) -> usize {
        self.readers.iter().map(Vec::len).sum()
    }

    /// Distinct simulations run.
    pub fn runs(&self) -> usize {
        self.runs.len()
    }

    fn runs_of(&self, reader: usize) -> impl Iterator<Item = (&'static str, &Run)> {
        self.readers[reader]
            .iter()
            .map(|&(report, i)| (report, &self.runs[i]))
    }

    /// `reader`'s results in its cell order, or the first failure among
    /// them in that order.
    pub fn results(&self, reader: usize) -> SimResult<Vec<&Ran>> {
        self.runs_of(reader)
            .map(|(_, run)| run.ran.as_ref().map_err(SimError::clone))
            .collect()
    }

    /// Simulated ops of `reader`'s cells, a shared run counted for each.
    pub fn ops(&self, reader: usize) -> u64 {
        self.runs_of(reader).map(|(_, run)| run.ops).sum()
    }

    /// Wall milliseconds of `reader`'s cells, a shared run counted in
    /// full for each.
    pub fn wall_ms(&self, reader: usize) -> f64 {
        self.runs_of(reader).map(|(_, run)| run.ns).sum::<u128>() as f64 / 1e6
    }

    /// `reader`'s trace counters per report; empty unless traced.
    pub fn traces(&self, reader: usize) -> BTreeMap<&'static str, TraceAgg> {
        let mut out = BTreeMap::<_, TraceAgg>::new();
        for (report, run) in self.runs_of(reader).filter(|_| self.traced) {
            out.entry(report).or_default().merge(&run.counters);
        }
        out
    }
}

/// [`paper_scaled`] under the uniform webserver, the workload of most
/// cells.
pub fn webserver(
    scale: u64,
    overlap: f64,
    util: f64,
    tasks: &[TaskKind],
    duet: bool,
) -> ExperimentConfig {
    paper_scaled(
        scale,
        Personality::WebServer,
        DistKind::Uniform,
        overlap,
        util,
        tasks.to_vec(),
        duet,
    )
}

/// Utilization grid of the paper's figures: 0–100 % in 10 % steps.
pub fn util_grid() -> Vec<f64> {
    (0..=10).map(|i| i as f64 / 10.0).collect()
}

/// The columns of Figures 2/3/5/7: Duet at each overlap.
pub const SAVED: [(f64, bool); 4] = [(0.25, true), (0.5, true), (0.75, true), (1.0, true)];

/// The columns of Figures 6/8: baseline and Duet at 100 % overlap.
pub const COMPLETED: [(f64, bool); 2] = [(1.0, false), (1.0, true)];

/// The `utilization × column` grid of Figures 2/3/5/6/7/8: `tasks` under
/// the uniform webserver on the HDD at each `(overlap, duet)` column,
/// row-major.
pub fn grid(
    report: &'static str,
    scale: u64,
    utils: &[f64],
    columns: &[(f64, bool)],
    tasks: &[TaskKind],
    fragmentation: Option<(f64, u64)>,
) -> Vec<Cell> {
    utils
        .iter()
        .flat_map(move |&util| {
            columns.iter().map(move |&(overlap, duet)| {
                let mut cfg = webserver(scale, overlap, util, tasks, duet);
                cfg.fragmentation = fragmentation;
                Cell::btrfs(report, cfg)
            })
        })
        .collect()
}

/// The report of a grid over [`util_grid`]: one row per utilization,
/// `metric` of each of its cells under `columns`.
pub fn util_report(
    name: &'static str,
    columns: &[&str],
    results: &[&Ran],
    metric: fn(&ExperimentResult) -> f64,
    sink: &mut Sink,
) -> BenchResult<Report> {
    let mut report = Report::new(name, &[&["utilization"], columns].concat());
    report.print_header(sink);
    let values = each(results, metric)?;
    for (util, vals) in util_grid().iter().zip(values.chunks(columns.len())) {
        let mut row = vec![f2(*util)];
        row.extend(vals.iter().map(|&v| f2(v)));
        report.row(sink, &row);
    }
    Ok(report)
}

/// The report of a [`SAVED`] grid: the I/O saved per utilization and
/// overlap.
pub fn saved_report(name: &'static str, results: &[&Ran], sink: &mut Sink) -> BenchResult<Report> {
    let columns = SAVED.map(|(overlap, _)| format!("saved_overlap_{:.0}%", overlap * 100.0));
    let columns = columns.each_ref().map(String::as_str);
    util_report(name, &columns, results, ExperimentResult::io_saved, sink)
}

/// The report of a [`COMPLETED`] grid: the work completed per
/// utilization, baseline and Duet.
pub fn completed_report(
    name: &'static str,
    results: &[&Ran],
    sink: &mut Sink,
) -> BenchResult<Report> {
    let columns = ["baseline_completed", "duet_completed"];
    util_report(
        name,
        &columns,
        results,
        ExperimentResult::work_completed,
        sink,
    )
}

/// One committed sweep-grid fixture: its file name and the function
/// producing its bytes on `jobs` workers.
pub type GridFixture = (&'static str, fn(jobs: usize) -> SimResult<String>);

/// Every committed fixture under `crates/bench/tests/fixtures/`.
/// `bench golden` writes them from one worker; the tests demand the
/// same bytes from one and from four.
pub const GOLDEN_GRIDS: [GridFixture; 2] = [
    ("golden_saved_grid.txt", |jobs| {
        let columns = [(0.5, true), (1.0, true)];
        let cells = grid(
            "golden",
            512,
            &[0.2, 0.6],
            &columns,
            &[TaskKind::Scrub],
            None,
        );
        let batch = Batch::run(vec![cells], jobs, false);
        let saved = each(&batch.results(0)?, ExperimentResult::io_saved)?;
        Ok(grid_lines(&saved, columns.len()))
    }),
    ("golden_completed_grid.txt", |jobs| {
        let tasks = [TaskKind::Scrub, TaskKind::Backup];
        let cells = grid("golden", 512, &[0.0, 0.3, 0.6], &COMPLETED, &tasks, None);
        let batch = Batch::run(vec![cells], jobs, false);
        let completed = each(&batch.results(0)?, ExperimentResult::work_completed)?;
        Ok(grid_lines(&completed, COMPLETED.len()))
    }),
];

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
