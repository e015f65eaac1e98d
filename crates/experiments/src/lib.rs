//! The evaluation harness: wires the simulated storage stack, the Duet
//! framework, the maintenance tasks and the foreground workload into
//! complete experiment runs, and computes the paper's metrics.
//!
//! - [`config`]: what to run (device, file set, workload, tasks,
//!   scheduling policy, window);
//! - [`runner`]: the virtual-time execution loops —
//!   [`runner::run_experiment`] for the Btrfs tasks (Figures 2, 3, 5–8,
//!   10 and Table 5), [`runner::run_rsync_experiment`] for Figure 4,
//!   [`runner::run_gc_experiment`] for Table 6 — each with a `_with`
//!   form taking [`runner::RunOptions`] (trace, profiled throttle);
//! - [`metrics`]: the Table 4 metrics — *I/O saved*, *maximum
//!   utilization* ([`metrics::max_utilization`], Table 5's bisection
//!   of early-stopping completion probes) and *speedup*;
//! - [`presets`]: scaled-down versions of the paper's 50 GB / 300 GB /
//!   2 GB / 30-minute setup that keep its ratios;
//! - [`snapshot`]: [`snapshot::prepare`], the one builder of a Btrfs
//!   stack from an [`ExperimentConfig`] (every experiment, rsync's
//!   source and the calibration pass), and [`snapshot::obtain`], its
//!   per-thread memo keyed by the config;
//! - [`profile`]: the §6.1.2 unthrottled profiling pass and its
//!   per-thread memo, keyed by the calibration run's config, which
//!   seeds the workload throttle of every `profiled` run once per
//!   workload shape and worker instead of re-calibrating in every cell.

pub mod config;
pub mod golden;
pub mod metrics;
pub mod oracle;
pub mod presets;
pub mod profile;
pub mod runner;
pub mod snapshot;

pub use config::{DeviceKind, ExperimentConfig, TaskKind};
pub use metrics::{max_utilization, speedup, ExperimentResult, TaskOutcome};
pub use oracle::{
    check_pair, check_pair_with, exercise_error_vocabulary, localize_pair, Divergence,
    OracleReport, OracleTask,
};
pub use presets::paper_scaled;
pub use runner::{
    run_experiment,
    run_experiment_with,
    run_gc_experiment,
    run_gc_experiment_with,
    run_rsync_experiment,
    run_rsync_experiment_with,
    GcExperimentConfig,
    GcResult,
    RsyncResult,
    RunOptions, //
};
pub use snapshot::PreparedStack;

#[cfg(test)]
mod runner_tests;
