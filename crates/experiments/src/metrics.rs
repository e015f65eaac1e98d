//! Experiment results and the paper's evaluation metrics (Table 4).

use crate::config::ExperimentConfig;
use crate::runner::{run_until, RunOptions};
use duet_tasks::TaskMetrics;
use sim_core::{SimDuration, SimError, SimInstant, SimResult};
use workloads::WorkloadConfig;

/// Outcome of one maintenance task in a run.
#[derive(Debug, Clone)]
pub struct TaskOutcome {
    /// Task display name (e.g. `"scrub(duet)"`).
    pub name: String,
    /// Work/I-O counters.
    pub metrics: TaskMetrics,
    /// Whether the task finished within the window.
    pub completed: bool,
    /// Virtual time of completion, if it completed.
    pub completion_time: Option<SimDuration>,
}

/// Result of one experiment run.
#[derive(Debug, Clone)]
pub struct ExperimentResult {
    /// Configured window length.
    pub duration: SimDuration,
    /// Foreground device utilization actually achieved (the `%util` of
    /// §6.1.2, measured over the whole window).
    pub achieved_util: f64,
    /// Per-task outcomes.
    pub tasks: Vec<TaskOutcome>,
    /// Workload operations executed (0 without a workload).
    pub workload_ops: u64,
    /// Maintenance blocks read + written at the device.
    pub maintenance_blocks: u64,
    /// Device busy time consumed by maintenance I/O.
    pub maintenance_busy: sim_core::SimDuration,
    /// Foreground blocks read + written at the device.
    pub foreground_blocks: u64,
    /// Mean foreground operation latency in milliseconds (issue to
    /// completion), with its 95 % confidence half-width — §6.1.3's
    /// workload-latency measurement. Zero without a workload.
    pub workload_latency_ms: (f64, f64),
    /// Duet bookkeeping statistics, if Duet mode ran.
    pub duet_stats: Option<duet::DuetStats>,
    /// Peak Duet memory in bytes (descriptors + bitmaps), if Duet ran.
    pub duet_peak_memory: u64,
}

impl ExperimentResult {
    /// Table 4's **I/O saved**: maintenance I/O avoided, relative to
    /// the I/O the baseline tasks would have performed, aggregated over
    /// all tasks in the run.
    pub fn io_saved(&self) -> f64 {
        let total: u64 = self.tasks.iter().map(|t| t.metrics.total_units).sum();
        let saved: u64 = self.tasks.iter().map(|t| t.metrics.saved_units).sum();
        if total == 0 {
            0.0
        } else {
            saved as f64 / total as f64
        }
    }

    /// Fraction of maintenance work completed, aggregated over tasks
    /// (Figures 6 and 8).
    pub fn work_completed(&self) -> f64 {
        let total: u64 = self.tasks.iter().map(|t| t.metrics.total_units).sum();
        let done: u64 = self.tasks.iter().map(|t| t.metrics.done_units).sum();
        if total == 0 {
            1.0
        } else {
            (done as f64 / total as f64).min(1.0)
        }
    }

    /// Whether every task completed within the window (the Table 5
    /// criterion).
    pub fn all_completed(&self) -> bool {
        self.tasks.iter().all(|t| t.completed)
    }

    /// Completion time of the slowest task, if all completed.
    pub fn makespan(&self) -> Option<SimDuration> {
        self.tasks
            .iter()
            .map(|t| t.completion_time)
            .collect::<Option<Vec<_>>>()
            .map(|v| v.into_iter().max().unwrap_or(SimDuration::ZERO))
    }
}

/// Finds the **maximum utilization** (Table 4) of `cfg` under `opts`:
/// the highest target utilization, stepped in 10 % intervals, at which
/// every task in `cfg` completes within the window (`None` if even an
/// idle device fails), and the simulated workload ops its probes ran.
///
/// Each probe is `cfg` with its workload's `target_util` set to the
/// step, and without a workload at 0 % (as [`crate::paper_scaled`]
/// builds it); `cfg`'s own target is unread. A probe stops simulating
/// the moment its last task completes: its completion bit is exactly
/// the full run's. A `cfg` without a workload has no utilization to
/// vary and is `InvalidArgument`; a probe error aborts the search and
/// propagates, so a failed cell surfaces instead of silently
/// truncating the table.
pub fn max_utilization(
    cfg: &ExperimentConfig,
    opts: &RunOptions<'_>,
) -> SimResult<(Option<f64>, u64)> {
    let Some(workload) = cfg.workload else {
        return Err(SimError::InvalidArgument(
            "max_utilization needs a workload whose utilization it can vary".into(),
        ));
    };
    let mut ops = 0;
    let max = bisect(|util| {
        let probe = ExperimentConfig {
            workload: (util > 0.0).then_some(WorkloadConfig {
                target_util: util,
                ..workload
            }),
            ..cfg.clone()
        };
        let r = run_until(&probe, opts, true)?;
        ops += r.workload_ops;
        Ok(r.all_completed())
    })?;
    Ok((max, ops))
}

/// The highest of the 11 steps 0.0, 0.1, …, 1.0 at which `run` answers
/// `true`, or `Ok(None)` if it answers `false` at 0.0; a `run` error
/// aborts the search and propagates.
///
/// # Contract: the predicate must be monotone
///
/// The search requires `run` to be **monotone** in the utilization:
/// once maintenance fails to complete at some target, it must also
/// fail at every higher target (more foreground load never creates
/// idle time). Under that contract the bisection below probes
/// O(log n) of the 11 steps and returns exactly what a full linear
/// scan would. For a *non-monotone* predicate the result is still
/// deterministic — the probe sequence is fixed, and the returned step
/// answered `true` while its bisection successor answered `false` —
/// but it is one of possibly several such steps, not a guaranteed
/// global maximum. (The previous linear scan was worse: it silently
/// returned a stale low `best`, never probing past the first failure
/// — "completes at 0.3, fails at 0.4, completes at 0.5" reported
/// 0.3. See the `non_monotone_predicate_is_pinned` test for the
/// behaviour this version pins.)
fn bisect<F>(mut run: F) -> SimResult<Option<f64>>
where
    F: FnMut(f64) -> SimResult<bool>,
{
    // Bisection over steps 0..=10. Invariant: every probed step
    // <= `lo` completed (`lo == -1`: none yet), every probed step
    // >= `hi` failed (`hi == 11`: none yet).
    let mut lo: i32 = -1;
    let mut hi: i32 = 11;
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        if run(mid as f64 / 10.0)? {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    Ok((lo >= 0).then(|| lo as f64 / 10.0))
}

/// The **speedup** metric (Table 4): baseline time over Duet time.
pub fn speedup(baseline: SimDuration, duet: SimDuration) -> f64 {
    if duet.is_zero() {
        return f64::INFINITY;
    }
    baseline.as_secs_f64() / duet.as_secs_f64()
}

/// Helper: duration from the epoch to `t`.
pub fn since_epoch(t: SimInstant) -> SimDuration {
    t.saturating_duration_since(SimInstant::EPOCH)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome(total: u64, done: u64, saved: u64, completed: bool) -> TaskOutcome {
        TaskOutcome {
            name: "t".into(),
            metrics: TaskMetrics {
                total_units: total,
                done_units: done,
                saved_units: saved,
                blocks_read: 0,
                blocks_written: 0,
            },
            completed,
            completion_time: completed.then(|| SimDuration::from_secs(10)),
        }
    }

    fn result(tasks: Vec<TaskOutcome>) -> ExperimentResult {
        ExperimentResult {
            duration: SimDuration::from_mins(5),
            achieved_util: 0.5,
            tasks,
            workload_ops: 0,
            maintenance_blocks: 0,
            maintenance_busy: sim_core::SimDuration::ZERO,
            foreground_blocks: 0,
            workload_latency_ms: (0.0, 0.0),
            duet_stats: None,
            duet_peak_memory: 0,
        }
    }

    #[test]
    fn aggregate_metrics() {
        let r = result(vec![
            outcome(100, 100, 30, true),
            outcome(100, 50, 10, false),
        ]);
        assert!((r.io_saved() - 0.2).abs() < 1e-12);
        assert!((r.work_completed() - 0.75).abs() < 1e-12);
        assert!(!r.all_completed());
        assert_eq!(r.makespan(), None);
        let done = result(vec![outcome(10, 10, 0, true)]);
        assert!(done.all_completed());
        assert_eq!(done.makespan(), Some(SimDuration::from_secs(10)));
    }

    #[test]
    fn empty_run_is_trivially_complete() {
        let r = result(vec![]);
        assert_eq!(r.io_saved(), 0.0);
        assert_eq!(r.work_completed(), 1.0);
        assert!(r.all_completed());
    }

    #[test]
    fn bisection_search() {
        // Completes up to 70 %.
        let got = bisect(|u| Ok(u <= 0.7 + 1e-9));
        assert_eq!(got, Ok(Some(0.7)));
        // Never completes.
        assert_eq!(bisect(|_| Ok(false)), Ok(None));
        // Always completes.
        assert_eq!(bisect(|_| Ok(true)), Ok(Some(1.0)));
        // Errors propagate instead of truncating the search.
        let err = bisect(|u| {
            if u > 0.2 {
                Err(sim_core::SimError::Unsupported("boom"))
            } else {
                Ok(true)
            }
        });
        assert!(err.is_err());
    }

    /// The bisection matches a full linear scan on every monotone
    /// predicate, while probing O(log n) of the 11 steps.
    #[test]
    fn bisection_matches_linear_scan_on_all_monotone_predicates() {
        // Thresholds from "fails even idle" (-1) to "always completes".
        for threshold in -1..=10i32 {
            let mut probes = 0u32;
            let got = bisect(|u| {
                probes += 1;
                Ok(u <= threshold as f64 / 10.0 + 1e-9)
            })
            .unwrap();
            let want = (threshold >= 0).then(|| threshold as f64 / 10.0);
            assert_eq!(got, want, "threshold step {threshold}");
            assert!(probes <= 4, "threshold step {threshold}: {probes} probes");
        }
    }

    /// Pin: non-monotone predicates violate the documented contract,
    /// but the result stays deterministic. "Completes at ≤ 0.3, fails
    /// at 0.4, completes again at exactly 0.5": the old linear scan
    /// stopped at the 0.4 failure and reported a stale 0.3; the
    /// bisection's fixed probe sequence (0.5 → 0.8 → 0.6) lands on
    /// 0.5. Neither is a "right" answer — the contract requires
    /// monotonicity — this pins the behaviour so a future search
    /// change shows up as a diff here, not as silent label drift.
    #[test]
    fn non_monotone_predicate_is_pinned() {
        let mut probed = Vec::new();
        let got = bisect(|u| {
            probed.push((u * 10.0).round() as i32);
            Ok(u <= 0.3 + 1e-9 || (u - 0.5).abs() < 1e-9)
        })
        .unwrap();
        assert_eq!(got, Some(0.5));
        assert_eq!(probed, vec![5, 8, 6]);
    }

    #[test]
    fn speedup_ratio() {
        let s = speedup(SimDuration::from_secs(20), SimDuration::from_secs(10));
        assert!((s - 2.0).abs() < 1e-12);
        assert!(speedup(SimDuration::from_secs(1), SimDuration::ZERO).is_infinite());
    }
}
