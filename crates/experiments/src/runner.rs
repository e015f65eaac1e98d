//! The experiment runner: interleaves the foreground workload with
//! maintenance task steps in virtual time.
//!
//! The runner reproduces the paper's execution regime (§6.1.3): the
//! workload issues foreground operations on its throttle schedule, and
//! maintenance tasks run "at Idle priority... serviced only after the
//! device has remained idle for some time" — i.e. a task step is
//! dispatched only when the scheduling policy allows it, in the gaps
//! the workload leaves. Rsync is the exception (§6.2): it runs at
//! normal priority, head-to-head with an unthrottled workload.

use crate::config::{DeviceKind, ExperimentConfig, TaskKind};
use crate::metrics::{since_epoch, ExperimentResult, TaskOutcome};
use duet::Duet;
use duet_tasks::{
    pump_btrfs,
    pump_f2fs,
    Backup,
    BtrfsCtx,
    BtrfsTask,
    Defrag,
    GarbageCollector,
    GcCtx,
    Rsync,
    RsyncCtx,
    Scrubber,
    TaskMode, //
};
use sim_btrfs::BtrfsSim;
use sim_core::trace::TraceHandle;
use sim_core::{SimDuration, SimError, SimInstant, SimResult};
use sim_disk::{Disk, HddModel, IoClass, SchedulerPolicy, SsdModel};
use sim_f2fs::{F2fsSim, VictimPolicy};
use workloads::{Workload, WorkloadConfig, WorkloadFs};

/// Dirty pages beyond this fraction of the cache force writeback.
pub(crate) const WB_HIGH_FRACTION: usize = 8; // 1/8 of the cache
/// Background flusher period.
const WB_PERIOD: SimDuration = SimDuration::from_secs(1);
/// Pages per writeback batch.
pub(crate) const WB_BATCH: usize = 1024;

/// A workload's target utilization is a share of the device's time, so
/// it lies in (0, 1]; NaN, zero, a negative or a number past one would
/// run a throttle that means nothing. Checked at the run entry points,
/// not in [`Workload::setup`]: the set-up prefix builds with a target
/// of 0 and the fork sets the real one.
fn check_target_util(workload: Option<&WorkloadConfig>) -> SimResult<()> {
    match workload.map(|w| w.target_util) {
        Some(u) if !(u > 0.0 && u <= 1.0) => Err(SimError::InvalidArgument(format!(
            "target_util {u} is not in (0, 1]"
        ))),
        _ => Ok(()),
    }
}

pub(crate) fn build_disk(kind: DeviceKind, capacity: u64) -> Disk {
    match kind {
        DeviceKind::Hdd => Disk::new(Box::new(HddModel::sas_10k(capacity))),
        DeviceKind::Ssd => Disk::new(Box::new(SsdModel::intel_510(capacity))),
    }
}

fn build_task(kind: TaskKind, mode: TaskMode, cfg: &ExperimentConfig) -> Box<dyn BtrfsTask> {
    match kind {
        TaskKind::Scrub => Box::new(Scrubber::new(mode)),
        TaskKind::Backup => Box::new(Backup::new(mode)),
        TaskKind::Defrag => {
            // On an aged (scattered) filesystem every file carries a few
            // extents from relocation; "fragmented" means worse than
            // that baseline, so only the explicitly fragmented files
            // (the paper's 10 %) count as defragmentation work.
            let threshold = if cfg.scatter_layout { 4 } else { 1 };
            let mut d = Defrag::new(mode).with_threshold(threshold);
            if cfg.defrag_file_granularity {
                d = d.with_file_granularity();
            }
            Box::new(d)
        }
    }
}

/// Whether the background flusher is due at `now`: dirty pages past the
/// high-water mark, or a flusher period elapsed with anything dirty.
/// The one piece the three virtual-time loops share.
fn writeback_due(
    dirty: usize,
    cache_capacity: usize,
    now: SimInstant,
    last_wb: SimInstant,
) -> bool {
    dirty > cache_capacity / WB_HIGH_FRACTION
        || (now.saturating_duration_since(last_wb) >= WB_PERIOD && dirty > 0)
}

/// Flushes dirty pages when due; returns the updated last-writeback
/// time.
fn maybe_writeback(
    fs: &mut BtrfsSim,
    duet: &mut Duet,
    now: SimInstant,
    last_wb: SimInstant,
) -> SimResult<SimInstant> {
    if writeback_due(fs.dirty_pages(), fs.cache().capacity(), now, last_wb) {
        fs.background_writeback(WB_BATCH, IoClass::Normal, now)?;
        pump_btrfs(fs, duet);
        Ok(now)
    } else {
        Ok(last_wb)
    }
}

/// How a run is driven: the switches that are independent of *what* is
/// simulated. `RunOptions::default()` is the plain run — untraced,
/// throttle bootstrapped from the first operation — which is what
/// [`run_experiment`], [`run_rsync_experiment`] and
/// [`run_gc_experiment`] pass, so every result, traced or not, comes
/// out of the same loop as the plain one.
#[derive(Debug, Clone, Copy, Default)]
pub struct RunOptions<'a> {
    /// Arms structured tracing on the whole stack (disk, cache,
    /// filesystem, Duet, tasks) for the measurement window. The caller
    /// owns the handle: read [`TraceHandle::counters`] or dump JSONL
    /// after the run. Results are byte-identical with and
    /// without it — tracing never touches simulated state.
    pub trace: Option<&'a TraceHandle>,
    /// §6.1.2 profile-then-throttle: seed the workload throttle's
    /// busy-per-op estimate from the memoized calibration pass
    /// ([`crate::profile`]) instead of bootstrapping it from the first
    /// operation. The calibration pass itself is never traced. Read by
    /// [`run_experiment_with`] and [`crate::max_utilization`] only:
    /// rsync is unthrottled and the calibration models Btrfs.
    pub profiled: bool,
}

/// Runs one Btrfs-model experiment to completion of the window (or of
/// all maintenance work, when there is no foreground workload).
pub fn run_experiment(cfg: &ExperimentConfig) -> SimResult<ExperimentResult> {
    run_experiment_with(cfg, &RunOptions::default())
}

/// [`run_experiment`] under `opts`. Rejects a configuration that sets
/// `informed_replacement`, which no run implements, or a workload
/// target outside (0, 1].
pub fn run_experiment_with(
    cfg: &ExperimentConfig,
    opts: &RunOptions<'_>,
) -> SimResult<ExperimentResult> {
    run_until(cfg, opts, false)
}

/// [`run_experiment_with`], ended early when `stop_when_done`
/// (see [`run_prepared`]).
pub(crate) fn run_until(
    cfg: &ExperimentConfig,
    opts: &RunOptions<'_>,
    stop_when_done: bool,
) -> SimResult<ExperimentResult> {
    if cfg.informed_replacement {
        return Err(SimError::InvalidArgument(
            "ExperimentConfig::informed_replacement = true: informed cache replacement was removed"
                .into(),
        ));
    }
    check_target_util(cfg.workload.as_ref())?;
    let profiled_busy_per_op = if opts.profiled {
        crate::profile::profile(cfg)?
    } else {
        None
    };
    // Setup prefix (population, layout aging, event drain, metric
    // reset): forked from a warm per-thread snapshot when an identical
    // prefix was already built, rebuilt from scratch otherwise — the
    // two are byte-identical (see [`crate::snapshot`]).
    let stack = crate::snapshot::obtain(cfg)?;
    run_prepared(cfg, opts, profiled_busy_per_op, stack, stop_when_done)
}

/// The run proper, on a prepared stack. The entry point hands it a
/// fork from the snapshot store; a test also hands it the stack
/// [`crate::snapshot::prepare`] just built, to hold the two together.
///
/// `stop_when_done` ends the loop the moment the last maintenance
/// task completes (or at the window end, whichever is first): the
/// completion probe of [`crate::max_utilization`]. Up to that instant
/// the simulation is step-for-step the full run, and completion times
/// are decided by then, so `all_completed()` is exactly the full run's;
/// every other metric covers a truncated window.
pub(crate) fn run_prepared(
    cfg: &ExperimentConfig,
    opts: &RunOptions<'_>,
    profiled_busy_per_op: Option<f64>,
    stack: crate::snapshot::PreparedStack,
    stop_when_done: bool,
) -> SimResult<ExperimentResult> {
    let trace = opts.trace;
    let crate::snapshot::PreparedStack {
        mut fs,
        mut duet,
        mut workload,
    } = stack;
    // The profiled throttle seed is no part of the prefix: nothing in
    // setup reads the estimate it writes.
    if let (Some(w), Some(ns)) = (workload.as_mut(), profiled_busy_per_op) {
        w.seed_busy_per_op(ns);
    }
    // Arm tracing only now: population and aging are setup, not the
    // measured window (mirroring the metric reset in the prefix).
    if trace.is_some() {
        fs.set_trace(trace.cloned());
        duet.set_trace(trace.cloned());
    }

    // Task setup (Duet registration scans run here).
    let mode = if cfg.duet {
        TaskMode::Duet
    } else {
        TaskMode::Baseline
    };
    let mut tasks: Vec<Box<dyn BtrfsTask>> = cfg
        .tasks
        .iter()
        .map(|&k| build_task(k, mode, cfg))
        .collect();
    for t in tasks.iter_mut() {
        t.start(BtrfsCtx {
            fs: &mut fs,
            duet: &mut duet,
            now: SimInstant::EPOCH,
        })?;
        pump_btrfs(&mut fs, &mut duet);
    }

    // Main loop.
    let end = cfg.end();
    let mut now = SimInstant::EPOCH;
    let mut last_wb = now;
    let mut last_poll = now;
    let mut completion: Vec<Option<SimInstant>> = vec![None; tasks.len()];
    let mut rr = 0usize; // Round-robin cursor over incomplete tasks.
    let mut peak_memory = 0u64;
    let mut iter = 0u64;
    while now < end {
        iter += 1;
        if iter.is_multiple_of(256) && cfg.duet {
            peak_memory = peak_memory.max(duet.memory_bytes());
        }
        last_wb = maybe_writeback(&mut fs, &mut duet, now, last_wb)?;
        // Periodic hint polling (CPU-only, independent of disk state);
        // the paper's tasks fetch every 10–40 ms (§6.4).
        if now.saturating_duration_since(last_poll) >= cfg.poll_period {
            for (i, t) in tasks.iter_mut().enumerate() {
                if completion[i].is_none() {
                    t.poll(BtrfsCtx {
                        fs: &mut fs,
                        duet: &mut duet,
                        now,
                    })?;
                }
            }
            last_poll = now;
        }
        // Foreground operation due?
        let next_wl = workload.as_ref().map(|w| w.next_op_time());
        if next_wl.is_some_and(|t| t <= now) {
            if let Some(w) = workload.as_mut() {
                w.run_op(&mut fs, now)?;
                pump_btrfs(&mut fs, &mut duet);
            }
            continue;
        }
        // Maintenance dispatch in the idle gap. Incomplete tasks are
        // counted (and the round-robin pick indexed) in place — this
        // runs every non-workload iteration, so no per-iteration
        // allocation.
        let n_incomplete = completion.iter().filter(|c| c.is_none()).count();
        let device_free = fs.disk().busy_until();
        if n_incomplete > 0
            && fs.disk().is_idle_at(now)
            && cfg
                .policy
                .may_dispatch_maintenance(now, device_free, next_wl)
        {
            let mut nth = rr % n_incomplete;
            let mut i = 0;
            for (t, c) in completion.iter().enumerate() {
                if c.is_none() {
                    i = t;
                    if nth == 0 {
                        break;
                    }
                    nth -= 1;
                }
            }
            rr += 1;
            let r = tasks[i].step(BtrfsCtx {
                fs: &mut fs,
                duet: &mut duet,
                now,
            })?;
            pump_btrfs(&mut fs, &mut duet);
            if r.complete {
                completion[i] = Some(r.finish);
                // Work done: release the Duet session (§3.2), so the
                // framework stops tracking events for this task.
                tasks[i].stop(BtrfsCtx {
                    fs: &mut fs,
                    duet: &mut duet,
                    now,
                })?;
                // Completion probes have their answer the moment the
                // last task finishes; the rest of the window cannot
                // change it.
                if stop_when_done && completion.iter().all(Option::is_some) {
                    break;
                }
            }
            continue;
        }
        // Nothing runnable at `now`: advance virtual time.
        if n_incomplete == 0 && next_wl.is_none() {
            break; // All work done, no workload: the run is over.
        }
        let mut next = end;
        if let Some(t) = next_wl {
            next = next.min(t);
        }
        if n_incomplete > 0 {
            let dispatch_at = cfg
                .policy
                .earliest_maintenance_dispatch(now, device_free)
                .max(device_free);
            next = next.min(dispatch_at);
            // Wake for the next hint poll even while I/O is blocked.
            next = next.min(last_poll + cfg.poll_period);
        }
        // Guarantee progress.
        now = next.max(now + SimDuration::from_nanos(1));
    }
    if cfg.duet {
        peak_memory = peak_memory.max(duet.memory_bytes());
    }
    // Final bookkeeping drain: opportunistic work completed by the last
    // burst of foreground activity must show up in the metrics.
    for t in tasks.iter_mut() {
        t.finalize(BtrfsCtx {
            fs: &mut fs,
            duet: &mut duet,
            now,
        })?;
    }
    // fsck closes every run in builds with debug assertions (every
    // test); release runs skip its walk of the device.
    if cfg!(debug_assertions) {
        fs.check_consistency()?;
    }

    // Collect outcomes.
    let outcomes: Vec<TaskOutcome> = tasks
        .iter()
        .zip(&completion)
        .map(|(t, c)| TaskOutcome {
            name: t.name(),
            metrics: t.metrics(),
            completed: c.is_some(),
            completion_time: c.map(since_epoch),
        })
        .collect();
    let m = fs.disk().metrics();
    let lat = workload
        .as_ref()
        .map(|w| (w.latency_ms().mean(), w.latency_ms().ci95()))
        .unwrap_or((0.0, 0.0));
    Ok(ExperimentResult {
        duration: cfg.duration,
        achieved_util: fs.disk().foreground_utilization(cfg.duration),
        tasks: outcomes,
        workload_ops: workload.as_ref().map(|w| w.stats().ops).unwrap_or(0),
        maintenance_blocks: m.idle.blocks(),
        maintenance_busy: m.idle.busy_time,
        foreground_blocks: m.normal.blocks(),
        workload_latency_ms: lat,
        duet_stats: cfg.duet.then(|| duet.stats()),
        duet_peak_memory: peak_memory,
    })
}

/// Result of an rsync run (Figure 4).
#[derive(Debug, Clone)]
pub struct RsyncResult {
    /// Time to synchronize everything.
    pub completion: SimDuration,
    /// Task counters.
    pub metrics: duet_tasks::TaskMetrics,
    /// Foreground operations executed during the transfer.
    pub workload_ops: u64,
    /// Foreground bytes read+written during the transfer (for the
    /// workload-impact measurement).
    pub workload_bytes: u64,
}

/// Runs rsync (normal I/O priority) against an unthrottled foreground
/// workload on the source device, as in §6.2: one workload operation
/// and one rsync chunk alternate until the transfer completes. The
/// source is `cfg`'s prepared stack; rsync runs with Duet when
/// `cfg.duet` is set.
pub fn run_rsync_experiment(cfg: &ExperimentConfig) -> SimResult<RsyncResult> {
    run_rsync_experiment_with(cfg, &RunOptions::default())
}

/// [`run_rsync_experiment`] under `opts`: tracing is armed on the source
/// stack and the Duet framework (the destination device is write-only
/// mirroring; tracing it would double-count every shipped block).
pub fn run_rsync_experiment_with(
    cfg: &ExperimentConfig,
    opts: &RunOptions<'_>,
) -> SimResult<RsyncResult> {
    check_target_util(cfg.workload.as_ref())?;
    let trace = opts.trace;
    let crate::snapshot::PreparedStack {
        fs: mut src,
        mut duet,
        mut workload,
    } = crate::snapshot::obtain(cfg)?;
    let dst_disk = build_disk(cfg.device, cfg.capacity_blocks);
    let mut dst = BtrfsSim::new(sim_core::DeviceId(1), dst_disk, cfg.cache_pages);
    if trace.is_some() {
        src.set_trace(trace.cloned());
        duet.set_trace(trace.cloned());
    }
    let mode = if cfg.duet {
        TaskMode::Duet
    } else {
        TaskMode::Baseline
    };
    let mut rsync = Rsync::new(mode, src.root());
    rsync.start(RsyncCtx {
        src: &mut src,
        dst: &mut dst,
        duet: &mut duet,
        now: SimInstant::EPOCH,
    })?;
    pump_btrfs(&mut src, &mut duet);

    let mut now = SimInstant::EPOCH;
    let mut last_wb = now;
    // Safety cap: a transfer still running here is reported as an
    // error, never as a completion time.
    let cap = cfg.duration * 20;
    let hard_end = SimInstant::EPOCH + cap;
    let completion = loop {
        last_wb = maybe_writeback(&mut src, &mut duet, now, last_wb)?;
        // One foreground op (unthrottled workloads go back to back).
        if let Some(w) = workload.as_mut() {
            let t = w.next_op_time().max(now);
            w.run_op(&mut src, t)?;
            pump_btrfs(&mut src, &mut duet);
        }
        // One rsync chunk, competing at normal priority.
        let r = rsync.step(RsyncCtx {
            src: &mut src,
            dst: &mut dst,
            duet: &mut duet,
            now,
        })?;
        pump_btrfs(&mut src, &mut duet);
        now = now
            .max(r.finish)
            .max(workload.as_ref().map(|w| w.next_op_time()).unwrap_or(now));
        if r.complete {
            break r.finish;
        }
        if now >= hard_end {
            return Err(SimError::InvalidArgument(format!(
                "rsync incomplete at the safety cap of 20 × duration ({cap}); \
                 a truncated transfer has no completion time"
            )));
        }
    };
    if cfg!(debug_assertions) {
        src.check_consistency()?;
        dst.check_consistency()?;
    }
    let wl_stats = workload.as_ref().map(|w| w.stats());
    Ok(RsyncResult {
        completion: since_epoch(completion),
        metrics: rsync.metrics(),
        workload_ops: wl_stats.map(|s| s.ops).unwrap_or(0),
        workload_bytes: wl_stats
            .map(|s| s.bytes_read + s.bytes_written)
            .unwrap_or(0),
    })
}

/// Configuration of an F2fs garbage-collection run (Table 6).
#[derive(Debug, Clone, PartialEq)]
pub struct GcExperimentConfig {
    /// Number of segments on the device.
    pub nsegs: u32,
    /// Blocks per segment.
    pub seg_blocks: u64,
    /// Page-cache pages.
    pub cache_pages: usize,
    /// File set (populated before the run).
    pub fileset: workloads::FileSetConfig,
    /// Foreground workload (the paper uses fileserver, §6.2).
    pub workload: workloads::WorkloadConfig,
    /// Duet-enabled cleaner?
    pub duet: bool,
    /// Victim-selection policy.
    pub victim_policy: VictimPolicy,
    /// Victim-selection window (the paper's 4096; smaller when scaled
    /// down).
    pub gc_window: u32,
    /// Minimum virtual time between cleaner invocations.
    pub gc_interval: SimDuration,
    /// Scheduling policy for cleaner I/O.
    pub policy: SchedulerPolicy,
    /// Window length.
    pub duration: SimDuration,
    /// RNG seed.
    pub seed: u64,
}

/// Result of a GC run.
#[derive(Debug, Clone)]
pub struct GcResult {
    /// Mean segment-cleaning time in milliseconds (Table 6's statistic).
    pub mean_cleaning_ms: f64,
    /// Mean foreground op latency in ms with its 95 % CI half-width —
    /// used by the §6.2 SSR-pressure measurement.
    pub workload_latency_ms: (f64, f64),
    /// Whether the filesystem ended the run in SSR mode (out of clean
    /// segments).
    pub ended_in_ssr: bool,
    /// Foreground operations executed.
    pub workload_ops: u64,
    /// Number of segments cleaned.
    pub cleanings: usize,
    /// Mean cached valid blocks per cleaned segment.
    pub mean_cached: f64,
    /// Mean valid blocks per cleaned segment.
    pub mean_valid: f64,
    /// Achieved foreground utilization.
    pub achieved_util: f64,
}

/// Runs the F2fs cleaner under a foreground workload (Table 6).
pub fn run_gc_experiment(cfg: &GcExperimentConfig) -> SimResult<GcResult> {
    run_gc_experiment_with(cfg, &RunOptions::default())
}

/// [`run_gc_experiment`] under `opts`: tracing is armed on the F2fs
/// stack and the Duet framework. A device that is empty or has
/// 2³² − 1 blocks or more (which [`F2fsSim::new`] refuses), or a
/// workload target outside (0, 1], is `InvalidArgument` before anything
/// is built.
pub fn run_gc_experiment_with(
    cfg: &GcExperimentConfig,
    opts: &RunOptions<'_>,
) -> SimResult<GcResult> {
    check_target_util(Some(&cfg.workload))?;
    let capacity = match u64::from(cfg.nsegs).checked_mul(cfg.seg_blocks) {
        Some(c) if c > 0 && c < u64::from(u32::MAX) => c,
        _ => {
            return Err(SimError::InvalidArgument(format!(
                "{} segments of {} blocks: an F2fs device holds 1 to {} blocks",
                cfg.nsegs,
                cfg.seg_blocks,
                u32::MAX - 1
            )))
        }
    };
    let trace = opts.trace;
    let disk = Disk::new(Box::new(HddModel::sas_10k(capacity)));
    let mut fs = F2fsSim::new(sim_core::DeviceId(1), disk, cfg.cache_pages, cfg.seg_blocks);
    let mut duet = Duet::with_defaults();
    let mut workload = Workload::setup(&mut fs, cfg.workload, cfg.fileset)?;
    fs.cache_mut().drain_events();
    fs.disk_mut().reset_metrics();
    if trace.is_some() {
        fs.set_trace(trace.cloned());
        duet.set_trace(trace.cloned());
    }
    let mode = if cfg.duet {
        TaskMode::Duet
    } else {
        TaskMode::Baseline
    };
    let mut gc = GarbageCollector::new(mode, cfg.victim_policy).with_window(cfg.gc_window);
    gc.start(GcCtx {
        fs: &mut fs,
        duet: &mut duet,
        now: SimInstant::EPOCH,
    })?;
    pump_f2fs(&mut fs, &mut duet);

    let end = SimInstant::EPOCH + cfg.duration;
    let mut now = SimInstant::EPOCH;
    let mut last_wb = now;
    let mut last_gc = SimInstant::EPOCH;
    let mut first_gc_done = false;
    while now < end {
        // Writeback.
        if writeback_due(fs.dirty_pages(), fs.cache().capacity(), now, last_wb) {
            fs.background_writeback(WB_BATCH, IoClass::Normal, now)?;
            pump_f2fs(&mut fs, &mut duet);
            last_wb = now;
        }
        let next_wl = workload.next_op_time();
        if next_wl <= now {
            workload.run_op(&mut fs, now)?;
            pump_f2fs(&mut fs, &mut duet);
            continue;
        }
        let device_free = fs.disk().busy_until();
        let gc_due = !first_gc_done || now.saturating_duration_since(last_gc) >= cfg.gc_interval;
        if gc_due
            && fs.disk().is_idle_at(now)
            && cfg
                .policy
                .may_dispatch_maintenance(now, device_free, Some(next_wl))
        {
            gc.step(GcCtx {
                fs: &mut fs,
                duet: &mut duet,
                now,
            })?;
            pump_f2fs(&mut fs, &mut duet);
            last_gc = now;
            first_gc_done = true;
            continue;
        }
        let mut next = next_wl.min(end);
        let dispatch_at = cfg
            .policy
            .earliest_maintenance_dispatch(now, device_free)
            .max(device_free)
            .max(last_gc + cfg.gc_interval);
        next = next.min(dispatch_at);
        now = next.max(now + SimDuration::from_nanos(1));
    }
    if cfg!(debug_assertions) {
        fs.check_consistency()?;
    }
    let n = gc.results.len();
    let mean_cached = if n == 0 {
        0.0
    } else {
        gc.results
            .iter()
            .map(|r| r.cached_blocks as f64)
            .sum::<f64>()
            / n as f64
    };
    let mean_valid = if n == 0 {
        0.0
    } else {
        gc.results
            .iter()
            .map(|r| r.valid_blocks as f64)
            .sum::<f64>()
            / n as f64
    };
    Ok(GcResult {
        mean_cleaning_ms: gc.mean_cleaning_ms(),
        workload_latency_ms: (workload.latency_ms().mean(), workload.latency_ms().ci95()),
        ended_in_ssr: fs.is_ssr(),
        workload_ops: workload.stats().ops,
        cleanings: n,
        mean_cached,
        mean_valid,
        achieved_util: {
            let elapsed = cfg.duration;
            fs.foreground_busy().as_secs_f64() / elapsed.as_secs_f64()
        },
    })
}
