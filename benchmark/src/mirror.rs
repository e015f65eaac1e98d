//! Traced drivers: benchmark-owned mirrors of the runner's virtual-time
//! loops, with a span around every call into a layer.
//!
//! `experiments::run_experiment` and `run_gc_experiment` are opaque from
//! outside, so wall time cannot be split by layer through them. These
//! functions replay the same loops step for step over the same public
//! layer APIs the runner uses, and wrap each call in a span. They carry
//! copies of the runner's private constants on purpose: if the runner
//! changes, the mirror's simulated statistics stop matching the entry
//! point's and the traced run fails loudly instead of attributing time
//! to a loop nobody runs.

use crate::spans::{NameId, Recorder};
use duet::Duet;
use duet_tasks::{
    Backup, BtrfsCtx, BtrfsTask, Defrag, GarbageCollector, GcCtx, Scrubber, TaskMode,
};
use experiments::snapshot::{obtain, PreparedStack};
use experiments::{
    ExperimentConfig, ExperimentResult, GcExperimentConfig, GcResult, TaskKind, TaskOutcome,
};
use sim_btrfs::BtrfsSim;
use sim_cache::CacheStats;
use sim_core::{InodeNr, SimDuration, SimInstant, SimResult};
use sim_disk::{Disk, HddModel, IoClass};
use sim_f2fs::F2fsSim;
use workloads::{Workload, WorkloadFs, WorkloadStats};

// The runner's writeback policy (`experiments::runner`, private there).
const WB_HIGH_FRACTION: usize = 8;
const WB_PERIOD: SimDuration = SimDuration::from_secs(1);
const WB_BATCH: usize = 1024;

/// Span names. Task spans are `TASK_BASE + task * PHASES + phase`.
pub const NAMES: &[&str] = &[
    "run",
    "fork",
    "pump",
    "writeback",
    "run_op",
    "wl_read",
    "wl_write",
    "wl_append",
    "wl_delete",
    "wl_create",
    "scrub.start",
    "scrub.step",
    "scrub.poll",
    "scrub.stop",
    "scrub.finalize",
    "backup.start",
    "backup.step",
    "backup.poll",
    "backup.stop",
    "backup.finalize",
    "defrag.start",
    "defrag.step",
    "defrag.poll",
    "defrag.stop",
    "defrag.finalize",
    "gc.start",
    "gc.step",
];
const RUN: NameId = 0;
const FORK: NameId = 1;
const PUMP: NameId = 2;
const WRITEBACK: NameId = 3;
const RUN_OP: NameId = 4;
const WL_READ: NameId = 5;
const WL_WRITE: NameId = 6;
const WL_APPEND: NameId = 7;
const WL_DELETE: NameId = 8;
const WL_CREATE: NameId = 9;
const TASK_BASE: NameId = 10;
const PHASES: NameId = 5;
const GC_START: NameId = TASK_BASE + 3 * PHASES;
const GC_STEP: NameId = GC_START + 1;

#[derive(Clone, Copy)]
enum Phase {
    Start,
    Step,
    Poll,
    Stop,
    Finalize,
}

fn task_span(kind: TaskKind, phase: Phase) -> NameId {
    let task = match kind {
        TaskKind::Scrub => 0,
        TaskKind::Backup => 1,
        TaskKind::Defrag => 2,
    };
    TASK_BASE + task * PHASES + phase as NameId
}

/// Room for spans before the vector would reallocate inside the
/// measured run: ten times the ~100 000 the largest workload records.
pub const SPAN_CAPACITY: usize = 1 << 20;

/// Interposes on the filesystem calls a workload operation makes, so
/// they show as child spans of `run_op`.
struct TimedFs<'a, F: WorkloadFs> {
    fs: &'a mut F,
    rec: &'a mut Recorder,
}

impl<F: WorkloadFs> WorkloadFs for TimedFs<'_, F> {
    fn wl_read(
        &mut self,
        ino: InodeNr,
        offset: u64,
        len: u64,
        now: SimInstant,
    ) -> SimResult<SimInstant> {
        self.rec
            .time(WL_READ, || self.fs.wl_read(ino, offset, len, now))
    }

    fn wl_write(
        &mut self,
        ino: InodeNr,
        offset: u64,
        len: u64,
        now: SimInstant,
    ) -> SimResult<SimInstant> {
        self.rec
            .time(WL_WRITE, || self.fs.wl_write(ino, offset, len, now))
    }

    fn wl_append(&mut self, ino: InodeNr, len: u64, now: SimInstant) -> SimResult<SimInstant> {
        self.rec
            .time(WL_APPEND, || self.fs.wl_append(ino, len, now))
    }

    fn wl_delete(&mut self, ino: InodeNr) -> SimResult<()> {
        self.rec.time(WL_DELETE, || self.fs.wl_delete(ino))
    }

    fn wl_create(&mut self, name: &str) -> SimResult<InodeNr> {
        self.rec.time(WL_CREATE, || self.fs.wl_create(name))
    }

    // The rest are set-up calls or O(1) accessors: passed through.
    fn wl_populate(&mut self, name: &str, size: u64) -> SimResult<InodeNr> {
        self.fs.wl_populate(name, size)
    }

    fn wl_size(&self, ino: InodeNr) -> SimResult<u64> {
        self.fs.wl_size(ino)
    }

    fn wl_writeback(&mut self, max_pages: usize, now: SimInstant) -> SimResult<SimInstant> {
        self.fs.wl_writeback(max_pages, now)
    }

    fn wl_dirty_pages(&self) -> usize {
        self.fs.wl_dirty_pages()
    }

    fn foreground_busy(&self) -> SimDuration {
        self.fs.foreground_busy()
    }
}

/// Workload-side statistics the entry points do not return.
#[derive(Debug, Clone, Copy, Default)]
pub struct ForegroundStats {
    pub stats: WorkloadStats,
    pub mean_latency_ms: f64,
}

impl ForegroundStats {
    fn of(w: &Workload) -> ForegroundStats {
        ForegroundStats {
            stats: w.stats(),
            mean_latency_ms: w.latency_ms().mean(),
        }
    }
}

/// What a traced Btrfs run leaves behind.
pub struct BtrfsRun {
    pub result: ExperimentResult,
    /// The filesystem as the run left it (for fsck and layer counters).
    pub fs: BtrfsSim,
    pub foreground: ForegroundStats,
    /// Cache counters when the measured window opened.
    pub cache_at_start: CacheStats,
}

fn build_task(kind: TaskKind, mode: TaskMode, cfg: &ExperimentConfig) -> Box<dyn BtrfsTask> {
    match kind {
        TaskKind::Scrub => Box::new(Scrubber::new(mode)),
        TaskKind::Backup => Box::new(Backup::new(mode)),
        TaskKind::Defrag => {
            let threshold = if cfg.scatter_layout { 4 } else { 1 };
            let mut d = Defrag::new(mode).with_threshold(threshold);
            if cfg.defrag_file_granularity {
                d = d.with_file_granularity();
            }
            Box::new(d)
        }
    }
}

/// Mirror of `experiments::runner::run_experiment_inner` (no profiled
/// throttle seed, no early stop), forking its stack from the snapshot
/// store exactly as the entry point does. `pump` is
/// `duet_tasks::pump_btrfs`; it is a parameter so a test can break it.
// `task_call!` indexes the tasks and their kinds in parallel.
#[allow(clippy::needless_range_loop)]
pub fn run_btrfs(
    cfg: &ExperimentConfig,
    rec: &mut Recorder,
    mut pump: impl FnMut(&mut BtrfsSim, &mut Duet),
) -> SimResult<BtrfsRun> {
    assert!(
        !cfg.informed_replacement,
        "informed replacement is a documented gap of the traced driver"
    );
    let run = rec.begin(RUN);
    let PreparedStack {
        mut fs,
        mut duet,
        mut workload,
    } = rec.time(FORK, || obtain(cfg))?;
    if let (Some(w), Some(wcfg)) = (workload.as_mut(), cfg.workload) {
        w.set_target_util(wcfg.target_util);
    }
    let cache_at_start = fs.cache().stats();

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
    // One span per task call, `ctx` rebuilt per call as in the runner.
    macro_rules! task_call {
        ($i:expr, $phase:expr, $method:ident, $now:expr) => {{
            let ctx = BtrfsCtx {
                fs: &mut fs,
                duet: &mut duet,
                now: $now,
            };
            let task = &mut tasks[$i];
            rec.time(task_span(cfg.tasks[$i], $phase), || task.$method(ctx))
        }};
    }
    for i in 0..tasks.len() {
        task_call!(i, Phase::Start, start, SimInstant::EPOCH)?;
        rec.time(PUMP, || pump(&mut fs, &mut duet));
    }

    let end = cfg.end();
    let mut now = SimInstant::EPOCH;
    let mut last_wb = now;
    let mut last_poll = now;
    let mut completion: Vec<Option<SimInstant>> = vec![None; tasks.len()];
    let mut rr = 0usize;
    let mut peak_memory = 0u64;
    let mut iter = 0u64;
    while now < end {
        iter += 1;
        if iter.is_multiple_of(256) && cfg.duet {
            peak_memory = peak_memory.max(duet.memory_bytes());
        }
        let wb_due = fs.dirty_pages() > fs.cache().capacity() / WB_HIGH_FRACTION
            || (now.saturating_duration_since(last_wb) >= WB_PERIOD && fs.dirty_pages() > 0);
        if wb_due {
            rec.time(WRITEBACK, || {
                fs.background_writeback(WB_BATCH, IoClass::Normal, now)
            })?;
            rec.time(PUMP, || pump(&mut fs, &mut duet));
            last_wb = now;
        }
        if now.saturating_duration_since(last_poll) >= cfg.poll_period {
            for i in 0..tasks.len() {
                if completion[i].is_none() {
                    task_call!(i, Phase::Poll, poll, now)?;
                }
            }
            last_poll = now;
        }
        let next_wl = workload.as_ref().map(|w| w.next_op_time());
        if next_wl.is_some_and(|t| t <= now) {
            if let Some(w) = workload.as_mut() {
                let op = rec.begin(RUN_OP);
                let done = w.run_op(
                    &mut TimedFs {
                        fs: &mut fs,
                        rec: &mut *rec,
                    },
                    now,
                );
                rec.end(op);
                done?;
                rec.time(PUMP, || pump(&mut fs, &mut duet));
            }
            continue;
        }
        let n_incomplete = completion.iter().filter(|c| c.is_none()).count();
        let device_free = fs.disk().busy_until();
        if n_incomplete > 0
            && fs.disk().is_idle_at(now)
            && cfg
                .policy
                .may_dispatch_maintenance(now, device_free, next_wl)
        {
            let nth = rr % n_incomplete;
            let i = completion
                .iter()
                .enumerate()
                .filter(|(_, c)| c.is_none())
                .map(|(t, _)| t)
                .nth(nth)
                .expect("nth < n_incomplete");
            rr += 1;
            let r = task_call!(i, Phase::Step, step, now)?;
            rec.time(PUMP, || pump(&mut fs, &mut duet));
            if r.complete {
                completion[i] = Some(r.finish);
                task_call!(i, Phase::Stop, stop, now)?;
            }
            continue;
        }
        if n_incomplete == 0 && next_wl.is_none() {
            break;
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
            next = next.min(last_poll + cfg.poll_period);
        }
        now = next.max(now + SimDuration::from_nanos(1));
    }
    if cfg.duet {
        peak_memory = peak_memory.max(duet.memory_bytes());
    }
    for i in 0..tasks.len() {
        task_call!(i, Phase::Finalize, finalize, now)?;
    }

    let outcomes: Vec<TaskOutcome> = tasks
        .iter()
        .zip(&completion)
        .map(|(t, c)| TaskOutcome {
            name: t.name(),
            metrics: t.metrics(),
            completed: c.is_some(),
            completion_time: c.map(|t| t.saturating_duration_since(SimInstant::EPOCH)),
        })
        .collect();
    let m = fs.disk().metrics();
    let lat = workload
        .as_ref()
        .map(|w| (w.latency_ms().mean(), w.latency_ms().ci95()))
        .unwrap_or((0.0, 0.0));
    let result = ExperimentResult {
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
    };
    rec.end(run);
    Ok(BtrfsRun {
        result,
        foreground: workload
            .as_ref()
            .map(ForegroundStats::of)
            .unwrap_or_default(),
        fs,
        cache_at_start,
    })
}

/// A cold F2fs stack with the workload set up: the set-up prefix of
/// `run_gc_experiment`, which has no snapshot plane to ask for it.
pub fn prepare_gc(cfg: &GcExperimentConfig) -> SimResult<(F2fsSim, Workload)> {
    let capacity = u64::from(cfg.nsegs) * cfg.seg_blocks;
    let disk = Disk::new(Box::new(HddModel::sas_10k(capacity)));
    let mut fs = F2fsSim::new(sim_core::DeviceId(1), disk, cfg.cache_pages, cfg.seg_blocks);
    let workload = Workload::setup(&mut fs, cfg.workload, cfg.fileset)?;
    fs.cache_mut().drain_events();
    fs.disk_mut().reset_metrics();
    Ok((fs, workload))
}

/// What a traced GC run leaves behind.
pub struct GcRun {
    pub result: GcResult,
    pub fs: F2fsSim,
    pub duet_stats: duet::DuetStats,
    pub foreground: ForegroundStats,
    pub cache_at_start: CacheStats,
}

/// Mirror of `experiments::runner::run_gc_experiment`. `pump` is
/// `duet_tasks::pump_f2fs`.
pub fn run_gc(
    cfg: &GcExperimentConfig,
    rec: &mut Recorder,
    mut pump: impl FnMut(&mut F2fsSim, &mut Duet),
) -> SimResult<GcRun> {
    let run = rec.begin(RUN);
    // The entry point builds its stack inside the call; so does this.
    let (mut fs, mut workload) = rec.time(FORK, || prepare_gc(cfg))?;
    let mut duet = Duet::with_defaults();
    let cache_at_start = fs.cache().stats();
    let mode = if cfg.duet {
        TaskMode::Duet
    } else {
        TaskMode::Baseline
    };
    let mut gc = GarbageCollector::new(mode, cfg.victim_policy).with_window(cfg.gc_window);
    rec.time(GC_START, || {
        gc.start(GcCtx {
            fs: &mut fs,
            duet: &mut duet,
            now: SimInstant::EPOCH,
        })
    })?;
    rec.time(PUMP, || pump(&mut fs, &mut duet));

    let end = SimInstant::EPOCH + cfg.duration;
    let mut now = SimInstant::EPOCH;
    let mut last_wb = now;
    let mut last_gc = SimInstant::EPOCH;
    let mut first_gc_done = false;
    while now < end {
        let wb_due = fs.dirty_pages() > fs.cache().capacity() / WB_HIGH_FRACTION
            || (now.saturating_duration_since(last_wb) >= WB_PERIOD && fs.dirty_pages() > 0);
        if wb_due {
            rec.time(WRITEBACK, || {
                fs.background_writeback(WB_BATCH, IoClass::Normal, now)
            })?;
            rec.time(PUMP, || pump(&mut fs, &mut duet));
            last_wb = now;
        }
        let next_wl = workload.next_op_time();
        if next_wl <= now {
            let op = rec.begin(RUN_OP);
            let done = workload.run_op(
                &mut TimedFs {
                    fs: &mut fs,
                    rec: &mut *rec,
                },
                now,
            );
            rec.end(op);
            done?;
            rec.time(PUMP, || pump(&mut fs, &mut duet));
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
            rec.time(GC_STEP, || {
                gc.step(GcCtx {
                    fs: &mut fs,
                    duet: &mut duet,
                    now,
                })
            })?;
            rec.time(PUMP, || pump(&mut fs, &mut duet));
            last_gc = now;
            first_gc_done = true;
            continue;
        }
        let dispatch_at = cfg
            .policy
            .earliest_maintenance_dispatch(now, device_free)
            .max(device_free)
            .max(last_gc + cfg.gc_interval);
        let next = next_wl.min(end).min(dispatch_at);
        now = next.max(now + SimDuration::from_nanos(1));
    }
    let n = gc.results.len();
    let mean_of = |f: fn(&sim_f2fs::CleanResult) -> u32| {
        if n == 0 {
            0.0
        } else {
            gc.results.iter().map(|r| f64::from(f(r))).sum::<f64>() / n as f64
        }
    };
    let result = GcResult {
        mean_cleaning_ms: gc.mean_cleaning_ms(),
        workload_latency_ms: (workload.latency_ms().mean(), workload.latency_ms().ci95()),
        ended_in_ssr: fs.is_ssr(),
        workload_ops: workload.stats().ops,
        cleanings: n,
        mean_cached: mean_of(|r| r.cached_blocks),
        mean_valid: mean_of(|r| r.valid_blocks),
        achieved_util: fs.foreground_busy().as_secs_f64() / cfg.duration.as_secs_f64(),
    };
    rec.end(run);
    Ok(GcRun {
        result,
        duet_stats: duet.stats(),
        foreground: ForegroundStats::of(&workload),
        fs,
        cache_at_start,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_constants_index_their_names() {
        let name = |id: NameId| NAMES[usize::from(id)];
        assert_eq!(
            [RUN, FORK, PUMP, WRITEBACK, RUN_OP].map(name),
            ["run", "fork", "pump", "writeback", "run_op"]
        );
        assert_eq!(
            [WL_READ, WL_WRITE, WL_APPEND, WL_DELETE, WL_CREATE].map(name),
            ["wl_read", "wl_write", "wl_append", "wl_delete", "wl_create"]
        );
        assert_eq!(
            name(task_span(TaskKind::Scrub, Phase::Start)),
            "scrub.start"
        );
        assert_eq!(
            name(task_span(TaskKind::Backup, Phase::Poll)),
            "backup.poll"
        );
        assert_eq!(
            name(task_span(TaskKind::Defrag, Phase::Finalize)),
            "defrag.finalize"
        );
        assert_eq!([GC_START, GC_STEP].map(name), ["gc.start", "gc.step"]);
        assert_eq!(NAMES.len(), usize::from(GC_STEP) + 1);
    }
}
