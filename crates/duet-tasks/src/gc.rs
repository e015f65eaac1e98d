//! F2fs garbage collection (§5.4 of the paper).
//!
//! The background cleaner "cycles through 4096 segments at a time
//! (instead of all segments on the device), and cleans one segment with
//! the minimum cost". The opportunistic cleaner registers for
//! `Exists ∨ Flushed` notifications and keeps per-segment counts of
//! cached valid blocks; its cost function charges
//! `valid_blocks − cached_blocks/2` because a cached block saves the
//! read half of its migration. On a flush, the block moves to a new
//! segment, so counters are adjusted for both the old and the new
//! segment. "The notion of completed work does not apply to the garbage
//! collector" — the done primitives are unused.

use crate::task::{HintSession, StepResult, TaskMode};
use duet::{Duet, EventMask, Item, ItemFlags, TaskScope};
use sim_core::trace::TraceKind;
use sim_core::{SegmentNr, SimInstant, SimResult};
use sim_disk::IoClass;
use sim_f2fs::{cleaning_cost, CleanResult, F2fsSim, SegState, VictimPolicy};

/// Execution context for the garbage collector.
pub struct GcCtx<'a> {
    /// The log-structured filesystem.
    pub fs: &'a mut F2fsSim,
    /// The Duet framework instance.
    pub duet: &'a mut Duet,
    /// Current virtual time.
    pub now: SimInstant,
}

/// The background segment cleaner.
pub struct GarbageCollector {
    mode: TaskMode,
    class: IoClass,
    policy: VictimPolicy,
    hints: HintSession,
    /// The last batch of hints fetched, kept for its allocation.
    batch: Vec<Item>,
    /// Segments examined per invocation (the paper's 4096).
    window: u32,
    cursor: u32,
    /// Event-derived cached-valid-block counts, indexed by segment
    /// (grown on demand; victim selection reads one per segment of its
    /// window on every step).
    cached: Vec<i64>,
    /// Cleaning outcomes, in order (Table 6's raw data).
    pub results: Vec<CleanResult>,
    /// Test-only defect switch: lose one block per cleaning (oracle
    /// self-test).
    sabotage: bool,
}

impl GarbageCollector {
    /// Creates a cleaner with the given victim policy.
    pub fn new(mode: TaskMode, policy: VictimPolicy) -> Self {
        GarbageCollector {
            mode,
            class: IoClass::Idle,
            policy,
            hints: HintSession::default(),
            batch: Vec::new(),
            window: 4096,
            cursor: 0,
            cached: Vec::new(),
            results: Vec::new(),
            sabotage: false,
        }
    }

    /// Sabotage switch for oracle self-tests: each cleaning silently
    /// loses its first migrated block — the victim page ends up
    /// unmapped, with no error reported.
    #[doc(hidden)]
    pub fn sabotage_lose_block(&mut self) {
        self.sabotage = true;
    }

    /// Overrides the victim-selection window (for scaled-down tests).
    pub fn with_window(mut self, window: u32) -> Self {
        self.window = window.max(1);
        self
    }

    /// Display name.
    pub fn name(&self) -> String {
        format!("gc({})", self.mode.label())
    }

    /// One-time setup; registers the Duet session in Duet mode.
    pub fn start(&mut self, ctx: GcCtx<'_>) -> SimResult<()> {
        let scope = TaskScope::Block {
            device: ctx.fs.device(),
        };
        let mask = EventMask::EXISTS | EventMask::FLUSHED;
        self.hints.open(self.mode, ctx.duet, scope, mask, ctx.fs)?;
        Ok(())
    }

    fn seg_of(&self, fs: &F2fsSim, block: sim_core::BlockNr) -> u32 {
        fs.segment_of_block(block).raw()
    }

    fn bump(&mut self, seg: u32, delta: i64) {
        let seg = seg as usize;
        if seg >= self.cached.len() {
            self.cached.resize(seg + 1, 0);
        }
        self.cached[seg] = (self.cached[seg] + delta).max(0);
    }

    fn drain_events(&mut self, ctx: &mut GcCtx<'_>) -> SimResult<()> {
        let mut items = std::mem::take(&mut self.batch);
        loop {
            self.hints.next_batch(ctx.duet, ctx.fs, &mut items)?;
            if items.is_empty() {
                self.batch = items;
                return Ok(());
            }
            for item in &items {
                let Some(block) = item.id.as_block() else {
                    continue;
                };
                let seg = self.seg_of(ctx.fs, block);
                if item.flags.contains(ItemFlags::FLUSHED) {
                    // The page migrated to a new log block: "adjust the
                    // in-memory counters for both the old and new
                    // segments" (§5.4).
                    self.bump(seg, -1);
                    if let Some(nb) = item.moved_to {
                        let nseg = self.seg_of(ctx.fs, nb);
                        self.bump(nseg, 1);
                    }
                } else if item.flags.contains(ItemFlags::EXISTS) {
                    self.bump(seg, 1);
                } else if item.flags.contains(ItemFlags::NOT_EXISTS) {
                    self.bump(seg, -1);
                }
            }
        }
    }

    /// Event-derived cached count for a segment (0 in baseline mode).
    pub fn cached_estimate(&self, seg: SegmentNr) -> u32 {
        self.cached
            .get(seg.raw() as usize)
            .map_or(0, |&c| c.max(0) as u32)
    }

    /// Picks a victim in the current window and cleans it. Returns the
    /// result, or `None` when no full segment is available to clean.
    pub fn step(&mut self, mut ctx: GcCtx<'_>) -> SimResult<Option<StepResult>> {
        self.drain_events(&mut ctx)?;
        let nsegs = ctx.fs.nsegs();
        let window = self.window.min(nsegs);
        let now_mtime = ctx.fs.write_clock();
        let seg_blocks = ctx.fs.seg_blocks() as u32;
        let mut best: Option<(f64, u32)> = None;
        for i in 0..window {
            let s = (self.cursor + i) % nsegs;
            let info = *ctx.fs.segment(SegmentNr(s));
            if info.state != SegState::Full || info.valid == 0 {
                // Free/open segments are not cleaning victims; empty
                // full segments free themselves.
                continue;
            }
            let cached = match self.mode {
                TaskMode::Duet => self.cached_estimate(SegmentNr(s)),
                TaskMode::Baseline => 0,
            };
            let cost = cleaning_cost(self.policy, &info, seg_blocks, cached, now_mtime);
            if best.is_none_or(|(bc, _)| cost < bc) {
                best = Some((cost, s));
            }
        }
        self.cursor = (self.cursor + window) % nsegs;
        let Some((_, victim)) = best else {
            return Ok(None);
        };
        // Work-item context span: the victim clean (and its disk I/O)
        // is parented here, with the hint-vs-scan provenance of the
        // victim choice.
        let cached_hint = match self.mode {
            TaskMode::Duet => self.cached_estimate(SegmentNr(victim)),
            TaskMode::Baseline => 0,
        };
        let span = ctx.fs.trace().map(|t| {
            t.ctx_begin(TraceKind::GcClean, ctx.now, || {
                vec![
                    ("seg", victim.into()),
                    ("cached", cached_hint.into()),
                    ("src", if cached_hint > 0 { "hint" } else { "scan" }.into()),
                ]
            })
        });
        let first_victim = if self.sabotage {
            ctx.fs
                .valid_blocks_of(SegmentNr(victim))
                .first()
                .map(|&(_, ino, idx)| (ino, idx))
        } else {
            None
        };
        let result = ctx
            .fs
            .clean_segment(SegmentNr(victim), self.class, ctx.now)?;
        if let Some((ino, idx)) = first_victim {
            // Sabotage mode: the migrated copy of the first victim
            // block is silently dropped.
            ctx.fs.sabotage_drop_mapping(ino, idx)?;
        }
        if let (Some(t), Some(id)) = (ctx.fs.trace(), span) {
            t.ctx_end(id, result.finish);
        }
        // Cleaning dirtied every valid page; the flush events will move
        // the counters to the new segments as they drain.
        self.results.push(result);
        Ok(Some(StepResult {
            finish: result.finish,
            complete: false,
        }))
    }

    /// Mean segment-cleaning time across all cleanings so far (the
    /// Table 6 statistic), in milliseconds.
    pub fn mean_cleaning_ms(&self) -> f64 {
        if self.results.is_empty() {
            return 0.0;
        }
        let total: f64 = self
            .results
            .iter()
            .map(|r| r.duration.as_millis_f64())
            .sum();
        total / self.results.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bridge::pump_f2fs;
    use sim_core::{DeviceId, PAGE_SIZE};
    use sim_disk::{Disk, HddModel};

    const T0: SimInstant = SimInstant::EPOCH;

    fn setup(nsegs: u32, seg_blocks: u64) -> (F2fsSim, Duet) {
        let disk = Disk::new(Box::new(HddModel::sas_10k(nsegs as u64 * seg_blocks)));
        let fs = F2fsSim::new(DeviceId(1), disk, 256, seg_blocks);
        (fs, Duet::with_defaults())
    }

    /// Builds a filesystem where segment 0 is mostly invalid.
    fn with_dirty_segment(fs: &mut F2fsSim) -> sim_core::InodeNr {
        let ino = fs.populate_file("a", 8 * PAGE_SIZE).unwrap();
        fs.populate_file("b", 8 * PAGE_SIZE).unwrap();
        // Overwrite most of file a: seg 0 becomes mostly invalid.
        fs.write(ino, 0, 6 * PAGE_SIZE, IoClass::Normal, T0)
            .unwrap();
        fs.background_writeback(64, IoClass::Normal, T0).unwrap();
        ino
    }

    #[test]
    fn baseline_gc_picks_most_invalid_segment() {
        let (mut fs, mut duet) = setup(8, 8);
        with_dirty_segment(&mut fs);
        let mut gc = GarbageCollector::new(TaskMode::Baseline, VictimPolicy::Greedy).with_window(8);
        gc.start(GcCtx {
            fs: &mut fs,
            duet: &mut duet,
            now: T0,
        })
        .unwrap();
        let r = gc
            .step(GcCtx {
                fs: &mut fs,
                duet: &mut duet,
                now: T0,
            })
            .unwrap()
            .expect("a victim exists");
        assert!(!r.complete);
        assert_eq!(gc.results.len(), 1);
        assert_eq!(gc.results[0].seg, SegmentNr(0), "most invalid segment");
        assert_eq!(gc.results[0].valid_blocks, 2);
    }

    /// Segment 0 keeps 6 valid blocks, segment 1 keeps 4: the baseline
    /// greedy cleaner picks segment 1, but with segment 0's valid
    /// blocks cached the Duet cost 6 − 6/2 = 3 beats 4.
    fn two_segment_scenario() -> (F2fsSim, sim_core::InodeNr) {
        let disk = Disk::new(Box::new(HddModel::sas_10k(64)));
        let mut fs = F2fsSim::new(DeviceId(1), disk, 256, 8);
        let a = fs.populate_file("a", 8 * PAGE_SIZE).unwrap(); // seg 0
        let b = fs.populate_file("b", 8 * PAGE_SIZE).unwrap(); // seg 1
        fs.write(a, 0, 2 * PAGE_SIZE, IoClass::Normal, T0).unwrap();
        fs.write(b, 0, 4 * PAGE_SIZE, IoClass::Normal, T0).unwrap();
        fs.background_writeback(64, IoClass::Normal, T0).unwrap();
        assert_eq!(fs.segment(SegmentNr(0)).valid, 6);
        assert_eq!(fs.segment(SegmentNr(1)).valid, 4);
        (fs, a)
    }

    #[test]
    fn baseline_gc_picks_fewest_valid_despite_cache() {
        let (mut fs, a) = two_segment_scenario();
        let mut duet = Duet::with_defaults();
        let mut base =
            GarbageCollector::new(TaskMode::Baseline, VictimPolicy::Greedy).with_window(8);
        base.start(GcCtx {
            fs: &mut fs,
            duet: &mut duet,
            now: T0,
        })
        .unwrap();
        // Cache segment 0's valid blocks; the baseline ignores that.
        fs.read(a, 2 * PAGE_SIZE, 6 * PAGE_SIZE, IoClass::Normal, T0)
            .unwrap();
        base.step(GcCtx {
            fs: &mut fs,
            duet: &mut duet,
            now: T0,
        })
        .unwrap()
        .expect("victim");
        assert_eq!(base.results[0].seg, SegmentNr(1));
    }

    #[test]
    fn duet_gc_prefers_cached_segments() {
        let (mut fs, a) = two_segment_scenario();
        let mut duet = Duet::with_defaults();
        let mut gc = GarbageCollector::new(TaskMode::Duet, VictimPolicy::Greedy).with_window(8);
        gc.start(GcCtx {
            fs: &mut fs,
            duet: &mut duet,
            now: T0,
        })
        .unwrap();
        fs.read(a, 2 * PAGE_SIZE, 6 * PAGE_SIZE, IoClass::Normal, T0)
            .unwrap();
        pump_f2fs(&mut fs, &mut duet);
        gc.step(GcCtx {
            fs: &mut fs,
            duet: &mut duet,
            now: T0,
        })
        .unwrap()
        .expect("victim");
        let res = gc.results[0];
        assert_eq!(res.seg, SegmentNr(0), "cached segment preferred");
        assert_eq!(res.cached_blocks, 6);
        assert_eq!(res.blocks_read, 0, "all valid blocks were cached");
    }

    #[test]
    fn flushed_events_move_counters_between_segments() {
        let (mut fs, mut duet) = setup(8, 8);
        let ino = fs.populate_file("a", 4 * PAGE_SIZE).unwrap();
        let mut gc = GarbageCollector::new(TaskMode::Duet, VictimPolicy::Greedy).with_window(8);
        gc.start(GcCtx {
            fs: &mut fs,
            duet: &mut duet,
            now: T0,
        })
        .unwrap();
        // Cache the file, then dirty + flush one page; it migrates to
        // the log head (still segment 0 here, but the counter paths
        // execute); then force a cross-segment migration by filling.
        fs.read(ino, 0, 4 * PAGE_SIZE, IoClass::Normal, T0).unwrap();
        pump_f2fs(&mut fs, &mut duet);
        let mut ctx = GcCtx {
            fs: &mut fs,
            duet: &mut duet,
            now: T0,
        };
        gc.drain_events(&mut ctx).unwrap();
        assert_eq!(gc.cached_estimate(SegmentNr(0)), 4);
        // Fill the rest of segment 0 so the next flush lands in seg 1.
        fs.populate_file("fill", 4 * PAGE_SIZE).unwrap();
        fs.write(ino, 0, PAGE_SIZE, IoClass::Normal, T0).unwrap();
        fs.background_writeback(64, IoClass::Normal, T0).unwrap();
        pump_f2fs(&mut fs, &mut duet);
        let mut ctx = GcCtx {
            fs: &mut fs,
            duet: &mut duet,
            now: T0,
        };
        gc.drain_events(&mut ctx).unwrap();
        assert_eq!(
            gc.cached_estimate(SegmentNr(0)),
            3,
            "old segment decremented"
        );
        assert_eq!(
            gc.cached_estimate(SegmentNr(1)),
            1,
            "new segment incremented"
        );
    }

    #[test]
    fn gc_reports_mean_cleaning_time() {
        let (mut fs, mut duet) = setup(8, 8);
        with_dirty_segment(&mut fs);
        let mut gc = GarbageCollector::new(TaskMode::Baseline, VictimPolicy::Greedy).with_window(8);
        gc.start(GcCtx {
            fs: &mut fs,
            duet: &mut duet,
            now: T0,
        })
        .unwrap();
        gc.step(GcCtx {
            fs: &mut fs,
            duet: &mut duet,
            now: T0,
        })
        .unwrap();
        assert!(gc.mean_cleaning_ms() > 0.0);
    }

    #[test]
    fn cost_benefit_policy_cleans_old_segments() {
        let (mut fs, mut duet) = setup(8, 8);
        with_dirty_segment(&mut fs);
        let mut gc =
            GarbageCollector::new(TaskMode::Baseline, VictimPolicy::CostBenefit).with_window(8);
        gc.start(GcCtx {
            fs: &mut fs,
            duet: &mut duet,
            now: T0,
        })
        .unwrap();
        let r = gc
            .step(GcCtx {
                fs: &mut fs,
                duet: &mut duet,
                now: T0,
            })
            .unwrap()
            .expect("victim");
        assert!(!r.complete);
        // The mostly-invalid old segment is the cost-benefit winner too.
        assert_eq!(gc.results[0].seg, SegmentNr(0));
    }

    #[test]
    fn no_victim_when_nothing_full() {
        let (mut fs, mut duet) = setup(8, 8);
        fs.populate_file("tiny", PAGE_SIZE).unwrap(); // open segment only
        let mut gc = GarbageCollector::new(TaskMode::Baseline, VictimPolicy::Greedy).with_window(8);
        gc.start(GcCtx {
            fs: &mut fs,
            duet: &mut duet,
            now: T0,
        })
        .unwrap();
        assert!(gc
            .step(GcCtx {
                fs: &mut fs,
                duet: &mut duet,
                now: T0,
            })
            .unwrap()
            .is_none());
    }
}
