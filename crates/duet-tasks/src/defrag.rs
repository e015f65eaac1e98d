//! File defragmentation (§5.3 of the paper).
//!
//! The baseline defragmenter visits files in inode order and rewrites
//! each fragmented file into one contiguous extent: it reads all pages
//! and writes them back in a single transaction, so the I/O per file is
//! twice its page count. The opportunistic defragmenter registers for
//! `Exists` notifications and prioritizes "files with the highest
//! fraction of pages in memory compared to their size" (a priority
//! queue keyed by resident fraction, as in Algorithm 1). Savings are
//! the pages already in memory (reads avoided) plus the pages already
//! dirty (writes that the flusher would perform anyway, §6.2).

use crate::task::{BtrfsCtx, BtrfsTask, HintSession, StepResult, TaskMetrics, TaskMode};
use duet::{EventMask, Item, ItemId, Priority, ResidencyTracker, TaskScope};
use sim_core::trace::TraceKind;
use sim_core::{InodeNr, SimResult};
use sim_disk::IoClass;
use std::collections::BTreeSet;

/// The defragmentation task.
pub struct Defrag {
    mode: TaskMode,
    class: IoClass,
    hints: HintSession,
    /// The last batch of hints fetched, kept for its allocation.
    batch: Vec<Item>,
    /// Fragmented files at start, in inode order (the plan).
    plan: Vec<InodeNr>,
    plan_set: BTreeSet<InodeNr>,
    plan_idx: usize,
    /// Residency tracking + priority queue (Algorithm 1).
    tracker: ResidencyTracker,
    total_io: u64,
    done_io: u64,
    saved: u64,
    own_read: u64,
    own_written: u64,
    /// Files rewritten.
    pub files_defragged: u64,
    /// Files skipped because the workload defragmented them (full
    /// overwrite collapses the extent map).
    pub files_skipped: u64,
    /// Files with more extents than this are defragmentation targets.
    threshold: usize,
    /// Use degraded file-level hints (inotify-style): any event makes a
    /// file eligible but residency counts are unavailable, so
    /// prioritization by resident fraction is impossible (§3.3's
    /// comparison with Inotify). For the granularity ablation.
    file_granularity: bool,
    /// Test-only defect switch: silently skip rewriting a deterministic
    /// subset of files (oracle self-test).
    skip_some: bool,
}

impl Defrag {
    /// Creates a defragmentation task (idle I/O priority).
    pub fn new(mode: TaskMode) -> Self {
        Defrag {
            mode,
            class: IoClass::Idle,
            hints: HintSession::default(),
            batch: Vec::new(),
            plan: Vec::new(),
            plan_set: BTreeSet::new(),
            plan_idx: 0,
            tracker: ResidencyTracker::new(Priority::ResidentFraction),
            total_io: 0,
            done_io: 0,
            saved: 0,
            own_read: 0,
            own_written: 0,
            files_defragged: 0,
            files_skipped: 0,
            threshold: 1,
            file_granularity: false,
            skip_some: false,
        }
    }

    /// Sabotage switch for oracle self-tests: even-numbered inodes are
    /// silently left fragmented while their planned work is credited —
    /// the run completes without any error.
    #[doc(hidden)]
    pub fn sabotage_skip_files(&mut self) {
        self.skip_some = true;
    }

    /// Degrades hints to file granularity (see the `file_granularity`
    /// field); models what an inotify-based task could do (§3.3).
    pub fn with_file_granularity(mut self) -> Self {
        self.file_granularity = true;
        self.tracker = ResidencyTracker::new(Priority::TouchedOnly);
        self
    }

    /// Sets the extent-count threshold above which a file counts as
    /// fragmented (default 1: any multi-extent file). Aged filesystems
    /// raise this so relocation extents are not mistaken for
    /// fragmentation.
    pub fn with_threshold(mut self, threshold: usize) -> Self {
        self.threshold = threshold.max(1);
        self
    }

    fn update_queue(&mut self, ctx: &mut BtrfsCtx<'_>) -> SimResult<()> {
        loop {
            self.hints.next_batch(ctx.duet, ctx.fs, &mut self.batch)?;
            if self.batch.is_empty() {
                return Ok(());
            }
            let plan = &self.plan_set;
            let inodes = ctx.fs.inodes();
            self.tracker.update_with_sizes(
                &self.batch,
                |ino| plan.contains(&ino),
                |ino| inodes.get(ino).map(|n| n.size_pages()).unwrap_or(0),
            );
        }
    }

    /// Processes one file; returns the step finish time. `src` is the
    /// work item's provenance ("hint" or "scan") for the trace.
    fn process_file(
        &mut self,
        ctx: &mut BtrfsCtx<'_>,
        ino: InodeNr,
        src: &'static str,
    ) -> SimResult<sim_core::SimInstant> {
        let mut finish = ctx.now;
        // Deleted or workload-defragmented files need no work; their
        // planned I/O is complete by other means.
        let planned_io = match ctx.fs.inodes().get(ino) {
            Ok(n) => 2 * n.size_pages(),
            // Per-file planned sizes are not retained: a deleted file's
            // residual I/O is credited as zero, keeping the metric
            // conservative.
            Err(_) => {
                self.files_skipped += 1;
                return Ok(finish);
            }
        };
        if self.skip_some && ino.raw().is_multiple_of(2) {
            // Sabotage mode: the file stays fragmented but its planned
            // work is credited as complete.
            self.files_skipped += 1;
            self.done_io += planned_io;
            return Ok(finish);
        }
        if ctx.fs.file_extent_count(ino)? <= self.threshold {
            self.files_skipped += 1;
            self.done_io += planned_io;
            return Ok(finish);
        }
        let r = ctx.fs.defrag_file(ino, self.class, ctx.now)?;
        finish = finish.max(r.stats.finish);
        self.own_read += r.stats.blocks_read;
        self.own_written += r.stats.blocks_written;
        // Savings: resident pages avoided reads; already-dirty pages
        // were due to be written regardless (§6.2).
        self.saved += r.cached_pages + r.already_dirty;
        self.done_io += planned_io;
        self.files_defragged += 1;
        if let Some(t) = ctx.fs.trace() {
            t.event(TraceKind::DefragReloc, ctx.now, || {
                vec![("ino", ino.raw().into()), ("src", src.into())]
            });
        }
        Ok(finish)
    }

    fn mark_done(&mut self, ctx: &mut BtrfsCtx<'_>, ino: InodeNr) -> SimResult<()> {
        if let Some(sid) = self.hints.id() {
            ctx.duet.set_done(sid, ItemId::Inode(ino))?;
        }
        self.tracker.forget(ino);
        Ok(())
    }

    fn is_done(&self, ctx: &BtrfsCtx<'_>, ino: InodeNr) -> bool {
        self.hints.is_done(ctx.duet, ItemId::Inode(ino))
    }
}

impl BtrfsTask for Defrag {
    fn name(&self) -> String {
        format!("defrag({})", self.mode.label())
    }

    fn start(&mut self, ctx: BtrfsCtx<'_>) -> SimResult<()> {
        for ino in ctx.fs.inodes().files_by_inode() {
            let node = ctx.fs.inodes().get(ino)?;
            if node.extents.extent_count() > self.threshold {
                self.plan.push(ino);
                self.plan_set.insert(ino);
                self.total_io += 2 * node.size_pages();
            }
        }
        let scope = TaskScope::File {
            registered_dir: ctx.fs.root(),
        };
        self.hints
            .open(self.mode, ctx.duet, scope, EventMask::EXISTS, ctx.fs)?;
        Ok(())
    }

    fn step(&mut self, mut ctx: BtrfsCtx<'_>) -> SimResult<StepResult> {
        self.update_queue(&mut ctx)?;
        let span = ctx
            .fs
            .trace()
            .map(|t| t.ctx_begin(TraceKind::DefragStep, ctx.now, Vec::new));
        let end_span = |ctx: &BtrfsCtx<'_>, at| {
            if let (Some(t), Some(id)) = (ctx.fs.trace(), span) {
                t.ctx_end(id, at);
            }
        };
        // Opportunistic: highest resident-fraction file first.
        while let Some(ino) = self.tracker.pop_best() {
            if self.is_done(&ctx, ino) {
                continue;
            }
            let finish = self.process_file(&mut ctx, ino, "hint")?;
            self.mark_done(&mut ctx, ino)?;
            let complete = self.remaining_plan(&ctx) == 0;
            end_span(&ctx, finish);
            return Ok(StepResult { finish, complete });
        }
        // Normal order: next planned file not yet processed.
        while let Some(&ino) = self.plan.get(self.plan_idx) {
            self.plan_idx += 1;
            if self.is_done(&ctx, ino) {
                continue;
            }
            let finish = self.process_file(&mut ctx, ino, "scan")?;
            self.mark_done(&mut ctx, ino)?;
            let complete = self.remaining_plan(&ctx) == 0;
            end_span(&ctx, finish);
            return Ok(StepResult { finish, complete });
        }
        end_span(&ctx, ctx.now);
        Ok(StepResult {
            finish: ctx.now,
            complete: true,
        })
    }

    fn poll(&mut self, mut ctx: BtrfsCtx<'_>) -> SimResult<()> {
        // Keep the priority queue fresh; defragmentation itself needs
        // I/O and stays in `step`.
        self.update_queue(&mut ctx)
    }

    fn stop(&mut self, mut ctx: BtrfsCtx<'_>) -> SimResult<()> {
        self.update_queue(&mut ctx)?;
        self.hints.close(ctx.duet)
    }

    fn metrics(&self) -> TaskMetrics {
        TaskMetrics {
            total_units: self.total_io,
            done_units: self.done_io.min(self.total_io),
            saved_units: self.saved,
            blocks_read: self.own_read,
            blocks_written: self.own_written,
        }
    }
}

impl Defrag {
    fn remaining_plan(&self, ctx: &BtrfsCtx<'_>) -> usize {
        self.plan[self.plan_idx.min(self.plan.len())..]
            .iter()
            .filter(|&&ino| !self.is_done(ctx, ino))
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bridge::pump_btrfs;
    use crate::testkit::{btrfs_with_files, ctx, drive, T0};
    use duet::Duet;
    use sim_btrfs::BtrfsSim;
    use sim_core::{PageIndex, PAGE_SIZE};

    /// [`btrfs_with_files`] with the files at `fragment` split into
    /// four extents each.
    fn fragmented(files: u64, pages: u64, fragment: &[usize]) -> (BtrfsSim, Duet, Vec<InodeNr>) {
        let (mut fs, duet, inos) = btrfs_with_files(files, pages, 512);
        for &i in fragment {
            fs.fragment_file(inos[i], 4).unwrap();
        }
        (fs, duet, inos)
    }

    /// Every page of every file is still mapped, to a block whose
    /// checksum verifies, and each file reads back whole.
    fn assert_intact(fs: &mut BtrfsSim, inos: &[InodeNr], pages: u64) {
        for &ino in inos {
            let node = fs.inodes().get(ino).unwrap();
            assert_eq!(node.extents.mapped_pages(), pages, "{ino}: pages lost");
            for p in 0..pages {
                let b = node.extents.block_of(PageIndex(p)).unwrap();
                fs.blocks().verify_checksum(b).unwrap();
            }
            fs.read(ino, 0, pages * PAGE_SIZE, IoClass::Idle, T0)
                .unwrap();
        }
    }

    #[test]
    fn baseline_defrags_all_fragmented_files() {
        let (mut fs, mut duet, inos) = fragmented(4, 32, &[0, 2]);
        let mut task = Defrag::new(TaskMode::Baseline);
        task.start(ctx(&mut fs, &mut duet)).unwrap();
        drive(&mut task, &mut fs, &mut duet);
        let m = task.metrics();
        assert_eq!(m.total_units, 2 * 2 * 32, "2 files x 2x32 pages");
        assert_eq!(m.done_units, m.total_units);
        assert_eq!(task.files_defragged, 2);
        assert_eq!(fs.file_extent_count(inos[0]).unwrap(), 1);
        assert_eq!(fs.file_extent_count(inos[2]).unwrap(), 1);
        // Untouched files keep their single extent.
        assert_eq!(fs.file_extent_count(inos[1]).unwrap(), 1);
        // Cold cache: all reads and writes performed.
        assert_eq!(m.blocks_read, 64);
        assert_eq!(m.blocks_written, 64);
        assert_eq!(m.saved_units, 0);
        assert_intact(&mut fs, &inos, 32);
    }

    #[test]
    fn duet_prioritizes_resident_files_and_saves_reads() {
        let (mut fs, mut duet, inos) = fragmented(4, 32, &[0, 1, 2, 3]);
        let mut task = Defrag::new(TaskMode::Duet);
        task.start(ctx(&mut fs, &mut duet)).unwrap();
        // Workload reads file 3 fully into the cache.
        fs.read(inos[3], 0, 32 * PAGE_SIZE, IoClass::Normal, T0)
            .unwrap();
        pump_btrfs(&mut fs, &mut duet);
        // First step must pick file 3 (highest resident fraction).
        let r = task.step(ctx(&mut fs, &mut duet)).unwrap();
        pump_btrfs(&mut fs, &mut duet);
        assert!(!r.complete);
        assert_eq!(task.files_defragged, 1);
        assert_eq!(fs.file_extent_count(inos[3]).unwrap(), 1, "file 3 first");
        assert!(task.metrics().saved_units >= 32, "reads saved from cache");
        drive(&mut task, &mut fs, &mut duet);
        assert_eq!(task.files_defragged, 4);
        let m = task.metrics();
        assert_eq!(m.done_units, m.total_units);
        for &ino in &inos {
            assert_eq!(fs.file_extent_count(ino).unwrap(), 1);
        }
        assert_intact(&mut fs, &inos, 32);
    }

    #[test]
    fn workload_defragmented_files_are_skipped() {
        let (mut fs, mut duet, inos) = fragmented(2, 16, &[0, 1]);
        let mut task = Defrag::new(TaskMode::Duet);
        task.start(ctx(&mut fs, &mut duet)).unwrap();
        // Full overwrite collapses file 0 into one extent: the task can
        // "simply ignore an overwritten file" (§3.1).
        fs.write(inos[0], 0, 16 * PAGE_SIZE, IoClass::Normal, T0)
            .unwrap();
        assert_eq!(fs.file_extent_count(inos[0]).unwrap(), 1);
        pump_btrfs(&mut fs, &mut duet);
        drive(&mut task, &mut fs, &mut duet);
        assert_eq!(task.files_skipped, 1);
        assert_eq!(task.files_defragged, 1);
        let m = task.metrics();
        assert_eq!(m.done_units, m.total_units, "skipped counts as complete");
    }

    #[test]
    fn dirty_pages_count_as_write_savings() {
        let (mut fs, mut duet, inos) = fragmented(1, 16, &[0]);
        let mut task = Defrag::new(TaskMode::Duet);
        task.start(ctx(&mut fs, &mut duet)).unwrap();
        // Workload appends to the file: dirty pages in memory.
        fs.write(inos[0], 16 * PAGE_SIZE, 4 * PAGE_SIZE, IoClass::Normal, T0)
            .unwrap();
        pump_btrfs(&mut fs, &mut duet);
        drive(&mut task, &mut fs, &mut duet);
        // 4 dirty resident pages: count toward savings both as cached
        // (no read) and as already-dirty (write due anyway).
        assert!(
            task.metrics().saved_units >= 8,
            "saved {}",
            task.metrics().saved_units
        );
    }

    #[test]
    fn no_fragmentation_means_no_work() {
        let (mut fs, mut duet, _) = fragmented(3, 8, &[]);
        let mut task = Defrag::new(TaskMode::Baseline);
        task.start(ctx(&mut fs, &mut duet)).unwrap();
        assert_eq!(drive(&mut task, &mut fs, &mut duet), 1, "one step");
        assert_eq!(task.metrics().total_units, 0);
        assert_eq!(task.metrics().work_fraction(), 1.0);
    }
}
