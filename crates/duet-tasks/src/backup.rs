//! Snapshot-based backup (§5.2 of the paper).
//!
//! The baseline tool takes a read-only snapshot and backs files up in
//! inode-number order, reading each file fully — which makes its I/O
//! pattern 64 KiB *random* reads across the device (§6.2). The
//! opportunistic tool registers for `Exists` notifications: when a page
//! of snapshot-shared data is in memory, it is copied to the backup
//! stream out of order — after locking the page, checking it is not
//! dirty, and confirming via back-references that it still belongs to
//! the snapshot.

use crate::task::{BtrfsCtx, BtrfsTask, HintSession, StepResult, TaskMetrics, TaskMode};
use duet::{EventMask, Item, ItemFlags, ItemId, TaskScope};
use sim_btrfs::extent::ExtentCursor;
use sim_btrfs::{BackRef, BlockTable, BtrfsSim, Snapshot, SnapshotId};
use sim_cache::PageKey;
use sim_core::trace::TraceKind;
use sim_core::{BlockNr, InodeNr, PageIndex, SimError, SimResult, SparseBitmap, PAGE_SIZE};
use sim_disk::IoClass;

/// Pages processed per dispatch. The paper's backup "issues 64KB random
/// reads"; a step covers four of them, so that per idle-gap dispatch
/// the backup moves ~1/4 as much data as the scrubber's sequential
/// 1 MiB chunk — random I/O then makes it roughly half as fast overall,
/// matching §6.2 ("the backup requires almost twice the amount of time
/// needed for scrubbing"). Was 256 (a full 1 MiB per dispatch), which
/// let the backup finish only ~1.2× behind the scrubber and pushed the
/// Fig. 3 plateau too early; 64 restores the intended pacing.
const CHUNK_PAGES: u64 = 64;

/// The snapshot-backup task.
pub struct Backup {
    mode: TaskMode,
    class: IoClass,
    hints: HintSession,
    /// The last batch of hints fetched, kept for its allocation.
    batch: Vec<Item>,
    snap: Option<SnapshotId>,
    /// Snapshot files in inode order (the plan).
    files: Vec<InodeNr>,
    file_idx: usize,
    page_in_file: u64,
    /// Blocks already backed up (by either path).
    backed: SparseBitmap,
    total_pages: u64,
    backed_up: u64,
    opportunistic: u64,
    own_read: u64,
    own_written: u64,
    /// Bytes shipped to backup storage.
    pub sent_bytes: u64,
    /// Test-only defect switch: silently drop a deterministic subset of
    /// blocks from the backup stream (oracle self-test).
    skip_ship: bool,
}

impl Backup {
    /// Creates a backup task (idle I/O priority, like the paper's
    /// in-kernel tasks).
    pub fn new(mode: TaskMode) -> Self {
        Backup {
            mode,
            class: IoClass::Idle,
            hints: HintSession::default(),
            batch: Vec::new(),
            snap: None,
            files: Vec::new(),
            file_idx: 0,
            page_in_file: 0,
            backed: SparseBitmap::new(),
            total_pages: 0,
            backed_up: 0,
            opportunistic: 0,
            own_read: 0,
            own_written: 0,
            sent_bytes: 0,
            skip_ship: false,
        }
    }

    /// Sabotage switch for oracle self-tests: every seventh block is
    /// silently omitted from the backup stream — no error, the run
    /// still reports completion.
    #[doc(hidden)]
    pub fn sabotage_skip_ship(&mut self) {
        self.skip_ship = true;
    }

    /// The snapshot this backup is reading from.
    pub fn snapshot(&self) -> Option<SnapshotId> {
        self.snap
    }

    /// Blocks shipped to the backup stream, in ascending order — the
    /// oracle's final-state digest.
    pub fn backed_blocks(&self) -> Vec<u64> {
        self.backed.iter().collect()
    }

    fn ship(&mut self, pages: u64) {
        self.backed_up += pages;
        self.sent_bytes += pages * PAGE_SIZE;
    }

    /// Opportunistic path: copy cached, snapshot-shared pages.
    fn drain_events(&mut self, ctx: &mut BtrfsCtx<'_>) -> SimResult<()> {
        let (Some(snap), Some(sid)) = (self.snap, self.hints.id()) else {
            return Ok(());
        };
        let fs: &BtrfsSim = ctx.fs;
        let mut owners = Owners::new(fs.blocks(), fs.snapshot(snap)?);
        let mut items = std::mem::take(&mut self.batch);
        loop {
            self.hints.next_batch(ctx.duet, fs, &mut items)?;
            if items.is_empty() {
                break;
            }
            self.take_hinted(&items, fs, &mut owners, |block| {
                if let Some(t) = fs.trace() {
                    t.event(TraceKind::BackupShip, ctx.now, || {
                        vec![("block", block.raw().into()), ("src", "hint".into())]
                    });
                }
                ctx.duet.set_done(sid, ItemId::Block(block))
            })?;
        }
        self.batch = items;
        Ok(())
    }

    /// Ships, in item order, every hinted block that a clean cached
    /// page still shares with the snapshot, handing each to `shipped`
    /// (the trace event and `set_done`).
    fn take_hinted(
        &mut self,
        items: &[Item],
        fs: &BtrfsSim,
        owners: &mut Owners<'_>,
        mut shipped: impl FnMut(BlockNr) -> SimResult<()>,
    ) -> SimResult<()> {
        for item in items {
            if !item.flags.contains(ItemFlags::EXISTS) {
                continue;
            }
            let Some(block) = item.id.as_block() else {
                continue;
            };
            if self.backed.test(block.raw()) {
                continue;
            }
            // Back-reference check: does the cached page still carry
            // the block the snapshot expects? A live back-reference
            // names the page the live tree maps to the block (fsck
            // holds them equal), so one snapshot lookup decides.
            let Some(br) = owners.live_page(block)? else {
                continue;
            };
            debug_assert_eq!(fs.fibmap(br.ino, br.index), Ok(Some(block)));
            if owners.snapshot_block(br) != Some(block) {
                continue;
            }
            // "Lock the page, check that it is not dirty" (§5.2):
            // a dirty page holds post-snapshot data.
            let key = PageKey::new(br.ino, br.index);
            match fs.cache().peek(key) {
                Some(meta) if !meta.dirty => {}
                _ => continue,
            }
            if self.skip_ship && block.raw() % 7 == 0 {
                continue;
            }
            // Copy from memory: zero maintenance reads.
            self.backed.set(block.raw());
            self.ship(1);
            self.opportunistic += 1;
            shipped(block)?;
        }
        Ok(())
    }
}

/// What one drain has looked up about its hinted blocks. Hinted blocks
/// come in runs (98 % of `read_hot_duet`'s continue the block before),
/// so it keeps the last run of blocks whose live back-references
/// continue one another, and a cursor over the snapshot file last asked
/// about: one back-reference lookup per run, one floor search per
/// snapshot extent. Nothing in a drain changes the filesystem, so what
/// it holds stays true until the drain ends, and it is dropped then.
struct Owners<'a> {
    blocks: &'a BlockTable,
    snap: &'a Snapshot,
    /// First block of the run, the page it backs, and the run's length.
    run: Option<(BlockNr, BackRef, u64)>,
    /// The snapshot file last asked about, and its extents if the
    /// snapshot holds the file.
    file: Option<(InodeNr, Option<ExtentCursor<'a>>)>,
    /// Test-only defect: pages derived from a run are this many pages
    /// past the right one.
    #[cfg(test)]
    skew: u64,
}

impl<'a> Owners<'a> {
    fn new(blocks: &'a BlockTable, snap: &'a Snapshot) -> Self {
        Owners {
            blocks,
            snap,
            run: None,
            file: None,
            #[cfg(test)]
            skew: 0,
        }
    }

    /// The live page `b` backs, if any: [`BlockTable::backref_of`],
    /// looked up once per run.
    fn live_page(&mut self, b: BlockNr) -> SimResult<Option<BackRef>> {
        if let Some((first, br, len)) = self.run {
            let d = b.raw().wrapping_sub(first.raw());
            if d < len {
                #[cfg(test)]
                let d = d + self.skew;
                let index = PageIndex(br.index.raw() + d);
                return Ok(Some(BackRef { ino: br.ino, index }));
            }
        }
        let found = self.blocks.backref_run(b)?;
        self.run = found.map(|(br, len)| (b, br, len));
        Ok(found.map(|(br, _)| br))
    }

    /// The block backing page `br` in the snapshot, if any.
    fn snapshot_block(&mut self, br: BackRef) -> Option<BlockNr> {
        if self.file.as_ref().is_none_or(|&(ino, _)| ino != br.ino) {
            let cursor = self.snap.files.get(br.ino).map(|f| f.extents.cursor());
            self.file = Some((br.ino, cursor));
        }
        let (_, cursor) = self.file.as_mut()?;
        cursor.as_mut()?.block_of(br.index)
    }
}

impl BtrfsTask for Backup {
    fn name(&self) -> String {
        format!("backup({})", self.mode.label())
    }

    fn start(&mut self, ctx: BtrfsCtx<'_>) -> SimResult<()> {
        let snap = ctx.fs.create_snapshot()?;
        self.snap = Some(snap);
        {
            let s = ctx.fs.snapshot(snap)?;
            self.files = s.files.keys().collect();
            self.total_pages = s.total_pages();
        }
        let scope = TaskScope::Block {
            device: ctx.fs.device(),
        };
        self.hints
            .open(self.mode, ctx.duet, scope, EventMask::EXISTS, ctx.fs)?;
        Ok(())
    }

    fn step(&mut self, mut ctx: BtrfsCtx<'_>) -> SimResult<StepResult> {
        self.drain_events(&mut ctx)?;
        let Some(snap) = self.snap else {
            return Err(SimError::InvalidArgument(
                "backup stepped before start".into(),
            ));
        };
        let span = ctx
            .fs
            .trace()
            .map(|t| t.ctx_begin(TraceKind::BackupStep, ctx.now, Vec::new));
        let mut finish = ctx.now;
        let mut processed = 0u64;
        while processed < CHUNK_PAGES {
            let Some(&ino) = self.files.get(self.file_idx) else {
                break;
            };
            let f = &ctx.fs.snapshot(snap)?.files[ino];
            let file_pages = f.size_pages();
            if self.page_in_file >= file_pages {
                self.file_idx += 1;
                self.page_in_file = 0;
                continue;
            }
            // What this step reads of the file is settled before any
            // I/O, with the snapshot file and the live inode resolved
            // once: the snapshot is frozen, and reads leave the live
            // extent map alone.
            let mut reads: Vec<(PageIndex, BlockNr, bool)> = Vec::new();
            let mut snap_extents = f.extents.cursor();
            let mut live_extents = ctx.fs.inodes().get(ino).ok().map(|n| n.extents.cursor());
            let mut next = self.page_in_file;
            while next < file_pages && processed < CHUNK_PAGES {
                let idx = PageIndex(next);
                next += 1;
                let Some(sb) = snap_extents.block_of(idx) else {
                    continue; // Hole in the snapshot file.
                };
                processed += 1;
                // Already backed up opportunistically — or, in sabotage
                // mode, silently dropped from the stream but still
                // counted as handled.
                if self.backed.test(sb.raw()) || (self.skip_ship && sb.raw() % 7 == 0) {
                    continue;
                }
                let live = live_extents.as_mut().and_then(|c| c.block_of(idx));
                reads.push((idx, sb, live == Some(sb)));
            }
            for (idx, sb, shared) in reads {
                // A failed read leaves the scan just past its page.
                self.page_in_file = idx.raw() + 1;
                // Read the data: through the live page cache while the
                // block is still shared with the live file; raw otherwise
                // (the live copy diverged after the snapshot).
                let stats = if shared {
                    ctx.fs
                        .read(ino, idx.byte_offset(), PAGE_SIZE, self.class, ctx.now)?
                } else {
                    ctx.fs.read_raw(sb, 1, self.class, ctx.now)?
                };
                self.own_read += stats.blocks_read;
                self.own_written += stats.blocks_written;
                finish = finish.max(stats.finish);
                self.backed.set(sb.raw());
                self.ship(1);
                if let Some(t) = ctx.fs.trace() {
                    t.event(TraceKind::BackupShip, ctx.now, || {
                        vec![("block", sb.raw().into()), ("src", "scan".into())]
                    });
                }
                if let Some(sid) = self.hints.id() {
                    ctx.duet.set_done(sid, ItemId::Block(sb))?;
                }
            }
            self.page_in_file = next;
        }
        if let (Some(t), Some(id)) = (ctx.fs.trace(), span) {
            t.ctx_end(id, finish);
        }
        let complete = self.file_idx >= self.files.len();
        Ok(StepResult { finish, complete })
    }

    fn poll(&mut self, mut ctx: BtrfsCtx<'_>) -> SimResult<()> {
        // The opportunistic path performs no device I/O: cached shared
        // pages are copied straight to the backup stream.
        self.drain_events(&mut ctx)
    }

    fn stop(&mut self, mut ctx: BtrfsCtx<'_>) -> SimResult<()> {
        self.drain_events(&mut ctx)?;
        self.hints.close(ctx.duet)
    }

    fn metrics(&self) -> TaskMetrics {
        TaskMetrics {
            total_units: self.total_pages,
            done_units: self.backed_up,
            saved_units: self.backed_up.saturating_sub(self.own_read),
            blocks_read: self.own_read,
            blocks_written: self.own_written,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bridge::pump_btrfs;
    use crate::testkit::{btrfs_with_files, ctx, drive, T0};

    #[test]
    fn baseline_reads_everything() {
        let (mut fs, mut duet, _) = btrfs_with_files(4, 32, 512);
        let mut task = Backup::new(TaskMode::Baseline);
        task.start(ctx(&mut fs, &mut duet)).unwrap();
        drive(&mut task, &mut fs, &mut duet);
        let m = task.metrics();
        assert_eq!(m.total_units, 128);
        assert_eq!(m.done_units, 128);
        assert_eq!(m.blocks_read, 128);
        assert_eq!(task.sent_bytes, 128 * PAGE_SIZE);
        assert_eq!(m.saved_units, 0);
    }

    #[test]
    fn duet_backup_copies_cached_shared_pages() {
        let (mut fs, mut duet, files) = btrfs_with_files(4, 32, 512);
        let mut task = Backup::new(TaskMode::Duet);
        task.start(ctx(&mut fs, &mut duet)).unwrap();
        // Workload reads file 2 fully: still snapshot-shared.
        fs.read(files[2], 0, 32 * PAGE_SIZE, IoClass::Normal, T0)
            .unwrap();
        pump_btrfs(&mut fs, &mut duet);
        drive(&mut task, &mut fs, &mut duet);
        let m = task.metrics();
        assert_eq!(m.done_units, 128, "all pages backed up");
        assert_eq!(task.sent_bytes, 128 * PAGE_SIZE, "each page shipped once");
        assert!(m.saved_units >= 32, "saved {}", m.saved_units);
        assert!(m.blocks_read <= 96);
    }

    #[test]
    fn overwritten_blocks_not_taken_from_cache() {
        let (mut fs, mut duet, files) = btrfs_with_files(2, 16, 512);
        let mut task = Backup::new(TaskMode::Duet);
        task.start(ctx(&mut fs, &mut duet)).unwrap();
        // Overwrite file 1 after the snapshot: its cached (new) pages
        // must NOT satisfy the backup — sharing is broken (§6.2).
        fs.write(files[1], 0, 16 * PAGE_SIZE, IoClass::Normal, T0)
            .unwrap();
        pump_btrfs(&mut fs, &mut duet);
        drive(&mut task, &mut fs, &mut duet);
        let m = task.metrics();
        assert_eq!(m.done_units, 32);
        // File 1's snapshot blocks had to be read raw from disk.
        assert!(m.blocks_read >= 16, "read {}", m.blocks_read);
        assert_eq!(m.saved_units, m.done_units - m.blocks_read);
        // The backup is of the *snapshot* content: blocks still exist.
        let snap = fs.snapshot(task.snapshot().unwrap()).unwrap();
        assert_eq!(snap.files[files[1]].extents.mapped_pages(), 16);
    }

    #[test]
    fn dirty_pages_are_skipped_by_opportunistic_path() {
        let (mut fs, mut duet, files) = btrfs_with_files(1, 8, 512);
        let mut task = Backup::new(TaskMode::Duet);
        task.start(ctx(&mut fs, &mut duet)).unwrap();
        // Dirty pages in cache (write after snapshot): sharing broken
        // anyway, but the dirty-check is the first line of defence.
        fs.write(files[0], 0, 8 * PAGE_SIZE, IoClass::Normal, T0)
            .unwrap();
        pump_btrfs(&mut fs, &mut duet);
        // Drain events: nothing should be shipped opportunistically.
        task.drain_events(&mut ctx(&mut fs, &mut duet)).unwrap();
        assert_eq!(task.opportunistic, 0);
        drive(&mut task, &mut fs, &mut duet);
        assert_eq!(task.metrics().done_units, 8);
    }

    #[test]
    fn two_backups_would_share_via_cache() {
        // A second Duet backup benefits from the first one's reads
        // (both read through the page cache) — the §6.3 synergy.
        let (mut fs, mut duet, _) = btrfs_with_files(2, 32, 512);
        let mut first = Backup::new(TaskMode::Duet);
        first.start(ctx(&mut fs, &mut duet)).unwrap();
        let mut second = Backup::new(TaskMode::Duet);
        second.start(ctx(&mut fs, &mut duet)).unwrap();
        // Interleave.
        loop {
            let a = first.step(ctx(&mut fs, &mut duet)).unwrap();
            pump_btrfs(&mut fs, &mut duet);
            let b = second.step(ctx(&mut fs, &mut duet)).unwrap();
            pump_btrfs(&mut fs, &mut duet);
            if a.complete && b.complete {
                break;
            }
        }
        let m1 = first.metrics();
        let m2 = second.metrics();
        assert_eq!(m1.done_units, 64);
        assert_eq!(m2.done_units, 64);
        let total_reads = m1.blocks_read + m2.blocks_read;
        assert!(
            total_reads <= 64 + 8,
            "one pass serves both: {total_reads} reads for 128 page-backups"
        );
        assert!(m1.saved_units + m2.saved_units >= 56);
    }

    /// Run-wise hint intake against the per-item check it replaced, on
    /// a fragmented stack that holds a snapshot. Every block of the
    /// device is hinted, ascending and then in seeded jumps, in fetch
    /// batches: runs must break at an overwrite inside a run (a piece
    /// only the snapshot holds), at a file boundary and at a block-table
    /// chunk edge. The shipped blocks, in order — the `set_done` calls —
    /// must be those of one `backref_of` and one snapshot lookup per
    /// block.
    mod runs {
        use super::*;
        use duet::Duet;
        use sim_btrfs::blocktable::CHUNK_BLOCKS;
        use sim_core::SimRng;
        use std::collections::BTreeSet;

        /// Ten 500-page files, laid out from block 0, so the eighth
        /// spans the first chunk edge; three of them fragmented, then
        /// the snapshot (through the backup's start). After it: an
        /// overwrite in the middle of the eighth file's run, a deleted
        /// file, a file the snapshot never saw, everything read into
        /// the cache and one overwrite left dirty.
        fn stack() -> (BtrfsSim, Duet, Backup) {
            let (mut fs, mut duet, files) = btrfs_with_files(10, 500, 8192);
            for &ino in &files[1..4] {
                fs.fragment_file(ino, 6).unwrap();
            }
            let mut task = Backup::new(TaskMode::Baseline);
            task.start(ctx(&mut fs, &mut duet)).unwrap();
            let edge = files[8];
            fs.write(edge, 50 * PAGE_SIZE, PAGE_SIZE, IoClass::Normal, T0)
                .unwrap();
            fs.fsync(edge, IoClass::Normal, T0).unwrap();
            fs.delete_file(files[5]).unwrap();
            fs.populate_file(fs.root(), "new", 40 * PAGE_SIZE).unwrap();
            for ino in fs.inodes().files().map(|n| n.ino).collect::<Vec<_>>() {
                let size = fs.inodes().get(ino).unwrap().size_bytes;
                fs.read(ino, 0, size, IoClass::Normal, T0).unwrap();
            }
            fs.write(files[9], 0, PAGE_SIZE, IoClass::Normal, T0)
                .unwrap();
            (fs, duet, task)
        }

        fn exists(b: u64) -> Item {
            Item {
                id: ItemId::Block(BlockNr(b)),
                offset: 0,
                flags: ItemFlags::EXISTS,
                moved_to: None,
            }
        }

        /// Every block up to `end`, ascending, then again in seeded
        /// runs that start anywhere, among other kinds of items.
        fn hints(end: u64) -> Vec<Item> {
            let mut items: Vec<Item> = (0..end).map(exists).collect();
            let mut rng = SimRng::new(0xBAC0);
            for _ in 0..400 {
                let start = rng.gen_range(0, end);
                items.extend((start..end.min(start + rng.gen_range(1, 40))).map(exists));
                let other = match rng.gen_range(0, 3) {
                    0 => ItemFlags::NOT_EXISTS,
                    1 => ItemFlags::MODIFIED,
                    _ => ItemFlags::EXISTS,
                };
                items.push(Item {
                    flags: other,
                    ..exists(rng.gen_range(0, end))
                });
            }
            items
        }

        /// The per-item check: one back-reference and one snapshot
        /// lookup per hinted block.
        fn per_item(fs: &BtrfsSim, snap: SnapshotId, items: &[Item]) -> Vec<BlockNr> {
            let snapshot = fs.snapshot(snap).unwrap();
            let mut backed = BTreeSet::new();
            let mut shipped = Vec::new();
            for item in items {
                let Some(b) = item.id.as_block() else {
                    continue;
                };
                if !item.flags.contains(ItemFlags::EXISTS) || backed.contains(&b) {
                    continue;
                }
                let Some(br) = fs.blocks().backref_of(b).unwrap() else {
                    continue;
                };
                let file = snapshot.files.get(br.ino);
                if file.and_then(|f| f.extents.block_of(br.index)) != Some(b) {
                    continue;
                }
                match fs.cache().peek(PageKey::new(br.ino, br.index)) {
                    Some(meta) if !meta.dirty => {}
                    _ => continue,
                }
                backed.insert(b);
                shipped.push(b);
            }
            shipped
        }

        /// What the task ships from `items`, fed in fetch-sized batches
        /// through one drain's [`Owners`], whose derived pages are
        /// `skew` pages off.
        fn run_wise(skew: u64) -> (Vec<BlockNr>, Vec<BlockNr>) {
            let (fs, _duet, mut task) = stack();
            let snap = task.snapshot().unwrap();
            let end = fs
                .allocated_ranges()
                .last()
                .map_or(0, |r| r.start.raw() + r.len);
            let items = hints(end + 2);
            let mut owners = Owners::new(fs.blocks(), fs.snapshot(snap).unwrap());
            owners.skew = skew;
            let mut shipped = Vec::new();
            for batch in items.chunks(256) {
                task.take_hinted(batch, &fs, &mut owners, |b| {
                    shipped.push(b);
                    Ok(())
                })
                .unwrap();
            }
            (shipped, per_item(&fs, snap, &items))
        }

        #[test]
        fn runs_ship_what_per_item_checks_ship() {
            let (got, want) = run_wise(0);
            assert_eq!(got, want);
            // The stack holds every place a run must break, and the
            // blocks on both sides of each are shipped.
            let (fs, _, _) = stack();
            let bt = fs.blocks();
            let owner = |b: u64| bt.backref_of(BlockNr(b)).unwrap();
            let shipped: BTreeSet<u64> = want.iter().map(|b| b.raw()).collect();
            let both = |b: u64| shipped.contains(&(b - 1)) && shipped.contains(&(b + 1));
            let continues = |b: u64| {
                let (Some(x), Some(y)) = (owner(b), owner(b + 1)) else {
                    return false;
                };
                x.ino == y.ino && x.index.raw() + 1 == y.index.raw()
            };
            let edge = CHUNK_BLOCKS;
            assert!(
                continues(edge - 1) && both(edge),
                "a run across the chunk edge"
            );
            assert_eq!(
                bt.backref_run(BlockNr(edge - 1)).unwrap().map(|r| r.1),
                Some(1)
            );
            let overwritten = (1..edge).find(|&b| {
                let (Some(x), None, Some(y)) = (owner(b - 1), owner(b), owner(b + 1)) else {
                    return false;
                };
                x.ino == y.ino && bt.refcount_of(BlockNr(b)).unwrap() > 0
            });
            let overwritten = overwritten.expect("a block only the snapshot holds, inside a run");
            assert!(both(overwritten), "{overwritten} sits inside a shipped run");
            let boundary = (1..edge).find(|&b| {
                let (Some(x), Some(y)) = (owner(b), owner(b + 1)) else {
                    return false;
                };
                x.ino != y.ino && shipped.contains(&b) && shipped.contains(&(b + 1))
            });
            assert!(boundary.is_some(), "two files back to back");
        }

        /// The harness can fail: pages derived from a run one page off
        /// ship other blocks, or, with debug assertions on, trip the
        /// check that the live tree maps the derived page to the block.
        #[test]
        fn a_run_one_page_off_is_caught() {
            let outcome = std::panic::catch_unwind(|| run_wise(1));
            assert!(outcome.map_or(true, |(got, want)| got != want));
        }
    }
}
