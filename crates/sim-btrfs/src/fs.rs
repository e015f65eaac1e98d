//! The copy-on-write filesystem: read/write paths, snapshots, scrub and
//! defragmentation support.
//!
//! [`BtrfsSim`] glues the substrates together: the [`Disk`] executes
//! block requests in virtual time, the [`PageCache`] holds file pages
//! and emits Duet's page events, the [`BlockTable`] carries checksum
//! state / refcounts / back-references, and [`FreeSpace`] + per-file
//! [`crate::extent::ExtentMap`]s
//! implement copy-on-write allocation. The semantics the paper's tasks
//! depend on:
//!
//! - **Verify-on-read** (§5.1): every block read from the device has its
//!   checksum verified, which is why the opportunistic scrubber may mark
//!   recently-read blocks as scrubbed.
//! - **COW sharing with snapshots** (§5.2): an overwrite allocates new
//!   blocks; the old ones survive while a snapshot references them.
//! - **COW fragmentation** (§5.3): overwrites append extents to the
//!   file's map; defragmentation rewrites the file into one extent.
//!
//! All data I/O flows through the page cache (generating Duet events);
//! the cache never does I/O itself, so this layer charges the device for
//! misses, writeback and dirty evictions.

use crate::alloc::FreeSpace;
use crate::blocktable::{BackRef, BlockTable};
use crate::events::FsEvent;
use crate::extent::Extent;
use crate::inode::{InodeKind, InodeTable};
use crate::snapshot::{SnapFile, Snapshot, SnapshotId};
use sim_cache::{PageCache, PageKey, PageMeta};
use sim_core::fault::{FaultHandle, FaultSite};
use sim_core::ids::byte_range_end;
use sim_core::trace::{TraceHandle, TraceLayer};
use sim_core::{
    BlockNr,
    DeviceId,
    InodeNr,
    PageIndex,
    SimError,
    SimInstant,
    SimResult,
    PAGE_SIZE, //
};
use sim_disk::{coalesce, Disk, IoClass, IoKind, OpStats, RetryPolicy, Run};
use std::collections::{BTreeMap, VecDeque};

/// Result of defragmenting one file (see
/// [`BtrfsSim::defrag_file`]).
#[derive(Debug, Clone, Copy)]
pub struct DefragResult {
    /// Combined I/O of the read + rewrite phases.
    pub stats: OpStats,
    /// File size in pages.
    pub pages: u64,
    /// Pages that were already cached when the defrag read them (reads
    /// saved, in the paper's Figure accounting).
    pub cached_pages: u64,
    /// Pages that were already dirty before the defrag (writes that
    /// would have happened anyway).
    pub already_dirty: u64,
    /// Extent count before.
    pub extents_before: usize,
    /// Extent count after.
    pub extents_after: usize,
}

/// The simulated copy-on-write filesystem.
///
/// `Clone` is the snapshot/fork plane's fork: an independent image,
/// copy-on-write below the [`BlockTable`] and copied everywhere else.
/// The fault and trace handles are `Rc`-shared; snapshots are captured
/// with both disarmed and re-armed per fork.
#[derive(Clone, PartialEq)]
pub struct BtrfsSim {
    device: DeviceId,
    disk: Disk,
    cache: PageCache,
    blocks: BlockTable,
    alloc: FreeSpace,
    inodes: InodeTable,
    snapshots: BTreeMap<SnapshotId, Snapshot>,
    next_snap: u32,
    fs_events: VecDeque<FsEvent>,
    retry: RetryPolicy,
    faults: Option<FaultHandle>,
    trace: Option<TraceHandle>,
}

impl BtrfsSim {
    /// Creates a filesystem on `disk` with a page cache of
    /// `cache_pages` pages.
    pub fn new(device: DeviceId, disk: Disk, cache_pages: usize) -> Self {
        let capacity = disk.capacity_blocks();
        BtrfsSim {
            device,
            disk,
            cache: PageCache::new(cache_pages),
            blocks: BlockTable::new(capacity),
            alloc: FreeSpace::new(capacity),
            inodes: InodeTable::new(),
            snapshots: BTreeMap::new(),
            next_snap: 1,
            fs_events: VecDeque::new(),
            retry: RetryPolicy::default(),
            faults: None,
            trace: None,
        }
    }

    /// Arms (or disarms, with `None`) tracing on this filesystem, its
    /// disk and its page cache. Pure observation: completion times,
    /// stats and event streams are unaffected.
    pub fn set_trace(&mut self, trace: Option<TraceHandle>) {
        self.disk.set_trace(trace.clone());
        self.cache.set_trace(trace.clone());
        self.trace = trace;
    }

    /// The armed trace handle, if any — tasks use it to bracket their
    /// work items with provenance spans.
    pub fn trace(&self) -> Option<&TraceHandle> {
        self.trace.as_ref()
    }

    /// Arms (or disarms) fault injection on the disk and page cache.
    /// Transient I/O faults are absorbed by bounded retry-and-backoff
    /// ([`RetryPolicy`]); only an exhausted retry budget surfaces as
    /// [`SimError::TransientIo`]. Latent errors
    /// ([`FaultSite::DiskLatentError`]) silently corrupt one block of a
    /// write run as it lands, surfacing later as
    /// [`SimError::ChecksumMismatch`] when something verifies the
    /// block.
    pub fn set_faults(&mut self, faults: Option<FaultHandle>) {
        self.disk.set_faults(faults.clone());
        self.cache.set_faults(faults.clone());
        self.faults = faults;
    }

    /// Overrides the transient-I/O retry policy (the fault matrix
    /// raises the budget under aggressive fault plans).
    pub fn set_retry_policy(&mut self, policy: RetryPolicy) {
        self.retry = policy;
    }

    /// The device this filesystem is mounted on.
    pub fn device(&self) -> DeviceId {
        self.device
    }

    /// The underlying disk (metrics, capacity).
    pub fn disk(&self) -> &Disk {
        &self.disk
    }

    /// Mutable disk access (metric resets).
    pub fn disk_mut(&mut self) -> &mut Disk {
        &mut self.disk
    }

    /// The page cache.
    pub fn cache(&self) -> &PageCache {
        &self.cache
    }

    /// Mutable page cache access (event draining).
    pub fn cache_mut(&mut self) -> &mut PageCache {
        &mut self.cache
    }

    /// The inode table / namespace.
    pub fn inodes(&self) -> &InodeTable {
        &self.inodes
    }

    /// The per-block state table.
    pub fn blocks(&self) -> &BlockTable {
        &self.blocks
    }

    /// Root directory inode.
    pub fn root(&self) -> InodeNr {
        self.inodes.root()
    }

    /// Blocks currently allocated.
    pub fn allocated_blocks(&self) -> u64 {
        self.alloc.allocated_blocks()
    }

    /// Drains pending namespace events for the Duet wiring.
    pub fn drain_fs_events(&mut self) -> Vec<FsEvent> {
        self.fs_events.drain(..).collect()
    }

    // ----- namespace operations -------------------------------------

    /// Creates a directory.
    pub fn mkdir(&mut self, parent: InodeNr, name: &str) -> SimResult<InodeNr> {
        let ino = self.inodes.create(parent, name, InodeKind::Dir)?;
        self.fs_events.push_back(FsEvent::Created {
            ino,
            parent,
            is_dir: true,
        });
        Ok(ino)
    }

    /// Creates an empty file.
    pub fn create_file(&mut self, parent: InodeNr, name: &str) -> SimResult<InodeNr> {
        let ino = self.inodes.create(parent, name, InodeKind::File)?;
        self.fs_events.push_back(FsEvent::Created {
            ino,
            parent,
            is_dir: false,
        });
        Ok(ino)
    }

    /// Deletes a file: invalidates its cached pages, releases its blocks
    /// (honouring snapshot sharing) and removes it from the namespace.
    pub fn delete_file(&mut self, ino: InodeNr) -> SimResult<()> {
        let node = self.inodes.get(ino)?;
        if node.is_dir() {
            return Err(SimError::InvalidArgument(format!("{ino} is a directory")));
        }
        let parent = node.parent;
        self.cache.remove_file(ino);
        let mut node = self.inodes.remove(ino)?;
        self.release(&node.extents.clear(), true)?;
        self.fs_events.push_back(FsEvent::Deleted { ino, parent });
        Ok(())
    }

    /// Moves `ino` under `new_parent` as `new_name` (the VFS rename
    /// hook of §4.1).
    pub fn rename(&mut self, ino: InodeNr, new_parent: InodeNr, new_name: &str) -> SimResult<()> {
        let old_parent = self.inodes.get(ino)?.parent;
        let is_dir = self.inodes.get(ino)?.is_dir();
        self.inodes.rename(ino, new_parent, new_name)?;
        self.fs_events.push_back(FsEvent::Renamed {
            ino,
            old_parent,
            new_parent,
            is_dir,
        });
        Ok(())
    }

    /// Resolves an absolute path.
    pub fn resolve(&self, path: &str) -> SimResult<InodeNr> {
        self.inodes.resolve(path)
    }

    /// Absolute path of an inode.
    pub fn path_of(&self, ino: InodeNr) -> SimResult<String> {
        self.inodes.path_of(ino)
    }

    // ----- block bookkeeping -----------------------------------------

    /// One referent — the live tree if `live`, else a snapshot — lets
    /// go of `runs`; what nobody references any more goes back to the
    /// allocator.
    fn release(&mut self, runs: &[Run], live: bool) -> SimResult<()> {
        for &run in runs {
            for freed in self.blocks.release_run(run, live)? {
                self.alloc.free_range(freed.start, freed.len);
            }
        }
        Ok(())
    }

    /// Installs freshly allocated `runs` as pages `page0..` of file
    /// `ino`: stamps them, maps them and releases what they displace.
    fn install(&mut self, ino: InodeNr, page0: u64, runs: &[Run]) -> SimResult<()> {
        let mut page = page0;
        for &run in runs {
            self.blocks.stamp_run(run, ino, page)?;
            page += run.len;
        }
        let displaced = self.inodes.get_mut(ino)?.extents.map_range(page0, runs);
        self.release(&displaced, true)
    }

    /// Allocates and installs fresh blocks for `npages` pages of file
    /// `ino` starting at logical page `page0`.
    fn cow_allocate(&mut self, ino: InodeNr, page0: u64, npages: u64) -> SimResult<Vec<Run>> {
        let runs = self.alloc.alloc_exact(npages)?;
        if let Some(trace) = &self.trace {
            trace.tick(TraceLayer::Btrfs, "alloc");
        }
        self.install(ino, page0, &runs)?;
        Ok(runs)
    }

    // ----- I/O helpers ------------------------------------------------

    fn submit_runs(
        &mut self,
        runs: &[Run],
        kind: IoKind,
        class: IoClass,
        now: SimInstant,
        stats: &mut OpStats,
    ) -> SimResult<()> {
        if let Some(trace) = &self.trace {
            trace.event(TraceLayer::Btrfs, "submit", now, || {
                vec![
                    ("op", kind.label().into()),
                    ("class", class.label().into()),
                    ("runs", runs.len().into()),
                    ("blocks", runs.iter().map(|r| r.len).sum::<u64>().into()),
                ]
            });
        }
        for &run in runs {
            self.disk
                .submit_run(run, kind, class, now, self.retry, stats)?;
            if kind == IoKind::Write {
                // A latent error corrupts one block of the run as it
                // lands; nothing notices until a later read or scrub
                // verifies the checksum.
                let corrupt_off = self.faults.as_ref().and_then(|faults| {
                    faults
                        .fire(FaultSite::DiskLatentError)
                        .then(|| faults.amplitude(FaultSite::DiskLatentError, 0, run.len))
                });
                if let Some(off) = corrupt_off {
                    #[expect(
                        clippy::let_underscore_must_use,
                        reason = "corrupting an unmapped block is a no-op by design"
                    )]
                    let _ = self.blocks.inject_corruption(run.start.offset(off));
                }
            }
        }
        Ok(())
    }

    /// Writes the blocks behind `pages` — flushed by the cache, or
    /// evicted dirty — to the device, coalesced.
    fn write_pages(
        &mut self,
        pages: &[PageMeta],
        class: IoClass,
        now: SimInstant,
        stats: &mut OpStats,
    ) -> SimResult<()> {
        let blocks: Vec<BlockNr> = pages.iter().filter_map(|m| m.block).collect();
        if blocks.is_empty() {
            return Ok(());
        }
        self.submit_runs(&coalesce(blocks), IoKind::Write, class, now, stats)
    }

    /// Enters pages `page0..` of `ino` into the cache dirty, backed by
    /// `runs`, charging dirty evictions to `stats`. Per page on
    /// purpose: LRU order and the cache's events are per page.
    fn cache_dirty(
        &mut self,
        ino: InodeNr,
        page0: u64,
        runs: &[Run],
        class: IoClass,
        now: SimInstant,
        stats: &mut OpStats,
    ) -> SimResult<()> {
        let mut evicted_all = Vec::new();
        let mut logical = page0;
        for run in runs {
            for i in 0..run.len {
                let key = PageKey::new(ino, PageIndex(logical + i));
                self.cache
                    .insert_into(key, Some(run.start.offset(i)), true, &mut evicted_all);
            }
            logical += run.len;
        }
        evicted_all.retain(|m| m.dirty);
        self.write_pages(&evicted_all, class, now, stats)
    }

    // ----- data path ---------------------------------------------------

    /// Reads `len_bytes` at byte `offset` of file `ino` through the page
    /// cache. Device reads verify block checksums (failing with
    /// [`SimError::ChecksumMismatch`] on injected corruption).
    pub fn read(
        &mut self,
        ino: InodeNr,
        offset: u64,
        len_bytes: u64,
        class: IoClass,
        now: SimInstant,
    ) -> SimResult<OpStats> {
        let mut stats = OpStats::none(now);
        if len_bytes == 0 {
            return Ok(stats);
        }
        let end = byte_range_end(offset, len_bytes)?;
        let size_pages = self.inodes.get(ino)?.size_pages();
        let p0 = offset / PAGE_SIZE;
        let p1 = end.div_ceil(PAGE_SIZE).min(size_pages);
        let mut missing: Vec<(PageIndex, BlockNr)> = Vec::new();
        for p in p0..p1 {
            let idx = PageIndex(p);
            let key = PageKey::new(ino, idx);
            if self.cache.lookup(key).is_some() {
                stats.cache_hits += 1;
            } else if let Some(b) = self.inodes.get(ino)?.extents.block_of(idx) {
                missing.push((idx, b));
            }
            // Unmapped pages (holes) read as zeroes with no I/O.
        }
        if missing.is_empty() {
            return Ok(stats);
        }
        // Verify checksums on the device read path.
        for (_, b) in &missing {
            if let Err(e) = self.blocks.verify_checksum(*b) {
                if let Some(trace) = &self.trace {
                    trace.event(TraceLayer::Btrfs, "checksum.fail", now, || {
                        vec![("block", b.raw().into()), ("ino", ino.raw().into())]
                    });
                }
                return Err(e);
            }
            if let Some(trace) = &self.trace {
                trace.tick(TraceLayer::Btrfs, "checksum.ok");
            }
        }
        let runs = coalesce(missing.iter().map(|(_, b)| *b).collect());
        self.submit_runs(&runs, IoKind::Read, class, now, &mut stats)?;
        // Populate the cache; dirty evictions are charged to this op.
        let mut evicted_all = Vec::new();
        for (idx, b) in missing {
            self.cache
                .insert_into(PageKey::new(ino, idx), Some(b), false, &mut evicted_all);
        }
        evicted_all.retain(|m| m.dirty);
        self.write_pages(&evicted_all, class, now, &mut stats)?;
        Ok(stats)
    }

    /// Writes `len_bytes` at byte `offset` of file `ino`. Copy-on-write:
    /// fresh blocks are allocated for the whole page range, the old ones
    /// are released (or left to their snapshots). Data sits dirty in the
    /// cache until written back by eviction, [`BtrfsSim::fsync`] or
    /// [`BtrfsSim::background_writeback`].
    pub fn write(
        &mut self,
        ino: InodeNr,
        offset: u64,
        len_bytes: u64,
        class: IoClass,
        now: SimInstant,
    ) -> SimResult<OpStats> {
        let mut stats = OpStats::none(now);
        if len_bytes == 0 {
            return Ok(stats);
        }
        if !self.inodes.exists(ino) {
            return Err(SimError::NoSuchInode(ino));
        }
        let end = byte_range_end(offset, len_bytes)?;
        let p0 = offset / PAGE_SIZE;
        let p1 = end.div_ceil(PAGE_SIZE);
        let npages = p1 - p0;
        let runs = self.cow_allocate(ino, p0, npages)?;
        // Update the size.
        {
            let node = self.inodes.get_mut(ino)?;
            node.size_bytes = node.size_bytes.max(end);
        }
        // Dirty pages enter the cache with their new blocks.
        self.cache_dirty(ino, p0, &runs, class, now, &mut stats)?;
        Ok(stats)
    }

    /// Appends `len_bytes` to the end of the file.
    pub fn append(
        &mut self,
        ino: InodeNr,
        len_bytes: u64,
        class: IoClass,
        now: SimInstant,
    ) -> SimResult<OpStats> {
        let size = self.inodes.get(ino)?.size_bytes;
        // Appends start on a fresh page boundary past EOF (partial-page
        // tails are rounded up; content granularity is one page).
        let offset = size.next_multiple_of(PAGE_SIZE).max(size);
        self.write(ino, offset, len_bytes, class, now)
    }

    /// Flushes all dirty pages of a file to the device.
    pub fn fsync(&mut self, ino: InodeNr, class: IoClass, now: SimInstant) -> SimResult<OpStats> {
        let mut stats = OpStats::none(now);
        let flushed = self.cache.flush_file(ino);
        self.write_pages(&flushed, class, now, &mut stats)?;
        Ok(stats)
    }

    /// Background writeback: flushes up to `max_pages` of the oldest
    /// dirty pages (the kernel flusher thread the defragmentation
    /// accounting in §6.2 refers to with "will be flushed soon anyway").
    pub fn background_writeback(
        &mut self,
        max_pages: usize,
        class: IoClass,
        now: SimInstant,
    ) -> SimResult<OpStats> {
        let mut stats = OpStats::none(now);
        let flushed = self.cache.writeback_batch(max_pages);
        self.write_pages(&flushed, class, now, &mut stats)?;
        Ok(stats)
    }

    /// Number of dirty pages in the cache (O(1)).
    pub fn dirty_pages(&self) -> usize {
        self.cache.dirty_len()
    }

    /// FIBMAP: logical page of a file → physical block (§4.2).
    pub fn fibmap(&self, ino: InodeNr, index: PageIndex) -> SimResult<Option<BlockNr>> {
        Ok(self.inodes.get(ino)?.extents.block_of(index))
    }

    // ----- population (experiment setup, no I/O accounting) -----------

    /// Creates a file of `size_bytes` with data "already on disk":
    /// blocks are allocated, stamped and mapped without charging any
    /// simulated I/O. Used to build the experimental file set (§6.1.3).
    pub fn populate_file(
        &mut self,
        parent: InodeNr,
        name: &str,
        size_bytes: u64,
    ) -> SimResult<InodeNr> {
        let ino = self.create_file(parent, name)?;
        let npages = sim_core::ids::pages_for_bytes(size_bytes);
        if npages > 0 {
            self.cow_allocate(ino, 0, npages)?;
            self.inodes.get_mut(ino)?.size_bytes = size_bytes;
        }
        Ok(ino)
    }

    /// Re-lays a file out into approximately `pieces` scattered extents
    /// (experiment setup: "our experiments are performed on a 10%
    /// fragmented file system", §6.2). No I/O is charged.
    pub fn fragment_file(&mut self, ino: InodeNr, pieces: u64) -> SimResult<()> {
        let npages = self.inodes.get(ino)?.size_pages();
        if npages == 0 || pieces == 0 {
            return Ok(());
        }
        // `pieces == 1` relocates the file contiguously (used to age the
        // filesystem layout so inode order no longer matches physical
        // order).
        let pieces = pieces.min(npages);
        let per = npages.div_ceil(pieces);
        // Free the current layout.
        let old = self.inodes.get_mut(ino)?.extents.clear();
        self.release(&old, true)?;
        // Allocate scattered runs. Each piece is carved with a trailing
        // gap from one contiguous allocation; freeing the gaps afterward
        // leaves the pieces physically separated, so the extent map
        // cannot merge them.
        const GAP: u64 = 4;
        let mut gaps: Vec<Run> = Vec::new();
        let mut logical = 0u64;
        let mut remaining = npages;
        while remaining > 0 {
            let want = per.min(remaining);
            let (run, gap) = match self.alloc.alloc_contiguous(want + GAP) {
                Ok(r) => (
                    Run {
                        start: r.start,
                        len: want,
                    },
                    Some(Run {
                        start: r.start.offset(want),
                        len: GAP,
                    }),
                ),
                // Space too tight for gaps: take what is available.
                Err(SimError::NoSpace) => (self.alloc.alloc(want)?, None),
                Err(e) => return Err(e),
            };
            self.install(ino, logical, &[run])?;
            logical += run.len;
            remaining -= run.len;
            if let Some(g) = gap {
                gaps.push(g);
            }
        }
        for g in gaps {
            self.alloc.free_range(g.start, g.len);
        }
        Ok(())
    }

    // ----- snapshots ----------------------------------------------------

    /// Takes a read-only snapshot of the live filesystem. All data
    /// blocks become shared (refcount +1) until the live tree overwrites
    /// them.
    pub fn create_snapshot(&mut self) -> SimResult<SnapshotId> {
        let id = SnapshotId(self.next_snap);
        self.next_snap += 1;
        let mut files = BTreeMap::new();
        let file_inos = self.inodes.files_by_inode();
        for ino in file_inos {
            let node = self.inodes.get(ino)?;
            let path = self.inodes.path_of(ino)?;
            let snap = SnapFile {
                extents: node.extents.clone(),
                size_bytes: node.size_bytes,
                path,
            };
            files.insert(ino, snap);
        }
        for e in files.values().flat_map(|f| f.extents.iter()) {
            self.blocks.ref_run(e.run())?;
        }
        self.snapshots.insert(id, Snapshot { id, files });
        Ok(id)
    }

    /// Deletes a snapshot, releasing its block references.
    pub fn delete_snapshot(&mut self, id: SnapshotId) -> SimResult<()> {
        let snap = self
            .snapshots
            .remove(&id)
            .ok_or_else(|| SimError::InvalidArgument(format!("{id} does not exist")))?;
        for f in snap.files.values() {
            let runs: Vec<Run> = f.extents.iter().map(Extent::run).collect();
            self.release(&runs, false)?;
        }
        Ok(())
    }

    /// Accesses a snapshot.
    pub fn snapshot(&self, id: SnapshotId) -> SimResult<&Snapshot> {
        self.snapshots
            .get(&id)
            .ok_or_else(|| SimError::InvalidArgument(format!("{id} does not exist")))
    }

    /// The block backing page `index` of file `ino` *in the snapshot*.
    pub fn snapshot_block(
        &self,
        id: SnapshotId,
        ino: InodeNr,
        index: PageIndex,
    ) -> SimResult<Option<BlockNr>> {
        Ok(self
            .snapshot(id)?
            .files
            .get(&ino)
            .and_then(|f| f.extents.block_of(index)))
    }

    /// Returns `true` if page `index` of live file `ino` is still
    /// backed by the same block as in the snapshot — the back-reference
    /// check the opportunistic backup performs before copying a cached
    /// page (§5.2).
    pub fn shared_with_snapshot(
        &self,
        id: SnapshotId,
        ino: InodeNr,
        index: PageIndex,
    ) -> SimResult<bool> {
        let snap_block = self.snapshot_block(id, ino, index)?;
        let live_block = match self.inodes.get(ino) {
            Ok(node) => node.extents.block_of(index),
            Err(SimError::NoSuchInode(_)) => None,
            Err(e) => return Err(e),
        };
        Ok(snap_block.is_some() && snap_block == live_block)
    }

    // ----- scrub support -------------------------------------------------

    /// Allocated block ranges in ascending physical order — the
    /// scrubber's processing order.
    pub fn allocated_ranges(&self) -> Vec<Run> {
        self.alloc.allocated_ranges()
    }

    /// Raw device read bypassing the page cache (used for blocks with no
    /// live file, e.g. snapshot-only blocks).
    pub fn read_raw(
        &mut self,
        start: BlockNr,
        len: u64,
        class: IoClass,
        now: SimInstant,
    ) -> SimResult<OpStats> {
        let mut stats = OpStats::none(now);
        self.submit_runs(&[Run { start, len }], IoKind::Read, class, now, &mut stats)?;
        Ok(stats)
    }

    /// Verifies a block's checksum, repairing it if corrupted. Returns
    /// `true` if a corruption was found (and fixed).
    pub fn verify_and_repair(&mut self, b: BlockNr) -> SimResult<bool> {
        match self.blocks.verify_checksum(b) {
            Ok(()) => {
                if let Some(trace) = &self.trace {
                    trace.tick(TraceLayer::Btrfs, "checksum.ok");
                }
                Ok(false)
            }
            Err(SimError::ChecksumMismatch(_)) => {
                self.blocks.repair(b)?;
                if let Some(trace) = &self.trace {
                    trace.tick(TraceLayer::Btrfs, "repair");
                }
                Ok(true)
            }
            Err(e) => Err(e),
        }
    }

    /// Injects a silent corruption for scrubber tests.
    pub fn inject_corruption(&mut self, b: BlockNr) -> SimResult<()> {
        self.blocks.inject_corruption(b)
    }

    // ----- defragmentation -------------------------------------------------

    /// Extent count of a file (the fragmentation measure).
    pub fn file_extent_count(&self, ino: InodeNr) -> SimResult<usize> {
        Ok(self.inodes.get(ino)?.extents.extent_count())
    }

    /// Defragments one file: brings its pages into memory, rewrites them
    /// into (as close as possible to) one contiguous extent and flushes
    /// the result as a single transaction (§5.3).
    pub fn defrag_file(
        &mut self,
        ino: InodeNr,
        class: IoClass,
        now: SimInstant,
    ) -> SimResult<DefragResult> {
        let node = self.inodes.get(ino)?;
        let pages = node.size_pages();
        let size = node.size_bytes;
        let extents_before = node.extents.extent_count();
        if pages == 0 || extents_before <= 1 {
            return Ok(DefragResult {
                stats: OpStats::none(now),
                pages,
                cached_pages: 0,
                already_dirty: 0,
                extents_before,
                extents_after: extents_before,
            });
        }
        // Count savings *before* touching anything.
        let cached_pages = self.cache.pages_of(ino) as u64;
        let already_dirty = self
            .cache
            .pages_of_file(ino)
            .iter()
            .filter(|m| m.dirty)
            .count() as u64;
        // Phase 1: bring the file into memory.
        let mut stats = self.read(ino, 0, size, class, now)?;
        // Phase 2: rewrite into fresh space — first fit hands back one
        // contiguous run whenever one exists.
        let runs = self.alloc.alloc_exact(pages)?;
        self.install(ino, 0, &runs)?;
        // Refresh cached pages onto the new blocks, dirty.
        self.cache_dirty(ino, 0, &runs, class, now, &mut stats)?;
        // Phase 3: commit the transaction.
        let flush = self.fsync(ino, class, now)?;
        stats.merge(&flush);
        let extents_after = self.inodes.get(ino)?.extents.extent_count();
        Ok(DefragResult {
            stats,
            pages,
            cached_pages,
            already_dirty,
            extents_before,
            extents_after,
        })
    }

    // ----- introspection --------------------------------------------------

    /// Live back-reference of a block (which file page it backs).
    pub fn backref_of(&self, b: BlockNr) -> SimResult<Option<BackRef>> {
        self.blocks.backref_of(b)
    }

    /// Mean extent count across all files (filesystem fragmentation).
    pub fn mean_extents_per_file(&self) -> f64 {
        let files = self.inodes.files_by_inode();
        if files.is_empty() {
            return 0.0;
        }
        let total: usize = files
            .iter()
            .map(|&i| {
                self.inodes
                    .get(i)
                    .map(|n| n.extents.extent_count())
                    .unwrap_or(0)
            })
            .sum();
        total as f64 / files.len() as f64
    }

    /// Full-filesystem consistency check (fsck): verifies that
    ///
    /// - every block's reference count equals the number of live-tree
    ///   and snapshot extents pointing at it, so a block none claims
    ///   has none;
    /// - no two live extents claim the same block;
    /// - every live block's back-reference names the page that maps it,
    ///   and a block the live tree does not map has none;
    /// - the allocator's allocated-block count equals the number of
    ///   referenced blocks;
    /// - every cached page's block mapping agrees with the extent tree.
    ///
    /// Intended for tests and debugging; cost is O(data).
    pub fn check_consistency(&self) -> SimResult<()> {
        use std::collections::BTreeMap;
        let fail = |why: String| Err(SimError::InvalidArgument(format!("fsck: {why}")));
        // Expected refcounts from the live tree.
        let mut expect: BTreeMap<BlockNr, u32> = BTreeMap::new();
        for node in self.inodes.iter() {
            for e in node.extents.iter() {
                for i in 0..e.len {
                    let b = e.physical.offset(i);
                    let c = expect.entry(b).or_insert(0);
                    *c += 1;
                    if *c > 1 {
                        return fail(format!("block {b} claimed by two live extents"));
                    }
                    // Back-reference must point at this page.
                    match self.blocks.backref_of(b)? {
                        Some(br) if br.ino == node.ino && br.index.raw() == e.logical + i => {}
                        other => {
                            return fail(format!(
                                "block {b}: backref {other:?} != ({}, pg {})",
                                node.ino,
                                e.logical + i
                            ));
                        }
                    }
                }
            }
        }
        // So far `expect` holds the live blocks only.
        for (b, br) in self.blocks.backrefs() {
            if !expect.contains_key(&b) {
                return fail(format!(
                    "block {b}: backref {br:?}, the live tree does not map it"
                ));
            }
        }
        // Snapshot references.
        for snap in self.snapshots.values() {
            for f in snap.files.values() {
                for e in f.extents.iter() {
                    for i in 0..e.len {
                        *expect.entry(e.physical.offset(i)).or_insert(0) += 1;
                    }
                }
            }
        }
        // Compare against the block table and the allocator.
        for (&b, &want) in &expect {
            let got = self.blocks.refcount_of(b)?;
            if got != want {
                return fail(format!("block {b}: refcount {got}, expected {want}"));
            }
        }
        for (b, got) in self.blocks.referenced() {
            if !expect.contains_key(&b) {
                return fail(format!("block {b}: refcount {got}, no extent claims it"));
            }
        }
        let referenced = expect.len() as u64;
        if referenced != self.alloc.allocated_blocks() {
            return fail(format!(
                "allocator says {} blocks allocated, {} are referenced",
                self.alloc.allocated_blocks(),
                referenced
            ));
        }
        // Cached pages must agree with the extent tree (pages of deleted
        // files must not linger).
        for meta in self.cache.iter() {
            let node = match self.inodes.get(meta.key.ino) {
                Ok(n) => n,
                Err(_) => {
                    return fail(format!("cache holds page of missing {}", meta.key.ino));
                }
            };
            if let Some(b) = meta.block {
                if node.extents.block_of(meta.key.index) != Some(b) {
                    return fail(format!(
                        "cached page ({}, {}) maps {b}, extent tree disagrees",
                        meta.key.ino, meta.key.index
                    ));
                }
            }
        }
        Ok(())
    }

    /// Test-only: artificially bump a block's reference count so the
    /// consistency checker's detection paths can be exercised.
    #[cfg(test)]
    pub(crate) fn corrupt_refcount_for_test(&mut self, b: BlockNr) {
        self.blocks.ref_inc(b).expect("in range");
    }

    /// Test-only: leave a live back-reference on a block, whatever maps
    /// it.
    #[cfg(test)]
    pub(crate) fn set_backref_for_test(&mut self, b: BlockNr, br: BackRef) {
        self.blocks.set_backref(b, br).expect("in range");
    }
}
