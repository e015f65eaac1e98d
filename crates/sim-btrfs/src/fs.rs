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
use sim_core::trace::{TraceHandle, TraceKind};
use sim_core::{
    BlockNr,
    DeviceId,
    InoMap,
    InodeNr,
    PageIndex,
    SimError,
    SimInstant,
    SimResult,
    PAGE_SIZE, //
};
use sim_disk::{coalesce_into, Disk, IoClass, IoKind, OpStats, RetryPolicy, Run};
use std::collections::{BTreeMap, VecDeque};
use std::mem;

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

/// The data path's per-call lists, kept between calls so that a
/// steady-state read, write-back or dirty eviction allocates nothing.
/// Each use takes a list with `mem::take`, clears it and puts it back.
/// They are not simulated state: `==` ignores them and a clone starts
/// them empty.
#[derive(Default)]
struct Buffers {
    /// A read's missing pages and the blocks behind them.
    missing: Vec<(PageIndex, BlockNr)>,
    /// Blocks to submit, before coalescing.
    blocks: Vec<BlockNr>,
    /// Their maximal runs.
    runs: Vec<Run>,
    /// Pages the cache evicted on insert.
    evicted: Vec<PageMeta>,
}

impl Clone for Buffers {
    fn clone(&self) -> Self {
        Buffers::default()
    }
}

impl PartialEq for Buffers {
    fn eq(&self, _: &Self) -> bool {
        true
    }
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
    bufs: Buffers,
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
            bufs: Buffers::default(),
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

    /// Allocates fresh blocks for pages `page0..page0 + npages`, which
    /// must end within what a back-reference holds (pages below 2^32):
    /// a range past it is refused before the allocator moves, so the
    /// free map, the extent maps and the block table stay in step.
    fn alloc_pages(&mut self, page0: u64, npages: u64) -> SimResult<Vec<Run>> {
        match page0.checked_add(npages) {
            Some(end) if end <= 1 << 32 => self.alloc.alloc_exact(npages),
            _ => Err(SimError::InvalidArgument(format!(
                "pages {page0}..+{npages}: a file ends at page 2^32"
            ))),
        }
    }

    /// Allocates and installs fresh blocks for `npages` pages of file
    /// `ino` starting at logical page `page0`.
    fn cow_allocate(&mut self, ino: InodeNr, page0: u64, npages: u64) -> SimResult<Vec<Run>> {
        let runs = self.alloc_pages(page0, npages)?;
        if let Some(trace) = &self.trace {
            trace.tick(TraceKind::BtrfsAlloc);
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
            trace.event(TraceKind::BtrfsSubmit, now, || {
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

    /// Submits `blocks` (any order, duplicates allowed) as maximal
    /// ascending runs; nothing at all if there are none.
    fn submit_blocks(
        &mut self,
        blocks: impl IntoIterator<Item = BlockNr>,
        kind: IoKind,
        class: IoClass,
        now: SimInstant,
        stats: &mut OpStats,
    ) -> SimResult<()> {
        let mut buf = mem::take(&mut self.bufs.blocks);
        let mut runs = mem::take(&mut self.bufs.runs);
        buf.clear();
        buf.extend(blocks);
        coalesce_into(&mut buf, &mut runs);
        let submitted = if runs.is_empty() {
            Ok(())
        } else {
            self.submit_runs(&runs, kind, class, now, stats)
        };
        self.bufs.blocks = buf;
        self.bufs.runs = runs;
        submitted
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
        let blocks = pages.iter().filter_map(|m| m.block);
        self.submit_blocks(blocks, IoKind::Write, class, now, stats)
    }

    /// Writes the dirty ones of `evicted` — taken from `self.bufs` —
    /// and puts the list back.
    fn write_evicted(
        &mut self,
        mut evicted: Vec<PageMeta>,
        class: IoClass,
        now: SimInstant,
        stats: &mut OpStats,
    ) -> SimResult<()> {
        evicted.retain(|m| m.dirty);
        let written = self.write_pages(&evicted, class, now, stats);
        self.bufs.evicted = evicted;
        written
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
        let mut evicted = mem::take(&mut self.bufs.evicted);
        evicted.clear();
        let mut logical = page0;
        for run in runs {
            for i in 0..run.len {
                let key = PageKey::new(ino, PageIndex(logical + i));
                self.cache
                    .insert_into(key, Some(run.start.offset(i)), true, &mut evicted);
            }
            logical += run.len;
        }
        self.write_evicted(evicted, class, now, stats)
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
        let node = self.inodes.get(ino)?;
        let p0 = offset / PAGE_SIZE;
        let p1 = end.div_ceil(PAGE_SIZE).min(node.size_pages());
        let mut extents = node.extents.cursor();
        let mut missing = mem::take(&mut self.bufs.missing);
        missing.clear();
        for p in p0..p1 {
            let idx = PageIndex(p);
            let key = PageKey::new(ino, idx);
            if self.cache.lookup(key).is_some() {
                stats.cache_hits += 1;
            } else if let Some(b) = extents.block_of(idx) {
                missing.push((idx, b));
            }
            // Unmapped pages (holes) read as zeroes with no I/O.
        }
        let read = self.read_missing(ino, &missing, class, now, &mut stats);
        self.bufs.missing = missing;
        read.map(|()| stats)
    }

    /// The device half of [`BtrfsSim::read`]: verifies and reads the
    /// `missing` pages of `ino`, then caches them.
    fn read_missing(
        &mut self,
        ino: InodeNr,
        missing: &[(PageIndex, BlockNr)],
        class: IoClass,
        now: SimInstant,
        stats: &mut OpStats,
    ) -> SimResult<()> {
        if missing.is_empty() {
            return Ok(());
        }
        // Verify checksums on the device read path.
        for (_, b) in missing {
            if let Err(e) = self.blocks.verify_checksum(*b) {
                if let Some(trace) = &self.trace {
                    trace.event(TraceKind::BtrfsChecksumFail, now, || {
                        vec![("block", b.raw().into()), ("ino", ino.raw().into())]
                    });
                }
                return Err(e);
            }
            if let Some(trace) = &self.trace {
                trace.tick(TraceKind::BtrfsChecksumOk);
            }
        }
        let blocks = missing.iter().map(|&(_, b)| b);
        self.submit_blocks(blocks, IoKind::Read, class, now, stats)?;
        // Populate the cache; dirty evictions are charged to this op.
        let mut evicted = mem::take(&mut self.bufs.evicted);
        evicted.clear();
        for &(idx, b) in missing {
            self.cache
                .insert_into(PageKey::new(ino, idx), Some(b), false, &mut evicted);
        }
        self.write_evicted(evicted, class, now, stats)
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
        let mut files = InoMap::new();
        for node in self.inodes.files() {
            let snap = SnapFile {
                extents: node.extents.clone(),
                size_bytes: node.size_bytes,
                path: self.inodes.path_of(node.ino)?,
            };
            files.insert(node.ino, snap);
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
                    trace.tick(TraceKind::BtrfsChecksumOk);
                }
                Ok(false)
            }
            Err(SimError::ChecksumMismatch(_)) => {
                self.blocks.repair(b)?;
                if let Some(trace) = &self.trace {
                    trace.tick(TraceKind::BtrfsRepair);
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
        let runs = self.alloc_pages(0, pages)?;
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

    /// Mean extent count across all files (filesystem fragmentation).
    pub fn mean_extents_per_file(&self) -> f64 {
        let (files, total) = self
            .inodes
            .files()
            .fold((0usize, 0usize), |(files, total), n| {
                (files + 1, total + n.extents.extent_count())
            });
        if files == 0 {
            return 0.0;
        }
        total as f64 / files as f64
    }

    /// Full-filesystem consistency check (fsck): verifies that
    ///
    /// - every block's reference count equals the number of live-tree
    ///   and snapshot extents pointing at it, so a block none claims
    ///   has none;
    /// - no two live extents claim the same block;
    /// - every live block's back-reference names the page that maps it,
    ///   and a block the live tree does not map has none;
    /// - free and referenced blocks split the device: every referenced
    ///   block lies outside the free map and every unreferenced block
    ///   inside it;
    /// - the allocator's own invariants hold (coalesced ranges, the
    ///   free count, the region-max tree);
    /// - every cached page's block mapping agrees with the extent tree.
    ///
    /// Intended for tests and debugging; cost is O(data).
    pub fn check_consistency(&self) -> SimResult<()> {
        let fail = |why: String| Err(SimError::InvalidArgument(format!("fsck: {why}")));
        // Live extents in block order, each with the page its first
        // block backs.
        let mut live: Vec<(Run, InodeNr, u64)> = self
            .inodes
            .iter()
            .flat_map(|node| node.extents.iter().map(|e| (e.run(), node.ino, e.logical)))
            .collect();
        live.sort_unstable_by_key(|(run, ..)| run.start);
        for w in live.windows(2) {
            if w[1].0.start.raw() < w[0].0.start.raw() + w[0].0.len {
                let b = w[1].0.start;
                return fail(format!("block {b} claimed by two live extents"));
            }
        }
        // The back-reference pieces must tile the live extents exactly,
        // naming the pages that map them: both lists ascend, so one pass
        // compares them run by run.
        let mut pieces = self.blocks.backrefs();
        let mut piece = pieces.next();
        let orphan = |(run, br): (Run, BackRef)| {
            let b = run.start;
            fail(format!(
                "block {b}: backref {br:?}, the live tree does not map it"
            ))
        };
        for &(run, ino, logical) in &live {
            if let Some(p) = piece.filter(|(p, _)| p.start < run.start) {
                return orphan(p);
            }
            let end = run.start.raw() + run.len;
            let mut at = run.start;
            while at.raw() < end {
                let want = BackRef {
                    ino,
                    index: PageIndex(logical + (at.raw() - run.start.raw())),
                };
                let (mut p, br) = match piece {
                    Some((p, br)) if p.start == at && br == want => (p, br),
                    other => {
                        let got = other.filter(|(p, _)| p.start == at).map(|(_, br)| br);
                        return fail(format!(
                            "block {at}: backref {got:?} != ({ino}, pg {})",
                            want.index.raw()
                        ));
                    }
                };
                let n = p.len.min(end - at.raw());
                at = at.offset(n);
                p.start = at;
                p.len -= n;
                piece = if p.len > 0 {
                    let index = PageIndex(br.index.raw() + n);
                    Some((p, BackRef { index, ..br }))
                } else {
                    pieces.next()
                };
            }
        }
        if let Some(p) = piece {
            return orphan(p);
        }
        // Expected refcounts — live and snapshot extents — as maximal
        // runs of one count each, from the extents' sorted edges.
        let snapshot_extents = self.snapshots.values().flat_map(|s| s.files.values());
        let claims = live
            .iter()
            .map(|&(run, ..)| run)
            .chain(snapshot_extents.flat_map(|f| f.extents.iter().map(Extent::run)));
        let mut edges: Vec<(u64, i64)> = claims
            .flat_map(|r| [(r.start.raw(), 1), (r.start.raw() + r.len, -1)])
            .collect();
        edges.sort_unstable();
        let mut expect: Vec<(Run, u32)> = Vec::new();
        let (mut count, mut from) = (0i64, 0u64);
        for (at, delta) in edges {
            if at > from && count > 0 {
                let run = Run {
                    start: BlockNr(from),
                    len: at - from,
                };
                expect.push((run, count as u32));
            }
            count += delta;
            from = at;
        }
        // Compare against the block table's counted pieces run by run:
        // both walks ascend, and each is eaten from the front as the
        // other catches up.
        let rest = |r: Run, n: u64| Run {
            start: r.start.offset(n),
            len: r.len - n,
        };
        let mut referenced = self.blocks.referenced();
        let mut piece = referenced.next();
        let unclaimed = |(r, got): (Run, u32)| {
            let b = r.start;
            fail(format!("block {b}: refcount {got}, no extent claims it"))
        };
        for &(run, want) in &expect {
            let mut at = run;
            while at.len > 0 {
                let (r, got) = match piece {
                    Some(p) if p.0.start < at.start => return unclaimed(p),
                    Some(p) if p.0.start == at.start => p,
                    _ => {
                        let b = at.start;
                        return fail(format!("block {b}: refcount 0, expected {want}"));
                    }
                };
                if got != want {
                    let b = at.start;
                    return fail(format!("block {b}: refcount {got}, expected {want}"));
                }
                let n = r.len.min(at.len);
                at = rest(at, n);
                piece = if r.len > n {
                    Some((rest(r, n), got))
                } else {
                    referenced.next()
                };
            }
        }
        if let Some(p) = piece {
            return unclaimed(p);
        }
        if let Err(why) = self.alloc.check_invariants() {
            return fail(why);
        }
        // The free/allocated split, run by run as well: a referenced
        // block below the next allocated one is free, an allocated block
        // with no referenced one at or below it is leaked.
        let mut claims = expect.iter().map(|&(run, _)| run);
        let mut claim = claims.next();
        for mut a in self.alloc.allocated_ranges() {
            while a.len > 0 {
                let r = match claim {
                    Some(r) if r.start < a.start => {
                        let b = r.start;
                        return fail(format!("block {b} is referenced but free"));
                    }
                    Some(r) if r.start == a.start => r,
                    _ => {
                        let b = a.start;
                        return fail(format!("block {b} is allocated, nothing references it"));
                    }
                };
                let n = r.len.min(a.len);
                a = rest(a, n);
                claim = if r.len > n {
                    Some(rest(r, n))
                } else {
                    claims.next()
                };
            }
        }
        if let Some(r) = claim {
            let b = r.start;
            return fail(format!("block {b} is referenced but free"));
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

    /// Test-only: return live block `b` to the free map and take a free
    /// block elsewhere in its place, keeping the allocated count. Both
    /// neighbours of `b` must be allocated.
    #[cfg(test)]
    pub(crate) fn swap_free_block_for_test(&mut self, b: BlockNr) -> BlockNr {
        self.alloc.free_range(b, 1);
        let taken = self.alloc.alloc(2).expect("space");
        self.alloc.free_range(taken.start.offset(1), 1);
        taken.start
    }

    /// Test-only: leave a live back-reference on a block, whatever maps
    /// it.
    #[cfg(test)]
    pub(crate) fn set_backref_for_test(&mut self, b: BlockNr, br: BackRef) {
        self.blocks.set_backref(b, br).expect("in range");
    }
}
