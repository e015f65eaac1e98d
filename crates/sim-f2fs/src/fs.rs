//! The log-structured filesystem: append-only writes, block
//! invalidation, and segment cleaning.
//!
//! Semantics modelled on F2fs (§5.4 of the paper):
//!
//! - data is written out by *appending to the log*: dirty pages are
//!   assigned fresh blocks at the log head when flushed, and the old
//!   block copy is invalidated in its segment — the moment the paper's
//!   Duet garbage collector observes through `Flushed` notifications;
//! - the background cleaner picks a victim segment by a cost function,
//!   synchronously reads its valid blocks (through the page cache — a
//!   block that is already cached needs no read, which is the entire
//!   Duet saving) and marks them dirty for asynchronous writeback;
//! - when clean segments run out, the filesystem falls back to slab
//!   reuse of invalid blocks in scattered segments (SSR), degrading
//!   writes to random I/O — the latency cliff §6.2 mentions (57 %
//!   latency increase).

use crate::segment::{segment_of, segment_start, SegState, SegmentInfo};
use sim_cache::{PageCache, PageKey, PageMeta};
use sim_core::fault::FaultHandle;
use sim_core::ids::byte_range_end;
use sim_core::trace::{TraceHandle, TraceKind};
use sim_core::{
    BlockNr,
    DeviceId,
    InoMap,
    InodeNr,
    PageIndex,
    SegmentNr,
    SimError,
    SimInstant,
    SimResult,
    PAGE_SIZE, //
};
use sim_disk::{coalesce, Disk, IoClass, IoKind, OpStats, RetryPolicy};
use std::collections::BTreeMap;

/// Result of cleaning one segment (Table 6's measured quantity).
#[derive(Debug, Clone, Copy)]
pub struct CleanResult {
    /// The victim segment.
    pub seg: SegmentNr,
    /// Valid blocks that had to be migrated.
    pub valid_blocks: u32,
    /// Valid blocks already in the page cache (reads saved).
    pub cached_blocks: u32,
    /// Blocks read from the device.
    pub blocks_read: u64,
    /// Wall-clock (virtual) duration of the synchronous read phase —
    /// the "segment cleaning time" of Table 6.
    pub duration: sim_core::SimDuration,
    /// When the read phase finished.
    pub finish: SimInstant,
}

#[derive(Debug, Clone)]
struct F2fsInode {
    name: String,
    size_bytes: u64,
    /// Page index → current on-disk block.
    map: Vec<Option<BlockNr>>,
}

const NO_OWNER: u64 = u64::MAX;

/// The simulated log-structured filesystem.
#[derive(Clone)]
pub struct F2fsSim {
    device: DeviceId,
    disk: Disk,
    cache: PageCache,
    seg_blocks: u64,
    nsegs: u32,
    segs: Vec<SegmentInfo>,
    /// Per-block validity.
    valid: Vec<bool>,
    /// Per-block owner (ino, page), NO_OWNER if invalid.
    owner_ino: Vec<u64>,
    owner_idx: Vec<u64>,
    /// Inode table, indexed by inode number: numbers are handed out
    /// densely and never reused, so a lookup is one load and every walk
    /// is in ascending inode order.
    inodes: InoMap<F2fsInode>,
    /// Name → inode, probed with borrowed `&str` keys.
    names: BTreeMap<String, InodeNr>,
    next_ino: u64,
    /// Log head: segment and next offset within it.
    head_seg: SegmentNr,
    head_off: u64,
    /// Whether the head segment was taken by SSR rather than from the
    /// free pool: every block allocated in it is an SSR write.
    head_ssr: bool,
    /// Logical write counter (drives segment mtime/age).
    write_clock: u64,
    free_segs: u32,
    /// Threshold of free segments below which SSR engages.
    ssr_threshold: u32,
    retry: RetryPolicy,
    trace: Option<TraceHandle>,
}

impl F2fsSim {
    /// Creates a filesystem with `seg_blocks`-block segments on `disk`.
    ///
    /// # Panics
    ///
    /// Panics if the disk capacity is not a positive multiple of
    /// `seg_blocks`.
    pub fn new(device: DeviceId, disk: Disk, cache_pages: usize, seg_blocks: u64) -> Self {
        let capacity = disk.capacity_blocks();
        assert!(
            seg_blocks > 0 && capacity.is_multiple_of(seg_blocks) && capacity > 0,
            "capacity {capacity} must be a positive multiple of segment size {seg_blocks}"
        );
        let nsegs = (capacity / seg_blocks) as u32;
        let mut fs = F2fsSim {
            device,
            disk,
            cache: PageCache::new(cache_pages),
            seg_blocks,
            nsegs,
            segs: vec![SegmentInfo::free(); nsegs as usize],
            valid: vec![false; capacity as usize],
            owner_ino: vec![NO_OWNER; capacity as usize],
            owner_idx: vec![0; capacity as usize],
            inodes: InoMap::new(),
            names: BTreeMap::new(),
            next_ino: 1,
            head_seg: SegmentNr(0),
            head_off: 0,
            head_ssr: false,
            write_clock: 0,
            free_segs: nsegs,
            ssr_threshold: 4,
            retry: RetryPolicy::default(),
            trace: None,
        };
        fs.segs[0].state = SegState::Open;
        fs.free_segs -= 1;
        fs
    }

    /// Arms (or disarms) fault injection on the disk and page cache.
    /// Transient I/O faults are absorbed by bounded retry-and-backoff
    /// ([`RetryPolicy`]); only an exhausted retry budget surfaces as
    /// [`SimError::TransientIo`].
    pub fn set_faults(&mut self, faults: Option<FaultHandle>) {
        self.disk.set_faults(faults.clone());
        self.cache.set_faults(faults);
    }

    /// Arms (or disarms, with `None`) tracing on this filesystem, its
    /// disk and its page cache. Pure observation: completion times,
    /// stats and event streams are unaffected.
    pub fn set_trace(&mut self, trace: Option<TraceHandle>) {
        self.disk.set_trace(trace.clone());
        self.cache.set_trace(trace.clone());
        self.trace = trace;
    }

    /// The armed trace handle, if any.
    pub fn trace(&self) -> Option<&TraceHandle> {
        self.trace.as_ref()
    }

    /// Overrides the transient-I/O retry policy (the fault matrix
    /// raises the budget under aggressive fault plans).
    pub fn set_retry_policy(&mut self, policy: RetryPolicy) {
        self.retry = policy;
    }

    /// Device identifier.
    pub fn device(&self) -> DeviceId {
        self.device
    }

    /// The underlying disk.
    pub fn disk(&self) -> &Disk {
        &self.disk
    }

    /// Mutable disk access.
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

    /// Blocks per segment.
    pub fn seg_blocks(&self) -> u64 {
        self.seg_blocks
    }

    /// Total segments.
    pub fn nsegs(&self) -> u32 {
        self.nsegs
    }

    /// Segment info.
    pub fn segment(&self, seg: SegmentNr) -> &SegmentInfo {
        &self.segs[seg.raw() as usize]
    }

    /// Number of free segments.
    pub fn free_segments(&self) -> u32 {
        self.free_segs
    }

    /// Logical write clock (for age-based victim policies).
    pub fn write_clock(&self) -> u64 {
        self.write_clock
    }

    /// Returns `true` when clean segments are nearly exhausted and the
    /// filesystem would resort to slack-space reuse (SSR).
    pub fn is_ssr(&self) -> bool {
        self.free_segs <= self.ssr_threshold
    }

    /// The segment a block lives in.
    pub fn segment_of_block(&self, b: BlockNr) -> SegmentNr {
        segment_of(b, self.seg_blocks)
    }

    /// Whether a block holds live data.
    pub fn is_valid(&self, b: BlockNr) -> bool {
        self.valid[b.raw() as usize]
    }

    /// The file page a valid block backs.
    pub fn owner_of(&self, b: BlockNr) -> Option<(InodeNr, PageIndex)> {
        let i = b.raw() as usize;
        if self.owner_ino[i] == NO_OWNER {
            None
        } else {
            Some((InodeNr(self.owner_ino[i]), PageIndex(self.owner_idx[i])))
        }
    }

    /// Valid blocks of a segment with their owners.
    pub fn valid_blocks_of(&self, seg: SegmentNr) -> Vec<(BlockNr, InodeNr, PageIndex)> {
        let start = segment_start(seg, self.seg_blocks).raw();
        (start..start + self.seg_blocks)
            .filter(|&b| self.valid[b as usize])
            .filter_map(|b| {
                let (ino, idx) = self.owner_of(BlockNr(b))?;
                Some((BlockNr(b), ino, idx))
            })
            .collect()
    }

    /// Counts a segment's valid blocks that are currently in the page
    /// cache (a ground-truth query; the Duet GC tracks an approximation
    /// of this from events).
    pub fn cached_valid_blocks(&self, seg: SegmentNr) -> u32 {
        self.valid_blocks_of(seg)
            .iter()
            .filter(|(_, ino, idx)| self.cache.contains(PageKey::new(*ino, *idx)))
            .count() as u32
    }

    // ----- namespace ------------------------------------------------------

    /// Creates an empty file.
    pub fn create_file(&mut self, name: &str) -> SimResult<InodeNr> {
        if self.names.contains_key(name) {
            return Err(SimError::AlreadyExists(name.to_string()));
        }
        let ino = InodeNr(self.next_ino);
        self.next_ino += 1;
        self.inodes.insert(
            ino,
            F2fsInode {
                name: name.to_string(),
                size_bytes: 0,
                map: Vec::new(),
            },
        );
        self.names.insert(name.to_string(), ino);
        Ok(ino)
    }

    /// Looks a file up by name.
    pub fn lookup(&self, name: &str) -> Option<InodeNr> {
        self.names.get(name).copied()
    }

    /// File size in bytes.
    pub fn size_of(&self, ino: InodeNr) -> SimResult<u64> {
        Ok(self.get(ino)?.size_bytes)
    }

    /// Returns `true` if the file exists.
    pub fn exists(&self, ino: InodeNr) -> bool {
        self.inodes.contains_key(ino)
    }

    /// Current on-disk block of a file page (the F2fs node-table
    /// mapping), or `None` for holes, unflushed new pages and missing
    /// files.
    pub fn mapping_of(&self, ino: InodeNr, index: PageIndex) -> Option<BlockNr> {
        self.inodes
            .get(ino)
            .and_then(|n| n.map.get(index.raw() as usize).copied().flatten())
    }

    /// All file inodes, in ascending inode order.
    pub fn files(&self) -> Vec<InodeNr> {
        self.inodes.keys().collect()
    }

    fn get(&self, ino: InodeNr) -> SimResult<&F2fsInode> {
        self.inodes.get(ino).ok_or(SimError::NoSuchInode(ino))
    }

    fn get_mut(&mut self, ino: InodeNr) -> SimResult<&mut F2fsInode> {
        self.inodes.get_mut(ino).ok_or(SimError::NoSuchInode(ino))
    }

    /// Deletes a file: all its blocks become invalid; cached pages are
    /// dropped.
    pub fn delete_file(&mut self, ino: InodeNr) -> SimResult<()> {
        let node = self.inodes.remove(ino).ok_or(SimError::NoSuchInode(ino))?;
        self.names.remove(&node.name);
        self.cache.remove_file(ino);
        for b in node.map.into_iter().flatten() {
            self.invalidate(b);
        }
        Ok(())
    }

    // ----- log allocation ---------------------------------------------------

    fn invalidate(&mut self, b: BlockNr) {
        let i = b.raw() as usize;
        if !self.valid[i] {
            return;
        }
        self.valid[i] = false;
        self.owner_ino[i] = NO_OWNER;
        let seg = segment_of(b, self.seg_blocks);
        let s = &mut self.segs[seg.raw() as usize];
        debug_assert!(s.valid > 0, "segment valid-count underflow");
        s.valid -= 1;
        if s.valid == 0 && s.state == SegState::Full {
            s.state = SegState::Free;
            self.free_segs += 1;
        }
    }

    fn mark_valid(&mut self, b: BlockNr, ino: InodeNr, idx: PageIndex) {
        let i = b.raw() as usize;
        debug_assert!(!self.valid[i], "double-validate at {b}");
        self.valid[i] = true;
        self.owner_ino[i] = ino.raw();
        self.owner_idx[i] = idx.raw();
        let seg = segment_of(b, self.seg_blocks);
        self.write_clock += 1;
        let s = &mut self.segs[seg.raw() as usize];
        s.valid += 1;
        s.mtime = self.write_clock;
    }

    /// Allocates the next log block, switching to a new free segment (or
    /// an SSR slot) as needed. Returns the block and whether it was an
    /// SSR (random, non-append) allocation: every block of a segment
    /// taken by SSR is one, not just the first.
    fn log_alloc(&mut self) -> SimResult<(BlockNr, bool)> {
        loop {
            let start = segment_start(self.head_seg, self.seg_blocks);
            while self.head_off < self.seg_blocks {
                let b = start.offset(self.head_off);
                self.head_off += 1;
                // Skip still-valid blocks when the head segment was
                // obtained through SSR (partially valid).
                if !self.valid[b.raw() as usize] {
                    return Ok((b, self.head_ssr));
                }
            }
            // Segment exhausted.
            self.segs[self.head_seg.raw() as usize].state = SegState::Full;
            // Prefer a free segment; else SSR: reuse the invalid slots of
            // the fullest-but-not-full segment.
            let (seg, ssr) = match self.segs.iter().position(|s| s.state == SegState::Free) {
                Some(free) => {
                    self.free_segs -= 1;
                    (free, false)
                }
                None => self
                    .segs
                    .iter()
                    .enumerate()
                    .filter(|(_, s)| {
                        s.state == SegState::Full && (s.valid as u64) < self.seg_blocks
                    })
                    .min_by_key(|(_, s)| s.valid)
                    .map(|(i, _)| (i, true))
                    .ok_or(SimError::NoSpace)?,
            };
            self.segs[seg].state = SegState::Open;
            self.head_seg = SegmentNr(seg as u32);
            self.head_off = 0;
            self.head_ssr = ssr;
        }
    }

    /// Points page `idx` of `ino` at `block`, growing the map as needed,
    /// and returns the block it pointed at before.
    fn set_mapping(
        &mut self,
        ino: InodeNr,
        idx: PageIndex,
        block: BlockNr,
    ) -> SimResult<Option<BlockNr>> {
        let node = self.get_mut(ino)?;
        let i = idx.raw() as usize;
        if node.map.len() <= i {
            node.map.resize(i + 1, None);
        }
        Ok(node.map[i].replace(block))
    }

    /// Submits `blocks` as maximal ascending runs, charging `stats`.
    fn submit_blocks(
        &mut self,
        blocks: Vec<BlockNr>,
        kind: IoKind,
        class: IoClass,
        now: SimInstant,
        stats: &mut OpStats,
    ) -> SimResult<()> {
        for run in coalesce(blocks) {
            self.disk
                .submit_run(run, kind, class, now, self.retry, stats)?;
        }
        Ok(())
    }

    /// Migrates a flushed page to the log: allocates a new block,
    /// invalidates the old copy, updates the mapping and returns the new
    /// block plus whether SSR was used.
    fn flush_page(&mut self, ino: InodeNr, idx: PageIndex) -> SimResult<(BlockNr, bool)> {
        let (new_block, ssr) = self.log_alloc()?;
        if let Some(trace) = &self.trace {
            trace.tick(TraceKind::F2fsLogAppend);
            if ssr {
                trace.tick(TraceKind::F2fsSsr);
            }
        }
        if let Some(old_b) = self.set_mapping(ino, idx, new_block)? {
            self.invalidate(old_b);
        }
        self.mark_valid(new_block, ino, idx);
        self.cache.set_block(PageKey::new(ino, idx), new_block);
        Ok((new_block, ssr))
    }

    fn write_out(
        &mut self,
        pages: Vec<PageMeta>,
        class: IoClass,
        now: SimInstant,
        stats: &mut OpStats,
    ) -> SimResult<()> {
        // Allocate log blocks for every flushed page, then issue the
        // writes coalesced (log appends are contiguous).
        let mut blocks: Vec<BlockNr> = Vec::with_capacity(pages.len());
        for m in pages {
            // Pages of deleted files may still drain from the cache.
            if !self.inodes.contains_key(m.key.ino) {
                continue;
            }
            let (b, _ssr) = self.flush_page(m.key.ino, m.key.index)?;
            blocks.push(b);
        }
        if blocks.is_empty() {
            return Ok(());
        }
        if let Some(trace) = &self.trace {
            trace.event(TraceKind::F2fsSubmit, now, || {
                vec![
                    ("op", "write".into()),
                    ("class", class.label().into()),
                    ("blocks", blocks.len().into()),
                ]
            });
        }
        self.submit_blocks(blocks, IoKind::Write, class, now, stats)
    }

    // ----- data path -----------------------------------------------------

    /// Reads through the page cache; misses are read from the device.
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
        let size = self.get(ino)?.size_bytes;
        let p0 = offset / PAGE_SIZE;
        let p1 = end.div_ceil(PAGE_SIZE).min(size.div_ceil(PAGE_SIZE));
        let mut missing: Vec<(PageIndex, BlockNr)> = Vec::new();
        for p in p0..p1 {
            let idx = PageIndex(p);
            if self.cache.lookup(PageKey::new(ino, idx)).is_some() {
                stats.cache_hits += 1;
            } else if let Some(b) = self.get(ino)?.map.get(p as usize).copied().flatten() {
                missing.push((idx, b));
            }
        }
        if missing.is_empty() {
            return Ok(stats);
        }
        if let Some(trace) = &self.trace {
            trace.event(TraceKind::F2fsSubmit, now, || {
                vec![
                    ("op", "read".into()),
                    ("class", class.label().into()),
                    ("blocks", missing.len().into()),
                ]
            });
        }
        let blocks = missing.iter().map(|(_, b)| *b).collect();
        self.submit_blocks(blocks, IoKind::Read, class, now, &mut stats)?;
        let mut evicted_all = Vec::new();
        for (idx, b) in missing {
            self.cache
                .insert_into(PageKey::new(ino, idx), Some(b), false, &mut evicted_all);
        }
        let dirty: Vec<PageMeta> = evicted_all.into_iter().filter(|m| m.dirty).collect();
        self.write_out(dirty, class, now, &mut stats)?;
        Ok(stats)
    }

    /// Writes into the cache; blocks are assigned at flush time (the
    /// log-structured delayed allocation). Old on-disk copies stay valid
    /// until the new data is flushed.
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
        let end = byte_range_end(offset, len_bytes)?;
        let p0 = offset / PAGE_SIZE;
        let p1 = end.div_ceil(PAGE_SIZE);
        {
            let node = self.get_mut(ino)?;
            node.size_bytes = node.size_bytes.max(end);
        }
        let mut evicted_all = Vec::new();
        for p in p0..p1 {
            let idx = PageIndex(p);
            let current = self.get(ino)?.map.get(p as usize).copied().flatten();
            self.cache
                .insert_into(PageKey::new(ino, idx), current, true, &mut evicted_all);
        }
        let dirty: Vec<PageMeta> = evicted_all.into_iter().filter(|m| m.dirty).collect();
        self.write_out(dirty, class, now, &mut stats)?;
        Ok(stats)
    }

    /// Appends to the end of the file.
    pub fn append(
        &mut self,
        ino: InodeNr,
        len_bytes: u64,
        class: IoClass,
        now: SimInstant,
    ) -> SimResult<OpStats> {
        let size = self.get(ino)?.size_bytes;
        let offset = size.next_multiple_of(PAGE_SIZE).max(size);
        self.write(ino, offset, len_bytes, class, now)
    }

    /// Background writeback of up to `max_pages` dirty pages: each is
    /// appended to the log (invalidating its old block) and written out.
    pub fn background_writeback(
        &mut self,
        max_pages: usize,
        class: IoClass,
        now: SimInstant,
    ) -> SimResult<OpStats> {
        let mut stats = OpStats::none(now);
        let flushed = self.cache.writeback_batch(max_pages);
        self.write_out(flushed, class, now, &mut stats)?;
        Ok(stats)
    }

    /// Number of dirty pages in the cache (O(1)).
    pub fn dirty_pages(&self) -> usize {
        self.cache.dirty_len()
    }

    // ----- population -----------------------------------------------------

    /// Creates a file whose data is already in the log, without charging
    /// I/O (experiment setup).
    pub fn populate_file(&mut self, name: &str, size_bytes: u64) -> SimResult<InodeNr> {
        let ino = self.create_file(name)?;
        let npages = sim_core::ids::pages_for_bytes(size_bytes);
        for p in 0..npages {
            let (b, _) = self.log_alloc()?;
            self.set_mapping(ino, PageIndex(p), b)?;
            self.mark_valid(b, ino, PageIndex(p));
        }
        self.get_mut(ino)?.size_bytes = size_bytes;
        Ok(ino)
    }

    // ----- cleaning -------------------------------------------------------

    /// Cleans one segment: synchronously reads its valid blocks (cached
    /// blocks need no read — the Duet saving) and marks them dirty for
    /// asynchronous migration to the log. The segment becomes free once
    /// the dirty pages are written back.
    pub fn clean_segment(
        &mut self,
        seg: SegmentNr,
        class: IoClass,
        now: SimInstant,
    ) -> SimResult<CleanResult> {
        let victims = self.valid_blocks_of(seg);
        let valid_blocks = victims.len() as u32;
        if let Some(trace) = &self.trace {
            trace.event(TraceKind::F2fsClean, now, || {
                vec![("seg", seg.raw().into()), ("valid", valid_blocks.into())]
            });
        }
        let mut cached_blocks = 0u32;
        let mut to_read: Vec<BlockNr> = Vec::new();
        for (b, ino, idx) in &victims {
            if self.cache.contains(PageKey::new(*ino, *idx)) {
                cached_blocks += 1;
            } else {
                to_read.push(*b);
            }
        }
        let mut stats = OpStats::none(now);
        // Synchronous read phase, coalesced.
        self.submit_blocks(to_read, IoKind::Read, class, now, &mut stats)?;
        // Mark every valid block dirty in memory for migration.
        let mut evicted_all = Vec::new();
        for (b, ino, idx) in &victims {
            let key = PageKey::new(*ino, *idx);
            self.cache
                .insert_into(key, Some(*b), true, &mut evicted_all);
        }
        let dirty: Vec<PageMeta> = evicted_all.into_iter().filter(|m| m.dirty).collect();
        self.write_out(dirty, class, now, &mut stats)?;
        Ok(CleanResult {
            seg,
            valid_blocks,
            cached_blocks,
            blocks_read: stats.blocks_read,
            duration: stats.finish.saturating_duration_since(now),
            finish: stats.finish,
        })
    }

    /// Test-only defect hook for the equivalence oracle: silently drops
    /// one page's mapping, the way a buggy segment cleaner that loses a
    /// block during migration would. The block is invalidated and the
    /// mapping cleared, so [`F2fsSim::check_consistency`] still passes
    /// — the loss is only visible in the logical file state (an
    /// unmapped page), which is what the oracle's final-state digest
    /// compares.
    #[doc(hidden)]
    pub fn sabotage_drop_mapping(&mut self, ino: InodeNr, index: PageIndex) -> SimResult<()> {
        let node = self.get_mut(ino)?;
        let Some(slot) = node.map.get_mut(index.raw() as usize) else {
            return Ok(());
        };
        let Some(b) = slot.take() else {
            return Ok(());
        };
        // Drop the cached copy too: a pending dirty page would
        // otherwise be flushed later and re-map the page, hiding the
        // loss.
        self.cache.remove(PageKey::new(ino, index));
        self.invalidate(b);
        Ok(())
    }

    /// Full-filesystem consistency check (fsck): verifies that
    ///
    /// - every inode mapping points at a valid block owned by exactly
    ///   that (inode, page);
    /// - every valid block is owned by a live mapping (no orphans);
    /// - per-segment valid counts equal the number of valid blocks in
    ///   the segment;
    /// - the free-segment counter matches the segment states.
    ///
    /// Intended for tests and debugging; cost is O(device).
    pub fn check_consistency(&self) -> SimResult<()> {
        let fail = |why: String| Err(SimError::InvalidArgument(format!("f2fs fsck: {why}")));
        let capacity = self.valid.len() as u64;
        // Mappings → blocks, each claimed exactly once with a matching
        // owner record.
        let mut claimed = vec![false; capacity as usize];
        for (ino, node) in self.inodes.iter() {
            for (p, slot) in node.map.iter().enumerate() {
                let Some(b) = slot else { continue };
                let i = b.raw() as usize;
                if claimed[i] {
                    return fail(format!("block {b} mapped twice"));
                }
                claimed[i] = true;
                if !self.valid[i] {
                    return fail(format!("mapped block {b} is invalid"));
                }
                match self.owner_of(*b) {
                    Some((o_ino, o_idx)) if o_ino == ino && o_idx.raw() == p as u64 => {}
                    other => {
                        return fail(format!("block {b}: owner {other:?} != ({ino}, pg {p})"));
                    }
                }
            }
        }
        // No orphan valid blocks; segment counters agree.
        let mut free_count = 0u32;
        for seg in 0..self.nsegs {
            let start = (seg as u64) * self.seg_blocks;
            let mut valid_here = 0u32;
            for b in start..start + self.seg_blocks {
                let i = b as usize;
                if self.valid[i] {
                    valid_here += 1;
                    if !claimed[i] {
                        return fail(format!("valid block blk#{b} has no mapping"));
                    }
                }
            }
            let info = &self.segs[seg as usize];
            if info.valid != valid_here {
                return fail(format!(
                    "seg#{seg}: SIT says {} valid, counted {valid_here}",
                    info.valid
                ));
            }
            if info.state == SegState::Free {
                free_count += 1;
                if valid_here != 0 {
                    return fail(format!("seg#{seg} free but holds valid blocks"));
                }
            }
        }
        if free_count != self.free_segs {
            return fail(format!(
                "free-segment counter {} vs counted {free_count}",
                self.free_segs
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::segment::VictimPolicy;

    const T0: SimInstant = SimInstant::EPOCH;
    const NORMAL: IoClass = IoClass::Normal;
    const IDLE: IoClass = IoClass::Idle;

    fn make_fs(nsegs: u32, seg_blocks: u64, cache_pages: usize) -> F2fsSim {
        let disk = sim_disk::Disk::new(Box::new(sim_disk::HddModel::sas_10k(
            nsegs as u64 * seg_blocks,
        )));
        F2fsSim::new(DeviceId(1), disk, cache_pages, seg_blocks)
    }

    fn pb(n: u64) -> u64 {
        n * PAGE_SIZE
    }

    #[test]
    fn populate_appends_to_log() {
        let mut fs = make_fs(8, 16, 64);
        let ino = fs.populate_file("a", pb(10)).unwrap();
        assert_eq!(fs.size_of(ino).unwrap(), pb(10));
        assert_eq!(fs.segment(SegmentNr(0)).valid, 10);
        assert_eq!(fs.disk().metrics().total_blocks(), 0);
        // Blocks are contiguous from the log start.
        for p in 0..10 {
            let (o_ino, o_idx) = fs.owner_of(BlockNr(p)).unwrap();
            assert_eq!(o_ino, ino);
            assert_eq!(o_idx, PageIndex(p));
        }
    }

    #[test]
    fn byte_range_past_the_offset_space_is_rejected() {
        let mut fs = make_fs(8, 16, 64);
        let ino = fs.populate_file("a", pb(4)).unwrap();
        // In release a wrapped `offset + len` used to read nothing and
        // write a page range that ends before it starts.
        for (offset, len) in [(u64::MAX, 2), (u64::MAX - PAGE_SIZE, 2 * PAGE_SIZE)] {
            let read = fs.read(ino, offset, len, NORMAL, T0);
            assert!(
                matches!(read, Err(SimError::InvalidArgument(_))),
                "{read:?}"
            );
            let write = fs.write(ino, offset, len, NORMAL, T0);
            assert!(
                matches!(write, Err(SimError::InvalidArgument(_))),
                "{write:?}"
            );
        }
        assert_eq!(fs.size_of(ino).unwrap(), pb(4));
        assert_eq!(fs.dirty_pages(), 0);
        fs.check_consistency().unwrap();
        // The last addressable byte is still a valid request.
        assert!(fs.read(ino, u64::MAX - 1, 1, NORMAL, T0).is_ok());
    }

    #[test]
    fn overwrite_invalidates_only_on_flush() {
        let mut fs = make_fs(8, 16, 64);
        let ino = fs.populate_file("a", pb(4)).unwrap();
        fs.write(ino, 0, PAGE_SIZE, NORMAL, T0).unwrap();
        // Still valid: the dirty page has not been flushed.
        assert!(fs.is_valid(BlockNr(0)));
        assert_eq!(fs.dirty_pages(), 1);
        let s = fs.background_writeback(16, NORMAL, T0).unwrap();
        assert_eq!(s.blocks_written, 1);
        // Old copy invalid, new block appended at the log head.
        assert!(!fs.is_valid(BlockNr(0)));
        assert_eq!(fs.segment(SegmentNr(0)).valid, 4, "3 old + 1 new in seg 0");
        assert_eq!(fs.dirty_pages(), 0);
    }

    #[test]
    fn log_advances_across_segments() {
        let mut fs = make_fs(8, 4, 64);
        let free0 = fs.free_segments();
        fs.populate_file("a", pb(10)).unwrap();
        // 10 blocks over 4-block segments: head in third segment.
        assert_eq!(fs.segment(SegmentNr(0)).valid, 4);
        assert_eq!(fs.segment(SegmentNr(1)).valid, 4);
        assert_eq!(fs.segment(SegmentNr(2)).valid, 2);
        assert!(fs.free_segments() < free0);
    }

    #[test]
    fn delete_invalidates_and_frees_segments() {
        let mut fs = make_fs(8, 4, 64);
        let a = fs.populate_file("a", pb(8)).unwrap();
        fs.populate_file("b", pb(2)).unwrap();
        fs.delete_file(a).unwrap();
        assert_eq!(fs.segment(SegmentNr(0)).valid, 0);
        assert_eq!(fs.segment(SegmentNr(0)).state, SegState::Free);
        assert_eq!(fs.segment(SegmentNr(1)).state, SegState::Free);
        assert!(fs.lookup("a").is_none());
        assert!(fs.lookup("b").is_some());
    }

    #[test]
    fn read_hits_and_misses() {
        let mut fs = make_fs(8, 16, 64);
        let ino = fs.populate_file("a", pb(6)).unwrap();
        let s1 = fs.read(ino, 0, pb(6), NORMAL, T0).unwrap();
        assert_eq!(s1.blocks_read, 6);
        let s2 = fs.read(ino, 0, pb(6), NORMAL, s1.finish).unwrap();
        assert_eq!(s2.blocks_read, 0);
        assert_eq!(s2.cache_hits, 6);
    }

    #[test]
    fn clean_segment_reads_only_uncached() {
        let mut fs = make_fs(8, 8, 64);
        let ino = fs.populate_file("a", pb(8)).unwrap();
        // Segment 0 fully valid. Cache half of it.
        fs.read(ino, 0, pb(4), NORMAL, T0).unwrap();
        let r = fs.clean_segment(SegmentNr(0), IDLE, T0).unwrap();
        assert_eq!(r.valid_blocks, 8);
        assert_eq!(r.cached_blocks, 4);
        assert_eq!(r.blocks_read, 4, "cached blocks saved reads");
        assert!(r.duration > sim_core::SimDuration::ZERO);
        // All 8 pages are now dirty, awaiting migration.
        assert_eq!(fs.dirty_pages(), 8);
        // Migrate them: segment 0 drains and becomes free.
        fs.background_writeback(64, IDLE, T0).unwrap();
        assert_eq!(fs.segment(SegmentNr(0)).valid, 0);
        assert_eq!(fs.segment(SegmentNr(0)).state, SegState::Free);
        // Data still readable.
        let s = fs.read(ino, 0, pb(8), NORMAL, T0).unwrap();
        assert_eq!(s.blocks_read + s.cache_hits, 8);
    }

    #[test]
    fn cached_valid_blocks_ground_truth() {
        let mut fs = make_fs(8, 8, 64);
        let ino = fs.populate_file("a", pb(8)).unwrap();
        assert_eq!(fs.cached_valid_blocks(SegmentNr(0)), 0);
        fs.read(ino, 0, pb(3), NORMAL, T0).unwrap();
        assert_eq!(fs.cached_valid_blocks(SegmentNr(0)), 3);
    }

    #[test]
    fn ssr_engages_when_no_free_segments() {
        // 4 segments of 4 blocks, tiny cache to force flushes.
        let mut fs = make_fs(4, 4, 8);
        fs.ssr_threshold = 0;
        let ino = fs.populate_file("a", pb(12)).unwrap(); // 3 segments
                                                          // Overwrite single pages repeatedly, forcing flushes into the
                                                          // remaining space and then SSR reuse.
        for round in 0..6 {
            fs.write(ino, (round % 12) * PAGE_SIZE, PAGE_SIZE, NORMAL, T0)
                .unwrap();
            fs.background_writeback(16, NORMAL, T0).unwrap();
        }
        // The filesystem survived (no NoSpace): SSR reused invalid slots.
        let total_valid: u32 = (0..4).map(|s| fs.segment(SegmentNr(s)).valid).sum();
        assert_eq!(
            total_valid, 12,
            "every live page has exactly one valid block"
        );
    }

    /// `f2fs.ssr` counts SSR writes, not SSR segments: every block
    /// flushed into a segment that was already sealed (full) when the
    /// flush began is one. It used to tick only for the first block of
    /// each segment SSR took.
    #[test]
    fn every_block_written_into_an_ssr_segment_is_counted() {
        // 4 segments of 8 blocks; 28 pages leave 4 free slots in the
        // head segment and no free segment.
        let mut fs = make_fs(4, 8, 64);
        let ino = fs.populate_file("a", pb(28)).unwrap();
        assert_eq!(fs.free_segments(), 0);
        let trace = TraceHandle::with_default_capacity();
        fs.set_trace(Some(trace.clone()));
        // Overwrite segment 0's pages: half fill the head segment, the
        // rest go to segment 0's freshly invalidated slots by SSR.
        fs.write(ino, 0, pb(8), NORMAL, T0).unwrap();
        let sealed: Vec<bool> = (0..fs.nsegs())
            .map(|s| fs.segment(SegmentNr(s)).state == SegState::Full)
            .collect();
        fs.background_writeback(64, NORMAL, T0).unwrap();
        let into_sealed = (0..8)
            .filter_map(|p| fs.mapping_of(ino, PageIndex(p)))
            .filter(|&b| sealed[fs.segment_of_block(b).raw() as usize])
            .count() as u64;
        assert_eq!(into_sealed, 4, "the head took 4 pages, SSR the rest");
        let count = |key: &str| {
            let counters = trace.counters();
            counters
                .iter()
                .find(|(k, _)| k == key)
                .map_or(0, |&(_, n)| n)
        };
        assert_eq!(count("f2fs.log_append"), 8);
        assert_eq!(count("f2fs.ssr"), into_sealed);
        fs.check_consistency().unwrap();
    }

    #[test]
    fn victim_selection_prefers_invalid_heavy_segments() {
        let mut fs = make_fs(8, 8, 64);
        let a = fs.populate_file("a", pb(8)).unwrap(); // seg 0
        fs.populate_file("b", pb(8)).unwrap(); // seg 1
                                               // Invalidate most of segment 0 by overwriting file a.
        fs.write(a, 0, pb(6), NORMAL, T0).unwrap();
        fs.background_writeback(64, NORMAL, T0).unwrap();
        assert_eq!(fs.segment(SegmentNr(0)).valid, 2);
        // Greedy cost: segment 0 is the cheapest FULL segment.
        let costs: Vec<(u32, f64)> = (0..fs.nsegs())
            .filter(|&s| fs.segment(SegmentNr(s)).state == SegState::Full)
            .map(|s| {
                (
                    s,
                    crate::segment::cleaning_cost(
                        VictimPolicy::Greedy,
                        fs.segment(SegmentNr(s)),
                        fs.seg_blocks() as u32,
                        0,
                        fs.write_clock(),
                    ),
                )
            })
            .collect();
        let best = costs
            .iter()
            .min_by(|x, y| x.1.partial_cmp(&y.1).unwrap())
            .unwrap();
        assert_eq!(best.0, 0);
    }

    #[test]
    fn fsck_holds_across_log_lifecycle() {
        let mut fs = make_fs(8, 8, 32);
        fs.check_consistency().unwrap();
        let a = fs.populate_file("a", pb(8)).unwrap();
        let b = fs.populate_file("b", pb(8)).unwrap();
        fs.check_consistency().unwrap();
        // Overwrites + flush (log migration).
        fs.write(a, 0, pb(4), NORMAL, T0).unwrap();
        fs.check_consistency().unwrap();
        fs.background_writeback(64, NORMAL, T0).unwrap();
        fs.check_consistency().unwrap();
        // Cleaning.
        let victim = (0..fs.nsegs())
            .map(SegmentNr)
            .find(|&s| fs.segment(s).state == SegState::Full && fs.segment(s).valid > 0)
            .expect("a full segment exists");
        fs.clean_segment(victim, IDLE, T0).unwrap();
        fs.background_writeback(64, IDLE, T0).unwrap();
        fs.check_consistency().unwrap();
        // Deletion.
        fs.delete_file(b).unwrap();
        fs.check_consistency().unwrap();
    }

    #[test]
    fn duplicate_names_rejected() {
        let mut fs = make_fs(4, 4, 8);
        fs.create_file("x").unwrap();
        assert!(matches!(
            fs.create_file("x"),
            Err(SimError::AlreadyExists(_))
        ));
    }

    /// Deleting a file frees its name for re-creation, and the lookup
    /// then resolves to the *new* inode — the name table must leave no
    /// stale entry behind.
    #[test]
    fn name_lookup_after_delete_and_recreate() {
        let mut fs = make_fs(8, 16, 64);
        let a = fs.populate_file("a", pb(3)).unwrap();
        let b = fs.populate_file("b", pb(2)).unwrap();
        fs.delete_file(a).unwrap();
        assert_eq!(fs.lookup("a"), None, "deleted name must not resolve");
        assert_eq!(fs.lookup("b"), Some(b), "sibling survives the shift");
        let a2 = fs.create_file("a").unwrap();
        assert_ne!(a2, a, "re-creation allocates a fresh inode");
        assert_eq!(fs.lookup("a"), Some(a2));
        assert!(!fs.exists(a) && fs.exists(a2));
        fs.check_consistency().unwrap();
    }

    /// `files()` walks the inode table in ascending inode order, with
    /// no sort, whatever the creation, deletion and re-creation
    /// history.
    #[test]
    fn files_snapshot_is_inode_sorted_after_churn() {
        let mut fs = make_fs(8, 16, 64);
        let mut live: Vec<InodeNr> = (0..6)
            .map(|i| fs.populate_file(&format!("f{i}"), pb(1)).unwrap())
            .collect();
        // Delete from the middle and the front, then add more.
        fs.delete_file(live.remove(3)).unwrap();
        fs.delete_file(live.remove(0)).unwrap();
        live.push(fs.populate_file("g0", pb(1)).unwrap());
        live.push(fs.populate_file("g1", pb(1)).unwrap());
        let files = fs.files();
        assert!(files.windows(2).all(|w| w[0] < w[1]), "{files:?}");
        live.sort_unstable();
        assert_eq!(files, live);
        fs.check_consistency().unwrap();
    }

    #[test]
    fn flush_emits_events_with_old_block() {
        let mut fs = make_fs(8, 8, 64);
        let ino = fs.populate_file("a", pb(2)).unwrap();
        fs.write(ino, 0, PAGE_SIZE, NORMAL, T0).unwrap();
        fs.cache_mut().drain_events();
        fs.background_writeback(16, NORMAL, T0).unwrap();
        let evs = fs.cache_mut().drain_events();
        let flushed: Vec<_> = evs
            .iter()
            .filter(|(_, e)| *e == sim_cache::PageEvent::Flushed)
            .collect();
        assert_eq!(flushed.len(), 1);
        // The event metadata carries the block as of flush time (the old
        // location); the mapping now points at the new log block.
        assert_eq!(flushed[0].0.block, Some(BlockNr(0)));
        let node_block = {
            let key = PageKey::new(ino, PageIndex(0));
            fs.cache().peek(key).unwrap().block.unwrap()
        };
        assert_ne!(node_block, BlockNr(0));
    }
}
