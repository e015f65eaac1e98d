//! The page cache: LRU-managed, dirty-tracking, event-emitting.
//!
//! This is the component Duet hooks into. Every mutation (add, remove,
//! dirty, flush) appends a [`PageEvent`] to an internal queue; the
//! simulation wiring drains the queue into the Duet framework after each
//! filesystem operation, mirroring the kernel implementation's "hooks in
//! the Linux page cache" (§4.2) while keeping ownership single-threaded.
//!
//! The cache never performs I/O itself. Operations that imply device
//! writes (evicting a dirty page, a writeback batch) *return* the pages
//! involved so the filesystem layer can charge the corresponding disk
//! requests, then record the flush here.

use crate::page::{PageEvent, PageKey, PageMeta};
use sim_core::fault::{FaultHandle, FaultSite};
use sim_core::pagetable::PageTable;
use sim_core::slab::{Slab, NIL};
use sim_core::trace::{TraceHandle, TraceKind};
use sim_core::{BlockNr, InodeNr};
use std::collections::VecDeque;

/// Cache hit/miss and traffic statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that found the page.
    pub hits: u64,
    /// Lookups that missed.
    pub misses: u64,
    /// Pages inserted.
    pub insertions: u64,
    /// Pages evicted by capacity pressure.
    pub evictions: u64,
    /// Pages cleaned by writeback (including flush-on-evict).
    pub writebacks: u64,
}

/// A resident page: cache state plus intrusive list links.
///
/// `prev`/`next` chain the global LRU list (head = least recently
/// used); `dprev`/`dnext` chain the dirty sublist in the same recency
/// order, replacing the old tick-keyed `BTreeMap` mirrors with O(1)
/// splices. A page is on the dirty sublist exactly while `dirty` is
/// set. `seq` is the page's recency stamp: larger is younger, so two
/// pages compare in LRU order without walking either list.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Node {
    key: PageKey,
    block: Option<BlockNr>,
    dirty: bool,
    seq: u64,
    prev: u32,
    next: u32,
    dprev: u32,
    dnext: u32,
}

/// An LRU page cache with dirty tracking and an event queue.
///
/// # Examples
///
/// ```
/// use sim_cache::{PageCache, PageEvent, PageKey};
/// use sim_core::{BlockNr, InodeNr, PageIndex};
///
/// let mut cache = PageCache::new(2);
/// let key = PageKey::new(InodeNr(1), PageIndex(0));
/// cache.insert(key, Some(BlockNr(100)), false);
/// assert!(cache.contains(key));
/// let events = cache.drain_events();
/// assert_eq!(events[0].1, PageEvent::Added);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct PageCache {
    capacity: usize,
    /// Backing store for resident pages; handles stay stable while a
    /// page is resident, so the intrusive lists can link by `u32`.
    slab: Slab<Node>,
    /// The one index: (inode, page index) → slab handle, per file as
    /// the kernel keeps it (`address_space → i_pages`). A request that
    /// runs along a file hashes one small key and then walks
    /// neighbouring slots; per-file scans are in page order as stored.
    index: PageTable,
    /// Intrusive LRU list: head = least recently used. Touch is now an
    /// O(1) splice instead of a B-tree remove + insert.
    lru_head: u32,
    lru_tail: u32,
    /// Dirty sublist in the same recency order. Keeps `writeback_batch`
    /// proportional to the batch size instead of the cache size, and
    /// makes the dirty-page count O(1); must mirror every dirty-bit
    /// and recency transition of the nodes.
    dirty_head: u32,
    dirty_tail: u32,
    dirty_count: usize,
    /// The next recency stamp; taken by every LRU push.
    next_seq: u64,
    /// The oldest clean page (`NIL` if none): every page ahead of it
    /// on the LRU list is dirty.
    first_clean: u32,
    /// The `CLEAN_SCAN`-th oldest dirty page (`NIL` while fewer are
    /// dirty): a clean page older than it has fewer than `CLEAN_SCAN`
    /// pages ahead of it.
    dirty_finger: u32,
    events: VecDeque<(PageMeta, PageEvent)>,
    stats: CacheStats,
    /// Fault-injection handle; `None` (or a quiet plan) behaves
    /// byte-identically to an unfaulted cache.
    faults: Option<FaultHandle>,
    /// Trace handle. The cache has no clock, so its hooks are pure
    /// counter ticks (`cache.add` / `cache.remove` / `cache.dirty` /
    /// `cache.flush` / `cache.evict`); timestamped ring events for
    /// cache-driven I/O come from the filesystem layers above.
    trace: Option<TraceHandle>,
}

impl PageCache {
    /// Creates a cache holding at most `capacity` pages.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "page cache capacity must be positive");
        PageCache {
            capacity,
            slab: Slab::new(),
            index: PageTable::new(),
            lru_head: NIL,
            lru_tail: NIL,
            dirty_head: NIL,
            dirty_tail: NIL,
            dirty_count: 0,
            next_seq: 0,
            first_clean: NIL,
            dirty_finger: NIL,
            events: VecDeque::new(),
            stats: CacheStats::default(),
            faults: None,
            trace: None,
        }
    }

    /// Arms (or disarms, with `None`) fault injection: eviction storms
    /// on insert and dirty-page writeback failures.
    pub fn set_faults(&mut self, faults: Option<FaultHandle>) {
        self.faults = faults;
    }

    /// Arms (or disarms, with `None`) tracing. Pure observation: cache
    /// contents, events and statistics are unaffected.
    pub fn set_trace(&mut self, trace: Option<TraceHandle>) {
        self.trace = trace;
    }

    /// Resolves a key to its slab handle.
    #[inline]
    fn find(&self, key: PageKey) -> Option<u32> {
        self.index.get(key.ino, key.index)
    }

    /// The handles of one file's resident pages, in page order.
    fn handles_of(&self, ino: InodeNr) -> impl Iterator<Item = u32> + '_ {
        self.index.file(ino).map(|(_, h)| h)
    }

    fn lru_unlink(&mut self, h: u32) {
        let (p, n) = {
            let node = &self.slab[h];
            (node.prev, node.next)
        };
        if h == self.first_clean {
            // Everything ahead was dirty; the next clean page, if any,
            // follows the dirty pages behind this one.
            let mut c = n;
            while c != NIL && self.slab[c].dirty {
                c = self.slab[c].next;
            }
            self.first_clean = c;
        }
        if p == NIL {
            self.lru_head = n;
        } else {
            self.slab[p].next = n;
        }
        if n == NIL {
            self.lru_tail = p;
        } else {
            self.slab[n].prev = p;
        }
    }

    /// Appends a page, with its dirty bit already final, as the
    /// youngest.
    fn lru_push_tail(&mut self, h: u32) {
        let t = self.lru_tail;
        let clean = {
            let node = &mut self.slab[h];
            node.seq = self.next_seq;
            node.prev = t;
            node.next = NIL;
            !node.dirty
        };
        self.next_seq += 1;
        if t == NIL {
            self.lru_head = h;
        } else {
            self.slab[t].next = h;
        }
        self.lru_tail = h;
        if clean && self.first_clean == NIL {
            self.first_clean = h;
        }
    }

    fn dirty_unlink(&mut self, h: u32) {
        let f = self.dirty_finger;
        if f != NIL && self.slab[h].seq <= self.slab[f].seq {
            // A page no younger than the finger leaves: the finger's
            // successor is now the `CLEAN_SCAN`-th. Read before the
            // links below are cleared — `h` may be the finger itself.
            self.dirty_finger = self.slab[f].dnext;
        }
        let (p, n) = {
            let node = &mut self.slab[h];
            let pn = (node.dprev, node.dnext);
            node.dprev = NIL;
            node.dnext = NIL;
            pn
        };
        if p == NIL {
            self.dirty_head = n;
        } else {
            self.slab[p].dnext = n;
        }
        if n == NIL {
            self.dirty_tail = p;
        } else {
            self.slab[n].dprev = p;
        }
        self.dirty_count -= 1;
    }

    fn dirty_push_tail(&mut self, h: u32) {
        let t = self.dirty_tail;
        {
            let node = &mut self.slab[h];
            node.dprev = t;
            node.dnext = NIL;
        }
        if t == NIL {
            self.dirty_head = h;
        } else {
            self.slab[t].dnext = h;
        }
        self.dirty_tail = h;
        self.dirty_count += 1;
        if self.dirty_count == Self::CLEAN_SCAN {
            self.dirty_finger = h;
        }
    }

    /// Maximum number of pages.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current number of cached pages.
    pub fn len(&self) -> usize {
        self.slab.len()
    }

    /// Returns `true` if the cache holds no pages.
    pub fn is_empty(&self) -> bool {
        self.slab.is_empty()
    }

    /// Hit/miss statistics.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    fn node_meta(n: &Node) -> PageMeta {
        PageMeta {
            key: n.key,
            block: n.block,
            dirty: n.dirty,
        }
    }

    /// Refreshes a page's recency: moves it to the LRU tail, and — as
    /// the tick-keyed maps did — to the dirty tail if dirty.
    fn touch_handle(&mut self, h: u32) {
        self.requeue(h, self.slab[h].dirty);
    }

    /// Moves a page to the LRU tail with its dirty bit set to `dirty`.
    /// It leaves both lists under its old bit and old stamp, which is
    /// what the cursor and the finger are kept by.
    fn requeue(&mut self, h: u32, dirty: bool) {
        if self.slab[h].dirty {
            self.dirty_unlink(h);
        }
        self.lru_unlink(h);
        self.slab[h].dirty = dirty;
        self.lru_push_tail(h);
        if dirty {
            self.dirty_push_tail(h);
        }
    }

    fn push_event(&mut self, meta: PageMeta, ev: PageEvent) {
        if let Some(trace) = &self.trace {
            trace.tick(match ev {
                PageEvent::Added => TraceKind::CacheAdd,
                PageEvent::Removed => TraceKind::CacheRemove,
                PageEvent::Dirtied => TraceKind::CacheDirty,
                PageEvent::Flushed => TraceKind::CacheFlush,
            });
        }
        self.events.push_back((meta, ev));
    }

    /// Looks up a page, counting a hit or miss and refreshing LRU
    /// position on a hit.
    pub fn lookup(&mut self, key: PageKey) -> Option<PageMeta> {
        if let Some(h) = self.find(key) {
            let m = Self::node_meta(&self.slab[h]);
            self.stats.hits += 1;
            self.touch_handle(h);
            Some(m)
        } else {
            self.stats.misses += 1;
            None
        }
    }

    /// Looks up a page without touching LRU order or statistics.
    pub fn peek(&self, key: PageKey) -> Option<PageMeta> {
        self.find(key).map(|h| Self::node_meta(&self.slab[h]))
    }

    /// Returns `true` if the page is cached (no LRU side effects).
    pub fn contains(&self, key: PageKey) -> bool {
        self.find(key).is_some()
    }

    /// Inserts (or refreshes) a page and returns any pages evicted to
    /// make room. Evicted entries carry their pre-eviction dirty flag;
    /// the caller must charge a device write for each dirty one (the
    /// cache emits `Flushed` followed by `Removed` for them).
    ///
    /// Inserting an already-cached page refreshes its LRU position,
    /// updates the block mapping if `block` is `Some`, and dirties it if
    /// `dirty` is set.
    pub fn insert(&mut self, key: PageKey, block: Option<BlockNr>, dirty: bool) -> Vec<PageMeta> {
        let mut evicted = Vec::new();
        self.insert_into(key, block, dirty, &mut evicted);
        evicted
    }

    /// [`PageCache::insert`] with the evicted pages appended to a
    /// caller-owned buffer instead of a fresh allocation. Multi-page
    /// operations reuse one buffer across the whole run of inserts —
    /// at steady state every insert evicts, so the per-call `Vec` of
    /// the plain variant is a measurable share of sweep wall time.
    pub fn insert_into(
        &mut self,
        key: PageKey,
        block: Option<BlockNr>,
        dirty: bool,
        evicted: &mut Vec<PageMeta>,
    ) {
        // One walk to the key's slot serves both outcomes.
        let slab = &mut self.slab;
        let (h, resident) = self.index.get_or_insert_with(key.ino, key.index, || {
            slab.insert(Node {
                key,
                block,
                dirty,
                seq: 0,
                prev: NIL,
                next: NIL,
                dprev: NIL,
                dnext: NIL,
            })
        });
        if resident {
            if let Some(b) = block {
                self.slab[h].block = Some(b);
            }
            if dirty {
                self.dirty_handle(h);
            } else {
                self.touch_handle(h);
            }
            return;
        }
        self.lru_push_tail(h);
        if dirty {
            self.dirty_push_tail(h);
        }
        self.stats.insertions += 1;
        let meta = Self::node_meta(&self.slab[h]);
        self.push_event(meta, PageEvent::Added);
        if dirty {
            self.push_event(meta, PageEvent::Dirtied);
        }
        // A forced eviction storm models transient memory pressure: the
        // cache sheds extra pages on this insert, emitting exactly the
        // event sequences a real shrinker pass would (Flushed + Removed
        // for dirty victims, Removed for clean ones).
        let mut target = self.capacity;
        if let Some(faults) = &self.faults {
            if self.slab.len() > 1 && faults.fire(FaultSite::CacheEvictionStorm) {
                let max_shed = ((self.capacity / 4).max(1)) as u64;
                let shed = faults.amplitude(FaultSite::CacheEvictionStorm, 1, max_shed + 1);
                target = self.capacity.saturating_sub(shed as usize).max(1);
            }
        }
        self.evict_into(target, evicted);
    }

    /// Eviction's window: a clean page is taken only from the first
    /// `CLEAN_SCAN` LRU positions, never the youngest (the page being
    /// inserted); with none there, the oldest page is flush-evicted.
    /// Page reclaim prefers clean pages — dirty ones are left for the
    /// batched background flusher — but a cache whose head is all
    /// dirty must still make progress. The window is a bound on what
    /// the victim may be, not a walk: `first_clean` and `dirty_finger`
    /// decide it in O(1).
    pub(crate) const CLEAN_SCAN: usize = 1024;

    /// The victim: the oldest clean page if it lies inside the window,
    /// else the LRU head.
    fn victim(&self) -> u32 {
        let c = self.first_clean;
        if c == NIL {
            return self.lru_head;
        }
        let inside = if self.slab.len() > Self::CLEAN_SCAN {
            // The window is the `CLEAN_SCAN` oldest pages: fewer than
            // that many dirty pages lie ahead of `c`.
            let f = self.dirty_finger;
            f == NIL || self.slab[f].seq > self.slab[c].seq
        } else {
            // The window is every page but the youngest.
            c != self.lru_tail
        };
        if inside {
            c
        } else {
            self.lru_head
        }
    }

    fn evict_into(&mut self, target: usize, evicted: &mut Vec<PageMeta>) {
        // `target` ≥ 1, so at least two pages are resident here.
        while self.slab.len() > target {
            let victim = self.victim();
            let key = self.slab[victim].key;
            let taken = self.index.remove(key.ino, key.index);
            debug_assert_eq!(taken, Some(victim), "page table out of step");
            let node = self.unlink(victim);
            let before = Self::node_meta(&node);
            if node.dirty {
                self.stats.writebacks += 1;
                let clean = PageMeta {
                    dirty: false,
                    ..before
                };
                self.push_event(clean, PageEvent::Flushed);
                self.push_event(clean, PageEvent::Removed);
            } else {
                self.push_event(before, PageEvent::Removed);
            }
            self.stats.evictions += 1;
            if let Some(trace) = &self.trace {
                trace.tick(TraceKind::CacheEvict);
            }
            evicted.push(before);
        }
    }

    /// Takes a page out of both intrusive lists and frees its slab
    /// slot; its page-table slot is the caller's to clear first.
    /// Returns the node's final state.
    fn unlink(&mut self, h: u32) -> Node {
        if self.slab[h].dirty {
            self.dirty_unlink(h);
        }
        self.lru_unlink(h);
        let node = self.slab[h];
        self.slab.remove(h);
        node
    }

    /// Sets the dirty bit. Returns `true` if the page was present and
    /// transitioned from clean to dirty (emitting `Dirtied`).
    pub fn mark_dirty(&mut self, key: PageKey) -> bool {
        self.find(key).is_some_and(|h| self.dirty_handle(h))
    }

    /// [`PageCache::mark_dirty`] on a resolved handle: recency is
    /// refreshed either way.
    fn dirty_handle(&mut self, h: u32) -> bool {
        let fresh = !self.slab[h].dirty;
        self.requeue(h, true);
        if fresh {
            let meta = Self::node_meta(&self.slab[h]);
            self.push_event(meta, PageEvent::Dirtied);
        }
        fresh
    }

    /// Resolves a delayed allocation: records the physical block backing
    /// the page. No event is emitted; the block will ride along on the
    /// next event's metadata (the paper defers such pages "to be
    /// returned by a later fetch operation", §4.2).
    pub fn set_block(&mut self, key: PageKey, block: BlockNr) {
        if let Some(h) = self.find(key) {
            self.slab[h].block = Some(block);
        }
    }

    /// Takes up to `max` dirty pages for background writeback, oldest
    /// first. The pages are marked clean and `Flushed` events are
    /// emitted; the caller must issue the corresponding device writes.
    pub fn writeback_batch(&mut self, max: usize) -> Vec<PageMeta> {
        // The dirty list is recency-ordered, so its prefix *is* the
        // oldest-first dirty scan — no pass over clean entries.
        let mut victims = Vec::with_capacity(max.min(self.dirty_count));
        let mut h = self.dirty_head;
        while h != NIL && victims.len() < max {
            victims.push(h);
            h = self.slab[h].dnext;
        }
        let mut out = Vec::with_capacity(victims.len());
        for h in victims {
            // An injected writeback failure leaves the page dirty (no
            // Flushed event, no writeback charged); the recency-ordered
            // dirty list is untouched, so the next batch retries it.
            if let Some(faults) = &self.faults {
                if faults.fire(FaultSite::CacheWritebackFail) {
                    if let Some(trace) = &self.trace {
                        trace.tick(TraceKind::CacheWritebackFail);
                    }
                    continue;
                }
            }
            out.push(self.clean_in_place(h));
        }
        out
    }

    /// Marks a dirty page clean where it stands in LRU order, counting
    /// the writeback and emitting `Flushed`.
    fn clean_in_place(&mut self, h: u32) -> PageMeta {
        self.dirty_unlink(h);
        self.slab[h].dirty = false;
        let c = self.first_clean;
        if c == NIL || self.slab[h].seq < self.slab[c].seq {
            self.first_clean = h;
        }
        self.stats.writebacks += 1;
        let meta = Self::node_meta(&self.slab[h]);
        self.push_event(meta, PageEvent::Flushed);
        meta
    }

    /// Flushes all dirty pages of one file (fsync-style). Marks them
    /// clean, emits `Flushed`, and returns them for the caller to write.
    pub fn flush_file(&mut self, ino: InodeNr) -> Vec<PageMeta> {
        let victims: Vec<u32> = self
            .handles_of(ino)
            .filter(|&h| self.slab[h].dirty)
            .collect();
        victims
            .into_iter()
            .map(|h| self.clean_in_place(h))
            .collect()
    }

    /// Invalidates every page of a file (delete/truncate): emits
    /// `Removed` for each and discards dirty data (the file is going
    /// away). Returns the removed pages.
    pub fn remove_file(&mut self, ino: InodeNr) -> Vec<PageMeta> {
        // The whole page table goes at once; its pages leave in page
        // order.
        let mut gone = Vec::with_capacity(self.index.len_of(ino));
        self.index.retain_file(ino, |_, h| {
            gone.push(h);
            false
        });
        let mut out = Vec::with_capacity(gone.len());
        for h in gone {
            let meta = Self::node_meta(&self.unlink(h));
            self.push_event(meta, PageEvent::Removed);
            out.push(meta);
        }
        out
    }

    /// Invalidates a single page, emitting `Removed`. Returns its
    /// pre-removal metadata if it was present.
    pub fn remove(&mut self, key: PageKey) -> Option<PageMeta> {
        let h = self.index.remove(key.ino, key.index)?;
        let meta = Self::node_meta(&self.unlink(h));
        self.push_event(meta, PageEvent::Removed);
        Some(meta)
    }

    /// Iterates over all cached pages in key order (used by the
    /// Duet registration scan, §4.1).
    pub fn iter(&self) -> impl Iterator<Item = PageMeta> + '_ {
        self.index
            .iter()
            .map(|(_, _, h)| Self::node_meta(&self.slab[h]))
    }

    /// Number of cached pages belonging to `ino` (O(1)).
    pub fn pages_of(&self, ino: InodeNr) -> usize {
        self.index.len_of(ino)
    }

    /// Cached pages of one file, in key order.
    pub fn pages_of_file(&self, ino: InodeNr) -> Vec<PageMeta> {
        self.handles_of(ino)
            .map(|h| Self::node_meta(&self.slab[h]))
            .collect()
    }

    /// Number of dirty pages (O(1); the writeback high-water check runs
    /// every simulation step).
    pub fn dirty_len(&self) -> usize {
        self.dirty_count
    }

    /// Drains and returns all pending page events in occurrence order.
    pub fn drain_events(&mut self) -> Vec<(PageMeta, PageEvent)> {
        self.events.drain(..).collect()
    }

    /// Moves the queued events out wholesale, leaving the queue empty.
    /// Pair with [`PageCache::put_back_events`] to recycle the buffer —
    /// the event pump runs after every filesystem operation, and
    /// [`PageCache::drain_events`]'s fresh `Vec` per call was measurable
    /// across a sweep.
    pub fn take_events(&mut self) -> VecDeque<(PageMeta, PageEvent)> {
        std::mem::take(&mut self.events)
    }

    /// Returns a buffer obtained from [`PageCache::take_events`] so its
    /// capacity is reused. Contents are discarded; events queued since
    /// the take (there are none in the pump's take → consume → put-back
    /// window, but the API does not rely on that) are preserved.
    pub fn put_back_events(&mut self, mut buf: VecDeque<(PageMeta, PageEvent)>) {
        buf.clear();
        if self.events.is_empty() {
            self.events = buf;
        }
    }
}

#[cfg(test)]
impl PageCache {
    /// The page table mirrors the slab exactly: the table is consistent
    /// in itself, and every entry names a live page with that key. The
    /// eviction cursor and finger name the pages a walk finds.
    pub(crate) fn assert_consistent(&self) {
        self.index.assert_consistent();
        let mut pages = 0;
        for (ino, index, h) in self.index.iter() {
            assert_eq!(self.slab[h].key, PageKey::new(ino, index));
            pages += 1;
        }
        assert_eq!(pages, self.len());
        let mut c = self.lru_head;
        while c != NIL && self.slab[c].dirty {
            c = self.slab[c].next;
        }
        assert_eq!(
            self.first_clean, c,
            "first_clean is not the oldest clean page"
        );
        let mut f = self.dirty_head;
        for _ in 1..Self::CLEAN_SCAN {
            if f == NIL {
                break;
            }
            f = self.slab[f].dnext;
        }
        assert_eq!(
            self.dirty_finger, f,
            "dirty_finger is not the CLEAN_SCAN-th dirty page"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_core::PageIndex;

    fn key(ino: u64, idx: u64) -> PageKey {
        PageKey::new(InodeNr(ino), PageIndex(idx))
    }

    #[test]
    fn insert_lookup_hit_miss() {
        let mut c = PageCache::new(4);
        let k = key(1, 0);
        assert!(c.lookup(k).is_none());
        c.insert(k, Some(BlockNr(7)), false);
        let m = c.lookup(k).expect("hit");
        assert_eq!(m.block, Some(BlockNr(7)));
        assert!(!m.dirty);
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut c = PageCache::new(2);
        c.insert(key(1, 0), None, false);
        c.insert(key(1, 1), None, false);
        c.lookup(key(1, 0)); // 1,1 becomes LRU
        let evicted = c.insert(key(1, 2), None, false);
        assert_eq!(evicted.len(), 1);
        assert_eq!(evicted[0].key, key(1, 1));
        assert!(c.contains(key(1, 0)));
        assert!(!c.contains(key(1, 1)));
    }

    #[test]
    fn eviction_prefers_clean_pages() {
        let mut c = PageCache::new(4);
        // Two old dirty pages, two old clean pages.
        c.insert(key(1, 0), Some(BlockNr(10)), true);
        c.insert(key(1, 1), Some(BlockNr(11)), true);
        c.insert(key(2, 0), Some(BlockNr(20)), false);
        c.insert(key(2, 1), Some(BlockNr(21)), false);
        c.drain_events();
        // Inserting one more evicts the oldest *clean* page, not the
        // older dirty ones (those wait for the background flusher).
        let evicted = c.insert(key(3, 0), None, false);
        assert_eq!(evicted.len(), 1);
        assert_eq!(evicted[0].key, key(2, 0), "clean page chosen");
        assert!(!evicted[0].dirty);
        assert!(c.contains(key(1, 0)), "dirty page survived");
        assert!(c.contains(key(1, 1)));
    }

    #[test]
    fn eviction_never_steals_the_inserted_page() {
        let mut c = PageCache::new(1);
        c.insert(key(1, 0), None, true);
        c.drain_events();
        // The only other entry is the incoming page; the dirty LRU page
        // must be flush-evicted instead of the insertion being undone.
        let evicted = c.insert(key(2, 0), None, false);
        assert_eq!(evicted[0].key, key(1, 0));
        assert!(evicted[0].dirty, "fallback flush-evicts the LRU page");
        assert!(c.contains(key(2, 0)), "incoming page survives");
    }

    /// A full cache of 1030 pages: `dirty_ahead` dirty pages, one file
    /// each so any one can be flushed alone, then the clean page
    /// `key(0, 0)`, then filler pages, dirty if `dirty_behind`.
    fn window_cache(dirty_ahead: u64, dirty_behind: bool) -> PageCache {
        let mut c = PageCache::new(1030);
        for i in 0..dirty_ahead {
            c.insert(key(1_000 + i, 0), Some(BlockNr(i)), true);
        }
        c.insert(key(0, 0), None, false);
        for j in 0..1030 - dirty_ahead - 1 {
            c.insert(key(1, j), None, dirty_behind);
        }
        c.assert_consistent();
        c.drain_events();
        c
    }

    /// What an insert that evicts one page did: the victim's key, its
    /// dirty flag as reported to the caller, and the insert's events.
    type Eviction = (PageKey, bool, Vec<PageEvent>);

    /// Inserts a clean page into a full cache.
    fn evict_one(c: &mut PageCache) -> Eviction {
        let evicted = c.insert(key(2, 0), None, false);
        assert_eq!(evicted.len(), 1);
        c.assert_consistent();
        let kinds = c.drain_events().into_iter().map(|(_, e)| e).collect();
        (evicted[0].key, evicted[0].dirty, kinds)
    }

    fn clean_taken(victim: PageKey) -> Eviction {
        (victim, false, vec![PageEvent::Added, PageEvent::Removed])
    }

    /// The dirty LRU head goes, and the caller must charge its write.
    fn head_flushed() -> Eviction {
        let events = vec![PageEvent::Added, PageEvent::Flushed, PageEvent::Removed];
        (key(1_000, 0), true, events)
    }

    #[test]
    fn the_clean_page_is_taken_only_inside_the_window() {
        let w = PageCache::CLEAN_SCAN as u64;
        for dirty_ahead in [w - 1, w, w + 1] {
            let want = if dirty_ahead < w {
                clean_taken(key(0, 0))
            } else {
                head_flushed()
            };
            for dirty_behind in [false, true] {
                let mut c = window_cache(dirty_ahead, dirty_behind);
                let why = format!("{dirty_ahead} dirty ahead, dirty behind: {dirty_behind}");
                assert_eq!(evict_one(&mut c), want, "{why}");
            }
        }
    }

    /// The finger's own page, the `CLEAN_SCAN`-th oldest dirty one,
    /// leaves the dirty run ahead of the clean page. Touched or removed,
    /// it shortens the run by one; flushed, it is the oldest clean page
    /// and inside the window. One more dirty page ahead keeps the run at
    /// the edge, which only a finger that stepped to the right
    /// successor sees.
    #[test]
    fn the_window_follows_the_fingers_page() {
        let w = PageCache::CLEAN_SCAN as u64;
        let finger = key(1_000 + w - 1, 0);
        for dirty_ahead in [w, w + 1] {
            let shortened = if dirty_ahead == w {
                clean_taken(key(0, 0))
            } else {
                head_flushed()
            };

            let mut c = window_cache(dirty_ahead, true);
            assert!(c.lookup(finger).is_some());
            assert_eq!(evict_one(&mut c), shortened, "touched, {dirty_ahead} ahead");

            let mut c = window_cache(dirty_ahead, true);
            assert!(c.remove(finger).is_some());
            assert!(c.insert(key(2, 1), None, false).is_empty());
            c.drain_events();
            assert_eq!(evict_one(&mut c), shortened, "removed, {dirty_ahead} ahead");

            let mut c = window_cache(dirty_ahead, true);
            assert_eq!(c.flush_file(finger.ino).len(), 1);
            c.drain_events();
            let flushed = clean_taken(finger);
            assert_eq!(evict_one(&mut c), flushed, "flushed, {dirty_ahead} ahead");
        }
    }

    #[test]
    fn dirty_eviction_reports_writeback() {
        let mut c = PageCache::new(1);
        c.insert(key(1, 0), Some(BlockNr(5)), true);
        c.drain_events();
        let evicted = c.insert(key(2, 0), None, false);
        assert_eq!(evicted.len(), 1);
        assert!(evicted[0].dirty, "caller must charge a write");
        let evs = c.drain_events();
        // Added (new page), then Flushed + Removed for the victim.
        let kinds: Vec<PageEvent> = evs.iter().map(|(_, e)| *e).collect();
        assert!(kinds.contains(&PageEvent::Flushed));
        assert!(kinds.contains(&PageEvent::Removed));
        assert_eq!(c.stats().writebacks, 1);
    }

    #[test]
    fn event_sequence_for_dirty_insert() {
        let mut c = PageCache::new(4);
        c.insert(key(1, 0), None, true);
        let evs = c.drain_events();
        assert_eq!(evs.len(), 2);
        assert_eq!(evs[0].1, PageEvent::Added);
        assert_eq!(evs[1].1, PageEvent::Dirtied);
        assert!(evs[1].0.dirty);
    }

    #[test]
    fn mark_dirty_transitions_once() {
        let mut c = PageCache::new(4);
        c.insert(key(1, 0), None, false);
        c.drain_events();
        assert!(c.mark_dirty(key(1, 0)));
        assert!(!c.mark_dirty(key(1, 0)), "already dirty");
        assert!(!c.mark_dirty(key(9, 9)), "absent page");
        let evs = c.drain_events();
        assert_eq!(evs.len(), 1);
        assert_eq!(evs[0].1, PageEvent::Dirtied);
    }

    #[test]
    fn writeback_batch_cleans_oldest_first() {
        let mut c = PageCache::new(8);
        for i in 0..4 {
            c.insert(key(1, i), Some(BlockNr(i)), true);
        }
        c.drain_events();
        let batch = c.writeback_batch(2);
        assert_eq!(batch.len(), 2);
        assert_eq!(batch[0].key, key(1, 0));
        assert_eq!(batch[1].key, key(1, 1));
        assert!(!c.peek(key(1, 0)).unwrap().dirty);
        assert!(c.peek(key(1, 3)).unwrap().dirty);
        let evs = c.drain_events();
        assert!(evs.iter().all(|(_, e)| *e == PageEvent::Flushed));
        assert_eq!(evs.len(), 2);
    }

    #[test]
    fn flush_file_cleans_only_that_file() {
        let mut c = PageCache::new(8);
        c.insert(key(1, 0), None, true);
        c.insert(key(2, 0), None, true);
        c.drain_events();
        let flushed = c.flush_file(InodeNr(1));
        assert_eq!(flushed.len(), 1);
        assert!(!c.peek(key(1, 0)).unwrap().dirty);
        assert!(c.peek(key(2, 0)).unwrap().dirty);
    }

    #[test]
    fn remove_file_invalidates_all_pages() {
        let mut c = PageCache::new(8);
        c.insert(key(1, 0), None, false);
        c.insert(key(1, 1), None, true);
        c.insert(key(2, 0), None, false);
        c.drain_events();
        let removed = c.remove_file(InodeNr(1));
        assert_eq!(removed.len(), 2);
        assert_eq!(c.len(), 1);
        assert_eq!(c.pages_of(InodeNr(1)), 0);
        let evs = c.drain_events();
        assert!(evs.iter().all(|(_, e)| *e == PageEvent::Removed));
    }

    #[test]
    fn set_block_resolves_delayed_allocation() {
        let mut c = PageCache::new(4);
        c.insert(key(1, 0), None, true);
        assert_eq!(c.peek(key(1, 0)).unwrap().block, None);
        c.set_block(key(1, 0), BlockNr(42));
        assert_eq!(c.peek(key(1, 0)).unwrap().block, Some(BlockNr(42)));
        // No event from block resolution.
        let evs = c.drain_events();
        assert!(evs.iter().all(|(_, e)| *e != PageEvent::Flushed));
    }

    #[test]
    fn reinsert_refreshes_instead_of_duplicating() {
        let mut c = PageCache::new(4);
        c.insert(key(1, 0), Some(BlockNr(1)), false);
        c.drain_events();
        let evicted = c.insert(key(1, 0), Some(BlockNr(2)), true);
        assert!(evicted.is_empty());
        assert_eq!(c.len(), 1);
        let m = c.peek(key(1, 0)).unwrap();
        assert_eq!(m.block, Some(BlockNr(2)));
        assert!(m.dirty);
        let evs = c.drain_events();
        assert_eq!(evs.len(), 1, "only the Dirtied transition");
        assert_eq!(evs[0].1, PageEvent::Dirtied);
    }

    #[test]
    fn iter_covers_all_entries() {
        let mut c = PageCache::new(8);
        for i in 0..5 {
            c.insert(key(i, 0), None, i % 2 == 0);
        }
        assert_eq!(c.iter().count(), 5);
        assert_eq!(c.iter().filter(|m| m.dirty).count(), 3);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        let _ = PageCache::new(0);
    }

    // Randomized reference tests driven by the deterministic
    // `sim_core::check` helper (the workspace builds offline, with no
    // proptest dep). Failures report the reproducing per-case seed.
    mod properties {
        use super::*;
        use sim_core::check::{forall, CheckConfig};

        /// The cache never exceeds capacity, and LRU bookkeeping
        /// stays consistent under arbitrary operation sequences.
        #[test]
        fn capacity_and_consistency() {
            let cfg = CheckConfig::new("cache-capacity-and-consistency", 0xCAC4E).cases(64);
            forall(&cfg, |_case, rng| {
                let cap = rng.gen_range(1, 8) as usize;
                let mut c = PageCache::new(cap);
                for _ in 0..rng.gen_range(0, 200) {
                    let op = rng.gen_range(0, 8);
                    let ino = rng.gen_range(0, 6);
                    // 62..66 straddles a chunk boundary of the page table.
                    let step = rng.gen_range(0, 4);
                    let idx = 62 + step;
                    let k = key(ino, idx);
                    match op {
                        0 => {
                            c.insert(k, None, false);
                        }
                        1 => {
                            c.insert(k, Some(BlockNr(ino * 10 + idx)), true);
                        }
                        2 => {
                            c.lookup(k);
                        }
                        3 => {
                            c.mark_dirty(k);
                        }
                        4 => {
                            c.remove(k);
                        }
                        5 => {
                            c.writeback_batch(step as usize + 1);
                        }
                        6 => {
                            c.flush_file(InodeNr(ino));
                        }
                        _ => {
                            c.remove_file(InodeNr(ino));
                        }
                    }
                    assert!(c.len() <= cap);
                    assert_eq!(c.iter().count(), c.len());
                    // The O(1) per-inode counter agrees with a scan.
                    let scan = c.iter().filter(|m| m.key.ino == InodeNr(ino)).count();
                    assert_eq!(c.pages_of(InodeNr(ino)), scan);
                    assert_eq!(c.pages_of_file(InodeNr(ino)).len(), scan);
                    // The O(1) dirty counter agrees with a scan.
                    let dirty_scan = c.iter().filter(|m| m.dirty).count();
                    assert_eq!(c.dirty_len(), dirty_scan);
                    c.assert_consistent();
                }
                Ok(())
            })
            .unwrap();
        }

        /// Every Added event is eventually balanced by a Removed
        /// event or a still-resident page.
        #[test]
        fn added_minus_removed_equals_resident() {
            let cfg = CheckConfig::new("cache-added-removed-balance", 0xADD).cases(64);
            forall(&cfg, |_case, rng| {
                let mut c = PageCache::new(3);
                for _ in 0..rng.gen_range(0, 100) {
                    let op = rng.gen_range(0, 2);
                    let ino = rng.gen_range(0, 4);
                    let idx = rng.gen_range(0, 4);
                    match op {
                        0 => {
                            c.insert(key(ino, idx), None, false);
                        }
                        _ => {
                            c.remove(key(ino, idx));
                        }
                    }
                }
                let evs = c.drain_events();
                let added = evs.iter().filter(|(_, e)| *e == PageEvent::Added).count();
                let removed = evs.iter().filter(|(_, e)| *e == PageEvent::Removed).count();
                assert_eq!(added - removed, c.len());
                Ok(())
            })
            .unwrap();
        }
    }

    mod faults {
        use super::*;
        use sim_core::fault::{FaultHandle, FaultPlan, FaultSite};

        fn storm_plan() -> FaultPlan {
            FaultPlan::quiet().with_ppm(FaultSite::CacheEvictionStorm, 1_000_000)
        }

        /// Learn the shed amplitude a given seed will draw, from a
        /// replica injector with the same `(seed, plan)` pair.
        fn predicted_shed(seed: u64, capacity: usize) -> u64 {
            let replica = FaultHandle::new(seed, storm_plan());
            assert!(replica.fire(FaultSite::CacheEvictionStorm));
            let max_shed = ((capacity / 4).max(1)) as u64;
            replica.amplitude(FaultSite::CacheEvictionStorm, 1, max_shed + 1)
        }

        #[test]
        fn eviction_storm_fires_exact_clean_event_sequence() {
            let seed = 11;
            let mut c = PageCache::new(8);
            for i in 0..7 {
                c.insert(key(1, i), Some(BlockNr(100 + i)), false);
            }
            c.drain_events();
            let handle = FaultHandle::new(seed, storm_plan());
            c.set_faults(Some(handle.clone()));
            let shed = predicted_shed(seed, 8);
            let evicted = c.insert(key(2, 0), None, false);
            assert_eq!(handle.fired(FaultSite::CacheEvictionStorm), 1);
            assert_eq!(evicted.len(), shed as usize, "storm sheds the drawn amount");
            assert_eq!(c.len(), 8 - shed as usize);
            // Exact hook sequence Duet sees: Added for the insert, then
            // one Removed per clean victim, oldest first.
            let evs = c.drain_events();
            assert_eq!(evs.len(), 1 + shed as usize);
            assert_eq!(evs[0].1, PageEvent::Added);
            assert_eq!(evs[0].0.key, key(2, 0));
            for (i, (meta, ev)) in evs.iter().skip(1).enumerate() {
                assert_eq!(*ev, PageEvent::Removed);
                assert_eq!(meta.key, key(1, i as u64), "oldest clean pages go first");
                assert!(!meta.dirty);
            }
        }

        #[test]
        fn eviction_storm_flushes_dirty_victims() {
            let seed = 11;
            let mut c = PageCache::new(8);
            for i in 0..7 {
                c.insert(key(1, i), Some(BlockNr(100 + i)), true);
            }
            c.drain_events();
            c.set_faults(Some(FaultHandle::new(seed, storm_plan())));
            let shed = predicted_shed(seed, 8);
            let evicted = c.insert(key(2, 0), None, false);
            // All victims were dirty: caller must charge their writes.
            assert_eq!(evicted.len(), shed as usize);
            assert!(evicted.iter().all(|m| m.dirty));
            // Exact sequence: Added, then Flushed + Removed per victim.
            let evs = c.drain_events();
            assert_eq!(evs.len(), 1 + 2 * shed as usize);
            assert_eq!(evs[0].1, PageEvent::Added);
            for v in 0..shed as usize {
                let (fm, fe) = &evs[1 + 2 * v];
                let (rm, re) = &evs[2 + 2 * v];
                assert_eq!(*fe, PageEvent::Flushed);
                assert!(!fm.dirty, "Flushed reports the page clean");
                assert_eq!(*re, PageEvent::Removed);
                assert_eq!(fm.key, rm.key);
                assert_eq!(fm.key, key(1, v as u64), "oldest dirty pages go first");
            }
        }

        #[test]
        fn writeback_failure_leaves_pages_dirty_for_retry() {
            let plan = FaultPlan::quiet().with_ppm(FaultSite::CacheWritebackFail, 1_000_000);
            let handle = FaultHandle::new(5, plan);
            let mut c = PageCache::new(8);
            for i in 0..3 {
                c.insert(key(1, i), Some(BlockNr(i)), true);
            }
            c.drain_events();
            c.set_faults(Some(handle.clone()));
            // Every writeback fails: nothing flushed, nothing cleaned.
            let batch = c.writeback_batch(8);
            assert!(batch.is_empty());
            assert_eq!(c.dirty_len(), 3);
            assert!(
                c.drain_events().is_empty(),
                "failed writeback emits no events"
            );
            assert_eq!(handle.fired(FaultSite::CacheWritebackFail), 3);
            // The fault clears: the retry flushes the same pages,
            // oldest first, as if the failure never happened.
            c.set_faults(None);
            let batch = c.writeback_batch(8);
            assert_eq!(batch.len(), 3);
            assert_eq!(batch[0].key, key(1, 0));
            assert_eq!(c.dirty_len(), 0);
            let evs = c.drain_events();
            assert!(evs.iter().all(|(_, e)| *e == PageEvent::Flushed));
        }

        #[test]
        fn quiet_plan_is_byte_identical_to_unfaulted() {
            let mut armed = PageCache::new(4);
            armed.set_faults(Some(FaultHandle::new(9, FaultPlan::quiet())));
            let mut clean = PageCache::new(4);
            for i in 0..32u64 {
                let k = key(i % 5, i % 3);
                assert_eq!(
                    armed.insert(k, None, i % 2 == 0),
                    clean.insert(k, None, i % 2 == 0)
                );
                assert_eq!(armed.writeback_batch(2), clean.writeback_batch(2));
            }
            assert_eq!(armed.drain_events(), clean.drain_events());
            assert_eq!(armed.stats(), clean.stats());
        }
    }
}
