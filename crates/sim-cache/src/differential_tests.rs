//! Differential suite for [`PageCache`] (DESIGN.md §13): the real
//! cache against a naive model — one `Vec` in LRU order, O(n)
//! everything — through `sim_core::check::differential`, failing logs
//! shrunk. `DUET_CHECK_SEED` overrides the base seed (CI rotates it).
//!
//! The model states the contract the per-file page table must keep:
//! recency order, victim choice, event order, key-ordered scans. Keys
//! sit on both sides of a chunk boundary and at an index far beyond any
//! dense table. One case is wider than eviction's window
//! (`PageCache::CLEAN_SCAN`), with dirty pages piled at its LRU head, so
//! the victim rule is checked at the window's edge.

use crate::{CacheStats, PageCache, PageEvent, PageKey, PageMeta};
use sim_core::check::{differential, DiffConfig};
use sim_core::fault::seed_from_env;
use sim_core::{BlockNr, InodeNr, PageIndex, SimRng};

#[derive(Debug, Clone, Copy)]
enum Op {
    Insert(PageKey, Option<BlockNr>, bool),
    Lookup(PageKey),
    MarkDirty(PageKey),
    Remove(PageKey),
    WritebackBatch(usize),
    FlushFile(InodeNr),
    RemoveFile(InodeNr),
    SetBlock(PageKey, BlockNr),
    Peek(PageKey),
    PagesOfFile(InodeNr),
}

/// Page indices: a chunk's first slots, the 63 | 64 chunk boundary, and
/// a span no table dense in the page index could hold.
const INDICES: [u64; 11] = [
    0,
    1,
    2,
    62,
    63,
    64,
    65,
    66,
    1 << 40,
    (1 << 40) + 1,
    (1 << 40) + 2,
];

fn gen_op(rng: &mut SimRng, _i: u64) -> Op {
    let ino = InodeNr(rng.gen_range(0, 6));
    let key = PageKey::new(
        ino,
        PageIndex(INDICES[rng.gen_range(0, INDICES.len() as u64) as usize]),
    );
    let block = BlockNr(rng.gen_range(0, 1000));
    match rng.gen_range(0, 11) {
        0 => Op::Insert(key, None, false),
        1 => Op::Insert(key, Some(block), rng.gen_range(0, 2) == 0),
        2 => Op::Lookup(key),
        3 => Op::MarkDirty(key),
        4 => Op::Remove(key),
        5 => Op::WritebackBatch(rng.gen_range(1, 5) as usize),
        6 => Op::FlushFile(ino),
        7 => Op::RemoveFile(ino),
        8 => Op::SetBlock(key, block),
        9 => Op::Peek(key),
        _ => Op::PagesOfFile(ino),
    }
}

/// Capacity of the case that reaches eviction's window: above
/// `CLEAN_SCAN + 1`, so the window is `CLEAN_SCAN` pages and not
/// everything but the incoming page.
const WIDE: usize = PageCache::CLEAN_SCAN + 6;

/// Ops per log of the [`WIDE`] case: the first ~3 000 fill the cache
/// and pile up its dirty pages.
const OPS_WIDE: u64 = 6_000;

/// Ops for the [`WIDE`] cache: 8 192 keys, so nearly every insert
/// misses; half the ops clean inserts, a third dirty ones, writeback
/// only at 1 / 400. Dirty pages pile up at the LRU head until the
/// oldest clean page sits at the window's edge, and it stays there.
fn gen_dirty_heavy(rng: &mut SimRng, _i: u64) -> Op {
    let ino = InodeNr(rng.gen_range(0, 64));
    let key = PageKey::new(ino, PageIndex(rng.gen_range(0, 128)));
    let block = BlockNr(rng.gen_range(0, 1000));
    match rng.gen_range(0, 2400) {
        0..=1199 => Op::Insert(key, None, false),
        1200..=1999 => Op::Insert(key, Some(block), true),
        2000..=2005 => Op::WritebackBatch(rng.gen_range(1, 8) as usize),
        2006..=2189 => Op::Lookup(key),
        2190..=2299 => Op::MarkDirty(key),
        2300..=2359 => Op::Remove(key),
        2360..=2397 => Op::Peek(key),
        2398 => Op::FlushFile(ino),
        _ => Op::RemoveFile(ino),
    }
}

/// A deliberately wrong reference, to show the harness can fail.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Sabotage {
    None,
    /// `lookup` hits without refreshing recency.
    StaleLookup,
    /// Eviction takes the oldest clean page however deep it lies.
    NoWindow,
}

/// The reference: resident pages in recency order, index 0 = least
/// recently used. Every operation is a linear scan.
struct Model {
    capacity: usize,
    pages: Vec<PageMeta>,
    events: Vec<(PageMeta, PageEvent)>,
    stats: CacheStats,
    sabotage: Sabotage,
}

impl Model {
    fn pos(&self, key: PageKey) -> Option<usize> {
        self.pages.iter().position(|m| m.key == key)
    }

    fn touch(&mut self, at: usize) {
        let m = self.pages.remove(at);
        self.pages.push(m);
    }

    fn insert(&mut self, key: PageKey, block: Option<BlockNr>, dirty: bool) -> Vec<PageMeta> {
        if let Some(at) = self.pos(key) {
            if block.is_some() {
                self.pages[at].block = block;
            }
            if dirty && !self.pages[at].dirty {
                self.pages[at].dirty = true;
                self.events.push((self.pages[at], PageEvent::Dirtied));
            }
            self.touch(at);
            return Vec::new();
        }
        let meta = PageMeta { key, block, dirty };
        self.pages.push(meta);
        self.stats.insertions += 1;
        self.events.push((meta, PageEvent::Added));
        if dirty {
            self.events.push((meta, PageEvent::Dirtied));
        }
        let mut evicted = Vec::new();
        while self.pages.len() > self.capacity {
            // Oldest clean page among the `CLEAN_SCAN` oldest, never the
            // one just inserted; none there ⇒ the oldest outright,
            // flushed on its way out.
            let older = self.pages.len() - 1;
            let window = if self.sabotage == Sabotage::NoWindow {
                older
            } else {
                older.clamp(1, PageCache::CLEAN_SCAN)
            };
            let at = self.pages[..window]
                .iter()
                .position(|m| !m.dirty)
                .unwrap_or(0);
            let before = self.pages.remove(at);
            let after = PageMeta {
                dirty: false,
                ..before
            };
            if before.dirty {
                self.stats.writebacks += 1;
                self.events.push((after, PageEvent::Flushed));
            }
            self.events.push((after, PageEvent::Removed));
            self.stats.evictions += 1;
            evicted.push(before);
        }
        evicted
    }

    fn lookup(&mut self, key: PageKey) -> Option<PageMeta> {
        let Some(at) = self.pos(key) else {
            self.stats.misses += 1;
            return None;
        };
        self.stats.hits += 1;
        let meta = self.pages[at];
        if self.sabotage != Sabotage::StaleLookup {
            self.touch(at);
        }
        Some(meta)
    }

    fn mark_dirty(&mut self, key: PageKey) -> bool {
        let Some(at) = self.pos(key) else {
            return false;
        };
        let fresh = !self.pages[at].dirty;
        if fresh {
            self.pages[at].dirty = true;
            self.events.push((self.pages[at], PageEvent::Dirtied));
        }
        self.touch(at);
        fresh
    }

    fn remove(&mut self, key: PageKey) -> Option<PageMeta> {
        let meta = self.pages.remove(self.pos(key)?);
        self.events.push((meta, PageEvent::Removed));
        Some(meta)
    }

    /// Cleans the pages at `positions`, in that order.
    fn flush(&mut self, positions: Vec<usize>) -> Vec<PageMeta> {
        positions
            .into_iter()
            .map(|at| {
                self.pages[at].dirty = false;
                self.stats.writebacks += 1;
                self.events.push((self.pages[at], PageEvent::Flushed));
                self.pages[at]
            })
            .collect()
    }

    fn writeback_batch(&mut self, max: usize) -> Vec<PageMeta> {
        let oldest_dirty = (0..self.pages.len())
            .filter(|&at| self.pages[at].dirty)
            .take(max)
            .collect();
        self.flush(oldest_dirty)
    }

    /// Positions of one file's pages, in page order.
    fn file_positions(&self, ino: InodeNr) -> Vec<usize> {
        let mut at: Vec<usize> = (0..self.pages.len())
            .filter(|&at| self.pages[at].key.ino == ino)
            .collect();
        at.sort_unstable_by_key(|&at| self.pages[at].key);
        at
    }

    fn flush_file(&mut self, ino: InodeNr) -> Vec<PageMeta> {
        let mut dirty = self.file_positions(ino);
        dirty.retain(|&at| self.pages[at].dirty);
        self.flush(dirty)
    }

    fn pages_of_file(&self, ino: InodeNr) -> Vec<PageMeta> {
        self.file_positions(ino)
            .into_iter()
            .map(|at| self.pages[at])
            .collect()
    }

    fn remove_file(&mut self, ino: InodeNr) -> Vec<PageMeta> {
        self.pages_of_file(ino)
            .into_iter()
            .filter_map(|m| self.remove(m.key))
            .collect()
    }

    fn sorted(&self) -> Vec<PageMeta> {
        let mut all = self.pages.clone();
        all.sort_unstable_by_key(|m| m.key);
        all
    }
}

fn agree<T: PartialEq + std::fmt::Debug>(what: &str, i: usize, op: Op, got: T, want: T) {
    assert!(
        got == want,
        "op {i} {op:?}: {what} diverged\n  cache: {got:?}\n  model: {want:?}"
    );
}

fn replay(log: &[Op], capacity: usize, sabotage: Sabotage) -> Result<(), String> {
    let mut cache = PageCache::new(capacity);
    let mut model = Model {
        capacity,
        pages: Vec::new(),
        events: Vec::new(),
        stats: CacheStats::default(),
        sabotage,
    };
    for (i, &op) in log.iter().enumerate() {
        match op {
            Op::Insert(k, b, d) => agree(
                "evicted",
                i,
                op,
                cache.insert(k, b, d),
                model.insert(k, b, d),
            ),
            Op::Lookup(k) => agree("lookup", i, op, cache.lookup(k), model.lookup(k)),
            Op::MarkDirty(k) => agree("dirtied", i, op, cache.mark_dirty(k), model.mark_dirty(k)),
            Op::Remove(k) => agree("removed", i, op, cache.remove(k), model.remove(k)),
            Op::WritebackBatch(n) => agree(
                "batch",
                i,
                op,
                cache.writeback_batch(n),
                model.writeback_batch(n),
            ),
            Op::FlushFile(ino) => agree(
                "flushed",
                i,
                op,
                cache.flush_file(ino),
                model.flush_file(ino),
            ),
            Op::RemoveFile(ino) => agree(
                "removed",
                i,
                op,
                cache.remove_file(ino),
                model.remove_file(ino),
            ),
            Op::SetBlock(k, b) => {
                cache.set_block(k, b);
                if let Some(at) = model.pos(k) {
                    model.pages[at].block = Some(b);
                }
            }
            Op::Peek(k) => {
                agree(
                    "peek",
                    i,
                    op,
                    cache.peek(k),
                    model.pos(k).map(|at| model.pages[at]),
                );
                agree("contains", i, op, cache.contains(k), model.pos(k).is_some());
            }
            Op::PagesOfFile(ino) => {
                let want = model.pages_of_file(ino);
                agree("pages_of", i, op, cache.pages_of(ino), want.len());
                agree("pages_of_file", i, op, cache.pages_of_file(ino), want);
            }
        }
        let events = std::mem::take(&mut model.events);
        agree("events", i, op, cache.drain_events(), events);
        agree("stats", i, op, cache.stats(), model.stats);
        agree("iter", i, op, cache.iter().collect(), model.sorted());
        agree("len", i, op, cache.len(), model.pages.len());
        let dirty = model.pages.iter().filter(|m| m.dirty).count();
        agree("dirty_len", i, op, cache.dirty_len(), dirty);
        cache.assert_consistent();
    }
    Ok(())
}

fn check_seed() -> u64 {
    seed_from_env("DUET_CHECK_SEED", 0xCAC4_ED1F).unwrap_or_else(|e| panic!("{e}"))
}

#[test]
fn cache_matches_the_naive_lru_model() {
    // A cache that evicts on almost every insert, and one roomy enough
    // for a file to be resident on both sides of a chunk boundary.
    for capacity in [3, 24] {
        differential(
            &DiffConfig::new("cache-vs-lru-model", check_seed())
                .cases(12)
                .ops(1500),
            gen_op,
            |log| replay(log, capacity, Sabotage::None),
        )
        .unwrap();
    }
}

/// A cache wider than eviction's window, its LRU head piled with dirty
/// pages: the clean page is taken only inside the window.
#[test]
fn a_wide_cache_matches_the_model_across_the_window() {
    differential(
        &DiffConfig::new("wide-cache-vs-lru-model", check_seed())
            .cases(3)
            .ops(OPS_WIDE),
        gen_dirty_heavy,
        |log| replay(log, WIDE, Sabotage::None),
    )
    .unwrap();
}

/// The wide case can fail: a reference that takes the oldest clean
/// page however deep it lies diverges on one fixed log. Shrinking a
/// log this size takes minutes, so the log is replayed once, unshrunk.
#[test]
#[should_panic(expected = "evicted diverged")]
fn a_reference_without_the_window_is_caught() {
    let mut rng = SimRng::new(0x3D0F_1024);
    let log: Vec<Op> = (0..OPS_WIDE)
        .map(|i| gen_dirty_heavy(&mut rng, i))
        .collect();
    replay(&log, WIDE, Sabotage::NoWindow).unwrap();
}

/// The harness can fail: a reference whose `lookup` forgets to refresh
/// recency is caught, and the log shrinks to the handful of ops that
/// show it (two pages in, one of them looked up, then anything whose
/// result depends on which is older).
#[test]
fn a_reference_with_stale_lookups_is_caught() {
    let failure = differential(
        &DiffConfig::new("cache-vs-stale-model", 0x57A1E)
            .cases(4)
            .ops(400),
        gen_op,
        |log| replay(log, 2, Sabotage::StaleLookup),
    )
    .unwrap_err();
    assert!(failure.ops.len() <= 6, "{failure}");
    assert!(failure.message.contains("diverged"), "{failure}");
}
