//! Per-block device state: reference counts, back-references and
//! whether each block's stored checksum is good.
//!
//! We do not store real file bytes, nor checksums over them. The
//! behaviours the paper's tasks rely on need one bit per block — does
//! it verify? — besides the sharing state:
//!
//! - the scrubber verifies a block's checksum against its content
//!   (§5.1): a block verifies once it has been written or repaired, and
//!   an injected corruption makes it fail until it is repaired or
//!   rewritten;
//! - Btrfs "verifies data correctness during the read operation", which
//!   is why a workload read lets the opportunistic scrubber mark the
//!   block done;
//! - the backup tool compares live and snapshot blocks to decide whether
//!   copy-on-write sharing still holds (§5.2) — equal block numbers mean
//!   equal content;
//! - reference counts implement snapshot sharing: a block is freed only
//!   when neither the live tree nor any snapshot references it.
//!
//! The table shares its state the way Btrfs snapshots share blocks, one
//! column at a time. Each of its three columns — reference counts,
//! back-references, checksum bits — lives in chunks of [`CHUNK_BLOCKS`]
//! consecutive blocks behind `Rc`s: a new table points every slot at
//! one blank chunk, and `Clone` — the snapshot plane's fork — copies
//! pointers, not blocks. The first write into a chunk that another table
//! (or another slot of this one) still holds copies that chunk
//! (`Rc::make_mut`), and only in the column written: a snapshot's
//! reference copies 16 KiB of counts and leaves the chunk's
//! back-references (64 KiB) and checksum bits (512 B) shared, where a
//! COW write copies all three. So a fork stays independent of its
//! pristine and of every other fork, and a table costs memory per chunk
//! written, not per block of the device. The run operations resolve
//! their chunks once per chunk-sized segment of the run, not once per
//! block.

use sim_core::{BlockNr, InodeNr, PageIndex, SimError, SimResult};
use sim_disk::{coalesce, Run};
use std::collections::BTreeSet;
use std::ops::Range;
use std::rc::Rc;

/// Back-reference from a block to the live file page it backs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BackRef {
    /// Owning live file.
    pub ino: InodeNr,
    /// Logical page within the file.
    pub index: PageIndex,
}

/// The back-reference of a block the live tree does not reference.
const NO_BACKREF: BackRef = BackRef {
    ino: InodeNr(u64::MAX),
    index: PageIndex(0),
};

const CHUNK_SHIFT: u32 = 12;
const CHUNK_LEN: usize = 1 << CHUNK_SHIFT;
const SLOT_MASK: usize = CHUNK_LEN - 1;

/// Blocks per chunk: the unit a fork shares and a first write copies.
/// Chosen by measurement (EXPERIMENTS.md "Host cost"); not a knob.
pub const CHUNK_BLOCKS: u64 = CHUNK_LEN as u64;

/// One bit per block of a chunk.
type Bits = [u64; CHUNK_LEN / 64];

fn bit(bits: &Bits, s: usize) -> bool {
    bits[s >> 6] >> (s & 63) & 1 != 0
}

fn set_bit(bits: &mut Bits, s: usize) {
    bits[s >> 6] |= 1 << (s & 63);
}

/// One per-block column in copy-on-write chunks. Chunk `c` holds
/// blocks `c * CHUNK_BLOCKS ..`; the last may run past the device.
#[derive(Debug, Clone, PartialEq)]
struct Column<C> {
    chunks: Vec<Rc<C>>,
    /// The chunk every slot starts at. Held here as well, so a write
    /// never changes it in place and `written` can tell it apart.
    blank: Rc<C>,
}

impl<C: Clone> Column<C> {
    fn new(len: usize, blank: C) -> Self {
        let blank = Rc::new(blank);
        Column {
            chunks: vec![blank.clone(); len],
            blank,
        }
    }

    /// Chunk `c`, copied first if anyone else still holds it.
    fn chunk_mut(&mut self, c: usize) -> &mut C {
        Rc::make_mut(&mut self.chunks[c])
    }

    /// The chunks some write has reached, with their indexes.
    fn written(&self) -> impl Iterator<Item = (usize, &C)> {
        let blank = &self.blank;
        let chunks = self.chunks.iter().enumerate();
        chunks.filter_map(move |(c, chunk)| (!Rc::ptr_eq(chunk, blank)).then_some((c, &**chunk)))
    }
}

/// Per-block state for one device, in copy-on-write chunks.
#[derive(Debug, Clone, PartialEq)]
pub struct BlockTable {
    capacity: u64,
    /// Number of referents (live tree + snapshots) of each block.
    refcount: Column<[u32; CHUNK_LEN]>,
    /// Live back-reference of each block; `NO_BACKREF` if the live tree
    /// does not reference it.
    backref: Column<[BackRef; CHUNK_LEN]>,
    /// Whether each block's stored checksum is good: a write or a
    /// repair sets the bit, and nothing clears it.
    checksum_ok: Column<Bits>,
    /// Blocks with injected silent corruption.
    corrupted: BTreeSet<u64>,
}

/// Splits a block range at chunk boundaries: `(chunk, slots)` per
/// piece, in block order.
fn segments(range: Range<usize>) -> impl Iterator<Item = (usize, Range<usize>)> {
    let mut i = range.start;
    std::iter::from_fn(move || {
        (i < range.end).then(|| {
            let c = i >> CHUNK_SHIFT;
            let end = range.end.min((c + 1) << CHUNK_SHIFT);
            let piece = (c, i & SLOT_MASK..end - (c << CHUNK_SHIFT));
            i = end;
            piece
        })
    })
}

/// Block `s` of chunk `c`.
fn block(c: usize, s: usize) -> BlockNr {
    BlockNr(((c << CHUNK_SHIFT) + s) as u64)
}

impl BlockTable {
    /// Creates state for a device of `capacity` blocks.
    pub fn new(capacity: u64) -> Self {
        let chunks = capacity.div_ceil(CHUNK_BLOCKS) as usize;
        BlockTable {
            capacity,
            refcount: Column::new(chunks, [0; CHUNK_LEN]),
            backref: Column::new(chunks, [NO_BACKREF; CHUNK_LEN]),
            checksum_ok: Column::new(chunks, [0; CHUNK_LEN / 64]),
            corrupted: BTreeSet::new(),
        }
    }

    /// Device capacity in blocks.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    fn check_range(&self, b: BlockNr) -> SimResult<usize> {
        if b.raw() < self.capacity {
            Ok(b.raw() as usize)
        } else {
            Err(SimError::BlockOutOfRange(b))
        }
    }

    /// The one range check of a run-level operation. A run whose end
    /// wraps `u64` reaches past every device, so it is out of range.
    fn check_run(&self, run: Run) -> SimResult<Range<usize>> {
        match run.start.raw().checked_add(run.len) {
            Some(end) if end <= self.capacity => Ok(run.start.raw() as usize..end as usize),
            end => Err(SimError::BlockOutOfRange(BlockNr(
                end.map_or(u64::MAX, |e| e - 1),
            ))),
        }
    }

    /// Chunk and slot of an in-range block.
    fn slot(&self, b: BlockNr) -> SimResult<(usize, usize)> {
        let i = self.check_range(b)?;
        Ok((i >> CHUNK_SHIFT, i & SLOT_MASK))
    }

    /// Stamps a freshly allocated run backing pages `first_page..` of
    /// live file `ino`: every block is written, gains one reference and
    /// points back at its page.
    pub fn stamp_run(&mut self, run: Run, ino: InodeNr, first_page: u64) -> SimResult<()> {
        let range = self.check_run(run)?;
        let mut page = first_page;
        for (c, slots) in segments(range.clone()) {
            let refcount = self.refcount.chunk_mut(c);
            let backref = self.backref.chunk_mut(c);
            let checksum_ok = self.checksum_ok.chunk_mut(c);
            for s in slots {
                refcount[s] += 1;
                backref[s] = BackRef {
                    ino,
                    index: PageIndex(page),
                };
                set_bit(checksum_ok, s);
                page += 1;
            }
        }
        // The rewrite replaces any corrupted content.
        if !self.corrupted.is_empty() {
            for i in range {
                self.corrupted.remove(&(i as u64));
            }
        }
        Ok(())
    }

    /// Adds one reference to every block of a run (a snapshot starts
    /// sharing it).
    pub fn ref_run(&mut self, run: Run) -> SimResult<()> {
        for (c, slots) in segments(self.check_run(run)?) {
            for n in &mut self.refcount.chunk_mut(c)[slots] {
                *n += 1;
            }
        }
        Ok(())
    }

    /// Drops one reference per block of a run — the live tree's if
    /// `live`, which also clears the back-references; a snapshot's
    /// otherwise — and returns the maximal sub-runs nobody references
    /// any more. Snapshots may hold on to any subset of the run, so
    /// the count is per block.
    ///
    /// # Panics
    ///
    /// Panics if a count is already zero — that is a filesystem
    /// accounting bug, not a runtime condition.
    pub fn release_run(&mut self, run: Run, live: bool) -> SimResult<Vec<Run>> {
        let mut freed = Vec::new();
        for (c, slots) in segments(self.check_run(run)?) {
            let refcount = self.refcount.chunk_mut(c);
            for s in slots.clone() {
                let b = block(c, s);
                assert!(refcount[s] > 0, "refcount underflow at {b}");
                refcount[s] -= 1;
                if refcount[s] == 0 {
                    freed.push(b);
                }
            }
            if live {
                self.backref.chunk_mut(c)[slots].fill(NO_BACKREF);
            }
        }
        Ok(coalesce(freed))
    }

    /// Verifies the block's checksum against its content, as the Btrfs
    /// read path does. Fails for corrupted blocks, and for blocks never
    /// written or repaired.
    pub fn verify_checksum(&self, b: BlockNr) -> SimResult<()> {
        let (c, s) = self.slot(b)?;
        if self.corrupted.contains(&b.raw()) || !bit(&self.checksum_ok.chunks[c], s) {
            Err(SimError::ChecksumMismatch(b))
        } else {
            Ok(())
        }
    }

    /// Injects a silent corruption (latent sector error) into a block.
    pub fn inject_corruption(&mut self, b: BlockNr) -> SimResult<()> {
        self.check_range(b)?;
        self.corrupted.insert(b.raw());
        Ok(())
    }

    /// Repairs a corrupted block (models Btrfs rebuilding from a good
    /// copy): its stored checksum is good afterwards.
    pub fn repair(&mut self, b: BlockNr) -> SimResult<()> {
        let (c, s) = self.slot(b)?;
        set_bit(self.checksum_ok.chunk_mut(c), s);
        self.corrupted.remove(&b.raw());
        Ok(())
    }

    /// Number of corrupted blocks outstanding.
    pub fn corrupted_count(&self) -> usize {
        self.corrupted.len()
    }

    /// Increments a block's reference count.
    pub fn ref_inc(&mut self, b: BlockNr) -> SimResult<()> {
        let (c, s) = self.slot(b)?;
        self.refcount.chunk_mut(c)[s] += 1;
        Ok(())
    }

    /// Decrements a block's reference count and reports whether it
    /// dropped to zero (i.e. the block is now free).
    ///
    /// # Panics
    ///
    /// Panics if the count is already zero — that is a filesystem
    /// accounting bug, not a runtime condition.
    pub fn ref_dec(&mut self, b: BlockNr) -> SimResult<bool> {
        let (c, s) = self.slot(b)?;
        let n = &mut self.refcount.chunk_mut(c)[s];
        assert!(*n > 0, "refcount underflow at {b}");
        *n -= 1;
        Ok(*n == 0)
    }

    /// Current reference count.
    pub fn refcount_of(&self, b: BlockNr) -> SimResult<u32> {
        let (c, s) = self.slot(b)?;
        Ok(self.refcount.chunks[c][s])
    }

    /// Sets the live back-reference for a block.
    pub fn set_backref(&mut self, b: BlockNr, br: BackRef) -> SimResult<()> {
        let (c, s) = self.slot(b)?;
        self.backref.chunk_mut(c)[s] = br;
        Ok(())
    }

    /// Clears the live back-reference (the live tree no longer points at
    /// this block; a snapshot still might).
    pub fn clear_backref(&mut self, b: BlockNr) -> SimResult<()> {
        self.set_backref(b, NO_BACKREF)
    }

    /// Live back-reference of a block, if any.
    pub fn backref_of(&self, b: BlockNr) -> SimResult<Option<BackRef>> {
        let (c, s) = self.slot(b)?;
        let br = self.backref.chunks[c][s];
        Ok((br.ino != NO_BACKREF.ino).then_some(br))
    }

    /// Every block with a non-zero reference count, with the count, in
    /// block order. Walks only the chunks written: O(data), not
    /// O(device).
    pub(crate) fn referenced(&self) -> impl Iterator<Item = (BlockNr, u32)> + '_ {
        self.refcount.written().flat_map(|(c, counts)| {
            let slots = counts.iter().enumerate().filter(|&(_, &n)| n > 0);
            slots.map(move |(s, &n)| (block(c, s), n))
        })
    }

    /// Every block with a live back-reference, in block order; O(data)
    /// likewise.
    pub(crate) fn backrefs(&self) -> impl Iterator<Item = (BlockNr, BackRef)> + '_ {
        self.backref.written().flat_map(|(c, brs)| {
            let slots = brs
                .iter()
                .enumerate()
                .filter(|&(_, br)| br.ino != NO_BACKREF.ino);
            slots.map(move |(s, &br)| (block(c, s), br))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Positions at which `a` and `b` hold the very same chunk.
    fn shared<C>(a: &Column<C>, b: &Column<C>) -> usize {
        let pairs = a.chunks.iter().zip(&b.chunks);
        pairs.filter(|&(x, y)| Rc::ptr_eq(x, y)).count()
    }

    /// Distinct chunk allocations behind a column.
    fn distinct<C>(col: &Column<C>) -> usize {
        let mut ptrs: Vec<*const C> = col.chunks.iter().map(Rc::as_ptr).collect();
        ptrs.sort_unstable();
        ptrs.dedup();
        ptrs.len()
    }

    /// `shared` per column: refcount, back-reference, checksum bit.
    fn shared_chunks(a: &BlockTable, b: &BlockTable) -> [usize; 3] {
        [
            shared(&a.refcount, &b.refcount),
            shared(&a.backref, &b.backref),
            shared(&a.checksum_ok, &b.checksum_ok),
        ]
    }

    /// `distinct` per column, in the same order.
    fn distinct_chunks(t: &BlockTable) -> [usize; 3] {
        [
            distinct(&t.refcount),
            distinct(&t.backref),
            distinct(&t.checksum_ok),
        ]
    }

    fn one(b: u64) -> Run {
        Run {
            start: BlockNr(b),
            len: 1,
        }
    }

    /// The one bit of checksum state gives the verify semantics the
    /// content versions used to: a block verifies once written or
    /// repaired, and a corruption fails it until a repair or a rewrite.
    #[test]
    fn a_block_verifies_once_written_or_repaired_until_corrupted() {
        let mut t = BlockTable::new(16);
        let mismatch = |b| Err(SimError::ChecksumMismatch(b));
        let (never, repaired, written) = (BlockNr(1), BlockNr(2), BlockNr(3));
        assert_eq!(t.verify_checksum(never), mismatch(never), "never written");
        t.repair(repaired).unwrap();
        assert_eq!(
            t.verify_checksum(repaired),
            Ok(()),
            "repaired, never written"
        );
        let w = one(written.raw());
        t.stamp_run(w, InodeNr(1), 0).unwrap();
        assert_eq!(t.verify_checksum(written), Ok(()));

        let fixes: [fn(&mut BlockTable, BlockNr); 2] = [
            |t, b| t.repair(b).unwrap(),
            |t, b| t.stamp_run(one(b.raw()), InodeNr(1), 0).unwrap(),
        ];
        for fix in fixes {
            t.inject_corruption(written).unwrap();
            assert_eq!(t.corrupted_count(), 1);
            assert_eq!(t.verify_checksum(written), mismatch(written));
            // References and their release leave the content alone.
            t.ref_run(w).unwrap();
            t.release_run(w, false).unwrap();
            assert_eq!(t.verify_checksum(written), mismatch(written));
            fix(&mut t, written);
            assert_eq!(t.verify_checksum(written), Ok(()));
            assert_eq!(t.corrupted_count(), 0);
        }
        t.release_run(w, true).unwrap();
        assert_eq!(t.release_run(w, true), Ok(vec![w]));
        assert_eq!(
            t.verify_checksum(written),
            Ok(()),
            "a free block keeps its content"
        );
    }

    #[test]
    fn refcounts() {
        let mut t = BlockTable::new(16);
        let b = BlockNr(2);
        t.ref_inc(b).unwrap();
        t.ref_inc(b).unwrap();
        assert_eq!(t.refcount_of(b).unwrap(), 2);
        assert!(!t.ref_dec(b).unwrap());
        assert!(t.ref_dec(b).unwrap(), "second dec frees");
    }

    #[test]
    #[should_panic(expected = "refcount underflow")]
    fn refcount_underflow_panics() {
        let mut t = BlockTable::new(16);
        t.ref_dec(BlockNr(0)).unwrap();
    }

    #[test]
    fn backrefs_roundtrip() {
        let mut t = BlockTable::new(16);
        let b = BlockNr(7);
        assert_eq!(t.backref_of(b).unwrap(), None);
        let br = BackRef {
            ino: InodeNr(12),
            index: PageIndex(3),
        };
        t.set_backref(b, br).unwrap();
        assert_eq!(t.backref_of(b).unwrap(), Some(br));
        t.clear_backref(b).unwrap();
        assert_eq!(t.backref_of(b).unwrap(), None);
    }

    #[test]
    fn out_of_range_errors() {
        let mut t = BlockTable::new(4);
        let b = BlockNr(4);
        assert_eq!(t.repair(b), Err(SimError::BlockOutOfRange(b)));
        assert_eq!(t.verify_checksum(b), Err(SimError::BlockOutOfRange(b)));
        assert_eq!(t.ref_inc(b), Err(SimError::BlockOutOfRange(b)));
    }

    #[test]
    fn a_run_whose_end_wraps_is_out_of_range() {
        let mut t = BlockTable::new(16);
        let before = t.clone();
        // `start + len` wraps to 2: unchecked, that was the empty range
        // 2^64 - 2 .. 2, and a release that freed nothing.
        let wrapped = Run {
            start: BlockNr(u64::MAX - 1),
            len: 4,
        };
        let oob = SimError::BlockOutOfRange(BlockNr(u64::MAX));
        assert_eq!(t.release_run(wrapped, true), Err(oob.clone()));
        assert_eq!(t.ref_run(wrapped), Err(oob.clone()));
        assert_eq!(t.stamp_run(wrapped, InodeNr(1), 0), Err(oob));
        assert_eq!(t, before, "a rejected run changes nothing");
    }

    /// A fork copies pointers, and a write copies exactly the chunk it
    /// lands in, in each column it writes. A dense table — per-position
    /// chunks, or a clone that copies them — fails here.
    #[test]
    fn a_fork_shares_every_chunk_until_written() {
        let capacity = 3 * CHUNK_BLOCKS + 5;
        let mut pristine = BlockTable::new(capacity);
        assert_eq!(pristine.refcount.chunks.len(), 4);
        assert_eq!(distinct_chunks(&pristine), [1; 3], "one blank chunk");
        pristine
            .stamp_run(one(CHUNK_BLOCKS), InodeNr(1), 0)
            .unwrap();
        assert_eq!(distinct_chunks(&pristine), [2; 3]);

        let mut fork = pristine.clone();
        assert_eq!(
            shared_chunks(&fork, &pristine),
            [4; 3],
            "a fork copies none"
        );
        fork.stamp_run(one(2 * CHUNK_BLOCKS + 1), InodeNr(1), 1)
            .unwrap();
        assert_eq!(
            shared_chunks(&fork, &pristine),
            [3; 3],
            "one write, one copy"
        );
        fork.stamp_run(one(2 * CHUNK_BLOCKS + 2), InodeNr(1), 2)
            .unwrap();
        assert_eq!(
            shared_chunks(&fork, &pristine),
            [3; 3],
            "an unshared chunk is written in place"
        );
        assert_ne!(fork, pristine);
        assert_eq!(
            pristine.verify_checksum(BlockNr(2 * CHUNK_BLOCKS + 1)),
            Err(SimError::ChecksumMismatch(BlockNr(2 * CHUNK_BLOCKS + 1))),
            "the pristine never saw the fork's write"
        );

        let huge = BlockTable::new(1 << 30);
        assert_eq!(huge.refcount.chunks.len() as u64, (1 << 30) / CHUNK_BLOCKS);
        assert_eq!(distinct_chunks(&huge), [1; 3], "memory per chunk written");
    }

    /// A snapshot's reference writes one column, so it copies one: the
    /// chunk's counts, not its back-references or checksum bits. A
    /// layout that keeps a chunk's columns together fails here.
    #[test]
    fn a_snapshot_reference_copies_only_refcounts() {
        let mut pristine = BlockTable::new(2 * CHUNK_BLOCKS);
        let all = Run {
            start: BlockNr(0),
            len: 2 * CHUNK_BLOCKS,
        };
        pristine.stamp_run(all, InodeNr(1), 0).unwrap();
        let mut fork = pristine.clone();
        let tail = Run {
            start: BlockNr(CHUNK_BLOCKS + 8),
            len: 8,
        };
        fork.ref_run(tail).unwrap();
        assert_eq!(shared_chunks(&fork, &pristine), [1, 2, 2]);
        fork.release_run(tail, false).unwrap();
        assert_eq!(
            shared_chunks(&fork, &pristine),
            [1, 2, 2],
            "so does its release"
        );
        fork.stamp_run(one(0), InodeNr(2), 0).unwrap();
        assert_eq!(
            shared_chunks(&fork, &pristine),
            [0, 1, 1],
            "a write copies all three"
        );
        assert_eq!(fork.refcount_of(BlockNr(CHUNK_BLOCKS + 8)), Ok(1));
        assert_eq!(pristine.refcount_of(BlockNr(0)), Ok(1));
    }

    /// The fsck walks see exactly the blocks with a count or a
    /// back-reference, and only in chunks written.
    #[test]
    fn the_walks_skip_blank_chunks() {
        let mut t = BlockTable::new(3 * CHUNK_BLOCKS);
        assert_eq!(t.referenced().count() + t.backrefs().count(), 0);
        let run = Run {
            start: BlockNr(CHUNK_BLOCKS - 1),
            len: 2,
        };
        t.stamp_run(run, InodeNr(4), 10).unwrap();
        t.ref_run(one(CHUNK_BLOCKS)).unwrap();
        let edge = BlockNr(CHUNK_BLOCKS);
        let want = vec![(BlockNr(CHUNK_BLOCKS - 1), 1), (edge, 2)];
        assert_eq!(t.referenced().collect::<Vec<_>>(), want);
        t.release_run(run, true).unwrap();
        assert_eq!(t.referenced().collect::<Vec<_>>(), vec![(edge, 1)]);
        assert_eq!(t.backrefs().count(), 0);
        t.set_backref(
            edge,
            BackRef {
                ino: InodeNr(4),
                index: PageIndex(11),
            },
        )
        .unwrap();
        assert_eq!(t.backrefs().map(|(b, _)| b).collect::<Vec<_>>(), vec![edge]);
    }
}
