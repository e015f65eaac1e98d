//! Per-block device state: content versions, checksums, reference
//! counts and back-references.
//!
//! We do not store real file bytes. Each block carries a *content
//! version* — a monotonically increasing stamp assigned on write — and a
//! checksum derived from it. This is enough to model every behaviour the
//! paper's tasks rely on:
//!
//! - the scrubber verifies a block's checksum against its content
//!   (§5.1); an injected corruption makes verification fail;
//! - Btrfs "verifies data correctness during the read operation", which
//!   is why a workload read lets the opportunistic scrubber mark the
//!   block done;
//! - the backup tool compares live and snapshot blocks to decide whether
//!   copy-on-write sharing still holds (§5.2) — equal block numbers mean
//!   equal content;
//! - reference counts implement snapshot sharing: a block is freed only
//!   when neither the live tree nor any snapshot references it.
//!
//! The table shares its state the way Btrfs snapshots share blocks.
//! The five per-block columns live in chunks of [`CHUNK_BLOCKS`]
//! consecutive blocks behind `Rc`s: a new table points every slot at
//! one all-default chunk, and `Clone` — the snapshot plane's fork —
//! copies pointers, not blocks. The first write into a chunk that
//! another table (or another slot of this one) still holds copies that
//! chunk (`Rc::make_mut`), so a fork stays independent of its pristine
//! and of every other fork, and a table costs memory per chunk written,
//! not per block of the device. The run operations resolve their chunk
//! once per chunk-sized segment of the run, not once per block.

use sim_core::dmap::DSet;
use sim_core::{BlockNr, InodeNr, PageIndex, SimError, SimResult};
use sim_disk::{coalesce, Run};
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

const NO_BACKREF: u64 = u64::MAX;

const CHUNK_SHIFT: u32 = 12;
const CHUNK_LEN: usize = 1 << CHUNK_SHIFT;
const SLOT_MASK: usize = CHUNK_LEN - 1;

/// Blocks per chunk: the unit a fork shares and a first write copies.
/// Chosen by measurement (EXPERIMENTS.md "Host cost"); not a knob.
pub const CHUNK_BLOCKS: u64 = CHUNK_LEN as u64;

/// The per-block state of `CHUNK_BLOCKS` consecutive blocks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Chunk {
    /// Content version of each block (0 = never written).
    version: [u64; CHUNK_LEN],
    /// Stored checksum of each block.
    checksum: [u64; CHUNK_LEN],
    /// Number of referents (live tree + snapshots).
    refcount: [u32; CHUNK_LEN],
    /// Live back-reference, packed as (ino, index); `NO_BACKREF` if the
    /// block is not referenced by the live tree.
    backref_ino: [u64; CHUNK_LEN],
    backref_idx: [u64; CHUNK_LEN],
}

/// Never written, unreferenced blocks.
const BLANK: Chunk = Chunk {
    version: [0; CHUNK_LEN],
    checksum: [0; CHUNK_LEN],
    refcount: [0; CHUNK_LEN],
    backref_ino: [NO_BACKREF; CHUNK_LEN],
    backref_idx: [0; CHUNK_LEN],
};

impl Chunk {
    /// Gives slot `s` content version `v` and the matching checksum.
    fn write(&mut self, s: usize, v: u64) {
        self.version[s] = v;
        self.checksum[s] = checksum_of(v);
    }
}

/// Per-block state for one device, in copy-on-write chunks.
#[derive(Debug, Clone, PartialEq)]
pub struct BlockTable {
    capacity: u64,
    /// Chunk `c` holds blocks `c * CHUNK_BLOCKS ..`; the last may run
    /// past `capacity`.
    chunks: Vec<Rc<Chunk>>,
    /// Blocks with injected silent corruption.
    corrupted: DSet<u64>,
    /// Monotonic content-version source.
    next_version: u64,
}

/// Checksum function over a content version (any injective-enough mix).
fn checksum_of(version: u64) -> u64 {
    let mut z = version.wrapping_add(0x9E3779B97F4A7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z ^ (z >> 27)
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

impl BlockTable {
    /// Creates state for a device of `capacity` blocks.
    pub fn new(capacity: u64) -> Self {
        let blank = Rc::new(BLANK);
        BlockTable {
            capacity,
            chunks: vec![blank; capacity.div_ceil(CHUNK_BLOCKS) as usize],
            corrupted: DSet::new(),
            next_version: 1,
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
    fn slot(&self, b: BlockNr) -> SimResult<(&Chunk, usize)> {
        let i = self.check_range(b)?;
        Ok((&self.chunks[i >> CHUNK_SHIFT], i & SLOT_MASK))
    }

    /// Chunk and slot of an in-range block, the chunk unshared.
    fn slot_mut(&mut self, b: BlockNr) -> SimResult<(&mut Chunk, usize)> {
        let i = self.check_range(b)?;
        Ok((
            Rc::make_mut(&mut self.chunks[i >> CHUNK_SHIFT]),
            i & SLOT_MASK,
        ))
    }

    /// Stamps a freshly written block: assigns a new content version and
    /// matching checksum, and clears any corruption.
    pub fn write_block(&mut self, b: BlockNr) -> SimResult<u64> {
        let v = self.next_version;
        let (chunk, s) = self.slot_mut(b)?;
        chunk.write(s, v);
        self.next_version += 1;
        self.corrupted.remove(&b.raw());
        Ok(v)
    }

    /// Stamps a freshly allocated run backing pages `first_page..` of
    /// live file `ino`: every block is written (versions ascend along
    /// the run), gains one reference and points back at its page.
    pub fn stamp_run(&mut self, run: Run, ino: InodeNr, first_page: u64) -> SimResult<()> {
        let range = self.check_run(run)?;
        let mut v = self.next_version;
        self.next_version += run.len;
        let mut page = first_page;
        for (c, slots) in segments(range.clone()) {
            let chunk = Rc::make_mut(&mut self.chunks[c]);
            for s in slots {
                chunk.write(s, v);
                chunk.refcount[s] += 1;
                chunk.backref_ino[s] = ino.raw();
                chunk.backref_idx[s] = page;
                v += 1;
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
            let chunk = Rc::make_mut(&mut self.chunks[c]);
            for s in slots {
                chunk.refcount[s] += 1;
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
            let base = (c << CHUNK_SHIFT) as u64;
            let chunk = Rc::make_mut(&mut self.chunks[c]);
            for s in slots {
                let b = BlockNr(base + s as u64);
                assert!(chunk.refcount[s] > 0, "refcount underflow at {b}");
                chunk.refcount[s] -= 1;
                if live {
                    chunk.backref_ino[s] = NO_BACKREF;
                }
                if chunk.refcount[s] == 0 {
                    freed.push(b);
                }
            }
        }
        Ok(coalesce(freed))
    }

    /// Verifies the block's checksum against its content, as the Btrfs
    /// read path does. Fails for corrupted blocks.
    pub fn verify_checksum(&self, b: BlockNr) -> SimResult<()> {
        let (chunk, s) = self.slot(b)?;
        if self.corrupted.contains(&b.raw()) || chunk.checksum[s] != checksum_of(chunk.version[s]) {
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
    /// copy): restores a valid checksum without changing the version.
    pub fn repair(&mut self, b: BlockNr) -> SimResult<()> {
        let (chunk, s) = self.slot_mut(b)?;
        chunk.checksum[s] = checksum_of(chunk.version[s]);
        self.corrupted.remove(&b.raw());
        Ok(())
    }

    /// Number of corrupted blocks outstanding.
    pub fn corrupted_count(&self) -> usize {
        self.corrupted.len()
    }

    /// Increments a block's reference count.
    pub fn ref_inc(&mut self, b: BlockNr) -> SimResult<()> {
        let (chunk, s) = self.slot_mut(b)?;
        chunk.refcount[s] += 1;
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
        let (chunk, s) = self.slot_mut(b)?;
        assert!(chunk.refcount[s] > 0, "refcount underflow at {b}");
        chunk.refcount[s] -= 1;
        Ok(chunk.refcount[s] == 0)
    }

    /// Current reference count.
    pub fn refcount_of(&self, b: BlockNr) -> SimResult<u32> {
        let (chunk, s) = self.slot(b)?;
        Ok(chunk.refcount[s])
    }

    /// Sets the live back-reference for a block.
    pub fn set_backref(&mut self, b: BlockNr, br: BackRef) -> SimResult<()> {
        let (chunk, s) = self.slot_mut(b)?;
        chunk.backref_ino[s] = br.ino.raw();
        chunk.backref_idx[s] = br.index.raw();
        Ok(())
    }

    /// Clears the live back-reference (the live tree no longer points at
    /// this block; a snapshot still might).
    pub fn clear_backref(&mut self, b: BlockNr) -> SimResult<()> {
        let (chunk, s) = self.slot_mut(b)?;
        chunk.backref_ino[s] = NO_BACKREF;
        Ok(())
    }

    /// Live back-reference of a block, if any.
    pub fn backref_of(&self, b: BlockNr) -> SimResult<Option<BackRef>> {
        let (chunk, s) = self.slot(b)?;
        Ok((chunk.backref_ino[s] != NO_BACKREF).then(|| BackRef {
            ino: InodeNr(chunk.backref_ino[s]),
            index: PageIndex(chunk.backref_idx[s]),
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Positions at which `a` and `b` hold the very same chunk.
    fn shared_chunks(a: &BlockTable, b: &BlockTable) -> usize {
        let same = |(x, y): (&Rc<Chunk>, &Rc<Chunk>)| Rc::ptr_eq(x, y);
        a.chunks.iter().zip(&b.chunks).filter(|&p| same(p)).count()
    }

    /// Distinct chunk allocations behind a table.
    fn distinct_chunks(t: &BlockTable) -> usize {
        let mut ptrs: Vec<*const Chunk> = t.chunks.iter().map(Rc::as_ptr).collect();
        ptrs.sort_unstable();
        ptrs.dedup();
        ptrs.len()
    }

    #[test]
    fn write_then_verify() {
        let mut t = BlockTable::new(16);
        let b = BlockNr(3);
        let v1 = t.write_block(b).unwrap();
        let v2 = t.write_block(b).unwrap();
        assert!(v2 > v1, "versions increase");
        t.verify_checksum(b).unwrap();
    }

    #[test]
    fn corruption_detected_and_repaired() {
        let mut t = BlockTable::new(16);
        let b = BlockNr(5);
        t.write_block(b).unwrap();
        t.inject_corruption(b).unwrap();
        assert_eq!(t.corrupted_count(), 1);
        assert_eq!(t.verify_checksum(b), Err(SimError::ChecksumMismatch(b)));
        t.repair(b).unwrap();
        t.verify_checksum(b).unwrap();
        assert_eq!(t.corrupted_count(), 0);
    }

    #[test]
    fn rewrite_clears_corruption() {
        let mut t = BlockTable::new(16);
        let b = BlockNr(1);
        t.write_block(b).unwrap();
        t.inject_corruption(b).unwrap();
        t.write_block(b).unwrap();
        t.verify_checksum(b).unwrap();
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
        let _ = t.ref_dec(BlockNr(0));
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
        assert_eq!(t.write_block(b), Err(SimError::BlockOutOfRange(b)));
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
    /// lands in. A dense table — per-position chunks, or a clone that
    /// copies them — fails here.
    #[test]
    fn a_fork_shares_every_chunk_until_written() {
        let capacity = 3 * CHUNK_BLOCKS + 5;
        let mut pristine = BlockTable::new(capacity);
        assert_eq!(pristine.chunks.len(), 4);
        assert_eq!(distinct_chunks(&pristine), 1, "one blank chunk");
        pristine.write_block(BlockNr(CHUNK_BLOCKS)).unwrap();
        assert_eq!(distinct_chunks(&pristine), 2);

        let mut fork = pristine.clone();
        assert_eq!(shared_chunks(&fork, &pristine), 4, "a fork copies none");
        fork.write_block(BlockNr(2 * CHUNK_BLOCKS + 1)).unwrap();
        assert_eq!(shared_chunks(&fork, &pristine), 3, "one write, one copy");
        fork.write_block(BlockNr(2 * CHUNK_BLOCKS + 2)).unwrap();
        assert_eq!(
            shared_chunks(&fork, &pristine),
            3,
            "an unshared chunk is written in place"
        );
        assert_ne!(fork, pristine);
        assert_eq!(
            pristine.verify_checksum(BlockNr(2 * CHUNK_BLOCKS + 1)),
            Err(SimError::ChecksumMismatch(BlockNr(2 * CHUNK_BLOCKS + 1))),
            "the pristine never saw the fork's write"
        );

        let huge = BlockTable::new(1 << 30);
        assert_eq!(huge.chunks.len() as u64, (1 << 30) / CHUNK_BLOCKS);
        assert_eq!(distinct_chunks(&huge), 1, "memory per chunk written");
    }
}
