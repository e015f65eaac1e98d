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
//! Storage is flat `Vec`s indexed by block number, so a multi-gigabyte
//! simulated device costs a few dozen bytes per block instead of hash-map
//! nodes.

use sim_core::dmap::DSet;
use sim_core::{BlockNr, InodeNr, PageIndex, SimError, SimResult};
use sim_disk::{coalesce, Run};

/// Back-reference from a block to the live file page it backs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BackRef {
    /// Owning live file.
    pub ino: InodeNr,
    /// Logical page within the file.
    pub index: PageIndex,
}

const NO_BACKREF: u64 = u64::MAX;

/// Flat per-block state for one device.
#[derive(Debug, Clone, PartialEq)]
pub struct BlockTable {
    /// Content version of each block (0 = never written).
    version: Vec<u64>,
    /// Stored checksum of each block.
    checksum: Vec<u64>,
    /// Number of referents (live tree + snapshots).
    refcount: Vec<u32>,
    /// Live back-reference, packed as (ino, index); `NO_BACKREF` if the
    /// block is not referenced by the live tree.
    backref_ino: Vec<u64>,
    backref_idx: Vec<u64>,
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

impl BlockTable {
    /// Creates state for a device of `capacity` blocks.
    pub fn new(capacity: u64) -> Self {
        let n = capacity as usize;
        BlockTable {
            version: vec![0; n],
            checksum: vec![0; n],
            refcount: vec![0; n],
            backref_ino: vec![NO_BACKREF; n],
            backref_idx: vec![0; n],
            corrupted: DSet::new(),
            next_version: 1,
        }
    }

    /// Device capacity in blocks.
    pub fn capacity(&self) -> u64 {
        self.version.len() as u64
    }

    fn check_range(&self, b: BlockNr) -> SimResult<usize> {
        let i = b.raw() as usize;
        if i < self.version.len() {
            Ok(i)
        } else {
            Err(SimError::BlockOutOfRange(b))
        }
    }

    /// The one range check of a run-level operation.
    fn check_run(&self, run: Run) -> SimResult<std::ops::Range<usize>> {
        let end = run.start.raw() + run.len;
        if end > self.capacity() {
            return Err(SimError::BlockOutOfRange(BlockNr(end - 1)));
        }
        Ok(run.start.raw() as usize..end as usize)
    }

    /// Gives slot `i` the next content version and a matching checksum,
    /// clearing any corruption.
    fn write_slot(&mut self, i: usize) -> u64 {
        let v = self.next_version;
        self.next_version += 1;
        self.version[i] = v;
        self.checksum[i] = checksum_of(v);
        self.corrupted.remove(&(i as u64));
        v
    }

    /// Stamps a freshly written block: assigns a new content version and
    /// matching checksum, and clears any corruption.
    pub fn write_block(&mut self, b: BlockNr) -> SimResult<u64> {
        let i = self.check_range(b)?;
        Ok(self.write_slot(i))
    }

    /// Stamps a freshly allocated run backing pages `first_page..` of
    /// live file `ino`: every block is written (versions ascend along
    /// the run), gains one reference and points back at its page.
    pub fn stamp_run(&mut self, run: Run, ino: InodeNr, first_page: u64) -> SimResult<()> {
        for (i, page) in self.check_run(run)?.zip(first_page..) {
            self.write_slot(i);
            self.refcount[i] += 1;
            self.backref_ino[i] = ino.raw();
            self.backref_idx[i] = page;
        }
        Ok(())
    }

    /// Adds one reference to every block of a run (a snapshot starts
    /// sharing it).
    pub fn ref_run(&mut self, run: Run) -> SimResult<()> {
        for i in self.check_run(run)? {
            self.refcount[i] += 1;
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
        for i in self.check_run(run)? {
            let b = BlockNr(i as u64);
            assert!(self.refcount[i] > 0, "refcount underflow at {b}");
            self.refcount[i] -= 1;
            if live {
                self.backref_ino[i] = NO_BACKREF;
            }
            if self.refcount[i] == 0 {
                freed.push(b);
            }
        }
        Ok(coalesce(freed))
    }

    /// Verifies the block's checksum against its content, as the Btrfs
    /// read path does. Fails for corrupted blocks.
    pub fn verify_checksum(&self, b: BlockNr) -> SimResult<()> {
        let i = self.check_range(b)?;
        if self.corrupted.contains(&b.raw()) || self.checksum[i] != checksum_of(self.version[i]) {
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
        let i = self.check_range(b)?;
        self.corrupted.remove(&b.raw());
        self.checksum[i] = checksum_of(self.version[i]);
        Ok(())
    }

    /// Number of corrupted blocks outstanding.
    pub fn corrupted_count(&self) -> usize {
        self.corrupted.len()
    }

    /// Increments a block's reference count.
    pub fn ref_inc(&mut self, b: BlockNr) -> SimResult<()> {
        let i = self.check_range(b)?;
        self.refcount[i] += 1;
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
        let i = self.check_range(b)?;
        assert!(self.refcount[i] > 0, "refcount underflow at {b}");
        self.refcount[i] -= 1;
        Ok(self.refcount[i] == 0)
    }

    /// Current reference count.
    pub fn refcount_of(&self, b: BlockNr) -> SimResult<u32> {
        Ok(self.refcount[self.check_range(b)?])
    }

    /// Sets the live back-reference for a block.
    pub fn set_backref(&mut self, b: BlockNr, br: BackRef) -> SimResult<()> {
        let i = self.check_range(b)?;
        self.backref_ino[i] = br.ino.raw();
        self.backref_idx[i] = br.index.raw();
        Ok(())
    }

    /// Clears the live back-reference (the live tree no longer points at
    /// this block; a snapshot still might).
    pub fn clear_backref(&mut self, b: BlockNr) -> SimResult<()> {
        let i = self.check_range(b)?;
        self.backref_ino[i] = NO_BACKREF;
        Ok(())
    }

    /// Live back-reference of a block, if any.
    pub fn backref_of(&self, b: BlockNr) -> SimResult<Option<BackRef>> {
        let i = self.check_range(b)?;
        if self.backref_ino[i] == NO_BACKREF {
            Ok(None)
        } else {
            Ok(Some(BackRef {
                ino: InodeNr(self.backref_ino[i]),
                index: PageIndex(self.backref_idx[i]),
            }))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
}
