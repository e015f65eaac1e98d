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
//! reference copies 8 KiB of counts and leaves the chunk's
//! back-references and checksum bits (512 B) shared, where a COW write
//! copies all three. So a fork stays
//! independent of its pristine and of every other fork, and a table
//! costs memory per chunk written, not per block of the device. The run
//! operations resolve their chunks once per chunk-sized segment of the
//! run, not once per block.
//!
//! Back-references are kept per extent, as Btrfs keeps them in its
//! extent tree, not per block: a chunk holds a sorted list of pieces,
//! each a run of slots backing consecutive pages of one file, named by
//! the owner of its first slot ([`PIECE_BYTES`] each). The list is
//! canonical — no empty piece, and two neighbours that continue each
//! other (same inode, next page) are always one piece — so equal
//! per-block back-references make equal lists, whatever order of stamps
//! and releases built them. A lookup is a binary search over a chunk's
//! pieces, and a COW write or a live release copies only those, a few
//! hundred bytes where a per-block column copied 32 KiB.
//!
//! A block costs 2⅛ B — a `u16` reference count and its checksum bit —
//! and a piece 16 B. A back-reference is packed into one `u64` by
//! [`sim_core::owner`], the inode in the high 32 bits and the page in
//! the low 32. So it names an inode below 2³² − 1 and a page below
//! 2³², and a block has at most 65 535 referents. A value that does not fit is an `InvalidArgument`,
//! returned before anything is written; a count never wraps.

use sim_core::owner::{pack, unpack};
use sim_core::{BlockNr, InodeNr, PageIndex, SimError, SimResult};
use sim_disk::{coalesce_into, Run};
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

impl From<(InodeNr, PageIndex)> for BackRef {
    fn from((ino, index): (InodeNr, PageIndex)) -> Self {
        BackRef { ino, index }
    }
}

/// Most referents a block can have: the count is a `u16`.
const MAX_REFS: u16 = u16::MAX;

const CHUNK_SHIFT: u32 = 12;
const CHUNK_LEN: usize = 1 << CHUNK_SHIFT;
const SLOT_MASK: usize = CHUNK_LEN - 1;

/// Blocks per chunk: the unit a fork shares and a first write copies.
/// Chosen by measurement (EXPERIMENTS.md "Host cost"); not a knob.
pub const CHUNK_BLOCKS: u64 = CHUNK_LEN as u64;

/// A chunk of reference counts.
type Counts = [u16; CHUNK_LEN];
/// Bytes a first write copies from the reference-count column.
pub const REFCOUNT_CHUNK_BYTES: usize = std::mem::size_of::<Counts>();
/// Bytes a piece of back-references takes: what a first write copies
/// from the back-reference column, per piece of the chunk.
pub const PIECE_BYTES: usize = std::mem::size_of::<Piece>();

/// Slots `start..start + len` of a chunk, backing consecutive pages of
/// one file: slot `start + k` backs the page `k` past `owner`'s.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Piece {
    start: u16,
    len: u16,
    /// Packed back-reference of slot `start`.
    owner: u64,
}

impl Piece {
    fn end(&self) -> usize {
        usize::from(self.start) + usize::from(self.len)
    }

    /// Packed back-reference of slot `s`, which the piece holds.
    fn owner_at(&self, s: usize) -> u64 {
        self.owner + (s - usize::from(self.start)) as u64
    }

    /// Whether `next` starts where this piece ends and backs the pages
    /// that follow its own, in the same file.
    fn continued_by(&self, next: &Piece) -> bool {
        let after = self.owner + u64::from(self.len);
        self.end() == usize::from(next.start)
            && next.owner == after
            && after >> 32 == self.owner >> 32
    }
}

/// A chunk of back-references: its pieces in slot order, canonical —
/// none empty, and no piece continued by the next.
type Pieces = Vec<Piece>;

/// The piece of `pieces` holding slot `s`, if any.
fn piece_at(pieces: &[Piece], s: usize) -> Option<&Piece> {
    let i = pieces.partition_point(|p| usize::from(p.start) <= s);
    let p = &pieces[i.checked_sub(1)?];
    (p.end() > s).then_some(p)
}

/// Makes `slots` back the pages that follow `owner` on, or none for
/// `None`: trims or splits the pieces they cut, and merges the new
/// piece with the neighbours it continues, so the list stays canonical.
fn assign(pieces: &mut Pieces, slots: Range<usize>, owner: Option<u64>) {
    let mut i = pieces.partition_point(|p| p.end() <= slots.start);
    let mut j = i + pieces[i..].partition_point(|p| usize::from(p.start) < slots.end);
    // What the cut pieces keep either side of the slots.
    let mut left = (i < j && usize::from(pieces[i].start) < slots.start).then(|| Piece {
        len: (slots.start - usize::from(pieces[i].start)) as u16,
        ..pieces[i]
    });
    let mut right = (i < j && pieces[j - 1].end() > slots.end).then(|| {
        let p = pieces[j - 1];
        Piece {
            start: slots.end as u16,
            len: (p.end() - slots.end) as u16,
            owner: p.owner_at(slots.end),
        }
    });
    let mid = owner.map(|owner| Piece {
        start: slots.start as u16,
        len: slots.len() as u16,
        owner,
    });
    if mid.is_some() {
        // The new piece may continue a neighbour, or be continued by one.
        if left.is_none() && i > 0 && pieces[i - 1].end() == slots.start {
            i -= 1;
            left = Some(pieces[i]);
        }
        if right.is_none()
            && pieces
                .get(j)
                .is_some_and(|p| usize::from(p.start) == slots.end)
        {
            right = Some(pieces[j]);
            j += 1;
        }
    }
    let mut out = [Piece::default(); 3];
    let mut n = 0;
    for p in [left, mid, right].into_iter().flatten() {
        if n > 0 && out[n - 1].continued_by(&p) {
            out[n - 1].len += p.len;
        } else {
            out[n] = p;
            n += 1;
        }
    }
    // `out[..n]` replaces `pieces[i..j]`: overwrite in place, then close
    // the gap or open the room.
    let kept = n.min(j - i);
    pieces[i..i + kept].copy_from_slice(&out[..kept]);
    if n < j - i {
        pieces.drain(i + n..j);
    } else if n > j - i {
        pieces.splice(j..j, out[kept..n].iter().copied());
    }
}

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
    refcount: Column<Counts>,
    /// Live back-references, as pieces; a block no piece holds is not
    /// referenced by the live tree.
    backref: Column<Pieces>,
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

/// The error for a count that is already at `MAX_REFS`.
fn too_many_refs(b: BlockNr) -> SimError {
    SimError::InvalidArgument(format!("{b}: more than {MAX_REFS} references"))
}

impl BlockTable {
    /// Creates state for a device of `capacity` blocks.
    pub fn new(capacity: u64) -> Self {
        let chunks = capacity.div_ceil(CHUNK_BLOCKS) as usize;
        BlockTable {
            capacity,
            refcount: Column::new(chunks, [0; CHUNK_LEN]),
            backref: Column::new(chunks, Vec::new()),
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

    /// The first block of `range` whose count cannot take one more
    /// reference, as an error.
    fn check_headroom(&self, range: Range<usize>) -> SimResult<()> {
        for (c, slots) in segments(range) {
            let counts = &self.refcount.chunks[c][slots.clone()];
            if let Some(i) = counts.iter().position(|&n| n == MAX_REFS) {
                return Err(too_many_refs(block(c, slots.start + i)));
            }
        }
        Ok(())
    }

    /// Stamps a freshly allocated run backing pages `first_page..` of
    /// live file `ino`: every block is written, gains one reference and
    /// points back at its page. A page or inode a back-reference cannot
    /// hold, or a block already at the most referents, fails the whole
    /// run before any block changes.
    pub fn stamp_run(&mut self, run: Run, ino: InodeNr, first_page: u64) -> SimResult<()> {
        let range = self.check_run(run)?;
        let Some(last) = run.len.checked_sub(1) else {
            return Ok(());
        };
        pack(ino, first_page.saturating_add(last))?;
        let mut packed = pack(ino, first_page)?;
        self.check_headroom(range.clone())?;
        for (c, slots) in segments(range.clone()) {
            let refcount = self.refcount.chunk_mut(c);
            let checksum_ok = self.checksum_ok.chunk_mut(c);
            for s in slots.clone() {
                refcount[s] += 1;
                set_bit(checksum_ok, s);
            }
            let len = slots.len() as u64;
            assign(self.backref.chunk_mut(c), slots, Some(packed));
            packed += len;
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
    /// sharing it), or to none if some block is already at the most
    /// referents.
    pub fn ref_run(&mut self, run: Run) -> SimResult<()> {
        let range = self.check_run(run)?;
        self.check_headroom(range.clone())?;
        for (c, slots) in segments(range) {
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
                assign(self.backref.chunk_mut(c), slots, None);
            }
        }
        let mut runs = Vec::new();
        coalesce_into(&mut freed, &mut runs);
        Ok(runs)
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

    /// Increments a block's reference count, unless it is already at
    /// the most referents.
    pub fn ref_inc(&mut self, b: BlockNr) -> SimResult<()> {
        let (c, s) = self.slot(b)?;
        let n = self.refcount.chunks[c][s]
            .checked_add(1)
            .ok_or_else(|| too_many_refs(b))?;
        self.refcount.chunk_mut(c)[s] = n;
        Ok(())
    }

    /// Current reference count.
    pub fn refcount_of(&self, b: BlockNr) -> SimResult<u32> {
        let (c, s) = self.slot(b)?;
        Ok(u32::from(self.refcount.chunks[c][s]))
    }

    /// Sets the live back-reference for a block, if it can hold it.
    pub fn set_backref(&mut self, b: BlockNr, br: BackRef) -> SimResult<()> {
        let (c, s) = self.slot(b)?;
        let packed = pack(br.ino, br.index.raw())?;
        assign(self.backref.chunk_mut(c), s..s + 1, Some(packed));
        Ok(())
    }

    /// Live back-reference of a block, if any.
    pub fn backref_of(&self, b: BlockNr) -> SimResult<Option<BackRef>> {
        Ok(self.backref_run(b)?.map(|(br, _)| br))
    }

    /// Live back-reference of a block, if any, and how many blocks from
    /// it on back the pages that follow, in the same file: one lookup
    /// for a whole piece. The count stops at the end of the block's
    /// chunk; the next chunk's first piece may continue it.
    pub fn backref_run(&self, b: BlockNr) -> SimResult<Option<(BackRef, u64)>> {
        let (c, s) = self.slot(b)?;
        let piece = piece_at(&self.backref.chunks[c], s);
        Ok(piece.map(|p| (unpack(p.owner_at(s)).into(), (p.end() - s) as u64)))
    }

    /// Every block with a non-zero reference count, with the count, in
    /// block order. Walks only the chunks written: O(data), not
    /// O(device).
    pub(crate) fn referenced(&self) -> impl Iterator<Item = (BlockNr, u32)> + '_ {
        self.refcount.written().flat_map(|(c, counts)| {
            let slots = counts.iter().enumerate().filter(|&(_, &n)| n > 0);
            slots.map(move |(s, &n)| (block(c, s), u32::from(n)))
        })
    }

    /// Every piece of live back-references — a run of blocks and the
    /// back-reference of its first, the rest backing the pages that
    /// follow — in block order, split at chunk boundaries. Walks only
    /// the pieces of chunks written: O(extents), not O(device).
    pub(crate) fn backrefs(&self) -> impl Iterator<Item = (Run, BackRef)> + '_ {
        self.backref.written().flat_map(|(c, pieces)| {
            pieces.iter().map(move |p| {
                let start = block(c, usize::from(p.start));
                let run = Run {
                    start,
                    len: u64::from(p.len),
                };
                (run, unpack(p.owner).into())
            })
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
    }

    /// A count stops at 65 535: the next reference, alone or in a run,
    /// is an error that names the block and changes nothing.
    #[test]
    fn a_full_count_refuses_another_reference() {
        let mut t = BlockTable::new(16);
        let b = BlockNr(9);
        for _ in 0..MAX_REFS {
            t.ref_inc(b).unwrap();
        }
        assert_eq!(t.refcount_of(b), Ok(65_535));
        let before = t.clone();
        let full = Err(too_many_refs(b));
        assert_eq!(t.ref_inc(b), full);
        let run = Run {
            start: BlockNr(8),
            len: 3,
        };
        assert_eq!(t.ref_run(run), full);
        assert_eq!(t.stamp_run(run, InodeNr(1), 0), full);
        assert_eq!(t, before, "a refused reference changes nothing");
        assert_eq!(t.refcount_of(b), Ok(65_535));
        assert_eq!(t.refcount_of(BlockNr(8)), Ok(0), "nor the run's head");
        let named = SimError::InvalidArgument("blk#9: more than 65535 references".into());
        assert_eq!(full, Err(named));
    }

    /// A back-reference holds inodes below 2^32 - 1 and pages below
    /// 2^32, at the very edge too; anything wider is refused before a
    /// block changes.
    #[test]
    fn backrefs_pack_to_the_edge_and_no_further() {
        let mut t = BlockTable::new(16);
        let edge = BackRef {
            ino: InodeNr(u64::from(u32::MAX) - 1),
            index: PageIndex(u64::from(u32::MAX)),
        };
        t.set_backref(BlockNr(0), edge).unwrap();
        assert_eq!(t.backref_of(BlockNr(0)), Ok(Some(edge)));
        let two = Run {
            start: BlockNr(1),
            len: 2,
        };
        t.stamp_run(two, edge.ino, u64::from(u32::MAX) - 1).unwrap();
        assert_eq!(t.backref_of(BlockNr(2)), Ok(Some(edge)));
        let before = t.clone();
        let wide = [
            (InodeNr(u64::from(u32::MAX)), 0),
            (InodeNr(1), u64::from(u32::MAX)),
            (InodeNr(1), u64::MAX),
        ];
        for (ino, page) in wide {
            let err = t.stamp_run(two, ino, page).unwrap_err();
            assert!(matches!(err, SimError::InvalidArgument(_)), "{err}");
        }
        let past = BackRef {
            ino: InodeNr(1),
            index: PageIndex(1 << 32),
        };
        assert!(t.set_backref(BlockNr(3), past).is_err());
        assert_eq!(t, before, "a refused back-reference changes nothing");
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
        assert_eq!(
            t.backrefs().map(|(r, _)| r).collect::<Vec<_>>(),
            vec![one(edge.raw())]
        );
    }

    /// `n` runs of `len` blocks from `start`, each of another file than
    /// its neighbours, so no two merge: `n` pieces.
    fn stamp_pieces(t: &mut BlockTable, start: u64, n: u64, len: u64) {
        for k in 0..n {
            let run = Run {
                start: BlockNr(start + k * len),
                len,
            };
            t.stamp_run(run, InodeNr(1 + k % 2), k * len).unwrap();
        }
    }

    /// Bytes the fork's back-reference chunks take that the pristine's
    /// do not share: the piece lists a first write copied.
    fn private_backref_bytes(fork: &BlockTable, pristine: &BlockTable) -> usize {
        let pairs = fork.backref.chunks.iter().zip(&pristine.backref.chunks);
        let private = pairs.filter(|&(x, y)| !Rc::ptr_eq(x, y));
        private
            .map(|(x, _)| std::mem::size_of::<Pieces>() + x.capacity() * PIECE_BYTES)
            .sum()
    }

    /// A live release in a forked chunk copies that chunk's pieces, not
    /// a block's worth of back-references each: under 2 KiB a chunk of
    /// 32 pieces, growth room included, where a per-block column copies
    /// 32 KiB. The other two columns copy as before.
    #[test]
    fn a_release_in_a_fork_copies_pieces_not_blocks() {
        const CHUNKS: u64 = 6;
        let per_chunk = 32;
        let mut pristine = BlockTable::new(CHUNKS * CHUNK_BLOCKS);
        stamp_pieces(
            &mut pristine,
            0,
            CHUNKS * per_chunk,
            CHUNK_BLOCKS / per_chunk,
        );
        let mut fork = pristine.clone();
        for c in 0..CHUNKS {
            // Cut the middle out of one piece in every chunk.
            let run = Run {
                start: BlockNr(c * CHUNK_BLOCKS + 100),
                len: 10,
            };
            fork.release_run(run, true).unwrap();
            assert_eq!(fork.backref_of(run.start), Ok(None));
            assert!(pristine.backref_of(run.start).unwrap().is_some());
        }
        assert_eq!(shared_chunks(&fork, &pristine), [0, 0, CHUNKS as usize]);
        let per_touched = private_backref_bytes(&fork, &pristine) / CHUNKS as usize;
        assert!(per_touched < 2 * 1024, "{per_touched} B a chunk");
        assert_eq!(
            fork.backref.chunks[0].len(),
            per_chunk as usize + 1,
            "one split"
        );
    }

    /// Equal per-block back-references make equal tables, whatever
    /// order of stamps, splits and releases built them: the pieces are
    /// canonical.
    #[test]
    fn equal_backrefs_compare_equal_whatever_built_them() {
        let run = |start, len| Run {
            start: BlockNr(start),
            len,
        };
        let mut whole = BlockTable::new(2 * CHUNK_BLOCKS);
        whole.stamp_run(run(4000, 200), InodeNr(1), 0).unwrap();

        let mut halves = BlockTable::new(2 * CHUNK_BLOCKS);
        halves.stamp_run(run(4100, 100), InodeNr(1), 100).unwrap();
        halves.stamp_run(run(4000, 100), InodeNr(1), 0).unwrap();
        assert_eq!(halves, whole, "two stamps merge into one piece");

        let mut split = whole.clone();
        let b = BlockNr(4050);
        let other = BackRef {
            ino: InodeNr(2),
            index: PageIndex(50),
        };
        split.set_backref(b, other).unwrap();
        assert_ne!(split, whole);
        assert_eq!(split.backref_run(b), Ok(Some((other, 1))));
        let back = BackRef {
            ino: InodeNr(1),
            index: PageIndex(50),
        };
        split.set_backref(b, back).unwrap();
        assert_eq!(split, whole, "a split healed by set_backref");

        let mut released = BlockTable::new(2 * CHUNK_BLOCKS);
        released.stamp_run(run(4000, 200), InodeNr(1), 0).unwrap();
        released.ref_run(run(4090, 20)).unwrap();
        released.release_run(run(4090, 20), true).unwrap();
        for (k, b) in run(4090, 20).blocks().enumerate() {
            let br = BackRef {
                ino: InodeNr(1),
                index: PageIndex(90 + k as u64),
            };
            released.set_backref(b, br).unwrap();
        }
        assert_eq!(released, whole, "a release refilled block by block");
    }

    /// `backref_run` answers for a whole piece from any block of it,
    /// and stops at the chunk's end, where the next chunk's piece
    /// carries on.
    #[test]
    fn a_backref_run_reaches_the_end_of_its_piece_or_chunk() {
        let mut t = BlockTable::new(2 * CHUNK_BLOCKS);
        let run = Run {
            start: BlockNr(CHUNK_BLOCKS - 8),
            len: 12,
        };
        t.stamp_run(run, InodeNr(3), 40).unwrap();
        let br = |index| BackRef {
            ino: InodeNr(3),
            index: PageIndex(index),
        };
        assert_eq!(t.backref_run(run.start), Ok(Some((br(40), 8))));
        assert_eq!(t.backref_run(run.start.offset(5)), Ok(Some((br(45), 3))));
        assert_eq!(t.backref_run(BlockNr(CHUNK_BLOCKS)), Ok(Some((br(48), 4))));
        assert_eq!(t.backref_run(BlockNr(CHUNK_BLOCKS + 4)), Ok(None));
        let end = BlockNr(2 * CHUNK_BLOCKS);
        assert_eq!(t.backref_run(end), Err(SimError::BlockOutOfRange(end)));
    }
}
