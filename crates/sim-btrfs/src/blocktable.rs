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
//! column at a time. Each of its two columns — extent pieces, which
//! carry the reference counts and back-references, and checksum bits —
//! lives in chunks of [`CHUNK_BLOCKS`] consecutive blocks behind `Rc`s:
//! a new table points every slot at one blank chunk, and `Clone` — the
//! snapshot plane's fork — copies pointers, not blocks. The first write
//! into a chunk that another table (or another slot of this one) still
//! holds copies that chunk (`Rc::make_mut`), and only in the column
//! written: a snapshot's reference copies the chunk's pieces, a few
//! hundred bytes, and leaves its checksum bits (512 B) shared, where a
//! COW write copies both. So a fork stays independent of its pristine
//! and of every other fork, and a table costs memory per chunk written,
//! not per block of the device. The run operations resolve their chunks
//! once per chunk-sized segment of the run, not once per block.
//!
//! Reference counts and back-references are kept per extent, as Btrfs
//! keeps them in its extent items, not per block: a chunk holds a
//! sorted list of pieces, each a run of slots with one count that back
//! consecutive pages of one file, or no live page at all (a run only
//! snapshots hold), named by the count and the owner of its first slot
//! ([`PIECE_BYTES`] each). The list is canonical — no blank piece (no
//! referent and no owner), and two neighbours with equal counts whose
//! owners continue each other (same inode, next page) or are both
//! absent are always one piece — so equal per-block state makes equal
//! lists, whatever order of stamps, references and releases built them.
//! A lookup is a binary search over a chunk's pieces; a run operation
//! rewrites the pieces it covers, splitting those its edges cut, and
//! copies only them on a first write: a few hundred bytes where
//! per-block columns copied 8 KiB of counts and 32 KiB of
//! back-references.
//!
//! A block costs ⅛ B — its checksum bit — and a piece 16 B. A
//! back-reference is packed into one `u64` by [`sim_core::owner`], the
//! inode in the high 32 bits and the page in the low 32. So it names an
//! inode below 2³² − 1 and a page below 2³², and a block has at most
//! 65 535 referents. A value that does not fit is an `InvalidArgument`,
//! returned before anything is written; a count never wraps.

use sim_core::owner::{pack, unpack, NO_OWNER};
use sim_core::{BlockNr, InodeNr, PageIndex, SimError, SimResult};
use sim_disk::Run;
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

/// Bytes a piece takes: what a first write copies from the piece
/// column, per piece of the chunk.
pub const PIECE_BYTES: usize = std::mem::size_of::<Piece>();

/// Slots `start..start + len` of a chunk, alike in count and owner:
/// each has `refs` referents (the live tree and snapshots), and slot
/// `start + k` backs the page `k` past `owner`'s — or no live page, if
/// `owner` is [`NO_OWNER`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Piece {
    start: u16,
    len: u16,
    refs: u16,
    /// Packed back-reference of slot `start`.
    owner: u64,
}

impl Piece {
    fn end(&self) -> usize {
        usize::from(self.start) + usize::from(self.len)
    }

    /// Packed back-reference of slot `s`, which the piece holds.
    fn owner_at(&self, s: usize) -> u64 {
        if self.owner == NO_OWNER {
            NO_OWNER
        } else {
            self.owner + (s - usize::from(self.start)) as u64
        }
    }

    /// Whether `next` starts where this piece ends and backs the pages
    /// that follow this piece's, in the same file — or, like this
    /// piece, no live page.
    fn owner_continues_into(&self, next: &Piece) -> bool {
        if self.end() != usize::from(next.start) {
            return false;
        }
        if self.owner == NO_OWNER || next.owner == NO_OWNER {
            return self.owner == next.owner;
        }
        let after = self.owner + u64::from(self.len);
        next.owner == after && after >> 32 == self.owner >> 32
    }

    /// Whether `next` carries this piece on with the same count, so the
    /// two must be one.
    fn continued_by(&self, next: &Piece) -> bool {
        self.refs == next.refs && self.owner_continues_into(next)
    }

    /// Slots `slots`, which the piece holds, as a piece of their own.
    fn cut(&self, slots: Range<usize>) -> Piece {
        Piece {
            start: slots.start as u16,
            len: slots.len() as u16,
            refs: self.refs,
            owner: self.owner_at(slots.start),
        }
    }

    /// Blocks the piece spans, in chunk `c`.
    fn run(&self, c: usize) -> Run {
        Run {
            start: block(c, usize::from(self.start)),
            len: u64::from(self.len),
        }
    }
}

/// A chunk of pieces, in slot order and canonical: none blank, and no
/// piece continued by the next.
type Pieces = Vec<Piece>;

/// Indexes of the pieces of `pieces` that hold some slot of `slots`.
fn overlapping(pieces: &[Piece], slots: &Range<usize>) -> Range<usize> {
    let i = pieces.partition_point(|p| p.end() <= slots.start);
    i..i + pieces[i..].partition_point(|p| usize::from(p.start) < slots.end)
}

/// Index of the piece of `pieces` holding slot `s`, if any.
fn piece_index(pieces: &[Piece], s: usize) -> Option<usize> {
    let i = pieces.partition_point(|p| usize::from(p.start) <= s);
    let i = i.checked_sub(1)?;
    (pieces[i].end() > s).then_some(i)
}

/// Appends `p` to the canonical list `out`: dropped if blank, merged
/// into the last piece if it carries that on.
fn push(out: &mut Pieces, p: Piece) {
    if p.refs == 0 && p.owner == NO_OWNER {
        return;
    }
    match out.last_mut() {
        Some(last) if last.continued_by(&p) => last.len += p.len,
        _ => out.push(p),
    }
}

/// Rewrites `slots` of a chunk: every stretch of them one piece holds,
/// and every stretch none holds (no referent, no owner), takes the
/// count and first-slot owner `f(stretch, refs, owner of its first
/// slot)` returns. The pieces the edges cut keep their outer parts, and
/// the list is made canonical again.
fn edit(
    pieces: &mut Pieces,
    slots: Range<usize>,
    mut f: impl FnMut(Range<usize>, u16, u64) -> (u16, u64),
) {
    let hit = overlapping(pieces, &slots);
    // One neighbour each side as well: the result may continue them.
    let (lo, hi) = (hit.start.saturating_sub(1), (hit.end + 1).min(pieces.len()));
    let mut out = Vec::with_capacity(2 * (hi - lo) + 1);
    let mut apply = |out: &mut Pieces, stretch: Range<usize>, refs, owner| {
        let (refs, owner) = f(stretch.clone(), refs, owner);
        let (start, len) = (stretch.start as u16, stretch.len() as u16);
        push(
            out,
            Piece {
                start,
                len,
                refs,
                owner,
            },
        );
    };
    // First slot of `slots` not rewritten yet.
    let mut at = slots.start;
    for p in &pieces[lo..hi] {
        let (start, end) = (usize::from(p.start), p.end());
        if start < slots.start {
            push(&mut out, p.cut(start..end.min(slots.start)));
        }
        let (a, b) = (start.max(slots.start), end.min(slots.end));
        if a < b {
            if at < a {
                apply(&mut out, at..a, 0, NO_OWNER);
            }
            apply(&mut out, a..b, p.refs, p.owner_at(a));
            at = b;
        }
        if end > slots.end {
            if at < slots.end {
                apply(&mut out, at..slots.end, 0, NO_OWNER);
                at = slots.end;
            }
            push(&mut out, p.cut(start.max(slots.end)..end));
        }
    }
    if at < slots.end {
        apply(&mut out, at..slots.end, 0, NO_OWNER);
    }
    pieces.splice(lo..hi, out);
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
    /// Reference counts (live tree + snapshots) and live
    /// back-references, as pieces; a block no piece holds has no
    /// referent and backs no live page.
    pieces: Column<Pieces>,
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
            pieces: Column::new(chunks, Vec::new()),
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

    /// The piece holding slot `s` of chunk `c`, if any.
    fn piece(&self, c: usize, s: usize) -> Option<&Piece> {
        let pieces = &self.pieces.chunks[c];
        piece_index(pieces, s).map(|i| &pieces[i])
    }

    /// The first block of `range` whose count cannot take one more
    /// reference, as an error.
    fn check_headroom(&self, range: Range<usize>) -> SimResult<()> {
        for (c, slots) in segments(range) {
            let pieces = &self.pieces.chunks[c];
            let hit = &pieces[overlapping(pieces, &slots)];
            if let Some(p) = hit.iter().find(|p| p.refs == MAX_REFS) {
                let s = slots.start.max(usize::from(p.start));
                return Err(too_many_refs(block(c, s)));
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
            let checksum_ok = self.checksum_ok.chunk_mut(c);
            for s in slots.clone() {
                set_bit(checksum_ok, s);
            }
            let (first, len) = (slots.start, slots.len() as u64);
            edit(self.pieces.chunk_mut(c), slots, |stretch, refs, _| {
                (refs + 1, packed + (stretch.start - first) as u64)
            });
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
            edit(self.pieces.chunk_mut(c), slots, |_, refs, owner| {
                (refs + 1, owner)
            });
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
        let mut freed: Vec<Run> = Vec::new();
        for (c, slots) in segments(self.check_run(run)?) {
            edit(self.pieces.chunk_mut(c), slots, |stretch, refs, owner| {
                let start = block(c, stretch.start);
                assert!(refs > 0, "refcount underflow at {start}");
                if refs == 1 {
                    let len = stretch.len() as u64;
                    match freed.last_mut() {
                        Some(r) if r.start.raw() + r.len == start.raw() => r.len += len,
                        _ => freed.push(Run { start, len }),
                    }
                }
                (refs - 1, if live { NO_OWNER } else { owner })
            });
        }
        Ok(freed)
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
        if self.piece(c, s).is_some_and(|p| p.refs == MAX_REFS) {
            return Err(too_many_refs(b));
        }
        edit(self.pieces.chunk_mut(c), s..s + 1, |_, refs, owner| {
            (refs + 1, owner)
        });
        Ok(())
    }

    /// Current reference count.
    pub fn refcount_of(&self, b: BlockNr) -> SimResult<u32> {
        let (c, s) = self.slot(b)?;
        Ok(self.piece(c, s).map_or(0, |p| u32::from(p.refs)))
    }

    /// Sets the live back-reference for a block, if it can hold it.
    pub fn set_backref(&mut self, b: BlockNr, br: BackRef) -> SimResult<()> {
        let (c, s) = self.slot(b)?;
        let packed = pack(br.ino, br.index.raw())?;
        edit(self.pieces.chunk_mut(c), s..s + 1, |_, refs, _| {
            (refs, packed)
        });
        Ok(())
    }

    /// Live back-reference of a block, if any.
    pub fn backref_of(&self, b: BlockNr) -> SimResult<Option<BackRef>> {
        let (c, s) = self.slot(b)?;
        let owner = self.piece(c, s).map_or(NO_OWNER, |p| p.owner_at(s));
        Ok((owner != NO_OWNER).then(|| unpack(owner).into()))
    }

    /// Live back-reference of a block, if any, and how many blocks from
    /// it on back the pages that follow, in the same file: one lookup
    /// for a whole run of pieces, whatever their counts. The count
    /// stops at the end of the block's chunk; the next chunk's first
    /// piece may continue it.
    pub fn backref_run(&self, b: BlockNr) -> SimResult<Option<(BackRef, u64)>> {
        let (c, s) = self.slot(b)?;
        let pieces = &self.pieces.chunks[c];
        let Some(i) = piece_index(pieces, s).filter(|&i| pieces[i].owner != NO_OWNER) else {
            return Ok(None);
        };
        let more = pieces[i..].windows(2);
        let more = more
            .take_while(|w| w[0].owner_continues_into(&w[1]))
            .count();
        let br = unpack(pieces[i].owner_at(s)).into();
        Ok(Some((br, (pieces[i + more].end() - s) as u64)))
    }

    /// Every run of blocks with one non-zero reference count, with the
    /// count, in block order: a piece each, so a run of one count may
    /// come in several, split where owners or chunks change. Walks only
    /// the pieces of chunks written: O(extents), not O(device).
    pub(crate) fn referenced(&self) -> impl Iterator<Item = (Run, u32)> + '_ {
        self.pieces.written().flat_map(|(c, pieces)| {
            let counted = pieces.iter().filter(|p| p.refs > 0);
            counted.map(move |p| (p.run(c), u32::from(p.refs)))
        })
    }

    /// Every piece of live back-references — a run of blocks and the
    /// back-reference of its first, the rest backing the pages that
    /// follow — in block order. A file's run comes in several pieces
    /// where the count changes along it, or a chunk ends. Walks only
    /// the pieces of chunks written: O(extents), not O(device).
    pub(crate) fn backrefs(&self) -> impl Iterator<Item = (Run, BackRef)> + '_ {
        self.pieces.written().flat_map(|(c, pieces)| {
            let owned = pieces.iter().filter(|p| p.owner != NO_OWNER);
            owned.map(move |p| (p.run(c), unpack(p.owner).into()))
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

    /// `shared` per column: pieces, checksum bits.
    fn shared_chunks(a: &BlockTable, b: &BlockTable) -> [usize; 2] {
        [
            shared(&a.pieces, &b.pieces),
            shared(&a.checksum_ok, &b.checksum_ok),
        ]
    }

    /// `distinct` per column, in the same order.
    fn distinct_chunks(t: &BlockTable) -> [usize; 2] {
        [distinct(&t.pieces), distinct(&t.checksum_ok)]
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
        assert_eq!(pristine.pieces.chunks.len(), 4);
        assert_eq!(distinct_chunks(&pristine), [1; 2], "one blank chunk");
        pristine
            .stamp_run(one(CHUNK_BLOCKS), InodeNr(1), 0)
            .unwrap();
        assert_eq!(distinct_chunks(&pristine), [2; 2]);

        let mut fork = pristine.clone();
        assert_eq!(
            shared_chunks(&fork, &pristine),
            [4; 2],
            "a fork copies none"
        );
        fork.stamp_run(one(2 * CHUNK_BLOCKS + 1), InodeNr(1), 1)
            .unwrap();
        assert_eq!(
            shared_chunks(&fork, &pristine),
            [3; 2],
            "one write, one copy"
        );
        fork.stamp_run(one(2 * CHUNK_BLOCKS + 2), InodeNr(1), 2)
            .unwrap();
        assert_eq!(
            shared_chunks(&fork, &pristine),
            [3; 2],
            "an unshared chunk is written in place"
        );
        assert_ne!(fork, pristine);
        assert_eq!(
            pristine.verify_checksum(BlockNr(2 * CHUNK_BLOCKS + 1)),
            Err(SimError::ChecksumMismatch(BlockNr(2 * CHUNK_BLOCKS + 1))),
            "the pristine never saw the fork's write"
        );

        let huge = BlockTable::new(1 << 30);
        assert_eq!(huge.pieces.chunks.len() as u64, (1 << 30) / CHUNK_BLOCKS);
        assert_eq!(distinct_chunks(&huge), [1; 2], "memory per chunk written");
    }

    /// The fsck walks see exactly the runs with a count or a
    /// back-reference, as pieces, and only in chunks written.
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
        let want = vec![(one(CHUNK_BLOCKS - 1), 1), (one(edge.raw()), 2)];
        assert_eq!(t.referenced().collect::<Vec<_>>(), want);
        t.release_run(run, true).unwrap();
        assert_eq!(
            t.referenced().collect::<Vec<_>>(),
            vec![(one(edge.raw()), 1)]
        );
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

    /// Bytes the fork's piece chunks take that the pristine's do not
    /// share: the piece lists a first write copied.
    fn private_piece_bytes(fork: &BlockTable, pristine: &BlockTable) -> usize {
        let pairs = fork.pieces.chunks.iter().zip(&pristine.pieces.chunks);
        let private = pairs.filter(|&(x, y)| !Rc::ptr_eq(x, y));
        private
            .map(|(x, _)| std::mem::size_of::<Pieces>() + x.capacity() * PIECE_BYTES)
            .sum()
    }

    /// A live release in a forked chunk copies that chunk's pieces, not
    /// a block's worth of back-references each: under 2 KiB a chunk of
    /// 32 pieces, growth room included, where a per-block column copies
    /// 32 KiB. The checksum bits stay shared.
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
        assert_eq!(shared_chunks(&fork, &pristine), [0, CHUNKS as usize]);
        let per_touched = private_piece_bytes(&fork, &pristine) / CHUNKS as usize;
        assert!(per_touched < 2 * 1024, "{per_touched} B a chunk");
        assert_eq!(
            fork.pieces.chunks[0].len(),
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

    /// What a snapshot costs. `create_snapshot` takes a reference on
    /// every extent; in a fork that copies each chunk's pieces — about
    /// 40 runs a chunk, under 1 KiB, a bound a column of `u16` counts
    /// misses by 8× — and leaves the checksum bits shared. A COW write
    /// after it still copies only the chunks it writes.
    #[test]
    fn a_snapshot_copies_pieces_not_counts() {
        const CHUNKS: u64 = 4;
        let (runs, len) = (CHUNKS * 40, CHUNK_BLOCKS / 40);
        let mut pristine = BlockTable::new(CHUNKS * CHUNK_BLOCKS);
        stamp_pieces(&mut pristine, 0, runs, len);
        let mut fork = pristine.clone();
        for k in 0..runs {
            let run = Run {
                start: BlockNr(k * len),
                len,
            };
            fork.ref_run(run).unwrap();
        }
        assert_eq!(shared_chunks(&fork, &pristine), [0, CHUNKS as usize]);
        let per_chunk = private_piece_bytes(&fork, &pristine) / CHUNKS as usize;
        assert!(per_chunk < 1024, "{per_chunk} B a chunk");
        assert_eq!(fork.refcount_of(BlockNr(5)), Ok(2));
        assert_eq!(pristine.refcount_of(BlockNr(5)), Ok(1));
        let mut pieces = fork.pieces.chunks.iter().map(|p| p.len());
        assert!(pieces.all(|n| (40..=42).contains(&n)), "about 40 a chunk");

        // The device's last blocks are still free: a COW write there
        // copies the last chunk, in both columns, and no other.
        let mut child = fork.clone();
        let fresh = Run {
            start: BlockNr(CHUNKS * CHUNK_BLOCKS - 8),
            len: 8,
        };
        child.stamp_run(fresh, InodeNr(9), 0).unwrap();
        let others = CHUNKS as usize - 1;
        assert_eq!(shared_chunks(&child, &fork), [others, others]);
        assert_eq!(fork.refcount_of(fresh.start), Ok(0));
    }

    /// Equal per-block counts and back-references make equal tables,
    /// whatever order built them: a snapshot reference taken and
    /// dropped leaves no trace, and a live release re-stamped with the
    /// same pages heals the pieces it split, shared or not.
    #[test]
    fn equal_counts_compare_equal_whatever_built_them() {
        let run = |start, len| Run {
            start: BlockNr(start),
            len,
        };
        let mut fresh = BlockTable::new(2 * CHUNK_BLOCKS);
        fresh.stamp_run(run(4000, 200), InodeNr(1), 0).unwrap();

        let mut shared = fresh.clone();
        shared.ref_run(run(4050, 30)).unwrap();
        assert_ne!(shared, fresh);
        let counts = [4049, 4050, 4079, 4080].map(|b| shared.refcount_of(BlockNr(b)));
        assert_eq!(counts, [Ok(1), Ok(2), Ok(2), Ok(1)]);
        shared.release_run(run(4050, 30), false).unwrap();
        assert_eq!(shared, fresh, "referenced and released");

        let mut restamped = fresh.clone();
        let freed = restamped.release_run(run(4090, 20), true);
        assert_eq!(freed, Ok(vec![run(4090, 20)]));
        restamped.stamp_run(run(4090, 20), InodeNr(1), 90).unwrap();
        assert_eq!(restamped, fresh, "a live release, re-stamped");

        // Under a snapshot, the release leaves a snapshot-only piece
        // between two shared ones, and frees nothing.
        let mut snapshotted = fresh.clone();
        snapshotted.ref_run(run(4000, 200)).unwrap();
        let before = snapshotted.clone();
        assert_eq!(snapshotted.release_run(run(4090, 20), true), Ok(vec![]));
        assert_eq!(snapshotted.refcount_of(BlockNr(4095)), Ok(1));
        assert_eq!(snapshotted.backref_of(BlockNr(4095)), Ok(None));
        snapshotted
            .stamp_run(run(4090, 20), InodeNr(1), 90)
            .unwrap();
        assert_eq!(snapshotted, before, "a shared release, re-stamped");
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
        // A count boundary inside a file's run does not end it.
        let head = Run {
            start: run.start,
            len: 3,
        };
        t.ref_run(head).unwrap();
        assert_eq!(t.backref_run(run.start), Ok(Some((br(40), 8))));
        assert_eq!(t.refcount_of(run.start.offset(3)), Ok(1));
        let end = BlockNr(2 * CHUNK_BLOCKS);
        assert_eq!(t.backref_run(end), Err(SimError::BlockOutOfRange(end)));
    }
}
