//! A sparse, chunked bitmap.
//!
//! The Duet kernel implementation uses "a red-black tree to dynamically
//! allocate portions of the relevant and done bitmaps, to represent
//! ranges that have marked bits, and deallocate them when all their bits
//! are unmarked" (§4.2). This limits memory when tasks touch small,
//! localized chunks of a device or filesystem.
//!
//! [`SparseBitmap`] is the userspace analogue: fixed-size chunks of bits,
//! allocated on the first set bit in their range and freed when the last
//! bit clears. The chunks hang off a directory indexed by chunk number —
//! one pointer per 32 Ki indices up to the highest chunk ever set, 19 KB
//! for a paper-scale 78 M-block device — so finding a bit is two loads,
//! not a tree search. [`SparseBitmap::memory_bytes`] reports the
//! allocated chunk payload, as the kernel accounts it, so the §6.4
//! memory-overhead experiment can measure it directly. Indices are
//! block and inode numbers, so the directory is bounded by the device.

/// Bits per allocated chunk: 32 Ki-bits = 4 KiB of payload per chunk,
/// mirroring a page-sized kernel allocation.
const CHUNK_BITS: u64 = 32 * 1024;
/// 64-bit words per chunk.
const CHUNK_WORDS: usize = (CHUNK_BITS / 64) as usize;

/// One allocated chunk: its words and how many of their bits are set,
/// so a clear knows without a scan whether the chunk emptied.
#[derive(Debug, Clone, PartialEq)]
struct Chunk {
    words: [u64; CHUNK_WORDS],
    set: u32,
}

/// A dynamically-allocated bitmap over a `u64` index space.
///
/// # Examples
///
/// ```
/// use sim_core::SparseBitmap;
///
/// let mut bm = SparseBitmap::new();
/// bm.set(1_000_000);
/// assert!(bm.test(1_000_000));
/// assert!(!bm.test(999_999));
/// assert_eq!(bm.count(), 1);
/// bm.clear(1_000_000);
/// assert_eq!(bm.memory_bytes(), 0); // chunk freed
/// ```
#[derive(Debug, Clone, Default)]
pub struct SparseBitmap {
    /// Chunk number → the chunk, if allocated.
    chunks: Vec<Option<Box<Chunk>>>,
    /// Allocated chunks.
    allocated: usize,
    /// Number of set bits, maintained incrementally.
    count: u64,
}

/// Same bits, however far the directory once grew.
impl PartialEq for SparseBitmap {
    fn eq(&self, other: &Self) -> bool {
        self.count == other.count && self.allocated_chunks().eq(other.allocated_chunks())
    }
}

impl SparseBitmap {
    /// Creates an empty bitmap. No memory is allocated until a bit is set.
    pub fn new() -> Self {
        SparseBitmap::default()
    }

    fn locate(index: u64) -> (usize, usize, u64) {
        let chunk = (index / CHUNK_BITS) as usize;
        let within = index % CHUNK_BITS;
        let word = (within / 64) as usize;
        let mask = 1u64 << (within % 64);
        (chunk, word, mask)
    }

    /// The allocated chunks with their numbers, in ascending order.
    fn allocated_chunks(&self) -> impl Iterator<Item = (u64, &Chunk)> + '_ {
        self.chunks
            .iter()
            .enumerate()
            .filter_map(|(nr, c)| Some((nr as u64, &**c.as_ref()?)))
    }

    /// Chunk `nr`, allocated if it is not.
    fn chunk_mut(&mut self, nr: usize) -> &mut Chunk {
        if nr >= self.chunks.len() {
            self.chunks.resize_with(nr + 1, || None);
        }
        let allocated = &mut self.allocated;
        self.chunks[nr].get_or_insert_with(|| {
            *allocated += 1;
            Box::new(Chunk {
                words: [0; CHUNK_WORDS],
                set: 0,
            })
        })
    }

    /// Frees chunk `nr` if its last bit has cleared.
    fn free_if_empty(&mut self, nr: usize) {
        if self.chunks[nr].as_ref().is_some_and(|c| c.set == 0) {
            self.chunks[nr] = None;
            self.allocated -= 1;
        }
    }

    /// Sets the bit at `index`. Returns `true` if the bit was previously
    /// clear (i.e. the call changed state).
    pub fn set(&mut self, index: u64) -> bool {
        let (chunk, word, mask) = Self::locate(index);
        let c = self.chunk_mut(chunk);
        let was_clear = c.words[word] & mask == 0;
        if was_clear {
            c.words[word] |= mask;
            c.set += 1;
            self.count += 1;
        }
        was_clear
    }

    /// Clears the bit at `index`. Returns `true` if the bit was previously
    /// set. Frees the containing chunk when its last bit clears.
    pub fn clear(&mut self, index: u64) -> bool {
        let (chunk, word, mask) = Self::locate(index);
        let Some(Some(c)) = self.chunks.get_mut(chunk) else {
            return false;
        };
        let was_set = c.words[word] & mask != 0;
        if was_set {
            c.words[word] &= !mask;
            c.set -= 1;
            self.count -= 1;
            self.free_if_empty(chunk);
        }
        was_set
    }

    /// Tests the bit at `index`.
    #[inline]
    pub fn test(&self, index: u64) -> bool {
        let (chunk, word, mask) = Self::locate(index);
        match self.chunks.get(chunk) {
            Some(Some(c)) => c.words[word] & mask != 0,
            _ => false,
        }
    }

    /// Sets every bit in `start..end`, word-at-a-time: full interior
    /// words are filled with a single `|=`, and the partial words at
    /// the range edges use masks. Large task ranges (a scrubber marking
    /// a whole extent `done`) cost one word op per 64 bits instead of
    /// one lookup per bit.
    pub fn set_range(&mut self, start: u64, end: u64) {
        let mut i = start;
        while i < end {
            let chunk = i / CHUNK_BITS;
            let chunk_end = ((chunk + 1) * CHUNK_BITS).min(end);
            let c = self.chunk_mut(chunk as usize);
            let mut word = ((i % CHUNK_BITS) / 64) as usize;
            let mut newly = 0u32;
            while i < chunk_end {
                let bit = i % 64;
                let span = (64 - bit).min(chunk_end - i);
                let mask = Self::range_mask(bit, span);
                newly += (mask & !c.words[word]).count_ones();
                c.words[word] |= mask;
                i += span;
                word += 1;
            }
            c.set += newly;
            self.count += u64::from(newly);
        }
    }

    /// Clears every bit in `start..end` word-at-a-time (see
    /// [`SparseBitmap::set_range`]). Chunks whose last bit clears are
    /// freed, exactly as with single-bit [`SparseBitmap::clear`].
    pub fn clear_range(&mut self, start: u64, end: u64) {
        let mut i = start;
        while i < end {
            let chunk = i / CHUNK_BITS;
            let chunk_end = ((chunk + 1) * CHUNK_BITS).min(end);
            let Some(Some(c)) = self.chunks.get_mut(chunk as usize) else {
                i = chunk_end;
                continue;
            };
            let mut word = ((i % CHUNK_BITS) / 64) as usize;
            let mut cleared = 0u32;
            while i < chunk_end {
                let bit = i % 64;
                let span = (64 - bit).min(chunk_end - i);
                let mask = Self::range_mask(bit, span);
                cleared += (c.words[word] & mask).count_ones();
                c.words[word] &= !mask;
                i += span;
                word += 1;
            }
            c.set -= cleared;
            self.count -= u64::from(cleared);
            self.free_if_empty(chunk as usize);
        }
    }

    /// Mask covering `span` bits starting at `bit` within one word.
    /// `span` is in `1..=64` and `bit + span <= 64`.
    #[inline]
    fn range_mask(bit: u64, span: u64) -> u64 {
        if span == 64 {
            !0u64
        } else {
            ((1u64 << span) - 1) << bit
        }
    }

    /// Number of set bits.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Returns `true` if no bit is set.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Removes all bits and frees all chunks.
    pub fn clear_all(&mut self) {
        self.chunks.clear();
        self.allocated = 0;
        self.count = 0;
    }

    /// Bytes of bitmap payload currently allocated.
    ///
    /// This is the quantity the paper reports in §6.4 ("the bitmap
    /// required 1.47MB, while the worst case estimate for 50GB of data is
    /// 1.56MB"). Only chunk payloads are counted, matching how the kernel
    /// implementation accounts bitmap memory; the chunk directory is
    /// excluded, as the kernel's tree nodes are.
    pub fn memory_bytes(&self) -> u64 {
        self.allocated as u64 * (CHUNK_BITS / 8)
    }

    /// Iterates over all set bit indices in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = u64> + '_ {
        self.allocated_chunks().flat_map(|(chunk, c)| {
            c.words.iter().enumerate().flat_map(move |(wi, &w)| {
                BitIter(w).map(move |b| chunk * CHUNK_BITS + wi as u64 * 64 + b)
            })
        })
    }

    /// Returns the first set bit at or after `index`, if any.
    pub fn next_set(&self, index: u64) -> Option<u64> {
        let start_chunk = (index / CHUNK_BITS) as usize;
        for (chunk, c) in self.chunks.iter().enumerate().skip(start_chunk) {
            let Some(c) = c else { continue };
            let base = chunk as u64 * CHUNK_BITS;
            for (wi, &w) in c.words.iter().enumerate() {
                if w == 0 {
                    continue;
                }
                let word_base = base + wi as u64 * 64;
                // Skip words entirely before the query point.
                if word_base + 64 <= index {
                    continue;
                }
                let mut bits = w;
                if index > word_base {
                    bits &= !0u64 << (index - word_base);
                }
                if bits != 0 {
                    return Some(word_base + bits.trailing_zeros() as u64);
                }
            }
        }
        None
    }
}

#[cfg(test)]
impl SparseBitmap {
    /// Panics unless every chunk's set-bit count is its popcount, no
    /// empty chunk lingers, and the totals add up.
    fn assert_counts(&self) {
        let mut bits = 0;
        for (nr, c) in self.allocated_chunks() {
            let pop: u32 = c.words.iter().map(|w| w.count_ones()).sum();
            assert_eq!(c.set, pop, "set-bit count of chunk {nr}");
            assert!(pop > 0, "empty chunk {nr} kept");
            bits += u64::from(pop);
        }
        assert_eq!(self.allocated, self.allocated_chunks().count());
        assert_eq!(self.count, bits);
    }
}

/// Iterator over set bit positions (0..64) of a single word.
struct BitIter(u64);

impl Iterator for BitIter {
    type Item = u64;
    fn next(&mut self) -> Option<u64> {
        if self.0 == 0 {
            return None;
        }
        let b = self.0.trailing_zeros() as u64;
        self.0 &= self.0 - 1;
        Some(b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::{differential, DiffConfig};
    use crate::SimRng;
    use std::collections::BTreeSet;

    #[test]
    fn set_test_clear_roundtrip() {
        let mut bm = SparseBitmap::new();
        assert!(!bm.test(5));
        assert!(bm.set(5));
        assert!(!bm.set(5), "second set reports no state change");
        assert!(bm.test(5));
        assert_eq!(bm.count(), 1);
        assert!(bm.clear(5));
        assert!(!bm.clear(5));
        assert!(bm.is_empty());
    }

    #[test]
    fn chunk_is_freed_when_empty() {
        let mut bm = SparseBitmap::new();
        bm.set(0);
        bm.set(CHUNK_BITS); // second chunk
        assert_eq!(bm.memory_bytes(), 2 * CHUNK_BITS / 8);
        bm.clear(CHUNK_BITS);
        assert_eq!(bm.memory_bytes(), CHUNK_BITS / 8);
        bm.clear(0);
        assert_eq!(bm.memory_bytes(), 0);
    }

    /// Chunks 0 and 5 leave a hole of four unallocated directory slots;
    /// freeing both accounts nothing for the hole or the directory.
    #[test]
    fn memory_returns_to_zero_across_a_directory_hole() {
        let mut bm = SparseBitmap::new();
        bm.set(3);
        bm.set(5 * CHUNK_BITS + 9);
        assert_eq!(bm.memory_bytes(), 2 * CHUNK_BITS / 8);
        assert_eq!(bm.iter().collect::<Vec<_>>(), [3, 5 * CHUNK_BITS + 9]);
        assert_eq!(bm.next_set(4), Some(5 * CHUNK_BITS + 9));
        bm.clear(5 * CHUNK_BITS + 9);
        bm.clear(3);
        assert_eq!(bm.memory_bytes(), 0);
        assert!(bm.is_empty());
        assert_eq!(bm.next_set(0), None);
        assert_eq!(bm, SparseBitmap::new(), "equal to a bitmap never grown");
        bm.assert_counts();
    }

    /// `clear_range` edges inside words: every chunk's set-bit count
    /// must still be its popcount.
    #[test]
    fn chunk_counts_match_popcount_after_partial_word_clears() {
        let mut bm = SparseBitmap::new();
        bm.set_range(0, 2 * CHUNK_BITS + 100);
        for (start, end) in [
            (3, 61),
            (70, 200),
            (CHUNK_BITS - 5, CHUNK_BITS + 7),
            (2 * CHUNK_BITS + 1, 2 * CHUNK_BITS + 99),
        ] {
            bm.clear_range(start, end);
            bm.assert_counts();
        }
        bm.clear_range(2 * CHUNK_BITS, 2 * CHUNK_BITS + 100);
        bm.assert_counts();
        assert_eq!(bm.memory_bytes(), 2 * CHUNK_BITS / 8, "third chunk freed");
    }

    #[test]
    fn ranges() {
        let mut bm = SparseBitmap::new();
        bm.set_range(10, 20);
        assert_eq!(bm.count(), 10);
        assert!(bm.test(10) && bm.test(19) && !bm.test(20));
        bm.clear_range(0, 15);
        assert_eq!(bm.count(), 5);
        assert!(!bm.test(14) && bm.test(15));
    }

    /// Pins `count()` for ranges whose edges land on, next to, and
    /// across 64-bit word boundaries and chunk boundaries — the cases
    /// the word-at-a-time edge masks must get exactly right.
    #[test]
    fn range_count_across_word_boundaries() {
        let cases = [
            (0, 64),                              // exactly one word
            (0, 63),                              // one short of a boundary
            (1, 64),                              // starts mid-word, ends on one
            (63, 65),                             // straddles a word boundary
            (64, 128),                            // word-aligned interior
            (60, 200),                            // partial, full, partial words
            (CHUNK_BITS - 1, CHUNK_BITS + 1),     // straddles a chunk boundary
            (CHUNK_BITS - 64, CHUNK_BITS + 64),   // aligned across chunks
            (CHUNK_BITS - 7, 2 * CHUNK_BITS + 3), // full chunk plus ragged edges
            (5, 5),                               // empty range
        ];
        for &(start, end) in &cases {
            let mut bm = SparseBitmap::new();
            bm.set_range(start, end);
            assert_eq!(bm.count(), end - start, "set_range({start}, {end})");
            for i in start.saturating_sub(2)..end + 2 {
                assert_eq!(bm.test(i), (start..end).contains(&i), "bit {i}");
            }
            // Overlapping re-set must not double-count.
            bm.set_range(start, end);
            assert_eq!(bm.count(), end - start);
            // Clearing a superset range leaves nothing and frees chunks.
            bm.clear_range(start.saturating_sub(3), end + 3);
            assert_eq!(bm.count(), 0, "clear_range over ({start}, {end})");
            assert_eq!(bm.memory_bytes(), 0);
        }
    }

    #[test]
    fn iteration_in_order() {
        let mut bm = SparseBitmap::new();
        let indices = [
            0u64,
            63,
            64,
            1000,
            CHUNK_BITS - 1,
            CHUNK_BITS,
            5 * CHUNK_BITS + 7,
        ];
        for &i in indices.iter().rev() {
            bm.set(i);
        }
        let collected: Vec<u64> = bm.iter().collect();
        assert_eq!(collected, indices);
    }

    #[test]
    fn next_set_scans_across_chunks() {
        let mut bm = SparseBitmap::new();
        bm.set(100);
        bm.set(CHUNK_BITS + 3);
        assert_eq!(bm.next_set(0), Some(100));
        assert_eq!(bm.next_set(100), Some(100));
        assert_eq!(bm.next_set(101), Some(CHUNK_BITS + 3));
        assert_eq!(bm.next_set(CHUNK_BITS + 4), None);
    }

    #[test]
    fn next_set_within_word() {
        let mut bm = SparseBitmap::new();
        bm.set(64);
        bm.set(70);
        assert_eq!(bm.next_set(65), Some(70));
    }

    #[test]
    fn clear_all_frees_everything() {
        let mut bm = SparseBitmap::new();
        bm.set_range(0, 1000);
        bm.clear_all();
        assert!(bm.is_empty());
        assert_eq!(bm.memory_bytes(), 0);
        assert_eq!(bm.iter().count(), 0);
    }

    // ----- differential suite (DESIGN.md §13) --------------------------

    #[derive(Debug, Clone, Copy)]
    enum Op {
        Set(u64),
        Clear(u64),
        Test(u64),
        NextSet(u64),
        SetRange(u64, u64),
        ClearRange(u64, u64),
    }

    /// Indices over six chunks, half of them within a word of a chunk
    /// edge; ranges up to 300 bits, so they straddle words and chunks.
    fn gen_op(rng: &mut SimRng, _i: u64) -> Op {
        let i = match rng.gen_range(0, 2) {
            0 => rng.gen_range(0, 6 * CHUNK_BITS),
            _ => (rng.gen_range(1, 6) * CHUNK_BITS).saturating_sub(rng.gen_range(0, 128)),
        };
        let end = i + rng.gen_range(0, 300);
        match rng.gen_range(0, 12) {
            0..=2 => Op::Set(i),
            3..=5 => Op::Clear(i),
            6 => Op::Test(i),
            7 => Op::NextSet(i),
            8 | 9 => Op::SetRange(i, end),
            _ => Op::ClearRange(i, end),
        }
    }

    /// Replays a log against a `SparseBitmap` and a `BTreeSet` model:
    /// every result, then the count, the chunks' memory, each chunk's
    /// set-bit count and the ascending walk. `forget_count` is the
    /// sabotage: a `clear` that hits leaves the bit count where it was.
    fn replay(log: &[Op], forget_count: bool) -> Result<(), String> {
        let mut bm = SparseBitmap::new();
        let mut model: BTreeSet<u64> = BTreeSet::new();
        for (i, &op) in log.iter().enumerate() {
            let agree = |what: &str, got: String, want: String| {
                if got == want {
                    Ok(())
                } else {
                    Err(format!(
                        "op {i} {op:?}: {what} diverged\n  bitmap: {got}\n  model:  {want}"
                    ))
                }
            };
            let (got, want) = match op {
                Op::Set(x) => (bm.set(x), model.insert(x)),
                Op::Clear(x) => {
                    let got = bm.clear(x);
                    if forget_count && got {
                        bm.count += 1;
                    }
                    (got, model.remove(&x))
                }
                Op::Test(x) => (bm.test(x), model.contains(&x)),
                Op::NextSet(x) => {
                    let want = model.range(x..).next().copied();
                    agree(
                        "next_set",
                        format!("{:?}", bm.next_set(x)),
                        format!("{want:?}"),
                    )?;
                    (true, true)
                }
                Op::SetRange(s, e) => {
                    bm.set_range(s, e);
                    model.extend(s..e);
                    (true, true)
                }
                Op::ClearRange(s, e) => {
                    bm.clear_range(s, e);
                    model.retain(|x| !(s..e).contains(x));
                    (true, true)
                }
            };
            agree("result", got.to_string(), want.to_string())?;
            agree("count", bm.count().to_string(), model.len().to_string())?;
            let chunks: BTreeSet<u64> = model.iter().map(|x| x / CHUNK_BITS).collect();
            agree(
                "memory_bytes",
                bm.memory_bytes().to_string(),
                (chunks.len() as u64 * CHUNK_BITS / 8).to_string(),
            )?;
            bm.assert_counts();
        }
        let got: Vec<u64> = bm.iter().collect();
        let want: Vec<u64> = model.into_iter().collect();
        if got != want {
            return Err(format!("iter diverged: {got:?} vs {want:?}"));
        }
        Ok(())
    }

    fn diff_config(name: &'static str) -> DiffConfig {
        let seed = crate::knobs::Knob::CheckSeed
            .read()
            .unwrap_or_else(|e| panic!("{e}"))
            .unwrap_or(0xB17_3A9);
        DiffConfig::new(name, seed)
    }

    #[test]
    fn bitmap_matches_the_set_model() {
        let cfg = diff_config("bitmap-vs-btreeset").cases(32).ops(400);
        differential(&cfg, gen_op, |log| replay(log, false)).unwrap();
    }

    /// The can-fail proof: a `clear` that forgets the count must be
    /// caught, and the failing log shrunk to the set and the clear that
    /// expose it.
    #[test]
    fn differential_suite_detects_a_clear_that_keeps_the_count() {
        let cfg = diff_config("bitmap-sabotage").cases(4).ops(200);
        let failure = differential(&cfg, gen_op, |log| replay(log, true)).unwrap_err();
        assert_eq!(failure.ops.len(), 2, "set + clear: {failure}");
        assert!(failure.message.contains("count diverged"), "{failure}");
    }
}
