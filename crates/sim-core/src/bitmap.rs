//! A sparse, chunked bitmap.
//!
//! The Duet kernel implementation uses "a red-black tree to dynamically
//! allocate portions of the relevant and done bitmaps, to represent
//! ranges that have marked bits, and deallocate them when all their bits
//! are unmarked" (§4.2). This limits memory when tasks touch small,
//! localized chunks of a device or filesystem.
//!
//! [`SparseBitmap`] is the userspace analogue: fixed-size chunks of bits
//! stored in an ordered map ([`std::collections::BTreeMap`], Rust's
//! red-black-tree equivalent), allocated on the first set bit in their
//! range and freed when the last bit clears. [`SparseBitmap::memory_bytes`]
//! reports the allocated footprint so the §6.4 memory-overhead experiment
//! can measure it directly.

use std::collections::BTreeMap;

/// Bits per allocated chunk: 32 Ki-bits = 4 KiB of payload per chunk,
/// mirroring a page-sized kernel allocation.
const CHUNK_BITS: u64 = 32 * 1024;
/// 64-bit words per chunk.
const CHUNK_WORDS: usize = (CHUNK_BITS / 64) as usize;

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
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SparseBitmap {
    chunks: BTreeMap<u64, Box<[u64; CHUNK_WORDS]>>,
    /// Number of set bits, maintained incrementally.
    count: u64,
}

impl SparseBitmap {
    /// Creates an empty bitmap. No memory is allocated until a bit is set.
    pub fn new() -> Self {
        SparseBitmap::default()
    }

    fn locate(index: u64) -> (u64, usize, u64) {
        let chunk = index / CHUNK_BITS;
        let within = index % CHUNK_BITS;
        let word = (within / 64) as usize;
        let mask = 1u64 << (within % 64);
        (chunk, word, mask)
    }

    /// Sets the bit at `index`. Returns `true` if the bit was previously
    /// clear (i.e. the call changed state).
    pub fn set(&mut self, index: u64) -> bool {
        let (chunk, word, mask) = Self::locate(index);
        let c = self
            .chunks
            .entry(chunk)
            .or_insert_with(|| Box::new([0u64; CHUNK_WORDS]));
        let was_clear = c[word] & mask == 0;
        c[word] |= mask;
        if was_clear {
            self.count += 1;
        }
        was_clear
    }

    /// Clears the bit at `index`. Returns `true` if the bit was previously
    /// set. Frees the containing chunk when its last bit clears.
    pub fn clear(&mut self, index: u64) -> bool {
        let (chunk, word, mask) = Self::locate(index);
        let Some(c) = self.chunks.get_mut(&chunk) else {
            return false;
        };
        let was_set = c[word] & mask != 0;
        if was_set {
            c[word] &= !mask;
            self.count -= 1;
            if c.iter().all(|&w| w == 0) {
                self.chunks.remove(&chunk);
            }
        }
        was_set
    }

    /// Tests the bit at `index`.
    pub fn test(&self, index: u64) -> bool {
        let (chunk, word, mask) = Self::locate(index);
        self.chunks
            .get(&chunk)
            .map(|c| c[word] & mask != 0)
            .unwrap_or(false)
    }

    /// Sets every bit in `start..end`, word-at-a-time: full interior
    /// words are filled with a single `|=`, and the partial words at
    /// the range edges use masks. Large task ranges (a scrubber marking
    /// a whole extent `done`) cost one word op per 64 bits instead of
    /// one map lookup per bit.
    pub fn set_range(&mut self, start: u64, end: u64) {
        let mut i = start;
        while i < end {
            let chunk = i / CHUNK_BITS;
            let chunk_end = ((chunk + 1) * CHUNK_BITS).min(end);
            let c = self
                .chunks
                .entry(chunk)
                .or_insert_with(|| Box::new([0u64; CHUNK_WORDS]));
            let mut word = ((i % CHUNK_BITS) / 64) as usize;
            while i < chunk_end {
                let bit = i % 64;
                let span = (64 - bit).min(chunk_end - i);
                let mask = Self::range_mask(bit, span);
                let newly_set = mask & !c[word];
                c[word] |= mask;
                self.count += newly_set.count_ones() as u64;
                i += span;
                word += 1;
            }
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
            let Some(c) = self.chunks.get_mut(&chunk) else {
                i = chunk_end;
                continue;
            };
            let mut word = ((i % CHUNK_BITS) / 64) as usize;
            let mut cleared = 0u64;
            while i < chunk_end {
                let bit = i % 64;
                let span = (64 - bit).min(chunk_end - i);
                let mask = Self::range_mask(bit, span);
                cleared += (c[word] & mask).count_ones() as u64;
                c[word] &= !mask;
                i += span;
                word += 1;
            }
            if cleared > 0 {
                self.count -= cleared;
                if c.iter().all(|&w| w == 0) {
                    self.chunks.remove(&chunk);
                }
            }
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
        self.count = 0;
    }

    /// Bytes of bitmap payload currently allocated.
    ///
    /// This is the quantity the paper reports in §6.4 ("the bitmap
    /// required 1.47MB, while the worst case estimate for 50GB of data is
    /// 1.56MB"). Only chunk payloads are counted, matching how the kernel
    /// implementation accounts bitmap memory; per-node map overhead is
    /// excluded.
    pub fn memory_bytes(&self) -> u64 {
        self.chunks.len() as u64 * (CHUNK_BITS / 8)
    }

    /// Iterates over all set bit indices in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = u64> + '_ {
        self.chunks.iter().flat_map(|(&chunk, words)| {
            words.iter().enumerate().flat_map(move |(wi, &w)| {
                BitIter(w).map(move |b| chunk * CHUNK_BITS + wi as u64 * 64 + b)
            })
        })
    }

    /// Returns the first set bit at or after `index`, if any.
    pub fn next_set(&self, index: u64) -> Option<u64> {
        let start_chunk = index / CHUNK_BITS;
        for (&chunk, words) in self.chunks.range(start_chunk..) {
            let base = chunk * CHUNK_BITS;
            for (wi, &w) in words.iter().enumerate() {
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

    /// Word-at-a-time ranges agree bit-for-bit with per-bit loops.
    #[test]
    fn ranges_match_per_bit_reference() {
        use crate::rng::SimRng;
        let mut rng = SimRng::new(0x0b17_ba9e);
        for _ in 0..200 {
            let mut bm = SparseBitmap::new();
            let mut reference = std::collections::BTreeSet::new();
            for _ in 0..8 {
                let start = rng.gen_range(0, 3 * CHUNK_BITS);
                let end = start + rng.gen_range(0, 300);
                if rng.gen_range(0, 2) == 0 {
                    bm.set_range(start, end);
                    reference.extend(start..end);
                } else {
                    bm.clear_range(start, end);
                    for i in start..end {
                        reference.remove(&i);
                    }
                }
                assert_eq!(bm.count(), reference.len() as u64);
            }
            let got: Vec<u64> = bm.iter().collect();
            let want: Vec<u64> = reference.iter().copied().collect();
            assert_eq!(got, want);
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

    // Randomized reference tests driven by the crate's own deterministic
    // generator (the workspace builds offline, with no proptest dep).
    mod properties {
        use super::*;
        use crate::rng::SimRng;
        use std::collections::BTreeSet;

        /// The sparse bitmap behaves exactly like a set of integers.
        #[test]
        fn matches_reference_set() {
            for case in 0..64u64 {
                let mut rng = SimRng::new(0xB17 ^ case);
                let mut bm = SparseBitmap::new();
                let mut set = BTreeSet::new();
                for _ in 0..rng.gen_range(0, 400) {
                    let op = rng.gen_range(0, 3);
                    let idx = rng.gen_range(0, 200_000);
                    match op {
                        0 => {
                            assert_eq!(bm.set(idx), set.insert(idx));
                        }
                        1 => {
                            assert_eq!(bm.clear(idx), set.remove(&idx));
                        }
                        _ => {
                            assert_eq!(bm.test(idx), set.contains(&idx));
                        }
                    }
                    assert_eq!(bm.count(), set.len() as u64);
                }
                let a: Vec<u64> = bm.iter().collect();
                let b: Vec<u64> = set.iter().copied().collect();
                assert_eq!(a, b);
            }
        }

        /// `next_set` agrees with the reference set's range query.
        #[test]
        fn next_set_matches_reference() {
            for case in 0..128u64 {
                let mut rng = SimRng::new(0x4E57 ^ case);
                let mut bits = BTreeSet::new();
                for _ in 0..rng.gen_range(0, 100) {
                    bits.insert(rng.gen_range(0, 100_000));
                }
                let query = rng.gen_range(0, 100_000);
                let mut bm = SparseBitmap::new();
                for &b in &bits {
                    bm.set(b);
                }
                let expected = bits.range(query..).next().copied();
                assert_eq!(bm.next_set(query), expected);
            }
        }
    }
}
