//! Deterministic ordered map for the range-query hot paths.
//!
//! [`crate::dmap::DMap`] restored O(1) to the unordered hot paths, but
//! the btrfs extent map and free-space allocator are *ordered*
//! structures: they live on `range(..=p).next_back()` floor queries and
//! neighbour lookups that a hash table cannot answer. [`DOrdMap`]
//! covers that last gap — a sorted map whose layout is a **chunked
//! sorted vector** (an unrolled sorted list):
//!
//! - entries are stored in order across a `Vec` of fixed-capacity
//!   chunks, each chunk itself a sorted `Vec<(K, V)>`;
//! - lookup is two binary searches (chunk directory, then inside the
//!   chunk): O(log n) with at most two cache-line streams touched;
//! - insertion shifts only within one small chunk (amortized by chunk
//!   splitting at [`CHUNK_MAX`]), never the whole map;
//! - iteration walks dense arrays front to back — no pointer chasing,
//!   in key order by construction.
//!
//! Determinism: the map has **no seed at all**. Its layout and
//! iteration order are pure functions of the key order, so it cannot
//! leak host entropy the way `HashMap` can, and — unlike [`DMap`]'s
//! insertion-order iteration — its order is *sorted*, matching
//! `BTreeMap` exactly. The D2 lint sanctions it alongside the `dmap`
//! containers. Differential fuzzing against a `BTreeMap` oracle (see
//! `sim_core::check::differential`) pins the equivalence.
//!
//! [`DMap`]: crate::dmap::DMap

use std::fmt;
use std::ops::{Bound, RangeBounds};

/// Chunk split threshold. A chunk that reaches this many entries is
/// split in half; 64 entries of a `(u64, u64)`-sized payload span ~16
/// cache lines, small enough that the memmove on insert stays cheap and
/// large enough that the chunk directory stays tiny.
const CHUNK_MAX: usize = 64;

/// A deterministic, seed-free **ordered** map: chunked sorted vector
/// with O(log n) point lookups, amortized O(log n + B) inserts and
/// removals (B = chunk size), sorted cache-friendly iteration, and the
/// `range`/`next_back`/neighbour queries the extent and free-space maps
/// need.
///
/// # Examples
///
/// ```
/// use sim_core::omap::DOrdMap;
///
/// let mut m: DOrdMap<u64, &str> = DOrdMap::new();
/// m.insert(10, "ten");
/// m.insert(30, "thirty");
/// m.insert(20, "twenty");
/// let keys: Vec<u64> = m.keys().copied().collect();
/// assert_eq!(keys, vec![10, 20, 30]); // sorted, every run
/// assert_eq!(m.range(..=25).next_back(), Some((&20, &"twenty")));
/// assert_eq!(m.succ(&20), Some((&30, &"thirty")));
/// ```
#[derive(Clone)]
pub struct DOrdMap<K, V> {
    /// Non-empty sorted chunks; chunk minima strictly ascending.
    chunks: Vec<Vec<(K, V)>>,
    len: usize,
    /// Split threshold (constructor-tunable so tests can prove the
    /// layout parameter is unobservable).
    chunk_max: usize,
}

impl<K: Ord, V> Default for DOrdMap<K, V> {
    fn default() -> Self {
        DOrdMap::new()
    }
}

impl<K: fmt::Debug, V: fmt::Debug> fmt::Debug for DOrdMap<K, V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map()
            .entries(self.chunks.iter().flatten().map(|(k, v)| (k, v)))
            .finish()
    }
}

/// Same entries in the same order: how the sequence is cut into chunks
/// (and the threshold that cut it) is layout, not state.
impl<K: PartialEq, V: PartialEq> PartialEq for DOrdMap<K, V> {
    fn eq(&self, other: &Self) -> bool {
        let DOrdMap {
            chunks,
            len,
            chunk_max: _,
        } = self;
        *len == other.len && chunks.iter().flatten().eq(other.chunks.iter().flatten())
    }
}

impl<K: Ord, V> DOrdMap<K, V> {
    /// Creates an empty map.
    pub fn new() -> Self {
        Self::with_chunk_max(CHUNK_MAX)
    }

    /// Creates an empty map with an explicit chunk-split threshold.
    /// Observable behaviour is identical for any threshold ≥ 2; tests
    /// use this to prove the layout parameter never leaks.
    pub fn with_chunk_max(chunk_max: usize) -> Self {
        DOrdMap {
            chunks: Vec::new(),
            len: 0,
            chunk_max: chunk_max.max(2),
        }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if the map holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Removes all entries.
    pub fn clear(&mut self) {
        self.chunks.clear();
        self.len = 0;
    }

    /// Chunk that may contain `key`: the last chunk whose minimum is
    /// `<= key`, or `None` when the map is empty or `key` precedes
    /// every entry.
    #[inline]
    fn chunk_of(&self, key: &K) -> Option<usize> {
        let ci = self.chunks.partition_point(|c| c[0].0 <= *key);
        ci.checked_sub(1)
    }

    /// Exact position of `key`, if present.
    #[inline]
    fn locate(&self, key: &K) -> Option<(usize, usize)> {
        let ci = self.chunk_of(key)?;
        self.chunks[ci]
            .binary_search_by(|e| e.0.cmp(key))
            .ok()
            .map(|si| (ci, si))
    }

    /// First position whose key is `>= key` ((chunks.len(), 0) = end).
    fn lower_bound(&self, key: &K) -> (usize, usize) {
        let ci = self
            .chunks
            .partition_point(|c| c.last().map(|e| e.0 < *key).unwrap_or(false));
        if ci == self.chunks.len() {
            return (ci, 0);
        }
        (ci, self.chunks[ci].partition_point(|e| e.0 < *key))
    }

    /// First position whose key is `> key` ((chunks.len(), 0) = end).
    fn upper_bound(&self, key: &K) -> (usize, usize) {
        let ci = self
            .chunks
            .partition_point(|c| c.last().map(|e| e.0 <= *key).unwrap_or(false));
        if ci == self.chunks.len() {
            return (ci, 0);
        }
        (ci, self.chunks[ci].partition_point(|e| e.0 <= *key))
    }

    /// Number of entries strictly before `pos`.
    fn rank(&self, pos: (usize, usize)) -> usize {
        self.chunks[..pos.0].iter().map(Vec::len).sum::<usize>() + pos.1
    }

    /// Looks a key up.
    pub fn get(&self, key: &K) -> Option<&V> {
        self.locate(key).map(|(ci, si)| &self.chunks[ci][si].1)
    }

    /// Looks a key up, mutably.
    pub fn get_mut(&mut self, key: &K) -> Option<&mut V> {
        self.locate(key).map(|(ci, si)| &mut self.chunks[ci][si].1)
    }

    /// Returns `true` if the key is present.
    pub fn contains_key(&self, key: &K) -> bool {
        self.locate(key).is_some()
    }

    /// Inserts or replaces. Returns the previous value if the key was
    /// present.
    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        if self.chunks.is_empty() {
            self.chunks.push(vec![(key, value)]);
            self.len = 1;
            return None;
        }
        // Entries before the first chunk's minimum go into chunk 0.
        let ci = self.chunk_of(&key).unwrap_or(0);
        match self.chunks[ci].binary_search_by(|e| e.0.cmp(&key)) {
            Ok(si) => Some(std::mem::replace(&mut self.chunks[ci][si].1, value)),
            Err(si) => {
                self.chunks[ci].insert(si, (key, value));
                self.len += 1;
                if self.chunks[ci].len() >= self.chunk_max {
                    let tail = self.chunks[ci].split_off(self.chunk_max / 2);
                    self.chunks.insert(ci + 1, tail);
                }
                None
            }
        }
    }

    /// Removes a key. Returns its value if it was present.
    pub fn remove(&mut self, key: &K) -> Option<V> {
        let (ci, si) = self.locate(key)?;
        let (_, value) = self.chunks[ci].remove(si);
        self.len -= 1;
        if self.chunks[ci].is_empty() {
            self.chunks.remove(ci);
        }
        Some(value)
    }

    /// First (smallest-key) entry.
    pub fn first_key_value(&self) -> Option<(&K, &V)> {
        self.chunks.first().map(|c| (&c[0].0, &c[0].1))
    }

    /// Last (largest-key) entry.
    pub fn last_key_value(&self) -> Option<(&K, &V)> {
        self.chunks
            .last()
            .and_then(|c| c.last())
            .map(|e| (&e.0, &e.1))
    }

    /// Largest entry with key `<= key` (floor neighbour).
    pub fn floor(&self, key: &K) -> Option<(&K, &V)> {
        let pos = self.upper_bound(key);
        if self.rank(pos) == 0 {
            return None;
        }
        let (ci, si) = self.pred_pos(pos);
        self.entry_at(ci, si)
    }

    /// Smallest entry with key `>= key` (ceiling neighbour).
    pub fn ceil(&self, key: &K) -> Option<(&K, &V)> {
        let (ci, si) = self.lower_bound(key);
        self.entry_at(ci, si)
    }

    /// Largest entry with key strictly `< key` (predecessor).
    pub fn pred(&self, key: &K) -> Option<(&K, &V)> {
        let pos = self.lower_bound(key);
        if self.rank(pos) == 0 {
            return None;
        }
        let (ci, si) = self.pred_pos(pos);
        self.entry_at(ci, si)
    }

    /// Smallest entry with key strictly `> key` (successor).
    pub fn succ(&self, key: &K) -> Option<(&K, &V)> {
        let (ci, si) = self.upper_bound(key);
        self.entry_at(ci, si)
    }

    #[inline]
    fn entry_at(&self, ci: usize, si: usize) -> Option<(&K, &V)> {
        self.chunks
            .get(ci)
            .and_then(|c| c.get(si))
            .map(|e| (&e.0, &e.1))
    }

    /// Position immediately before `pos`; caller guarantees one exists.
    #[inline]
    fn pred_pos(&self, pos: (usize, usize)) -> (usize, usize) {
        if pos.1 > 0 {
            (pos.0, pos.1 - 1)
        } else {
            (pos.0 - 1, self.chunks[pos.0 - 1].len() - 1)
        }
    }

    /// Iterates entries in ascending key order (double-ended).
    pub fn iter(&self) -> Iter<'_, K, V> {
        self.range(..)
    }

    /// Iterates keys in ascending order.
    pub fn keys(&self) -> impl DoubleEndedIterator<Item = &K> {
        self.iter().map(|(k, _)| k)
    }

    /// Iterates values in ascending key order.
    pub fn values(&self) -> impl DoubleEndedIterator<Item = &V> {
        self.iter().map(|(_, v)| v)
    }

    /// Iterates the entries whose keys fall in `range`, in ascending
    /// key order (double-ended — `range(..=p).next_back()` is the floor
    /// query). An inverted range yields an empty iterator.
    pub fn range<R: RangeBounds<K>>(&self, range: R) -> Iter<'_, K, V> {
        let front = match range.start_bound() {
            Bound::Unbounded => (0, 0),
            Bound::Included(k) => self.lower_bound(k),
            Bound::Excluded(k) => self.upper_bound(k),
        };
        let end = match range.end_bound() {
            Bound::Unbounded => (self.chunks.len(), 0),
            Bound::Included(k) => self.upper_bound(k),
            Bound::Excluded(k) => self.lower_bound(k),
        };
        let remaining = self.rank(end).saturating_sub(self.rank(front));
        let back = if remaining == 0 {
            (0, 0)
        } else {
            self.pred_pos(end)
        };
        Iter {
            chunks: &self.chunks,
            front,
            back,
            remaining,
        }
    }
}

/// Double-ended iterator over a [`DOrdMap`] (also the `range` view).
pub struct Iter<'a, K, V> {
    chunks: &'a [Vec<(K, V)>],
    /// Next front position.
    front: (usize, usize),
    /// Next back position (inclusive; valid while `remaining > 0`).
    back: (usize, usize),
    remaining: usize,
}

impl<'a, K, V> Iterator for Iter<'a, K, V> {
    type Item = (&'a K, &'a V);

    fn next(&mut self) -> Option<Self::Item> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        let (ci, si) = self.front;
        let e = &self.chunks[ci][si];
        self.front = if si + 1 < self.chunks[ci].len() {
            (ci, si + 1)
        } else {
            (ci + 1, 0)
        };
        Some((&e.0, &e.1))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

impl<K, V> DoubleEndedIterator for Iter<'_, K, V> {
    fn next_back(&mut self) -> Option<Self::Item> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        let (ci, si) = self.back;
        let e = &self.chunks[ci][si];
        if self.remaining > 0 {
            self.back = if si > 0 {
                (ci, si - 1)
            } else {
                (ci - 1, self.chunks[ci - 1].len() - 1)
            };
        }
        Some((&e.0, &e.1))
    }
}

impl<K, V> ExactSizeIterator for Iter<'_, K, V> {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SimRng;
    use std::collections::BTreeMap;
    use std::ops::Bound;

    #[test]
    fn insert_get_remove_roundtrip() {
        let mut m: DOrdMap<u64, u64> = DOrdMap::new();
        assert!(m.is_empty());
        assert_eq!(m.insert(5, 50), None);
        assert_eq!(m.insert(5, 51), Some(50));
        assert_eq!(m.get(&5), Some(&51));
        assert!(m.contains_key(&5));
        *m.get_mut(&5).unwrap() += 1;
        assert_eq!(m.remove(&5), Some(52));
        assert_eq!(m.remove(&5), None);
        assert!(m.is_empty());
    }

    #[test]
    fn iteration_is_key_sorted() {
        let mut m: DOrdMap<u64, u64> = DOrdMap::new();
        for k in [9u64, 2, 77, 31, 5, 1000, 0] {
            m.insert(k, k * 10);
        }
        let keys: Vec<u64> = m.keys().copied().collect();
        assert_eq!(keys, vec![0, 2, 5, 9, 31, 77, 1000]);
        let back: Vec<u64> = m.keys().rev().copied().collect();
        assert_eq!(back, vec![1000, 77, 31, 9, 5, 2, 0]);
        assert_eq!(m.first_key_value(), Some((&0, &0)));
        assert_eq!(m.last_key_value(), Some((&1000, &10000)));
    }

    #[test]
    fn range_queries_match_btreemap() {
        let mut m: DOrdMap<u64, u64> = DOrdMap::with_chunk_max(4);
        let mut r: BTreeMap<u64, u64> = BTreeMap::new();
        for k in (0..100u64).step_by(3) {
            m.insert(k, k);
            r.insert(k, k);
        }
        for lo in 0..40u64 {
            for hi in lo..40u64 {
                let got: Vec<u64> = m.range(lo..hi).map(|(k, _)| *k).collect();
                let want: Vec<u64> = r.range(lo..hi).map(|(k, _)| *k).collect();
                assert_eq!(got, want, "range {lo}..{hi}");
                assert_eq!(
                    m.range(..=hi).next_back(),
                    r.range(..=hi).next_back(),
                    "floor via range(..={hi}).next_back()"
                );
                assert_eq!(
                    m.range(lo..).next(),
                    r.range(lo..).next(),
                    "ceil via range({lo}..).next()"
                );
            }
        }
        // Excluded start bound, as in range((Excluded(a), Unbounded)).
        let got: Vec<u64> = m
            .range((Bound::Excluded(9u64), Bound::Unbounded))
            .take(2)
            .map(|(k, _)| *k)
            .collect();
        assert_eq!(got, vec![12, 15]);
    }

    #[test]
    fn neighbour_queries() {
        let mut m: DOrdMap<u64, u64> = DOrdMap::with_chunk_max(3);
        for k in [10u64, 20, 30] {
            m.insert(k, k);
        }
        assert_eq!(m.floor(&25), Some((&20, &20)));
        assert_eq!(m.floor(&20), Some((&20, &20)));
        assert_eq!(m.floor(&9), None);
        assert_eq!(m.ceil(&25), Some((&30, &30)));
        assert_eq!(m.ceil(&30), Some((&30, &30)));
        assert_eq!(m.ceil(&31), None);
        assert_eq!(m.pred(&20), Some((&10, &10)));
        assert_eq!(m.pred(&10), None);
        assert_eq!(m.succ(&20), Some((&30, &30)));
        assert_eq!(m.succ(&30), None);
    }

    #[test]
    fn double_ended_meets_in_the_middle() {
        let mut m: DOrdMap<u64, u64> = DOrdMap::with_chunk_max(3);
        for k in 0..10u64 {
            m.insert(k, k);
        }
        let mut it = m.iter();
        assert_eq!(it.next().map(|(k, _)| *k), Some(0));
        assert_eq!(it.next_back().map(|(k, _)| *k), Some(9));
        assert_eq!(it.len(), 8);
        let rest: Vec<u64> = it.map(|(k, _)| *k).collect();
        assert_eq!(rest, vec![1, 2, 3, 4, 5, 6, 7, 8]);
    }

    #[test]
    fn chunk_size_is_unobservable() {
        // The layout parameter must never change observable behaviour —
        // the analogue of DMap's seed-independence test.
        let mut small: DOrdMap<u64, u64> = DOrdMap::with_chunk_max(2);
        let mut big: DOrdMap<u64, u64> = DOrdMap::with_chunk_max(512);
        let mut rng = SimRng::new(0x0DD);
        for _ in 0..3000 {
            let k = rng.gen_range(0, 96);
            match rng.gen_range(0, 4) {
                0 | 1 => assert_eq!(small.insert(k, k * 3), big.insert(k, k * 3)),
                2 => assert_eq!(small.remove(&k), big.remove(&k)),
                _ => {
                    assert_eq!(small.get(&k), big.get(&k));
                    assert_eq!(small.floor(&k), big.floor(&k));
                    assert_eq!(small.succ(&k), big.succ(&k));
                }
            }
            assert_eq!(
                small.iter().collect::<Vec<_>>(),
                big.iter().collect::<Vec<_>>(),
                "iteration must not depend on chunk layout"
            );
        }
        // Neither does `==` — which still sees a single changed value.
        assert!(small.len() > 2 && small == big);
        let (&k, &v) = big.first_key_value().expect("non-empty");
        big.insert(k, v + 1);
        assert!(small != big);
    }

    #[test]
    fn excluded_bounds_at_chunk_boundaries() {
        // chunk_max 4 ⇒ chunks split early and often, so bound keys
        // land on first/last entries of chunks. Every bound-kind
        // combination must match the BTreeMap oracle (valid ranges) or
        // yield an empty iterator with an exact zero size hint
        // (ranges the oracle would panic on).
        let mut m: DOrdMap<u64, u64> = DOrdMap::with_chunk_max(4);
        let mut r: BTreeMap<u64, u64> = BTreeMap::new();
        for k in (0..40u64).step_by(2) {
            m.insert(k, k + 1);
            r.insert(k, k + 1);
        }
        let bound = |kind: u8, k: u64| match kind {
            0 => Bound::Included(k),
            1 => Bound::Excluded(k),
            _ => Bound::Unbounded,
        };
        for lo in 0..24u64 {
            for hi in 0..24u64 {
                for lk in 0..3u8 {
                    for hk in 0..3u8 {
                        let range = (bound(lk, lo), bound(hk, hi));
                        // BTreeMap::range panics on start > end, and on
                        // start == end with both bounds excluded.
                        let oracle_ok =
                            lk == 2 || hk == 2 || lo < hi || (lo == hi && !(lk == 1 && hk == 1));
                        let it = m.range(range);
                        let n = it.len();
                        assert_eq!(it.size_hint(), (n, Some(n)), "{range:?}");
                        let got: Vec<u64> = m.range(range).map(|(k, _)| *k).collect();
                        if oracle_ok {
                            let want: Vec<u64> = r.range(range).map(|(k, _)| *k).collect();
                            assert_eq!(got, want, "{range:?}");
                            assert_eq!(n, want.len(), "{range:?}");
                            let got_rev: Vec<u64> = m.range(range).rev().map(|(k, _)| *k).collect();
                            let want_rev: Vec<u64> =
                                r.range(range).rev().map(|(k, _)| *k).collect();
                            assert_eq!(got_rev, want_rev, "{range:?} reversed");
                        } else {
                            assert!(got.is_empty(), "inverted {range:?} must be empty");
                            assert_eq!(n, 0, "{range:?}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn size_hint_is_exact_after_mixed_consumption() {
        let mut m: DOrdMap<u64, u64> = DOrdMap::with_chunk_max(3);
        for k in 0..11u64 {
            m.insert(k, k * 2);
        }
        // Alternate front/back consumption; after every step the
        // ExactSizeIterator contract must hold exactly.
        let mut it = m.range(1..10); // keys 1..=9, nine entries
        let mut want: std::collections::VecDeque<u64> = (1..10).collect();
        let mut from_back = false;
        loop {
            let n = want.len();
            assert_eq!(it.len(), n);
            assert_eq!(it.size_hint(), (n, Some(n)));
            let (got, expect) = if from_back {
                (it.next_back().map(|(k, _)| *k), want.pop_back())
            } else {
                (it.next().map(|(k, _)| *k), want.pop_front())
            };
            assert_eq!(got, expect);
            if got.is_none() {
                break;
            }
            from_back = !from_back;
        }
        // Exhausted from both ends: stays empty in both directions.
        assert_eq!(it.size_hint(), (0, Some(0)));
        assert_eq!(it.next(), None);
        assert_eq!(it.next_back(), None);
    }

    #[test]
    fn empty_and_inverted_ranges() {
        let mut m: DOrdMap<u64, u64> = DOrdMap::new();
        assert_eq!(m.iter().next(), None);
        assert_eq!(m.range(3..7).next_back(), None);
        assert_eq!(m.floor(&5), None);
        m.insert(5, 5);
        let lo = 7;
        assert_eq!(m.range(lo..3).count(), 0, "inverted range is empty");
        assert_eq!(m.range(6..6).count(), 0);
        m.clear();
        assert!(m.is_empty());
        assert_eq!(m.get(&5), None);
        m.insert(1, 1);
        assert_eq!(m.len(), 1);
    }
}
