//! Deterministic O(1) hot-path containers.
//!
//! PR 1 banned `std::collections::HashMap` from event/result paths
//! (lint rule D2): its iteration order depends on a per-process random
//! hasher state, so any loop over one can leak host entropy into
//! simulated results. The fix at the time — `BTreeMap` everywhere —
//! bought determinism at the price of O(log n) plus pointer chasing on
//! every simulated page touch.
//!
//! This module restores O(1) without reopening the determinism hole:
//!
//! - [`DMap`]/[`DSet`]: open-addressing hash containers whose hash
//!   function ([`DetHash`]) is *seeded by a compile-time constant* —
//!   no `RandomState`, no ASLR, no wall clock — and whose iteration
//!   order is the **dense insertion order** of a side `Vec`, a pure
//!   function of the operation sequence. Same ops, same order, on
//!   every machine, forever. D2 (`clippy.toml`) bans only the std
//!   hash collections; these are the workspace's deterministic ones.
//! - [`Slab`]: an arena with stable `u32` handles and a free list, the
//!   backing store for intrusive structures (the page cache's
//!   doubly-linked LRU chains index into one).
//!
//! Iteration order caveat: insertion order is deterministic but *not*
//! sorted. A call site whose iteration order escapes into golden
//! output and must be sorted (e.g. the page cache's registration scan)
//! sorts the collected keys explicitly — O(k log k) on the cold path,
//! instead of O(log n) on every hot-path touch.

use std::borrow::Borrow;
use std::fmt;

/// Fixed hash seed: an arbitrary odd constant, deliberately *not*
/// derived from any ambient source. Changing it changes bucket layout
/// but no observable behaviour (iteration is insertion-ordered).
const DEFAULT_SEED: u64 = 0x5EED_0FD0_E700_0001;

/// Sentinel bucket value: empty slot.
const EMPTY: u32 = u32::MAX;

/// Grow when `len * 8 >= buckets * 7` (87.5 % load).
const LOAD_NUM: usize = 7;
const LOAD_DEN: usize = 8;

/// Deterministic hashing: a pure function of the value and an explicit
/// seed. Implementors must not consult any ambient state.
pub trait DetHash {
    /// Hashes `self` under `seed`. The result must be fully mixed (all
    /// 64 bits usable); use [`mix64`] as the finalizer.
    fn det_hash(&self, seed: u64) -> u64;
}

/// SplitMix64 finalizer: a full-avalanche 64-bit mix.
#[inline]
pub fn mix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

macro_rules! dethash_int {
    ($($t:ty),*) => {$(
        impl DetHash for $t {
            #[inline]
            fn det_hash(&self, seed: u64) -> u64 {
                mix64(*self as u64 ^ seed)
            }
        }
    )*};
}
dethash_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl DetHash for str {
    #[inline]
    fn det_hash(&self, seed: u64) -> u64 {
        // FNV-1a over the bytes, seed folded into the offset basis.
        // `str`, `&str` and `String` must hash identically so a
        // `DMap<String, _>` can be probed with a borrowed `&str`.
        let mut h = 0xcbf2_9ce4_8422_2325u64 ^ seed;
        for &b in self.as_bytes() {
            h = (h ^ b as u64).wrapping_mul(0x1000_0000_01b3);
        }
        mix64(h)
    }
}

impl DetHash for &str {
    #[inline]
    fn det_hash(&self, seed: u64) -> u64 {
        (**self).det_hash(seed)
    }
}

impl DetHash for String {
    #[inline]
    fn det_hash(&self, seed: u64) -> u64 {
        self.as_str().det_hash(seed)
    }
}

impl<A: DetHash, B: DetHash> DetHash for (A, B) {
    #[inline]
    fn det_hash(&self, seed: u64) -> u64 {
        let a = self.0.det_hash(seed);
        self.1.det_hash(mix64(a ^ seed))
    }
}

impl DetHash for crate::BlockNr {
    #[inline]
    fn det_hash(&self, seed: u64) -> u64 {
        self.raw().det_hash(seed)
    }
}

impl DetHash for crate::InodeNr {
    #[inline]
    fn det_hash(&self, seed: u64) -> u64 {
        self.raw().det_hash(seed)
    }
}

impl DetHash for crate::PageIndex {
    #[inline]
    fn det_hash(&self, seed: u64) -> u64 {
        self.raw().det_hash(seed)
    }
}

impl DetHash for crate::DeviceId {
    #[inline]
    fn det_hash(&self, seed: u64) -> u64 {
        (self.raw() as u64).det_hash(seed)
    }
}

impl DetHash for crate::SegmentNr {
    #[inline]
    fn det_hash(&self, seed: u64) -> u64 {
        (self.raw() as u64).det_hash(seed)
    }
}

/// A deterministic open-addressing hash map.
///
/// Entries live densely in a `Vec` in insertion order; a flat bucket
/// table of `u32` indexes provides O(1) expected lookup via linear
/// probing with backward-shift deletion (no tombstones, so probe
/// chains never rot). Removal swap-fills the dense array, so iteration
/// order after a removal is still a pure function of the op sequence —
/// deterministic, though no longer the literal insertion order.
///
/// # Examples
///
/// ```
/// use sim_core::dmap::DMap;
///
/// let mut m: DMap<u64, &str> = DMap::new();
/// m.insert(7, "seven");
/// m.insert(9, "nine");
/// assert_eq!(m.get(&7), Some(&"seven"));
/// let keys: Vec<u64> = m.iter().map(|(k, _)| *k).collect();
/// assert_eq!(keys, vec![7, 9]); // insertion order, every run
/// ```
#[derive(Clone)]
pub struct DMap<K, V> {
    seed: u64,
    /// Dense storage in (post-removal) insertion order.
    entries: Vec<(K, V)>,
    /// Flat probe table: index into `entries`, or `EMPTY`. Length is a
    /// power of two (or zero before first insert).
    buckets: Vec<u32>,
}

impl<K: DetHash + Eq, V> Default for DMap<K, V> {
    fn default() -> Self {
        DMap::new()
    }
}

impl<K: fmt::Debug, V: fmt::Debug> fmt::Debug for DMap<K, V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map()
            .entries(self.entries.iter().map(|(k, v)| (k, v)))
            .finish()
    }
}

/// Same entries, whatever order they were inserted in: the seed, the
/// bucket table and the dense order are layout (see the module docs'
/// iteration-order caveat: a user whose order could show sorts first).
impl<K: DetHash + Eq, V: PartialEq> PartialEq for DMap<K, V> {
    fn eq(&self, other: &Self) -> bool {
        let DMap {
            seed: _,
            entries,
            buckets: _,
        } = self;
        entries.len() == other.len() && entries.iter().all(|(k, v)| other.get(k) == Some(v))
    }
}

impl<K: DetHash + Eq, V> DMap<K, V> {
    /// Creates an empty map with the fixed default seed.
    pub fn new() -> Self {
        Self::with_seed(DEFAULT_SEED)
    }

    /// Creates an empty map with an explicit seed (tests use this to
    /// prove observable behaviour is seed-independent).
    pub fn with_seed(seed: u64) -> Self {
        DMap {
            seed,
            entries: Vec::new(),
            buckets: Vec::new(),
        }
    }

    /// Creates an empty map pre-sized for `cap` entries.
    pub fn with_capacity(cap: usize) -> Self {
        let mut m = Self::new();
        m.entries.reserve(cap);
        m.grow_to(cap);
        m
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns `true` if the map holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Removes all entries, keeping allocations.
    pub fn clear(&mut self) {
        self.entries.clear();
        self.buckets.iter_mut().for_each(|b| *b = EMPTY);
    }

    #[inline]
    fn mask(&self) -> usize {
        self.buckets.len() - 1
    }

    /// Probes for `key`. Returns `(bucket, Some(entry_idx))` on a hit
    /// or `(first_empty_bucket, None)` on a miss. Requires non-empty
    /// `buckets`. Generic over the borrowed form of the key (`&str`
    /// probing a `String`-keyed map), which must hash identically.
    #[inline]
    fn probe<Q>(&self, key: &Q) -> (usize, Option<usize>)
    where
        K: Borrow<Q>,
        Q: DetHash + Eq + ?Sized,
    {
        let mask = self.mask();
        let mut b = (key.det_hash(self.seed) as usize) & mask;
        loop {
            let slot = self.buckets[b];
            if slot == EMPTY {
                return (b, None);
            }
            let idx = slot as usize;
            if self.entries[idx].0.borrow() == key {
                return (b, Some(idx));
            }
            b = (b + 1) & mask;
        }
    }

    /// Ensures the bucket table can absorb `want` entries within the
    /// load factor, rehashing if necessary.
    fn grow_to(&mut self, want: usize) {
        let mut cap = self.buckets.len().max(8);
        while want * LOAD_DEN >= cap * LOAD_NUM {
            cap *= 2;
        }
        if cap == self.buckets.len() {
            return;
        }
        self.buckets = vec![EMPTY; cap];
        let mask = cap - 1;
        for (idx, (k, _)) in self.entries.iter().enumerate() {
            let mut b = (k.det_hash(self.seed) as usize) & mask;
            while self.buckets[b] != EMPTY {
                b = (b + 1) & mask;
            }
            self.buckets[b] = idx as u32;
        }
    }

    /// Inserts or replaces. Returns the previous value if the key was
    /// present.
    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        self.grow_to(self.entries.len() + 1);
        let (b, hit) = self.probe(&key);
        match hit {
            Some(idx) => Some(std::mem::replace(&mut self.entries[idx].1, value)),
            None => {
                self.buckets[b] = self.entries.len() as u32;
                self.entries.push((key, value));
                None
            }
        }
    }

    /// Looks a key up. Accepts the key's borrowed form, like
    /// `BTreeMap::get` (`map_of_strings.get("name")`).
    #[inline]
    pub fn get<Q>(&self, key: &Q) -> Option<&V>
    where
        K: Borrow<Q>,
        Q: DetHash + Eq + ?Sized,
    {
        if self.buckets.is_empty() {
            return None;
        }
        let (_, hit) = self.probe(key);
        hit.map(|idx| &self.entries[idx].1)
    }

    /// Looks a key up, mutably.
    #[inline]
    pub fn get_mut<Q>(&mut self, key: &Q) -> Option<&mut V>
    where
        K: Borrow<Q>,
        Q: DetHash + Eq + ?Sized,
    {
        if self.buckets.is_empty() {
            return None;
        }
        let (_, hit) = self.probe(key);
        hit.map(|idx| &mut self.entries[idx].1)
    }

    /// Returns `true` if the key is present.
    #[inline]
    pub fn contains_key<Q>(&self, key: &Q) -> bool
    where
        K: Borrow<Q>,
        Q: DetHash + Eq + ?Sized,
    {
        !self.buckets.is_empty() && self.probe(key).1.is_some()
    }

    /// Returns a mutable reference to `key`'s value, inserting
    /// `default()` first if absent.
    pub fn get_or_insert_with<F: FnOnce() -> V>(&mut self, key: K, default: F) -> &mut V {
        self.grow_to(self.entries.len() + 1);
        let (b, hit) = self.probe(&key);
        let idx = match hit {
            Some(idx) => idx,
            None => {
                let idx = self.entries.len();
                self.buckets[b] = idx as u32;
                self.entries.push((key, default()));
                idx
            }
        };
        &mut self.entries[idx].1
    }

    /// Removes a key. Returns its value if it was present.
    ///
    /// O(1): the dense array swap-fills from its tail, and the bucket
    /// table repairs its probe chain by backward shifting (the
    /// tombstone-free deletion of ordered open addressing).
    pub fn remove<Q>(&mut self, key: &Q) -> Option<V>
    where
        K: Borrow<Q>,
        Q: DetHash + Eq + ?Sized,
    {
        if self.buckets.is_empty() {
            return None;
        }
        let (b, hit) = self.probe(key);
        let idx = hit?;
        // Backward-shift the probe chain over the vacated bucket.
        let mask = self.mask();
        let mut hole = b;
        let mut j = b;
        loop {
            j = (j + 1) & mask;
            let slot = self.buckets[j];
            if slot == EMPTY {
                break;
            }
            let ideal = (self.entries[slot as usize].0.det_hash(self.seed) as usize) & mask;
            // `slot` may move back into `hole` only if its ideal bucket
            // is not circularly between hole (exclusive) and j
            // (inclusive) — i.e. the displacement from ideal to j is at
            // least the distance from hole to j.
            if (j.wrapping_sub(ideal) & mask) >= (j.wrapping_sub(hole) & mask) {
                self.buckets[hole] = slot;
                hole = j;
            }
        }
        self.buckets[hole] = EMPTY;
        // Swap-fill the dense array; repoint the moved entry's bucket.
        let last = self.entries.len() - 1;
        let (_, value) = self.entries.swap_remove(idx);
        if idx != last {
            let moved_key = &self.entries[idx].0;
            let mut mb = (moved_key.det_hash(self.seed) as usize) & mask;
            while self.buckets[mb] != last as u32 {
                mb = (mb + 1) & mask;
            }
            self.buckets[mb] = idx as u32;
        }
        Some(value)
    }

    /// Iterates entries in dense (deterministic) order.
    pub fn iter(&self) -> impl Iterator<Item = (&K, &V)> {
        self.entries.iter().map(|(k, v)| (k, v))
    }

    /// Iterates entries mutably in dense (deterministic) order.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = (&K, &mut V)> {
        self.entries.iter_mut().map(|(k, v)| (&*k, v))
    }

    /// Iterates keys in dense (deterministic) order.
    pub fn keys(&self) -> impl Iterator<Item = &K> {
        self.entries.iter().map(|(k, _)| k)
    }

    /// Iterates values in dense (deterministic) order.
    pub fn values(&self) -> impl Iterator<Item = &V> {
        self.entries.iter().map(|(_, v)| v)
    }
}

/// A deterministic open-addressing hash set (a [`DMap`] with unit
/// values).
///
/// # Examples
///
/// ```
/// use sim_core::dmap::DSet;
///
/// let mut s: DSet<u64> = DSet::new();
/// assert!(s.insert(3));
/// assert!(!s.insert(3));
/// assert!(s.contains(&3));
/// assert!(s.remove(&3));
/// assert!(s.is_empty());
/// ```
#[derive(Clone)]
pub struct DSet<K> {
    map: DMap<K, ()>,
}

/// Same members, whatever order they were inserted in (see [`DMap`]).
impl<K: DetHash + Eq> PartialEq for DSet<K> {
    fn eq(&self, other: &Self) -> bool {
        let DSet { map } = self;
        *map == other.map
    }
}

impl<K: DetHash + Eq> Default for DSet<K> {
    fn default() -> Self {
        DSet::new()
    }
}

impl<K: fmt::Debug + DetHash + Eq> fmt::Debug for DSet<K> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.map.keys()).finish()
    }
}

impl<K: DetHash + Eq> DSet<K> {
    /// Creates an empty set.
    pub fn new() -> Self {
        DSet { map: DMap::new() }
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Returns `true` if the set is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Adds a member. Returns `true` if it was newly added.
    pub fn insert(&mut self, key: K) -> bool {
        self.map.insert(key, ()).is_none()
    }

    /// Removes a member. Returns `true` if it was present.
    pub fn remove<Q>(&mut self, key: &Q) -> bool
    where
        K: Borrow<Q>,
        Q: DetHash + Eq + ?Sized,
    {
        self.map.remove(key).is_some()
    }

    /// Membership test. Accepts the key's borrowed form.
    #[inline]
    pub fn contains<Q>(&self, key: &Q) -> bool
    where
        K: Borrow<Q>,
        Q: DetHash + Eq + ?Sized,
    {
        self.map.contains_key(key)
    }

    /// Removes all members, keeping allocations.
    pub fn clear(&mut self) {
        self.map.clear();
    }

    /// Iterates members in dense (deterministic) order.
    pub fn iter(&self) -> impl Iterator<Item = &K> {
        self.map.keys()
    }
}

/// Handle value meaning "no slot" — usable as a list terminator by
/// intrusive structures built over a [`Slab`].
pub const NIL: u32 = u32::MAX;

#[derive(Debug, Clone, PartialEq)]
enum Slot<T> {
    Occupied(T),
    /// Free slot, holding the next free handle (or [`NIL`]).
    Free(u32),
}

/// A slab arena with stable `u32` handles.
///
/// Insertions reuse freed slots (LIFO free list), so handles are dense
/// and allocation is O(1) with no per-node heap traffic — the backing
/// store for intrusive linked structures like the page cache's LRU
/// chains. Handles are stable: a slot's handle never changes while it
/// is occupied.
///
/// # Examples
///
/// ```
/// use sim_core::dmap::Slab;
///
/// let mut slab: Slab<&str> = Slab::new();
/// let h = slab.insert("hello");
/// assert_eq!(slab.get(h), Some(&"hello"));
/// assert_eq!(slab.remove(h), Some("hello"));
/// assert_eq!(slab.get(h), None);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Slab<T> {
    slots: Vec<Slot<T>>,
    free: u32,
    len: usize,
}

impl<T> Default for Slab<T> {
    fn default() -> Self {
        Slab::new()
    }
}

impl<T> Slab<T> {
    /// Creates an empty slab.
    pub fn new() -> Self {
        Slab {
            slots: Vec::new(),
            free: NIL,
            len: 0,
        }
    }

    /// Creates an empty slab pre-sized for `cap` values.
    pub fn with_capacity(cap: usize) -> Self {
        let mut s = Self::new();
        s.slots.reserve(cap);
        s
    }

    /// Number of occupied slots.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if no slot is occupied.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Stores a value, returning its stable handle.
    pub fn insert(&mut self, value: T) -> u32 {
        self.len += 1;
        if self.free == NIL {
            self.slots.push(Slot::Occupied(value));
            (self.slots.len() - 1) as u32
        } else {
            let h = self.free;
            let slot = &mut self.slots[h as usize];
            if let Slot::Free(next) = *slot {
                self.free = next;
            }
            *slot = Slot::Occupied(value);
            h
        }
    }

    /// Removes a handle's value, freeing the slot for reuse.
    pub fn remove(&mut self, handle: u32) -> Option<T> {
        let slot = self.slots.get_mut(handle as usize)?;
        if matches!(slot, Slot::Free(_)) {
            return None;
        }
        let old = std::mem::replace(slot, Slot::Free(self.free));
        self.free = handle;
        self.len -= 1;
        match old {
            Slot::Occupied(v) => Some(v),
            Slot::Free(_) => None,
        }
    }

    /// Borrows a handle's value.
    #[inline]
    pub fn get(&self, handle: u32) -> Option<&T> {
        match self.slots.get(handle as usize) {
            Some(Slot::Occupied(v)) => Some(v),
            _ => None,
        }
    }

    /// Borrows a handle's value mutably.
    #[inline]
    pub fn get_mut(&mut self, handle: u32) -> Option<&mut T> {
        match self.slots.get_mut(handle as usize) {
            Some(Slot::Occupied(v)) => Some(v),
            _ => None,
        }
    }
}

impl<T> std::ops::Index<u32> for Slab<T> {
    type Output = T;
    #[inline]
    fn index(&self, handle: u32) -> &T {
        match &self.slots[handle as usize] {
            Slot::Occupied(v) => v,
            Slot::Free(_) => unreachable!("slab handle {handle} is vacant"),
        }
    }
}

impl<T> std::ops::IndexMut<u32> for Slab<T> {
    #[inline]
    fn index_mut(&mut self, handle: u32) -> &mut T {
        match &mut self.slots[handle as usize] {
            Slot::Occupied(v) => v,
            Slot::Free(_) => unreachable!("slab handle {handle} is vacant"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SimRng;
    use std::collections::BTreeMap;

    #[test]
    fn insert_get_remove_roundtrip() {
        let mut m: DMap<u64, u64> = DMap::new();
        assert!(m.is_empty());
        assert_eq!(m.insert(1, 10), None);
        assert_eq!(m.insert(1, 11), Some(10));
        assert_eq!(m.get(&1), Some(&11));
        assert!(m.contains_key(&1));
        assert_eq!(m.remove(&1), Some(11));
        assert_eq!(m.remove(&1), None);
        assert!(m.is_empty());
    }

    #[test]
    fn iteration_is_insertion_ordered() {
        let mut m: DMap<u64, u64> = DMap::new();
        let keys = [9u64, 2, 77, 31, 5, 1000, 0];
        for (i, &k) in keys.iter().enumerate() {
            m.insert(k, i as u64);
        }
        let got: Vec<u64> = m.keys().copied().collect();
        assert_eq!(got, keys);
        // Re-inserting does not move a key.
        m.insert(77, 99);
        let got: Vec<u64> = m.keys().copied().collect();
        assert_eq!(got, keys);
    }

    #[test]
    fn observable_behaviour_is_seed_independent() {
        // Different seeds change bucket layout, never the op results
        // or the dense iteration order.
        let mut a: DMap<u64, u64> = DMap::with_seed(1);
        let mut b: DMap<u64, u64> = DMap::with_seed(0xFFFF_FFFF_FFFF);
        let mut rng = SimRng::new(42);
        for _ in 0..2000 {
            let k = rng.gen_range(0, 64);
            match rng.gen_range(0, 3) {
                0 => assert_eq!(a.insert(k, k * 2), b.insert(k, k * 2)),
                1 => assert_eq!(a.remove(&k), b.remove(&k)),
                _ => assert_eq!(a.get(&k), b.get(&k)),
            }
            assert_eq!(
                a.iter().collect::<Vec<_>>(),
                b.iter().collect::<Vec<_>>(),
                "dense order must not depend on the seed"
            );
        }
    }

    #[test]
    fn equality_is_insertion_order_independent_and_content_sensitive() {
        let mut forward: DMap<u64, u64> = DMap::new();
        let mut backward: DMap<u64, u64> = DMap::new();
        for k in 0..40 {
            forward.insert(k, k * 2);
            backward.insert(39 - k, (39 - k) * 2);
        }
        assert_ne!(
            forward.keys().collect::<Vec<_>>(),
            backward.keys().collect::<Vec<_>>(),
            "the two really are laid out differently"
        );
        assert!(forward == backward);
        backward.insert(7, 15);
        assert!(forward != backward, "one changed value");
        backward.insert(7, 14);
        backward.insert(40, 80);
        assert!(forward != backward, "one extra key");

        let mut a: DSet<u64> = DSet::new();
        let mut b: DSet<u64> = DSet::new();
        for k in 0..10 {
            a.insert(k);
            b.insert(9 - k);
        }
        assert!(a == b);
        b.insert(10);
        assert!(a != b, "one extra member");
        a.insert(11);
        assert!(a != b, "same size, one different member");
    }

    /// The differential suite (DESIGN.md §13): seeded `(op, key, value)`
    /// logs through `check::differential`, base seed from
    /// `DUET_CHECK_SEED` (CI rotates it), failing logs shrunk.
    fn diff_config(name: &'static str) -> crate::check::DiffConfig {
        let seed = crate::fault::seed_from_env("DUET_CHECK_SEED", 0xD3A9)
            .unwrap_or_else(|e| panic!("{e}"));
        crate::check::DiffConfig::new(name, seed)
    }

    fn gen_op(rng: &mut SimRng, _i: u64) -> (u64, u64, u64) {
        let k = rng.gen_range(0, 200);
        let v = rng.gen_range(0, 1_000_000);
        (rng.gen_range(0, 4), k, v)
    }

    /// Replays a log against a `DMap` and a `BTreeMap` oracle, every
    /// result compared. `skip_one_remove` is the sabotage: the first
    /// `remove` that hits is withheld from the `DMap`.
    fn replay_against_btreemap(
        log: &[(u64, u64, u64)],
        mut skip_one_remove: bool,
    ) -> Result<(), String> {
        let mut m: DMap<u64, u64> = DMap::new();
        let mut reference: BTreeMap<u64, u64> = BTreeMap::new();
        for &(op, k, v) in log {
            match op {
                0 | 1 => assert_eq!(m.insert(k, v), reference.insert(k, v)),
                2 if skip_one_remove && reference.contains_key(&k) => {
                    skip_one_remove = false;
                    reference.remove(&k);
                }
                2 => assert_eq!(m.remove(&k), reference.remove(&k)),
                _ => assert_eq!(m.get(&k), reference.get(&k)),
            }
            assert_eq!(m.len(), reference.len(), "len diverged");
        }
        // Same contents, independent of order.
        let mut got: Vec<(u64, u64)> = m.iter().map(|(k, v)| (*k, *v)).collect();
        got.sort_unstable();
        let want: Vec<(u64, u64)> = reference.iter().map(|(k, v)| (*k, *v)).collect();
        assert_eq!(got, want);
        Ok(())
    }

    #[test]
    fn matches_reference_map_under_random_ops() {
        let cfg = diff_config("dmap-vs-btreemap").cases(32).ops(1500);
        crate::check::differential(&cfg, gen_op, |log| replay_against_btreemap(log, false))
            .unwrap();
    }

    /// The can-fail proof: one withheld `remove` must be caught, and the
    /// failing log shrunk to the insert and the remove that expose it.
    #[test]
    fn differential_suite_detects_a_skipped_remove() {
        let cfg = diff_config("dmap-sabotage").cases(4).ops(500);
        let failure =
            crate::check::differential(&cfg, gen_op, |log| replay_against_btreemap(log, true))
                .unwrap_err();
        assert_eq!(failure.ops.len(), 2, "insert + remove: {failure}");
        assert!(failure.message.contains("len diverged"), "{failure}");
    }

    #[test]
    fn string_keyed_map_probes_with_borrowed_str() {
        let mut m: DMap<String, u32> = DMap::new();
        m.insert("alpha".to_string(), 1);
        m.insert("beta".to_string(), 2);
        // Borrowed-form lookups must hit without allocating a String.
        assert_eq!(m.get("alpha"), Some(&1));
        assert!(m.contains_key("beta"));
        assert_eq!(m.get_mut("beta").copied(), Some(2));
        assert_eq!(m.get("gamma"), None);
        assert_eq!(m.remove("alpha"), Some(1));
        assert_eq!(m.get("alpha"), None);
        // str / &str / String hash agreement is what makes this sound.
        let s = "delta".to_string();
        assert_eq!(s.det_hash(7), "delta".det_hash(7));
        assert_eq!(s.det_hash(7), (*s).det_hash(7));
    }

    #[test]
    fn backshift_deletion_keeps_probe_chains_sound() {
        // Adversarial: many keys, heavy interleaved removal. If
        // backshift mis-repairs a chain, some surviving key becomes
        // unreachable.
        let mut m: DMap<u64, u64> = DMap::new();
        for k in 0..512u64 {
            m.insert(k, k);
        }
        for k in (0..512u64).step_by(2) {
            assert_eq!(m.remove(&k), Some(k));
        }
        for k in 0..512u64 {
            if k % 2 == 0 {
                assert_eq!(m.get(&k), None);
            } else {
                assert_eq!(m.get(&k), Some(&k), "key {k} lost by backshift");
            }
        }
    }

    #[test]
    fn get_or_insert_with() {
        let mut m: DMap<u64, u64> = DMap::new();
        *m.get_or_insert_with(5, || 0) += 3;
        *m.get_or_insert_with(5, || 0) += 4;
        assert_eq!(m.get(&5), Some(&7));
    }

    #[test]
    fn string_and_tuple_keys() {
        let mut m: DMap<String, u32> = DMap::new();
        m.insert("alpha".to_string(), 1);
        m.insert("beta".to_string(), 2);
        assert_eq!(m.get(&"alpha".to_string()), Some(&1));
        let mut t: DMap<(u64, u64), u32> = DMap::new();
        t.insert((1, 2), 9);
        assert_eq!(t.get(&(1, 2)), Some(&9));
        assert_eq!(t.get(&(2, 1)), None);
    }

    #[test]
    fn set_roundtrip_and_iteration_order() {
        let mut s: DSet<u64> = DSet::new();
        for k in [5u64, 1, 9] {
            assert!(s.insert(k));
        }
        assert!(!s.insert(5));
        assert_eq!(s.len(), 3);
        let got: Vec<u64> = s.iter().copied().collect();
        assert_eq!(got, vec![5, 1, 9]);
        assert!(s.remove(&1));
        assert!(!s.remove(&1));
        assert!(s.contains(&9));
        s.clear();
        assert!(s.is_empty());
    }

    #[test]
    fn clear_keeps_map_usable() {
        let mut m: DMap<u64, u64> = DMap::new();
        for k in 0..100 {
            m.insert(k, k);
        }
        m.clear();
        assert!(m.is_empty());
        assert_eq!(m.get(&5), None);
        m.insert(5, 50);
        assert_eq!(m.get(&5), Some(&50));
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn slab_insert_remove_reuse() {
        let mut s: Slab<u64> = Slab::new();
        let a = s.insert(10);
        let b = s.insert(20);
        let c = s.insert(30);
        assert_eq!(s.len(), 3);
        assert_eq!(s.remove(b), Some(20));
        assert_eq!(s.remove(b), None, "double free is refused");
        assert_eq!(s.get(b), None);
        // Freed slot is reused; occupied handles are stable.
        let d = s.insert(40);
        assert_eq!(d, b);
        assert_eq!(s[a], 10);
        assert_eq!(s[c], 30);
        s[c] = 31;
        assert_eq!(s.get(c), Some(&31));
        assert_eq!(s.len(), 3);
    }

    #[test]
    #[should_panic(expected = "vacant")]
    fn slab_indexing_vacant_slot_panics() {
        let mut s: Slab<u64> = Slab::new();
        let h = s.insert(1);
        s.remove(h);
        let _ = s[h];
    }

    #[test]
    fn slab_stress_against_reference() {
        let mut rng = SimRng::new(0x51AB);
        let mut s: Slab<u64> = Slab::new();
        let mut live: BTreeMap<u32, u64> = BTreeMap::new();
        for i in 0..4000u64 {
            if rng.gen_range(0, 3) == 0 && !live.is_empty() {
                let pick = rng.gen_range(0, live.len() as u64) as usize;
                let h = *live.keys().nth(pick).expect("non-empty");
                let want = live.remove(&h);
                assert_eq!(s.remove(h), want);
            } else {
                let h = s.insert(i);
                assert!(live.insert(h, i).is_none(), "handle reused while live");
            }
            assert_eq!(s.len(), live.len());
        }
        for (h, v) in &live {
            assert_eq!(s.get(*h), Some(v));
        }
    }
}
