//! A map keyed by inode number, indexed directly.
//!
//! Both simulated filesystems hand out inode numbers densely from a
//! counter and never reuse them, and the kernel reaches a file's
//! `address_space` by pointer, never by hashing its inode number
//! (§4.2). [`InoMap`] is the faithful model and the cheap one: slot
//! `ino` of a `Vec` holds that inode's value, so a lookup is one bounds
//! check and one load, and iteration is ascending by construction.
//!
//! Memory is O(highest inode number ever inserted), not O(entries): a
//! removed inode keeps its empty slot, since the filesystems never
//! hand its number out again. Keys must
//! fit a `u32`; larger ones are refused loudly on insert rather than
//! turned into a multi-exabyte allocation.

use crate::InodeNr;
use std::fmt;

/// A map from [`InodeNr`] to `V`, stored as a `Vec` indexed by the
/// inode number.
///
/// # Examples
///
/// ```
/// use sim_core::{InoMap, InodeNr};
///
/// let mut m = InoMap::new();
/// m.insert(InodeNr(7), "seven");
/// m.insert(InodeNr(2), "two");
/// assert_eq!(m.get(InodeNr(7)), Some(&"seven"));
/// assert_eq!(m.get(InodeNr(u64::MAX)), None);
/// let keys: Vec<InodeNr> = m.keys().collect();
/// assert_eq!(keys, [InodeNr(2), InodeNr(7)]);
/// ```
#[derive(Clone)]
pub struct InoMap<V> {
    slots: Vec<Option<V>>,
    len: usize,
}

impl<V> Default for InoMap<V> {
    fn default() -> Self {
        InoMap {
            slots: Vec::new(),
            len: 0,
        }
    }
}

/// Same entries, however far the slot vector once grew.
impl<V: PartialEq> PartialEq for InoMap<V> {
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len && self.iter().eq(other.iter())
    }
}

impl<V: fmt::Debug> fmt::Debug for InoMap<V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

/// The slot of `ino`, if the key can have one.
#[inline]
fn slot_of(ino: InodeNr) -> Option<usize> {
    usize::try_from(ino.raw()).ok()
}

/// The slot of `ino`, grown into existence.
///
/// # Panics
///
/// Panics if `ino` does not fit a `u32`.
#[inline]
fn grow_to<V>(slots: &mut Vec<Option<V>>, ino: InodeNr) -> &mut Option<V> {
    assert!(
        ino.raw() <= u64::from(u32::MAX),
        "InoMap: inode number {ino} does not fit a u32"
    );
    let i = ino.raw() as usize;
    if i >= slots.len() {
        slots.resize_with(i + 1, || None);
    }
    &mut slots[i]
}

impl<V> InoMap<V> {
    /// Creates an empty map.
    pub fn new() -> Self {
        InoMap::default()
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if the map holds no entry.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The value stored for `ino`, if any.
    #[inline]
    pub fn get(&self, ino: InodeNr) -> Option<&V> {
        self.slots.get(slot_of(ino)?)?.as_ref()
    }

    /// The value stored for `ino`, mutably, if any.
    #[inline]
    pub fn get_mut(&mut self, ino: InodeNr) -> Option<&mut V> {
        self.slots.get_mut(slot_of(ino)?)?.as_mut()
    }

    /// Returns `true` if `ino` has an entry.
    #[inline]
    pub fn contains_key(&self, ino: InodeNr) -> bool {
        self.get(ino).is_some()
    }

    /// Stores `value` for `ino`, returning the value it replaces.
    ///
    /// # Panics
    ///
    /// Panics if `ino` does not fit a `u32`: no simulated filesystem
    /// hands out such a number, so one here is a stray key.
    pub fn insert(&mut self, ino: InodeNr, value: V) -> Option<V> {
        let old = grow_to(&mut self.slots, ino).replace(value);
        if old.is_none() {
            self.len += 1;
        }
        old
    }

    /// The value stored for `ino`, or the one `make` returns, stored
    /// first.
    ///
    /// # Panics
    ///
    /// Panics if `ino` does not fit a `u32` (see [`InoMap::insert`]).
    #[inline]
    pub fn get_or_insert_with(&mut self, ino: InodeNr, make: impl FnOnce() -> V) -> &mut V {
        grow_to(&mut self.slots, ino).get_or_insert_with(|| {
            self.len += 1;
            make()
        })
    }

    /// Removes `ino`'s entry and returns its value.
    pub fn remove(&mut self, ino: InodeNr) -> Option<V> {
        let old = self.slots.get_mut(slot_of(ino)?)?.take()?;
        self.len -= 1;
        Some(old)
    }

    /// Keeps the entries `keep` accepts, visited in ascending inode
    /// order.
    pub fn retain(&mut self, mut keep: impl FnMut(InodeNr, &mut V) -> bool) {
        for (i, slot) in self.slots.iter_mut().enumerate() {
            if let Some(v) = slot {
                if !keep(InodeNr(i as u64), v) {
                    *slot = None;
                    self.len -= 1;
                }
            }
        }
    }

    /// Every entry in ascending inode order.
    pub fn iter(&self) -> impl Iterator<Item = (InodeNr, &V)> + '_ {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, slot)| Some((InodeNr(i as u64), slot.as_ref()?)))
    }

    /// Every key in ascending order.
    pub fn keys(&self) -> impl Iterator<Item = InodeNr> + '_ {
        self.iter().map(|(ino, _)| ino)
    }

    /// Every value in ascending key order.
    pub fn values(&self) -> impl Iterator<Item = &V> + '_ {
        self.slots.iter().flatten()
    }
}

impl<V> std::ops::Index<InodeNr> for InoMap<V> {
    type Output = V;

    /// # Panics
    ///
    /// Panics if `ino` has no entry.
    fn index(&self, ino: InodeNr) -> &V {
        match self.get(ino) {
            Some(v) => v,
            None => unreachable!("InoMap: no entry for {ino}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::{differential, DiffConfig};
    use crate::SimRng;
    use std::collections::BTreeMap;

    #[test]
    #[should_panic(expected = "inode number ino#18446744073709551615 does not fit a u32")]
    fn a_key_past_u32_is_refused_on_insert() {
        let mut m = InoMap::new();
        m.insert(InodeNr(u64::MAX), 1u32);
    }

    #[test]
    #[should_panic(expected = "inode number ino#4294967296 does not fit a u32")]
    fn a_key_past_u32_is_refused_by_get_or_insert_with() {
        let mut m = InoMap::new();
        m.get_or_insert_with(InodeNr(1 << 32), || 1u32);
    }

    #[test]
    fn lookups_past_the_slots_find_nothing() {
        let mut m = InoMap::new();
        m.insert(InodeNr(9), 1u32);
        assert_eq!(m.get(InodeNr(10)), None);
        assert_eq!(m.get(InodeNr(u64::MAX)), None);
        assert_eq!(m.get_mut(InodeNr(1 << 32)), None);
        assert_eq!(m.remove(InodeNr(u64::MAX)), None);
        assert_eq!(m[InodeNr(9)], 1);
        assert_eq!(m.len(), 1);
    }

    /// Equality compares entries, not how far the slots once grew.
    #[test]
    fn equality_ignores_removed_slots() {
        let mut a = InoMap::new();
        let mut b = InoMap::new();
        a.insert(InodeNr(3), 'x');
        b.insert(InodeNr(3), 'x');
        b.insert(InodeNr(900), 'y');
        assert!(a != b);
        b.remove(InodeNr(900));
        assert!(a == b);
    }

    // ----- differential suite (DESIGN.md §13) --------------------------

    #[derive(Debug, Clone, Copy)]
    enum Op {
        Insert(InodeNr, u32),
        GetOrInsert(InodeNr, u32),
        Get(InodeNr),
        Remove(InodeNr),
        /// Keep the values that are not multiples of the operand.
        Retain(u32),
    }

    /// Keys bunch at the low end, as a filesystem's do, with a few far
    /// out so the slot vector grows in jumps.
    fn gen_op(rng: &mut SimRng, _i: u64) -> Op {
        let ino = InodeNr(match rng.gen_range(0, 8) {
            0 => rng.gen_range(0, 5000),
            _ => rng.gen_range(0, 24),
        });
        let v = rng.gen_range(0, 1000) as u32;
        match rng.gen_range(0, 20) {
            0..=6 => Op::Insert(ino, v),
            7..=9 => Op::GetOrInsert(ino, v),
            10..=12 => Op::Get(ino),
            13..=18 => Op::Remove(ino),
            _ => Op::Retain(rng.gen_range(2, 7) as u32),
        }
    }

    /// Replays a log against an `InoMap` and a `BTreeMap` model, every
    /// result compared, then the length and the ascending walk.
    /// `forget_count` is the sabotage: a `remove` that hits leaves the
    /// entry count where it was.
    fn replay(log: &[Op], forget_count: bool) -> Result<(), String> {
        let mut m = InoMap::new();
        let mut model: BTreeMap<InodeNr, u32> = BTreeMap::new();
        for (i, &op) in log.iter().enumerate() {
            let agree = |what: &str, got: String, want: String| {
                if got == want {
                    Ok(())
                } else {
                    Err(format!(
                        "op {i} {op:?}: {what} diverged\n  map:   {got}\n  model: {want}"
                    ))
                }
            };
            match op {
                Op::Insert(ino, v) => agree(
                    "insert",
                    format!("{:?}", m.insert(ino, v)),
                    format!("{:?}", model.insert(ino, v)),
                )?,
                Op::GetOrInsert(ino, v) => agree(
                    "get_or_insert_with",
                    format!("{:?}", *m.get_or_insert_with(ino, || v)),
                    format!("{:?}", *model.entry(ino).or_insert(v)),
                )?,
                Op::Get(ino) => agree(
                    "get",
                    format!("{:?} {}", m.get(ino), m.contains_key(ino)),
                    format!("{:?} {}", model.get(&ino), model.contains_key(&ino)),
                )?,
                Op::Remove(ino) => {
                    let got = m.remove(ino);
                    if forget_count && got.is_some() {
                        m.len += 1;
                    }
                    agree(
                        "remove",
                        format!("{got:?}"),
                        format!("{:?}", model.remove(&ino)),
                    )?;
                }
                Op::Retain(k) => {
                    let mut got = Vec::new();
                    m.retain(|ino, v| {
                        got.push((ino, *v));
                        *v % k != 0
                    });
                    let want: Vec<(InodeNr, u32)> = model.iter().map(|(&i, &v)| (i, v)).collect();
                    model.retain(|_, v| *v % k != 0);
                    agree("retain visits", format!("{got:?}"), format!("{want:?}"))?;
                }
            }
            agree("len", m.len().to_string(), model.len().to_string())?;
            let got: Vec<(InodeNr, u32)> = m.iter().map(|(i, &v)| (i, v)).collect();
            let want: Vec<(InodeNr, u32)> = model.iter().map(|(&i, &v)| (i, v)).collect();
            agree("iter", format!("{got:?}"), format!("{want:?}"))?;
        }
        Ok(())
    }

    fn diff_config(name: &'static str) -> DiffConfig {
        let seed = crate::knobs::Knob::CheckSeed
            .read()
            .unwrap_or_else(|e| panic!("{e}"))
            .unwrap_or(0x1A0_3A9);
        DiffConfig::new(name, seed)
    }

    #[test]
    fn ino_map_matches_the_ordered_model() {
        let cfg = diff_config("inomap-vs-btreemap").cases(32).ops(1500);
        differential(&cfg, gen_op, |log| replay(log, false)).unwrap();
    }

    /// The can-fail proof: a `remove` that forgets the count must be
    /// caught, and the failing log shrunk to the insert and the remove
    /// that expose it.
    #[test]
    fn differential_suite_detects_a_remove_that_keeps_the_count() {
        let cfg = diff_config("inomap-sabotage").cases(4).ops(400);
        let failure = differential(&cfg, gen_op, |log| replay(log, true)).unwrap_err();
        assert_eq!(failure.ops.len(), 2, "insert + remove: {failure}");
        assert!(failure.message.contains("len diverged"), "{failure}");
    }
}
