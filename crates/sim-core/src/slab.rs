//! A slab arena with stable `u32` handles and a free list.
//!
//! [`Slab`] is the backing store for intrusive structures: the page
//! cache's doubly-linked LRU chains and the page table's entries index
//! into one, and [`NIL`] terminates their lists.

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
/// use sim_core::slab::Slab;
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
