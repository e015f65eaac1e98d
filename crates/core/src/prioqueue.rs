//! The Duet task library's priority queue.
//!
//! "The Duet library is used by both in-kernel and user-level tasks. It
//! implements a priority queue for storing Duet events that are fetched
//! using the Duet API. ... Our current implementation uses a red-black
//! tree for the priority queue." (§4.2)
//!
//! Tasks enqueue items keyed by a task-specific priority — e.g. the
//! number of pages a file has in memory (rsync) or the fraction of its
//! pages resident (defragmentation) — and dequeue the highest-priority
//! item (Algorithm 1). Priorities are updatable: re-upserting a key
//! replaces its priority.
//!
//! The implementation is the paper's: an ordered tree of
//! `(priority, key)` pairs (Rust's B-tree standing in for the red-black
//! tree) beside a key → priority map that finds a key's pair for
//! update and removal. Because keys are unique, `(priority, key)` is a
//! strict total order: the pop sequence is a pure function of the
//! queue's contents — max priority, ties by largest key — independent
//! of insertion history.

use std::collections::{BTreeMap, BTreeSet};

/// An updatable max-priority queue over unique keys.
///
/// # Examples
///
/// ```
/// use duet::PrioQueue;
///
/// let mut q: PrioQueue<u64, u64> = PrioQueue::new();
/// q.upsert(10, 3);
/// q.upsert(20, 7);
/// q.upsert(10, 9); // update
/// assert_eq!(q.pop_max(), Some((10, 9)));
/// assert_eq!(q.pop_max(), Some((20, 7)));
/// assert_eq!(q.pop_max(), None);
/// ```
#[derive(Debug, Clone)]
pub struct PrioQueue<K: Ord + Copy, P: Ord + Copy> {
    /// Ordered by `(P, K)` tuple order — priority first, then key,
    /// which *is* the documented tie-break.
    by_prio: BTreeSet<(P, K)>,
    /// Key → its current priority, i.e. its pair in `by_prio`.
    prio_of: BTreeMap<K, P>,
}

impl<K: Ord + Copy, P: Ord + Copy> Default for PrioQueue<K, P> {
    fn default() -> Self {
        PrioQueue::new()
    }
}

impl<K: Ord + Copy, P: Ord + Copy> PrioQueue<K, P> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        PrioQueue {
            by_prio: BTreeSet::new(),
            prio_of: BTreeMap::new(),
        }
    }

    /// Number of queued keys.
    pub fn len(&self) -> usize {
        self.prio_of.len()
    }

    /// Returns `true` if the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.prio_of.is_empty()
    }

    /// Inserts a key or updates its priority. Returns the previous
    /// priority if the key was present.
    pub fn upsert(&mut self, key: K, prio: P) -> Option<P> {
        let old = self.prio_of.insert(key, prio);
        if let Some(old) = old {
            self.by_prio.remove(&(old, key));
        }
        self.by_prio.insert((prio, key));
        old
    }

    /// The current priority of a key.
    pub fn priority_of(&self, key: K) -> Option<P> {
        self.prio_of.get(&key).copied()
    }

    /// Removes a key. Returns its priority if present.
    pub fn remove(&mut self, key: K) -> Option<P> {
        let prio = self.prio_of.remove(&key)?;
        self.by_prio.remove(&(prio, key));
        Some(prio)
    }

    /// Removes and returns the highest-priority entry (ties broken by
    /// largest key).
    pub fn pop_max(&mut self) -> Option<(K, P)> {
        let (p, k) = self.by_prio.pop_last()?;
        self.prio_of.remove(&k);
        Some((k, p))
    }

    /// Returns the highest-priority entry without removing it.
    pub fn peek_max(&self) -> Option<(K, P)> {
        self.by_prio.last().map(|&(p, k)| (k, p))
    }

    /// Iterates entries in descending priority order.
    pub fn iter_desc(&self) -> impl Iterator<Item = (K, P)> + '_ {
        self.by_prio.iter().rev().map(|&(p, k)| (k, p))
    }

    /// Removes all entries.
    pub fn clear(&mut self) {
        self.by_prio.clear();
        self.prio_of.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn upsert_and_pop_order() {
        let mut q = PrioQueue::new();
        assert!(q.is_empty());
        q.upsert("a", 1);
        q.upsert("b", 5);
        q.upsert("c", 3);
        assert_eq!(q.len(), 3);
        assert_eq!(q.peek_max(), Some(("b", 5)));
        assert_eq!(q.pop_max(), Some(("b", 5)));
        assert_eq!(q.pop_max(), Some(("c", 3)));
        assert_eq!(q.pop_max(), Some(("a", 1)));
        assert_eq!(q.pop_max(), None);
    }

    #[test]
    fn update_moves_key() {
        let mut q = PrioQueue::new();
        q.upsert(1u64, 10u64);
        assert_eq!(q.upsert(1, 99), Some(10));
        assert_eq!(q.len(), 1);
        assert_eq!(q.priority_of(1), Some(99));
        assert_eq!(q.pop_max(), Some((1, 99)));
    }

    #[test]
    fn remove() {
        let mut q = PrioQueue::new();
        q.upsert(1u32, 1u32);
        q.upsert(2, 2);
        assert_eq!(q.remove(1), Some(1));
        assert_eq!(q.remove(1), None);
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn iter_desc_order() {
        let mut q = PrioQueue::new();
        for (k, p) in [(1u8, 4u8), (2, 2), (3, 9)] {
            q.upsert(k, p);
        }
        let order: Vec<(u8, u8)> = q.iter_desc().collect();
        assert_eq!(order, vec![(3, 9), (1, 4), (2, 2)]);
    }

    /// Equal priorities must break ties by largest key — the documented
    /// contract that keeps task scheduling independent of insertion
    /// order (determinism policy, DESIGN.md).
    #[test]
    fn ties_break_by_largest_key() {
        let mut q = PrioQueue::new();
        for k in [3u64, 1, 4, 2] {
            q.upsert(k, 7u64);
        }
        assert_eq!(q.peek_max(), Some((4, 7)));
        assert_eq!(q.pop_max(), Some((4, 7)));
        assert_eq!(q.pop_max(), Some((3, 7)));
        assert_eq!(q.pop_max(), Some((2, 7)));
        assert_eq!(q.pop_max(), Some((1, 7)));
        assert_eq!(q.pop_max(), None);
    }

    /// Tie-break order is a function of the contents, not the history:
    /// any insertion order (including re-upserts) yields the same pops.
    #[test]
    fn tie_break_is_insertion_order_independent() {
        let keys = [10u64, 20, 30];
        let orders: [&[u64]; 3] = [&[10, 20, 30], &[30, 20, 10], &[20, 10, 30, 10]];
        let mut popped: Vec<Vec<(u64, u64)>> = Vec::new();
        for order in orders {
            let mut q = PrioQueue::new();
            for &k in order {
                q.upsert(k, 5u64);
            }
            assert_eq!(q.len(), keys.len());
            let mut seq = Vec::new();
            while let Some(e) = q.pop_max() {
                seq.push(e);
            }
            popped.push(seq);
        }
        assert_eq!(popped[0], popped[1]);
        assert_eq!(popped[0], popped[2]);
        assert_eq!(popped[0], vec![(30, 5), (20, 5), (10, 5)]);
    }

    /// `iter_desc` observes the same tie-break as `pop_max`.
    #[test]
    fn iter_desc_matches_pop_order_under_ties() {
        let mut q = PrioQueue::new();
        for (k, p) in [(1u64, 2u64), (2, 2), (3, 1), (4, 2)] {
            q.upsert(k, p);
        }
        let via_iter: Vec<(u64, u64)> = q.iter_desc().collect();
        let mut via_pop = Vec::new();
        while let Some(e) = q.pop_max() {
            via_pop.push(e);
        }
        assert_eq!(via_iter, via_pop);
        assert_eq!(via_pop, vec![(4, 2), (2, 2), (1, 2), (3, 1)]);
    }

    #[test]
    fn clear() {
        let mut q = PrioQueue::new();
        q.upsert(1u8, 1u8);
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.pop_max(), None);
    }

    // Randomized reference test driven by the deterministic `SimRng`
    // (the workspace builds offline, with no proptest dep).
    mod properties {
        use super::*;
        use sim_core::SimRng;

        /// Queue behaviour matches a reference map under arbitrary
        /// upsert/remove/pop sequences.
        #[test]
        fn matches_reference() {
            for case in 0..64u64 {
                let mut rng = SimRng::new(0x9410 ^ case);
                let mut q = PrioQueue::new();
                let mut reference = std::collections::BTreeMap::new();
                for _ in 0..rng.gen_range(0, 200) {
                    let op = rng.gen_range(0, 3);
                    let k = rng.gen_range(0, 20);
                    let p = rng.gen_range(0, 100);
                    match op {
                        0 => {
                            q.upsert(k, p);
                            reference.insert(k, p);
                        }
                        1 => {
                            assert_eq!(q.remove(k), reference.remove(&k));
                        }
                        _ => {
                            let expected = reference.iter().map(|(&k, &p)| (p, k)).max();
                            let got = q.pop_max();
                            assert_eq!(got, expected.map(|(p, k)| (k, p)));
                            if let Some((_, k)) = expected {
                                reference.remove(&k);
                            }
                        }
                    }
                    assert_eq!(q.len(), reference.len());
                }
            }
        }
    }
}
