//! Deterministic snapshot/fork plane for sweep warm-starts.
//!
//! Sweeps like `table5_max_util` run dozens of cells that share an
//! identical setup prefix — population, layout aging, event drain —
//! and differ only in the measured window's knobs (target utilization,
//! task list, Duet mode). Rebuilding that prefix per cell dominated
//! the sweep's wall time. This module provides the substrate for
//! capturing the prefix **once** and forking it per cell:
//!
//! - [`SnapshotStore`]: a small bounded memo of pristine states. A hit
//!   hands out a [`Clone`] (the fork), independent of the pristine by
//!   copy-on-write below `sim_btrfs::BlockTable` and by copy everywhere
//!   else; the stored pristine state is never mutated, so every fork
//!   starts from byte-identical state.
//!
//! "Same simulated state" has one definition, `==`: every type under
//! the forked stack derives [`PartialEq`], so the fork-equivalence
//! tests (`experiments::snapshot`) compare a forked stack against a
//! freshly built one field by field, and a field added later is
//! compared without anyone remembering to. The few hand-written impls
//! (the trace and fault handles, `Disk`)
//! exist where representation is not state, and destructure their type
//! exhaustively so a new field does not compile until it is named.
//!
//! Determinism: a fork is an independent clone of deterministic state, so a
//! forked run and a fresh run consume identical RNG streams and
//! produce byte-identical results. The golden CSV fixtures pin this
//! end to end; `fork == fresh` pins it at the fork point.
//!
//! Thread-safety: simulated stacks hold non-`Send` handles
//! (`Rc`-based trace/fault handles), so stores are expected to live in
//! `thread_local!` storage — one memo per sweep worker — rather than
//! behind a shared lock.

/// A bounded memo of pristine snapshots, FIFO-evicted. `fork` clones
/// the stored state; the pristine copy is never handed out mutably.
///
/// Capacity is small by design: a sweep touches a handful of distinct
/// setup prefixes (one per row, two where fragmentation differs) in
/// row-major order, so a few slots give near-perfect reuse while
/// bounding resident filesystem images.
#[derive(Debug)]
pub struct SnapshotStore<K, T> {
    /// Insertion-ordered (oldest first) pristine snapshots.
    entries: Vec<(K, T)>,
    cap: usize,
    hits: u64,
    misses: u64,
}

impl<K: PartialEq, T: Clone> SnapshotStore<K, T> {
    /// A store holding at most `cap` pristine snapshots (min 1).
    pub fn with_capacity(cap: usize) -> Self {
        SnapshotStore {
            entries: Vec::new(),
            cap: cap.max(1),
            hits: 0,
            misses: 0,
        }
    }

    /// Returns a fork of the snapshot for `key`, building (and
    /// memoizing) the pristine state with `build` on a miss. The
    /// returned value is always a fresh, independent clone — mutating
    /// it cannot affect later forks of the same key.
    pub fn fork_or_build<E>(
        &mut self,
        key: K,
        build: impl FnOnce() -> Result<T, E>,
    ) -> Result<T, E> {
        if let Some(i) = self.entries.iter().position(|(k, _)| *k == key) {
            self.hits += 1;
            return Ok(self.entries[i].1.clone());
        }
        let pristine = build()?;
        self.misses += 1;
        if self.entries.len() >= self.cap {
            self.entries.remove(0);
        }
        let fork = pristine.clone();
        self.entries.push((key, pristine));
        Ok(fork)
    }

    /// Snapshots currently resident.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no snapshot is resident.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Forks served from a resident snapshot.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Builds performed (including those later evicted).
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Drops every resident snapshot (counters are kept).
    pub fn clear(&mut self) {
        self.entries.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn store_forks_are_independent_of_the_pristine_state() {
        let mut store: SnapshotStore<u32, Vec<u64>> = SnapshotStore::with_capacity(2);
        let built: Result<Vec<u64>, ()> = store.fork_or_build(7, || Ok(vec![1, 2, 3]));
        let mut fork = built.unwrap();
        fork.push(99); // Mutating a fork...
        let again: Vec<u64> = store.fork_or_build(7, || Err(())).unwrap();
        assert_eq!(again, vec![1, 2, 3], "...must not taint later forks");
        assert_eq!(store.hits(), 1);
        assert_eq!(store.misses(), 1);
    }

    #[test]
    fn store_evicts_fifo_at_capacity() {
        let mut store: SnapshotStore<u32, u32> = SnapshotStore::with_capacity(2);
        for k in 0..3u32 {
            assert_eq!(store.fork_or_build(k, || Ok::<_, ()>(k * 10)), Ok(k * 10));
        }
        assert_eq!(store.len(), 2);
        // Key 0 was evicted: rebuilding it is a miss.
        let rebuilt: u32 = store.fork_or_build(0, || Ok::<_, ()>(42)).unwrap();
        assert_eq!(rebuilt, 42);
        assert_eq!(store.misses(), 4);
        assert_eq!(store.hits(), 0);
    }

    #[test]
    fn build_errors_propagate_and_memoize_nothing() {
        let mut store: SnapshotStore<u32, u32> = SnapshotStore::with_capacity(2);
        let err: Result<u32, &str> = store.fork_or_build(1, || Err("boom"));
        assert_eq!(err, Err("boom"));
        assert!(store.is_empty());
        assert_eq!(store.misses(), 0, "failed builds are not counted");
    }
}
