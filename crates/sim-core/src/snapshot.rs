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
//!   hands out a deep [`Clone`] (the fork); the stored pristine state
//!   is never mutated, so every fork starts from byte-identical state.
//! - [`Digest`] / [`StateDigest`]: an incremental 128-bit FNV-1a
//!   digest over simulated state, used by the fork-equivalence oracle
//!   (`experiments`): digest(forked stack) must equal digest(freshly
//!   built stack), proving warm-start cannot change results.
//!
//! Determinism: a fork is a deep clone of deterministic state, so a
//! forked run and a fresh run consume identical RNG streams and
//! produce byte-identical results. The golden CSV fixtures pin this
//! end to end; the state digests pin it at the fork point.
//!
//! Thread-safety: simulated stacks hold non-`Send` handles
//! (`Rc`-based trace/fault handles), so stores are expected to live in
//! `thread_local!` storage — one memo per sweep worker — rather than
//! behind a shared lock.

/// Incremental 128-bit FNV-1a digest: two independent 64-bit streams
/// (distinct offset bases) rendered side by side, matching the
/// `fnv128_hex` fixture digests in `experiments::golden`. Collisions
/// would need to defeat both streams.
#[derive(Debug, Clone)]
pub struct Digest {
    a: u64,
    b: u64,
}

impl Default for Digest {
    fn default() -> Self {
        Digest::new()
    }
}

impl Digest {
    /// A fresh digest at the FNV-1a offset bases.
    pub fn new() -> Digest {
        Digest {
            a: 0xcbf29ce484222325,
            b: 0x6c62272e07bb0142,
        }
    }

    /// Feeds raw bytes.
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.a ^= byte as u64;
            self.a = self.a.wrapping_mul(0x100000001b3);
            self.b ^= byte as u64;
            self.b = self.b.wrapping_mul(0x1000000000001b3);
        }
    }

    /// Feeds a `u64` (little-endian).
    pub fn write_u64(&mut self, v: u64) {
        self.write_bytes(&v.to_le_bytes());
    }

    /// Feeds a `usize` as `u64`.
    pub fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }

    /// Feeds a `u32`.
    pub fn write_u32(&mut self, v: u32) {
        self.write_bytes(&v.to_le_bytes());
    }

    /// Feeds a bool as one byte.
    pub fn write_bool(&mut self, v: bool) {
        self.write_bytes(&[v as u8]);
    }

    /// Feeds an `f64` by bit pattern (never display rounding).
    pub fn write_f64(&mut self, v: f64) {
        self.write_u64(v.to_bits());
    }

    /// Feeds a string (length-prefixed so concatenations cannot
    /// collide).
    pub fn write_str(&mut self, s: &str) {
        self.write_usize(s.len());
        self.write_bytes(s.as_bytes());
    }

    /// The 32-hex-character rendering of the current state.
    pub fn hex(&self) -> String {
        format!("{:016x}{:016x}", self.a, self.b)
    }
}

/// Simulated state that can feed a [`Digest`] — implemented by each
/// layer of the forked stack (disk, cache, btrfs, framework, workload) so the
/// fork-equivalence oracle can compare a forked stack against a
/// freshly built one field by field.
pub trait StateDigest {
    /// Feeds every deterministic observable of `self` into `d`.
    /// Implementations must cover all state that can influence future
    /// simulation (clocks, queues, indexes, RNG streams) and must not
    /// read anything nondeterministic.
    fn digest_state(&self, d: &mut Digest);

    /// Convenience: the hex digest of `self` alone.
    fn state_digest_hex(&self) -> String {
        let mut d = Digest::new();
        self.digest_state(&mut d);
        d.hex()
    }
}

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
    /// returned value is always a fresh deep clone — mutating it
    /// cannot affect later forks of the same key.
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
    fn digest_is_deterministic_and_order_sensitive() {
        let mut a = Digest::new();
        a.write_u64(1);
        a.write_u64(2);
        let mut b = Digest::new();
        b.write_u64(1);
        b.write_u64(2);
        assert_eq!(a.hex(), b.hex());
        let mut c = Digest::new();
        c.write_u64(2);
        c.write_u64(1);
        assert_ne!(a.hex(), c.hex(), "order must matter");
        assert_eq!(a.hex().len(), 32);
    }

    #[test]
    fn digest_length_prefix_prevents_concat_collisions() {
        let mut a = Digest::new();
        a.write_str("ab");
        a.write_str("c");
        let mut b = Digest::new();
        b.write_str("a");
        b.write_str("bc");
        assert_ne!(a.hex(), b.hex());
    }

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
            let _: Result<u32, ()> = store.fork_or_build(k, || Ok(k * 10));
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
