//! Free-space management for the COW filesystem.
//!
//! A first-fit extent allocator over a map of free ranges. Copy-on-write
//! filesystems fragment because every overwrite allocates fresh space;
//! the allocator reproduces that: when no contiguous run of the
//! requested length exists, [`FreeSpace::alloc`] returns a shorter
//! extent and the caller loops, producing a multi-extent (fragmented)
//! file — exactly the condition the defragmentation task exists to fix
//! (§5.3).
//!
//! First fit is a descent of O(log regions) and a scan of one region,
//! not a walk from block 0: beside the map, a max tree over fixed
//! regions of 4096 blocks (the block table's chunk size) holds the
//! longest range starting in each region. An allocation descends to
//! the first region with a range long enough and scans only that
//! region. The choice is the one a front-to-back scan makes — the
//! lowest-addressed range with `len ≥ want`, otherwise the longest
//! range, the lowest address winning ties — and the tests replay that
//! scan against the tree.

use crate::blocktable::CHUNK_BLOCKS;
use sim_core::{BlockNr, SimError, SimResult};
use sim_disk::Run;
use std::collections::BTreeMap;

/// Blocks per region of the max tree: the block table's chunk size.
const REGION_BLOCKS: u64 = CHUNK_BLOCKS;

/// First-fit extent allocator.
///
/// The free map is ordered by physical start address: the scan inside
/// a region goes front to back, and `free_range` coalesces with the
/// neighbouring ranges found by predecessor/successor queries —
/// ordered state, so a [`BTreeMap`]. Beside it, `longest` is an
/// implicit max segment tree in a `Vec` (DESIGN.md §12.1): leaf `r`
/// is the longest free range whose start lies in region `r`, so "the
/// first region with a range of `need` blocks" and "the longest range"
/// are both a walk from the root.
#[derive(Debug, Clone, PartialEq)]
pub struct FreeSpace {
    /// Free ranges: start -> len, non-adjacent (always coalesced).
    free: BTreeMap<u64, u64>,
    /// The region-max tree: node 1 is the root, node `i` the larger of
    /// nodes `2i` and `2i + 1`, and the second half the leaves, one per
    /// region padded to a power of two. Node 0 is unused.
    longest: Vec<u64>,
    free_blocks: u64,
    capacity: u64,
}

impl FreeSpace {
    /// Creates an allocator with blocks `0..capacity` free.
    pub fn new(capacity: u64) -> Self {
        let regions = capacity.div_ceil(REGION_BLOCKS).max(1);
        let leaves = regions.next_power_of_two() as usize;
        let mut fs = FreeSpace {
            free: BTreeMap::new(),
            longest: vec![0; 2 * leaves],
            free_blocks: capacity,
            capacity,
        };
        if capacity > 0 {
            fs.insert(0, capacity);
        }
        fs
    }

    /// Total device capacity in blocks.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Free blocks remaining.
    pub fn free_blocks(&self) -> u64 {
        self.free_blocks
    }

    /// Allocated blocks.
    pub fn allocated_blocks(&self) -> u64 {
        self.capacity - self.free_blocks
    }

    /// Allocates up to `want` contiguous blocks, first-fit. Returns a
    /// run of length `min(want, largest available at the chosen spot)`.
    ///
    /// Returns [`SimError::NoSpace`] when the device is full.
    pub fn alloc(&mut self, want: u64) -> SimResult<Run> {
        assert!(want > 0, "zero-length allocation");
        // First fit: the lowest-addressed range long enough; otherwise
        // (need = the root) the lowest-addressed longest range.
        let (start, len) = self.first_fit(want.min(self.longest[1]))?;
        let take = want.min(len);
        self.remove(start, len);
        if take < len {
            self.insert(start + take, len - take);
        }
        self.free_blocks -= take;
        Ok(Run {
            start: BlockNr(start),
            len: take,
        })
    }

    /// The lowest-addressed free range of at least `need` blocks: the
    /// descent picks the first region whose longest range is long
    /// enough, the region's own ranges are then scanned in order.
    fn first_fit(&self, need: u64) -> SimResult<(u64, u64)> {
        if need == 0 {
            return Err(SimError::NoSpace);
        }
        let leaves = self.longest.len() / 2;
        let mut node = 1;
        while node < leaves {
            node = 2 * node + usize::from(self.longest[2 * node] < need);
        }
        let base = (node - leaves) as u64 * REGION_BLOCKS;
        self.free
            .range(base..base + REGION_BLOCKS)
            .map(|(&start, &len)| (start, len))
            .find(|&(_, len)| len >= need)
            .ok_or_else(|| {
                SimError::InvalidArgument(format!(
                    "free-space tree: no range of {need} blocks in the region at {base}"
                ))
            })
    }

    /// The leaf of the region holding block `start`.
    fn leaf(&self, start: u64) -> usize {
        self.longest.len() / 2 + (start / REGION_BLOCKS) as usize
    }

    /// Adds a free range; its region's max can only rise.
    fn insert(&mut self, start: u64, len: u64) {
        self.free.insert(start, len);
        let leaf = self.leaf(start);
        if len > self.longest[leaf] {
            self.set(leaf, len);
        }
    }

    /// Drops the free range at `start`; if it was its region's longest,
    /// the region is rescanned.
    fn remove(&mut self, start: u64, len: u64) {
        self.free.remove(&start);
        let leaf = self.leaf(start);
        if len == self.longest[leaf] {
            let base = start - start % REGION_BLOCKS;
            let region = self.free.range(base..base + REGION_BLOCKS);
            let max = region.map(|(_, &len)| len).max().unwrap_or(0);
            self.set(leaf, max);
        }
    }

    /// Sets a leaf and recomputes its ancestors, stopping at the first
    /// one that does not change.
    fn set(&mut self, mut node: usize, value: u64) {
        self.longest[node] = value;
        while node > 1 {
            node /= 2;
            let max = self.longest[2 * node].max(self.longest[2 * node + 1]);
            if self.longest[node] == max {
                break;
            }
            self.longest[node] = max;
        }
    }

    /// Allocates exactly `want` blocks as a list of runs (possibly
    /// several when fragmented). Fails with [`SimError::NoSpace`] if the
    /// device cannot hold them, leaving already-carved runs re-freed.
    pub fn alloc_exact(&mut self, want: u64) -> SimResult<Vec<Run>> {
        assert!(want > 0, "zero-length allocation");
        if want > self.free_blocks {
            return Err(SimError::NoSpace);
        }
        let mut runs = Vec::new();
        let mut remaining = want;
        while remaining > 0 {
            match self.alloc(remaining) {
                Ok(run) => {
                    remaining -= run.len;
                    runs.push(run);
                }
                Err(e) => {
                    for r in runs {
                        self.free_range(r.start, r.len);
                    }
                    return Err(e);
                }
            }
        }
        Ok(runs)
    }

    /// Allocates a contiguous run of exactly `want` blocks, or fails
    /// when the longest free range is shorter.
    pub fn alloc_contiguous(&mut self, want: u64) -> SimResult<Run> {
        if want > self.longest[1] {
            return Err(SimError::NoSpace);
        }
        self.alloc(want)
    }

    /// Returns a range to the free pool, coalescing with neighbours.
    ///
    /// # Panics
    ///
    /// Panics on double-free or out-of-range frees — those are
    /// filesystem accounting bugs.
    pub fn free_range(&mut self, start: BlockNr, len: u64) {
        assert!(len > 0, "zero-length free");
        let s = start.raw();
        assert!(s + len <= self.capacity, "free past end of device");
        let mut new_start = s;
        let mut new_len = len;
        // One predecessor and one successor lookup serve both the
        // overlap check and the coalescing; a predecessor starting *at*
        // `s` is the double free. A predecessor that merges keeps its
        // start and only grows, so the insert below overwrites it.
        if let Some((&ps, &plen)) = self.free.range(..=s).next_back() {
            assert!(ps + plen <= s, "double free at {start}");
            if ps + plen == s {
                new_start = ps;
                new_len += plen;
            }
        }
        if let Some((&ns, &nlen)) = self.free.range(s..).next() {
            assert!(s + len <= ns, "double free at {start}");
            if s + len == ns {
                self.remove(ns, nlen);
                new_len += nlen;
            }
        }
        self.insert(new_start, new_len);
        self.free_blocks += len;
    }

    /// Iterates over allocated ranges in ascending physical order — the
    /// scrubber's "extent key" processing order (Table 3).
    pub fn allocated_ranges(&self) -> Vec<Run> {
        let mut out = Vec::new();
        let mut cursor = 0u64;
        for (&fs, &flen) in self.free.iter() {
            if fs > cursor {
                out.push(Run {
                    start: BlockNr(cursor),
                    len: fs - cursor,
                });
            }
            cursor = fs + flen;
        }
        if cursor < self.capacity {
            out.push(Run {
                start: BlockNr(cursor),
                len: self.capacity - cursor,
            });
        }
        out
    }

    /// Checks the allocator's own invariants, for fsck: free ranges are
    /// non-empty, on the device and non-adjacent, `free_blocks` is their
    /// sum, and every node of the region-max tree equals its value
    /// recomputed from the ranges.
    pub fn check_invariants(&self) -> Result<(), String> {
        let mut end = None;
        let mut sum = 0;
        let mut want = vec![0; self.longest.len()];
        for (&start, &len) in &self.free {
            if len == 0 || start + len > self.capacity {
                return Err(format!(
                    "free range {start}+{len} is empty or off the device"
                ));
            }
            if end.is_some_and(|end| start <= end) {
                return Err(format!("free range at {start} touches the one before it"));
            }
            end = Some(start + len);
            sum += len;
            let leaf = self.leaf(start);
            want[leaf] = want[leaf].max(len);
        }
        if sum != self.free_blocks {
            let counted = self.free_blocks;
            return Err(format!(
                "free ranges hold {sum} blocks, the counter {counted}"
            ));
        }
        for node in (1..want.len() / 2).rev() {
            want[node] = want[2 * node].max(want[2 * node + 1]);
        }
        match (1..want.len()).find(|&node| want[node] != self.longest[node]) {
            Some(node) => Err(format!(
                "region-max tree node {node} holds {}, its ranges give {}",
                self.longest[node], want[node]
            )),
            None => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_and_free_roundtrip() {
        let mut fs = FreeSpace::new(100);
        let r = fs.alloc(10).unwrap();
        assert_eq!(
            r,
            Run {
                start: BlockNr(0),
                len: 10
            }
        );
        assert_eq!(fs.free_blocks(), 90);
        fs.free_range(r.start, r.len);
        assert_eq!(fs.free_blocks(), 100);
        assert!(
            fs.alloc_contiguous(100).is_ok(),
            "coalesced back to one run"
        );
    }

    #[test]
    fn alloc_exact_spans_fragments() {
        let mut fs = FreeSpace::new(30);
        let a = fs.alloc(10).unwrap();
        let _b = fs.alloc(10).unwrap();
        let _c = fs.alloc(10).unwrap();
        fs.free_range(a.start, a.len); // free [0,10)
                                       // Free space: [0,10). Allocating 15 must fail...
        assert_eq!(fs.alloc_exact(15), Err(SimError::NoSpace));
        // ...and leave the free pool intact.
        assert_eq!(fs.free_blocks(), 10);
        // Allocating 10 succeeds in one run.
        let runs = fs.alloc_exact(10).unwrap();
        assert_eq!(runs.len(), 1);
    }

    #[test]
    fn alloc_exact_returns_multiple_runs_when_fragmented() {
        let mut fs = FreeSpace::new(30);
        let a = fs.alloc(10).unwrap(); // [0,10)
        let _hold = fs.alloc(10).unwrap(); // [10,20)
        let c = fs.alloc(10).unwrap(); // [20,30)
        fs.free_range(a.start, a.len);
        fs.free_range(c.start, c.len);
        // Free: [0,10) and [20,30): 12 blocks must span both.
        let runs = fs.alloc_exact(12).unwrap();
        assert_eq!(runs.len(), 2);
        let total: u64 = runs.iter().map(|r| r.len).sum();
        assert_eq!(total, 12);
    }

    #[test]
    fn alloc_contiguous_requires_one_run() {
        let mut fs = FreeSpace::new(30);
        let a = fs.alloc(10).unwrap();
        let _hold = fs.alloc(10).unwrap();
        let c = fs.alloc(10).unwrap();
        fs.free_range(a.start, a.len);
        fs.free_range(c.start, c.len);
        assert_eq!(fs.alloc_contiguous(12), Err(SimError::NoSpace));
        let r = fs.alloc_contiguous(10).unwrap();
        assert_eq!(r.len, 10);
    }

    #[test]
    fn allocated_ranges_reflect_holes() {
        let mut fs = FreeSpace::new(30);
        let _a = fs.alloc(10).unwrap(); // [0,10)
        let b = fs.alloc(10).unwrap(); // [10,20)
        let _c = fs.alloc(10).unwrap(); // [20,30)
        fs.free_range(b.start, b.len);
        let ranges = fs.allocated_ranges();
        assert_eq!(
            ranges,
            vec![
                Run {
                    start: BlockNr(0),
                    len: 10
                },
                Run {
                    start: BlockNr(20),
                    len: 10
                },
            ]
        );
    }

    #[test]
    #[should_panic(expected = "double free")]
    fn double_free_panics() {
        let mut fs = FreeSpace::new(10);
        let r = fs.alloc(5).unwrap();
        fs.free_range(r.start, r.len);
        fs.free_range(r.start, r.len);
    }

    #[test]
    fn exhaustion() {
        let mut fs = FreeSpace::new(5);
        let _ = fs.alloc_exact(5).unwrap();
        assert_eq!(fs.alloc(1), Err(SimError::NoSpace));
        assert_eq!(fs.allocated_blocks(), 5);
    }

    // Randomized reference test driven by the deterministic `SimRng`
    // (the workspace builds offline, with no proptest dep).
    mod properties {
        use super::*;
        use sim_core::SimRng;

        /// Alloc/free sequences conserve blocks and never produce
        /// overlapping allocations.
        #[test]
        fn conservation() {
            for case in 0..64u64 {
                let mut rng = SimRng::new(0xA110C ^ case);
                let mut fs = FreeSpace::new(256);
                let mut held: Vec<Run> = Vec::new();
                for _ in 0..rng.gen_range(0, 100) {
                    let op = rng.gen_range(0, 2);
                    let n = rng.gen_range(1, 16);
                    if op == 0 {
                        if let Ok(runs) = fs.alloc_exact(n) {
                            held.extend(runs);
                        }
                    } else if let Some(r) = held.pop() {
                        fs.free_range(r.start, r.len);
                    }
                    let held_total: u64 = held.iter().map(|r| r.len).sum();
                    assert_eq!(held_total + fs.free_blocks(), 256);
                    // No two held runs overlap.
                    let mut sorted = held.clone();
                    sorted.sort_by_key(|r| r.start.raw());
                    for w in sorted.windows(2) {
                        assert!(w[0].start.raw() + w[0].len <= w[1].start.raw());
                    }
                    // allocated_ranges is consistent with the counter.
                    let alloc_total: u64 = fs.allocated_ranges().iter().map(|r| r.len).sum();
                    assert_eq!(alloc_total, fs.allocated_blocks());
                }
            }
        }
    }

    /// The allocator against the linear first fit it replaced: a plain
    /// `BTreeMap` of free ranges scanned from block 0 on every call.
    /// The device is three regions and a bit; frees are drawn across
    /// every region boundary and coalesce with the left neighbour, the
    /// right one or both. After every op the returned runs, the whole
    /// free map and the free count must match, and a clone must equal
    /// its original; a `Fork`'s original must still match the scan as
    /// it was at the fork. Driven by `sim_core::check::differential`:
    /// a failure prints the replay seed and a shrunk op log.
    mod differential {
        use super::*;
        use sim_core::check::{differential, DiffConfig};
        use sim_core::knobs::Knob;
        use sim_core::SimRng;

        /// Three full regions and a partial fourth.
        const CAPACITY: u64 = 3 * REGION_BLOCKS + 40;
        /// Longest short window; windows start within this of a
        /// region boundary.
        const REACH: u64 = 24;

        /// Which side of a run a free is pinned to, so that it
        /// coalesces with the free range on that side.
        #[derive(Clone, Copy, Debug)]
        enum Edge {
            Inside,
            Left,
            Right,
            Both,
        }

        #[derive(Clone, Debug)]
        enum Op {
            Alloc(u64),
            AllocExact(u64),
            AllocContiguous(u64),
            /// Allocates every free block, as an aged device fills.
            Fill,
            /// Frees up to `.1` blocks of the allocated run holding
            /// block `.0`: from `.0`, from the run's start or end, or
            /// the whole run if it is no longer (`.2`).
            Free(u64, u64, Edge),
            /// The allocator is forked; the clone carries on.
            Fork,
        }

        fn gen_op(rng: &mut SimRng, i: u64) -> Op {
            let at = if rng.gen_range(0, 2) == 0 {
                rng.gen_range(0, CAPACITY)
            } else {
                let boundary = rng.gen_range(0, 4) * REGION_BLOCKS;
                (boundary + rng.gen_range(0, 2 * REACH)).saturating_sub(REACH)
            };
            let len = match rng.gen_range(0, 8) {
                0 => rng.gen_range(1, REGION_BLOCKS + REACH),
                _ => rng.gen_range(1, REACH + 1),
            };
            let want = match rng.gen_range(0, 16) {
                0 => rng.gen_range(1, 2 * REGION_BLOCKS),
                1 => rng.gen_range(CAPACITY - REACH, CAPACITY + REACH),
                _ => rng.gen_range(1, REACH + 1),
            };
            let edge = [Edge::Inside, Edge::Left, Edge::Right, Edge::Both];
            // Half the logs start on a full device; frees outnumber
            // allocations, so holes pile up between the rare fills.
            if i == 0 && rng.gen_range(0, 2) == 0 {
                return Op::Fill;
            }
            match rng.gen_range(0, 256) {
                0..=31 => Op::Alloc(want),
                32..=39 => Op::AllocExact(want),
                40..=51 => Op::AllocContiguous(want),
                52 => Op::Fill,
                53..=239 => Op::Free(at, len, edge[rng.gen_range(0, 4) as usize]),
                _ => Op::Fork,
            }
        }

        /// The linear first fit: the lowest-addressed range with
        /// `len ≥ want`, else the longest, the lowest address winning
        /// ties; `alloc_contiguous` settles for a shorter run and frees
        /// it back.
        #[derive(Clone, Debug)]
        struct Scan {
            free: BTreeMap<u64, u64>,
            free_blocks: u64,
            /// The sabotage: a tie between longest ranges goes to the
            /// higher address.
            high_ties: bool,
        }

        impl Scan {
            fn new(high_ties: bool) -> Scan {
                Scan {
                    free: BTreeMap::from([(0, CAPACITY)]),
                    free_blocks: CAPACITY,
                    high_ties,
                }
            }

            fn alloc(&mut self, want: u64) -> SimResult<Run> {
                let mut best: Option<(u64, u64)> = None;
                for (&start, &len) in self.free.iter() {
                    if len >= want {
                        best = Some((start, len));
                        break;
                    }
                    match best {
                        Some((_, blen)) if blen > len || (blen == len && !self.high_ties) => {}
                        _ => best = Some((start, len)),
                    }
                }
                let (start, len) = best.ok_or(SimError::NoSpace)?;
                let take = want.min(len);
                self.free.remove(&start);
                if take < len {
                    self.free.insert(start + take, len - take);
                }
                self.free_blocks -= take;
                Ok(Run {
                    start: BlockNr(start),
                    len: take,
                })
            }

            fn alloc_exact(&mut self, want: u64) -> SimResult<Vec<Run>> {
                if want > self.free_blocks {
                    return Err(SimError::NoSpace);
                }
                let mut runs = Vec::new();
                let mut remaining = want;
                while remaining > 0 {
                    let run = self.alloc(remaining)?;
                    remaining -= run.len;
                    runs.push(run);
                }
                Ok(runs)
            }

            fn alloc_contiguous(&mut self, want: u64) -> SimResult<Run> {
                let run = self.alloc(want)?;
                if run.len < want {
                    self.free_range(run.start.raw(), run.len);
                    return Err(SimError::NoSpace);
                }
                Ok(run)
            }

            fn free_range(&mut self, start: u64, len: u64) {
                let mut new_start = start;
                let mut new_len = len;
                if let Some((&ps, &plen)) = self.free.range(..start).next_back() {
                    if ps + plen == start {
                        self.free.remove(&ps);
                        new_start = ps;
                        new_len += plen;
                    }
                }
                if let Some(nlen) = self.free.remove(&(start + len)) {
                    new_len += nlen;
                }
                self.free.insert(new_start, new_len);
                self.free_blocks += len;
            }

            /// The window an `Op::Free` releases: `None` if `at` is free.
            fn window(&self, at: u64, len: u64, edge: Edge) -> Option<(u64, u64)> {
                let before = self.free.range(..=at).next_back();
                let lo = before.map_or(0, |(&s, &l)| s + l);
                if lo > at {
                    return None;
                }
                let hi = self.free.range(at..).next().map_or(CAPACITY, |(&s, _)| s);
                let (from, to) = match edge {
                    Edge::Inside => (at, (at + len).min(hi)),
                    Edge::Left => (lo, (lo + len).min(hi)),
                    Edge::Right => (hi.saturating_sub(len).max(lo), hi),
                    // Only a whole run coalesces on both sides.
                    Edge::Both if hi - lo > len => return None,
                    Edge::Both => (lo, hi),
                };
                Some((from, to - from))
            }
        }

        /// The first difference between the allocator and the scan.
        fn diverged(fs: &FreeSpace, scan: &Scan) -> Option<String> {
            if fs.free != scan.free {
                return Some(format!("free map {:?} vs {:?}", fs.free, scan.free));
            }
            if fs.free_blocks != scan.free_blocks {
                return Some(format!(
                    "free_blocks {} vs {}",
                    fs.free_blocks, scan.free_blocks
                ));
            }
            None
        }

        /// Puts back every region max an op lowered: the sabotage of a
        /// removal that leaves a stale max.
        fn keep_stale_maxima(fs: &mut FreeSpace, before: &[u64]) {
            let leaves = fs.longest.len() / 2;
            for (leaf, &was) in before.iter().enumerate().skip(leaves) {
                if fs.longest[leaf] < was {
                    fs.set(leaf, was);
                }
            }
        }

        #[derive(Clone, Copy, PartialEq)]
        enum Sabotage {
            None,
            HighTies,
            StaleMax,
        }

        fn replay(log: &[Op], sabotage: Sabotage) -> Result<(), String> {
            let mut fs = FreeSpace::new(CAPACITY);
            let mut scan = Scan::new(sabotage == Sabotage::HighTies);
            // With a stale max the tree fails its own check at once; the
            // sabotage case turns the check off, so what must catch it
            // is the choices.
            let check_tree = sabotage != Sabotage::StaleMax;
            // Each fork's original, and the scan as it was at the fork.
            let mut forked: Vec<(FreeSpace, Scan)> = Vec::new();
            for (i, op) in log.iter().enumerate() {
                let fail = |what: String| format!("op {i} {op:?}: {what}");
                let before = fs.longest.clone();
                let (got, want) = match *op {
                    Op::Alloc(n) => (format!("{:?}", fs.alloc(n)), format!("{:?}", scan.alloc(n))),
                    Op::AllocExact(n) => (
                        format!("{:?}", fs.alloc_exact(n)),
                        format!("{:?}", scan.alloc_exact(n)),
                    ),
                    Op::AllocContiguous(n) => (
                        format!("{:?}", fs.alloc_contiguous(n)),
                        format!("{:?}", scan.alloc_contiguous(n)),
                    ),
                    Op::Fill if scan.free_blocks == 0 => continue,
                    Op::Fill => {
                        let n = scan.free_blocks;
                        (
                            format!("{:?}", fs.alloc_exact(n)),
                            format!("{:?}", scan.alloc_exact(n)),
                        )
                    }
                    Op::Free(at, len, edge) => {
                        let Some((start, len)) = scan.window(at, len, edge) else {
                            continue;
                        };
                        fs.free_range(BlockNr(start), len);
                        scan.free_range(start, len);
                        (String::new(), String::new())
                    }
                    Op::Fork => {
                        let clone = fs.clone();
                        forked.push((std::mem::replace(&mut fs, clone), scan.clone()));
                        (String::new(), String::new())
                    }
                };
                if got != want {
                    return Err(fail(format!("returned {got}, the scan {want}")));
                }
                if check_tree {
                    fs.check_invariants().map_err(fail)?;
                } else {
                    keep_stale_maxima(&mut fs, &before);
                }
                if let Some(what) = diverged(&fs, &scan) {
                    return Err(fail(format!("allocator and scan diverged: {what}")));
                }
                if fs.clone() != fs {
                    return Err(fail("a clone differs from its original".to_string()));
                }
            }
            for (k, (original, then)) in forked.iter().enumerate() {
                if let Some(what) = diverged(original, then) {
                    return Err(format!("fork {k}'s original diverged: {what}"));
                }
                if check_tree {
                    original
                        .check_invariants()
                        .map_err(|e| format!("fork {k}: {e}"))?;
                }
            }
            Ok(())
        }

        #[test]
        fn free_space_matches_the_linear_scan() {
            let seed = Knob::CheckSeed
                .read()
                .unwrap_or_else(|e| panic!("{e}"))
                .unwrap_or(0xF125_7F17);
            let cfg = DiffConfig::new("free_space_differential", seed);
            differential(&cfg, gen_op, |log| replay(log, Sabotage::None)).unwrap();
        }

        /// The harness can fail: a scan that breaks ties between the
        /// longest ranges towards the higher address is caught, and the
        /// log shrinks to the few ops that leave two equal ranges.
        #[test]
        fn a_scan_whose_ties_go_high_is_caught() {
            let cfg = DiffConfig::new("free_space_vs_high_ties", 0x71E5)
                .cases(8)
                .ops(400);
            let sabotaged = |log: &[Op]| replay(log, Sabotage::HighTies);
            let failure = differential(&cfg, gen_op, sabotaged).unwrap_err();
            assert!(failure.ops.len() <= 6, "{failure}");
            assert!(failure.message.contains("returned"), "{failure}");
        }

        /// A removal that leaves its region's max behind sends a later
        /// descent into a region without a long-enough range; the
        /// returned runs diverge from the scan, with the invariant
        /// check off, and the log shrinks to a handful of ops.
        #[test]
        fn a_removal_that_leaves_a_stale_region_max_is_caught() {
            let cfg = DiffConfig::new("free_space_with_stale_max", 0x57A1E)
                .cases(8)
                .ops(400);
            let sabotaged = |log: &[Op]| replay(log, Sabotage::StaleMax);
            let failure = differential(&cfg, gen_op, sabotaged).unwrap_err();
            assert!(failure.ops.len() <= 4, "{failure}");
            assert!(failure.message.contains("returned"), "{failure}");
        }
    }

    #[test]
    fn check_invariants_catches_a_stale_region_max() {
        let mut fs = FreeSpace::new(3 * REGION_BLOCKS);
        fs.alloc(10).unwrap();
        fs.check_invariants().unwrap();
        let leaf = fs.leaf(10);
        fs.set(leaf, 3 * REGION_BLOCKS);
        let err = fs.check_invariants().unwrap_err();
        assert!(err.contains("region-max tree"), "{err}");
    }
}
