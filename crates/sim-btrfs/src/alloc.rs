//! Free-space management for the COW filesystem.
//!
//! A first-fit extent allocator over a map of free ranges. Copy-on-write
//! filesystems fragment because every overwrite allocates fresh space;
//! the allocator reproduces that: when no contiguous run of the
//! requested length exists, [`FreeSpace::alloc`] returns a shorter
//! extent and the caller loops, producing a multi-extent (fragmented)
//! file — exactly the condition the defragmentation task exists to fix
//! (§5.3).

use sim_core::{BlockNr, SimError, SimResult};
use sim_disk::Run;
use std::collections::BTreeMap;

/// First-fit extent allocator.
///
/// The free map is ordered by physical start address: first-fit scans
/// it front to back, and `free_range` coalesces with the neighbouring
/// ranges found by predecessor/successor queries — ordered state, so
/// a [`BTreeMap`] (DESIGN.md §12.1).
#[derive(Debug, Clone, PartialEq)]
pub struct FreeSpace {
    /// Free ranges: start -> len, non-adjacent (always coalesced).
    free: BTreeMap<u64, u64>,
    free_blocks: u64,
    capacity: u64,
}

impl FreeSpace {
    /// Creates an allocator with blocks `0..capacity` free.
    pub fn new(capacity: u64) -> Self {
        let mut free = BTreeMap::new();
        if capacity > 0 {
            free.insert(0, capacity);
        }
        FreeSpace {
            free,
            free_blocks: capacity,
            capacity,
        }
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
        // the longest range available.
        let mut best: Option<(u64, u64)> = None;
        for (&start, &len) in self.free.iter() {
            if len >= want {
                best = Some((start, len));
                break;
            }
            match best {
                Some((_, blen)) if blen >= len => {}
                _ => best = Some((start, len)),
            }
        }
        let Some((start, len)) = best else {
            return Err(SimError::NoSpace);
        };
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

    /// Allocates a contiguous run of exactly `want` blocks, or fails:
    /// first fit either finds such a run or settles for a shorter one,
    /// which goes straight back.
    pub fn alloc_contiguous(&mut self, want: u64) -> SimResult<Run> {
        let run = self.alloc(want)?;
        if run.len < want {
            self.free_range(run.start, run.len);
            return Err(SimError::NoSpace);
        }
        Ok(run)
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
        // `s` is the double free.
        if let Some((&ps, &plen)) = self.free.range(..=s).next_back() {
            assert!(ps + plen <= s, "double free at {start}");
            if ps + plen == s {
                self.free.remove(&ps);
                new_start = ps;
                new_len += plen;
            }
        }
        if let Some((&ns, &nlen)) = self.free.range(s..).next() {
            assert!(s + len <= ns, "double free at {start}");
            if s + len == ns {
                self.free.remove(&ns);
                new_len += nlen;
            }
        }
        self.free.insert(new_start, new_len);
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
}
