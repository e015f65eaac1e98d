//! Per-file extent maps: logical page ranges → physical block runs.
//!
//! A file's data layout is a sorted map of extents. Copy-on-write
//! updates replace sub-ranges with newly allocated runs, splitting
//! whatever extents they overlap; the number of extents in the map is
//! the fragmentation measure the defragmentation task works against
//! (§5.3: "Btrfs allows defragmenting a file by merging small extents
//! with logically adjacent ones").

use sim_core::{BlockNr, PageIndex};
use sim_disk::Run;

/// One extent: `len` pages starting at logical page `logical`, stored at
/// physical blocks `physical .. physical+len`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Extent {
    /// First logical page.
    pub logical: u64,
    /// First physical block.
    pub physical: BlockNr,
    /// Length in pages/blocks.
    pub len: u64,
}

impl Extent {
    /// The physical blocks of the extent.
    pub fn run(&self) -> Run {
        Run {
            start: self.physical,
            len: self.len,
        }
    }

    /// Physical block backing logical page `page`, if within the extent.
    fn block_of(&self, page: u64) -> Option<BlockNr> {
        if page >= self.logical && page < self.logical + self.len {
            Some(BlockNr(self.physical.raw() + (page - self.logical)))
        } else {
            None
        }
    }
}

/// Sorted extent map of one file.
///
/// The FIBMAP translation is a floor query and COW splits touch
/// neighbours — ordered state. A file holds a handful of extents (4.5
/// on average at seed 42), so a `Vec` sorted by logical start serves
/// both with a binary search over one allocation (DESIGN.md §12.1).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ExtentMap {
    /// Non-overlapping extents in ascending logical order.
    map: Vec<Extent>,
}

impl ExtentMap {
    /// Creates an empty map.
    pub fn new() -> Self {
        ExtentMap::default()
    }

    /// Number of extents (the fragmentation measure).
    pub fn extent_count(&self) -> usize {
        self.map.len()
    }

    /// Returns `true` if no pages are mapped.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Total mapped pages.
    pub fn mapped_pages(&self) -> u64 {
        self.map.iter().map(|e| e.len).sum()
    }

    /// The last extent starting at or before page `p`.
    #[inline]
    fn floor(&self, p: u64) -> Option<&Extent> {
        let at = self.map.partition_point(|e| e.logical <= p);
        self.map.get(at.checked_sub(1)?)
    }

    /// Physical block of a logical page, if mapped. This is the FIBMAP
    /// translation of §4.2.
    pub fn block_of(&self, page: PageIndex) -> Option<BlockNr> {
        let p = page.raw();
        self.floor(p).and_then(|e| e.block_of(p))
    }

    /// A lookup position for callers that translate many pages of this
    /// file in a row.
    pub fn cursor(&self) -> ExtentCursor<'_> {
        ExtentCursor {
            map: self,
            last: None,
        }
    }

    /// Iterates extents in logical order.
    pub fn iter(&self) -> impl Iterator<Item = &Extent> + '_ {
        self.map.iter()
    }

    /// Removes the logical range `[start, start+len)`, returning the
    /// physical runs that were unmapped (for refcount release), one per
    /// overlapping extent, last extent first. Overlapping extents are
    /// trimmed or split.
    pub fn unmap_range(&mut self, start: u64, len: u64) -> Vec<Run> {
        if len == 0 {
            return Vec::new();
        }
        let end = start + len;
        // The extents overlapping [start, end) are a contiguous slice:
        // those ending after `start` and starting before `end`.
        let lo = self.map.partition_point(|e| e.logical + e.len <= start);
        let hi = self.map.partition_point(|e| e.logical < end);
        if lo >= hi {
            return Vec::new();
        }
        let removed = self.map[lo..hi]
            .iter()
            .rev()
            .map(|e| {
                let cut_from = start.max(e.logical);
                Run {
                    start: e.physical.offset(cut_from - e.logical),
                    len: end.min(e.logical + e.len) - cut_from,
                }
            })
            .collect();
        // Only the first can keep a left remainder, only the last a
        // right one.
        let (first, last) = (self.map[lo], self.map[hi - 1]);
        let left = (first.logical < start).then(|| Extent {
            logical: first.logical,
            physical: first.physical,
            len: start - first.logical,
        });
        let right = (last.logical + last.len > end).then(|| Extent {
            logical: end,
            physical: last.physical.offset(end - last.logical),
            len: last.logical + last.len - end,
        });
        self.map.splice(lo..hi, left.into_iter().chain(right));
        removed
    }

    /// Maps the logical range starting at `start` onto the given
    /// physical runs (their total length determines the range length).
    /// Returns the physical runs displaced from that range.
    pub fn map_range(&mut self, start: u64, runs: &[Run]) -> Vec<Run> {
        let total: u64 = runs.iter().map(|r| r.len).sum();
        let displaced = self.unmap_range(start, total);
        let mut logical = start;
        for run in runs {
            self.insert_extent(Extent {
                logical,
                physical: run.start,
                len: run.len,
            });
            logical += run.len;
        }
        displaced
    }

    /// Inserts an extent into a hole, merging with physically and
    /// logically adjacent neighbours when possible.
    fn insert_extent(&mut self, e: Extent) {
        debug_assert!(e.len > 0);
        let adjacent = |a: &Extent, b: &Extent| {
            a.logical + a.len == b.logical && a.physical.raw() + a.len == b.physical.raw()
        };
        let at = self.map.partition_point(|x| x.logical < e.logical);
        let next_merges = self.map.get(at).is_some_and(|next| adjacent(&e, next));
        match at.checked_sub(1) {
            Some(p) if adjacent(&self.map[p], &e) => {
                self.map[p].len += e.len;
                if next_merges {
                    self.map[p].len += self.map.remove(at).len;
                }
            }
            _ if next_merges => {
                let next = &mut self.map[at];
                next.logical = e.logical;
                next.physical = e.physical;
                next.len += e.len;
            }
            _ => self.map.insert(at, e),
        }
    }

    /// Removes all extents, returning every mapped physical run.
    pub fn clear(&mut self) -> Vec<Run> {
        std::mem::take(&mut self.map)
            .iter()
            .map(Extent::run)
            .collect()
    }
}

/// [`ExtentMap::block_of`] that remembers the extent it last landed
/// in: a run of pages along a file pays the floor query once per
/// extent, not once per page. Any page order is correct; ascending is
/// the cheap one.
#[derive(Debug)]
pub struct ExtentCursor<'a> {
    map: &'a ExtentMap,
    last: Option<Extent>,
}

impl ExtentCursor<'_> {
    /// Physical block of a logical page, if mapped.
    #[inline]
    pub fn block_of(&mut self, page: PageIndex) -> Option<BlockNr> {
        let p = page.raw();
        if let Some(b) = self.last.and_then(|e| e.block_of(p)) {
            return Some(b);
        }
        self.last = self.map.floor(p).copied();
        self.last.and_then(|e| e.block_of(p))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_core::check::{differential, DiffConfig};
    use sim_core::knobs::Knob;
    use sim_core::SimRng;
    use std::collections::BTreeMap;

    fn run(start: u64, len: u64) -> Run {
        Run {
            start: BlockNr(start),
            len,
        }
    }

    /// The blocks of `runs`, in order.
    fn blocks(runs: &[Run]) -> Vec<BlockNr> {
        runs.iter().flat_map(|r| r.blocks()).collect()
    }

    #[test]
    fn map_and_lookup() {
        let mut m = ExtentMap::new();
        m.map_range(0, &[run(100, 4)]);
        assert_eq!(m.block_of(PageIndex(0)), Some(BlockNr(100)));
        assert_eq!(m.block_of(PageIndex(3)), Some(BlockNr(103)));
        assert_eq!(m.block_of(PageIndex(4)), None);
        assert_eq!(m.extent_count(), 1);
        assert_eq!(m.mapped_pages(), 4);
    }

    #[test]
    fn cursor_agrees_with_block_of_in_any_order() {
        let mut m = ExtentMap::new();
        m.map_range(0, &[run(100, 4)]);
        m.map_range(6, &[run(200, 2), run(300, 3)]); // 4..6 is a hole
        let mut c = m.cursor();
        for p in (0..13).chain([7, 0, 12, 5, 3]) {
            assert_eq!(c.block_of(PageIndex(p)), m.block_of(PageIndex(p)), "{p}");
        }
    }

    #[test]
    fn cow_overwrite_splits_extent() {
        let mut m = ExtentMap::new();
        m.map_range(0, &[run(100, 8)]);
        // Overwrite pages 2..4 with a new run.
        let displaced = m.map_range(2, &[run(200, 2)]);
        assert_eq!(displaced, vec![run(102, 2)]);
        assert_eq!(m.extent_count(), 3, "split into left, new, right");
        assert_eq!(m.block_of(PageIndex(1)), Some(BlockNr(101)));
        assert_eq!(m.block_of(PageIndex(2)), Some(BlockNr(200)));
        assert_eq!(m.block_of(PageIndex(3)), Some(BlockNr(201)));
        assert_eq!(m.block_of(PageIndex(4)), Some(BlockNr(104)));
        assert_eq!(m.mapped_pages(), 8);
    }

    #[test]
    fn overwrite_spanning_multiple_extents() {
        let mut m = ExtentMap::new();
        m.map_range(0, &[run(100, 4)]);
        m.map_range(4, &[run(200, 4)]);
        assert_eq!(m.extent_count(), 2);
        let displaced = m.map_range(2, &[run(300, 4)]);
        // Displaced must be exactly blocks 102,103,200,201 in some order.
        let mut d = blocks(&displaced);
        d.sort_by_key(|b| b.raw());
        assert_eq!(
            d,
            vec![BlockNr(102), BlockNr(103), BlockNr(200), BlockNr(201)]
        );
        assert_eq!(m.block_of(PageIndex(2)), Some(BlockNr(300)));
        assert_eq!(m.block_of(PageIndex(5)), Some(BlockNr(303)));
        assert_eq!(m.block_of(PageIndex(6)), Some(BlockNr(202)));
    }

    #[test]
    fn adjacent_extents_merge() {
        let mut m = ExtentMap::new();
        m.map_range(0, &[run(100, 4)]);
        m.map_range(4, &[run(104, 4)]); // physically contiguous
        assert_eq!(m.extent_count(), 1, "merged");
        assert_eq!(m.mapped_pages(), 8);
        // Non-contiguous physical: no merge.
        m.map_range(8, &[run(300, 2)]);
        assert_eq!(m.extent_count(), 2);
    }

    #[test]
    fn multiple_runs_in_one_write() {
        let mut m = ExtentMap::new();
        m.map_range(0, &[run(10, 2), run(50, 3)]);
        assert_eq!(m.extent_count(), 2);
        assert_eq!(m.block_of(PageIndex(1)), Some(BlockNr(11)));
        assert_eq!(m.block_of(PageIndex(2)), Some(BlockNr(50)));
        assert_eq!(m.block_of(PageIndex(4)), Some(BlockNr(52)));
    }

    #[test]
    fn unmap_range_partial() {
        let mut m = ExtentMap::new();
        m.map_range(0, &[run(100, 10)]);
        let removed = m.unmap_range(3, 4);
        assert_eq!(removed, vec![run(103, 4)]);
        assert_eq!(m.block_of(PageIndex(2)), Some(BlockNr(102)));
        assert_eq!(m.block_of(PageIndex(3)), None);
        assert_eq!(m.block_of(PageIndex(6)), None);
        assert_eq!(m.block_of(PageIndex(7)), Some(BlockNr(107)));
        assert_eq!(m.mapped_pages(), 6);
    }

    #[test]
    fn clear_returns_all_blocks() {
        let mut m = ExtentMap::new();
        m.map_range(0, &[run(10, 2)]);
        m.map_range(5, &[run(20, 3)]);
        assert_eq!(m.clear(), vec![run(10, 2), run(20, 3)]);
        assert!(m.is_empty());
    }

    // ----- differential suite (DESIGN.md §13) --------------------------

    #[derive(Debug, Clone, Copy)]
    enum Op {
        /// Map `len` pages at `start` onto blocks from `phys`.
        Map {
            start: u64,
            len: u64,
            phys: u64,
        },
        Unmap {
            start: u64,
            len: u64,
        },
        Clear,
    }

    /// Pages fall in `0..64`. Half the writes put page `p` at block
    /// `1000 + p`, so neighbouring writes are physically adjacent and
    /// merge; the rest land anywhere.
    fn gen_op(rng: &mut SimRng, _i: u64) -> Op {
        let start = rng.gen_range(0, 64);
        let len = rng.gen_range(1, 16);
        match rng.gen_range(0, 12) {
            0..=3 => Op::Map {
                start,
                len,
                phys: 1000 + start,
            },
            4..=7 => Op::Map {
                start,
                len,
                phys: 5000 + rng.gen_range(0, 64) * 20,
            },
            8..=10 => Op::Unmap { start, len },
            _ => Op::Clear,
        }
    }

    type Model = BTreeMap<u64, u64>;

    /// The model's pages in `[start, end)` as maximal runs, logically
    /// and physically consecutive — what a map that merges every
    /// mergeable neighbour holds as extents.
    fn model_runs(model: &Model, start: u64, end: u64) -> Vec<Extent> {
        let mut runs: Vec<Extent> = Vec::new();
        for (&p, &b) in model.range(start..end) {
            match runs.last_mut() {
                Some(e) if e.logical + e.len == p && e.physical.raw() + e.len == b => e.len += 1,
                _ => runs.push(Extent {
                    logical: p,
                    physical: BlockNr(b),
                    len: 1,
                }),
            }
        }
        runs
    }

    /// What unmapping `[start, end)` must return: the model's runs
    /// there, last first.
    fn model_unmap(model: &mut Model, start: u64, end: u64) -> Vec<Run> {
        let runs = model_runs(model, start, end);
        model.retain(|&p, _| !(start..end).contains(&p));
        runs.iter().rev().map(Extent::run).collect()
    }

    /// Replays a log against an `ExtentMap` and a page → block model:
    /// the runs each op returns, then every page's translation (plain
    /// and through one cursor), the extents and the page count.
    /// `forward_unmap` is the sabotage: `unmap_range`'s runs are taken
    /// in ascending order.
    fn replay(log: &[Op], forward_unmap: bool) -> Result<(), String> {
        let mut m = ExtentMap::new();
        let mut model = Model::new();
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
                Op::Map { start, len, phys } => {
                    let got = m.map_range(start, &[run(phys, len)]);
                    let want = model_unmap(&mut model, start, start + len);
                    model.extend((0..len).map(|k| (start + k, phys + k)));
                    agree("displaced", format!("{got:?}"), format!("{want:?}"))?;
                }
                Op::Unmap { start, len } => {
                    let mut got = m.unmap_range(start, len);
                    if forward_unmap {
                        got.reverse();
                    }
                    let want = model_unmap(&mut model, start, start + len);
                    agree("unmapped", format!("{got:?}"), format!("{want:?}"))?;
                }
                Op::Clear => {
                    let got = m.clear();
                    let mut want = model_unmap(&mut model, 0, u64::MAX);
                    want.reverse();
                    agree("cleared", format!("{got:?}"), format!("{want:?}"))?;
                }
            }
            let mut cursor = m.cursor();
            for p in 0..82 {
                let want = model.get(&p).map(|&b| BlockNr(b));
                agree(
                    &format!("block_of page {p}"),
                    format!(
                        "{:?} {:?}",
                        m.block_of(PageIndex(p)),
                        cursor.block_of(PageIndex(p))
                    ),
                    format!("{want:?} {want:?}"),
                )?;
            }
            let extents: Vec<Extent> = m.iter().copied().collect();
            agree(
                "extents",
                format!("{extents:?}"),
                format!("{:?}", model_runs(&model, 0, u64::MAX)),
            )?;
            agree(
                "mapped_pages",
                m.mapped_pages().to_string(),
                model.len().to_string(),
            )?;
        }
        Ok(())
    }

    fn diff_config(name: &'static str) -> DiffConfig {
        let seed = Knob::CheckSeed
            .read()
            .unwrap_or_else(|e| panic!("{e}"))
            .unwrap_or(0xE77E_7AB1);
        DiffConfig::new(name, seed)
    }

    /// Every mergeable pair is merged, so the extents are exactly the
    /// model's maximal runs.
    #[test]
    fn extent_map_matches_the_page_model() {
        let cfg = diff_config("extentmap-vs-pages").cases(32).ops(400);
        differential(&cfg, gen_op, |log| replay(log, false)).unwrap();
    }

    /// The can-fail proof: runs unmapped in the wrong order are caught
    /// by a log of two separate extents and an unmap across both.
    #[test]
    fn differential_suite_detects_unmapped_runs_out_of_order() {
        let cfg = diff_config("extentmap-sabotage").cases(4).ops(200);
        let failure = differential(&cfg, gen_op, |log| replay(log, true)).unwrap_err();
        assert_eq!(failure.ops.len(), 3, "map + map + unmap: {failure}");
        assert!(failure.message.contains("unmapped diverged"), "{failure}");
    }
}
