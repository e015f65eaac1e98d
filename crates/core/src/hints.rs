//! Residency tracking for file tasks — the reusable half of
//! Algorithm 1.
//!
//! The paper's user/kernel library gives tasks a priority queue over
//! fetched events; every file task then repeats the same bookkeeping:
//! count `Exists`/`¬Exists` notifications per inode and keep a priority
//! queue ordered by residency (rsync: resident pages; defragmentation:
//! resident fraction of the file size). [`ResidencyTracker`] implements
//! that loop once.

use crate::events::ItemFlags;
use crate::session::Item;
use crate::PrioQueue;
use sim_core::InodeNr;
use std::collections::BTreeMap;

/// How queued files are prioritized.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Priority {
    /// By number of resident pages (the rsync policy, Table 3).
    ResidentPages,
    /// By resident fraction of the file, in thousandths (the
    /// defragmentation policy, Table 3). Requires file sizes via
    /// [`ResidencyTracker::update_with_sizes`].
    ResidentFraction,
    /// Touched files all share one priority — file-granularity
    /// (inotify-style) hints with no residency information (§3.3).
    TouchedOnly,
}

/// Tracks per-file residency from fetched items and maintains the
/// priority queue of Algorithm 1.
#[derive(Debug)]
pub struct ResidencyTracker {
    policy: Priority,
    resident: BTreeMap<InodeNr, u64>,
    queue: PrioQueue<u64, u64>,
    /// Last priority each file was queued at, so a task that pops a
    /// file and then backs out (stale hint, §3.2) can re-enqueue it.
    last_prio: BTreeMap<InodeNr, u64>,
}

impl ResidencyTracker {
    /// Creates a tracker with the given prioritization policy.
    pub fn new(policy: Priority) -> Self {
        ResidencyTracker {
            policy,
            resident: BTreeMap::new(),
            queue: PrioQueue::new(),
            last_prio: BTreeMap::new(),
        }
    }

    /// Feeds fetched items, filtered by `eligible` (e.g. membership in
    /// the task's plan), using `size_pages` to resolve fractions (may
    /// return 0 for unknown/deleted files, which dequeues them).
    ///
    /// Items come in runs of one file's pages. Each run's items move
    /// that file's count in order, saturating at 0, and then the run
    /// makes one queue update: the queue's pop order depends only on
    /// its contents, so this leaves the state a per-item update would.
    pub fn update_with_sizes<F, G>(&mut self, items: &[Item], mut eligible: F, mut size_pages: G)
    where
        F: FnMut(InodeNr) -> bool,
        G: FnMut(InodeNr) -> u64,
    {
        for run in items.chunk_by(|a, b| a.id.as_inode() == b.id.as_inode()) {
            let Some(ino) = run[0].id.as_inode() else {
                continue;
            };
            if !eligible(ino) {
                continue;
            }
            let prio = match self.policy {
                Priority::TouchedOnly => {
                    if !run.iter().any(|i| i.flags.contains(ItemFlags::EXISTS)) {
                        continue;
                    }
                    1
                }
                Priority::ResidentPages | Priority::ResidentFraction => {
                    let count = self.resident.entry(ino).or_insert(0);
                    for item in run {
                        if item.flags.contains(ItemFlags::EXISTS) {
                            *count += 1;
                        } else if item.flags.contains(ItemFlags::NOT_EXISTS) {
                            *count = count.saturating_sub(1);
                        }
                    }
                    let count = *count;
                    if self.policy == Priority::ResidentPages {
                        count
                    } else {
                        // Round-half-up permille; the count clamps to
                        // the file size so a fully-resident file reads
                        // exactly 1000‰, never 999‰.
                        let size = size_pages(ino);
                        (count.min(size) * 1000 + size / 2)
                            .checked_div(size)
                            .unwrap_or(0)
                    }
                }
            };
            if prio == 0 {
                self.queue.remove(ino.raw());
                self.last_prio.remove(&ino);
            } else {
                self.queue.upsert(ino.raw(), prio);
                self.last_prio.insert(ino, prio);
            }
        }
    }

    /// [`ResidencyTracker::update_with_sizes`] without size resolution
    /// (for [`Priority::ResidentPages`] and [`Priority::TouchedOnly`]).
    pub fn update<F>(&mut self, items: &[Item], eligible: F)
    where
        F: FnMut(InodeNr) -> bool,
    {
        debug_assert!(
            self.policy != Priority::ResidentFraction,
            "fraction policy needs sizes"
        );
        self.update_with_sizes(items, eligible, |_| 1);
    }

    /// Pops the highest-priority file.
    pub fn pop_best(&mut self) -> Option<InodeNr> {
        self.queue.pop_max().map(|(ino, _)| InodeNr(ino))
    }

    /// Re-enqueues a previously popped file at the priority it was last
    /// queued with. This is the §3.2 back-out path: a task whose
    /// `duet_get_path` truth check failed puts the hint back so a later
    /// pick can retry it (the failure may be transient); if the pages
    /// are genuinely gone, later `¬Exists` notifications or normal-order
    /// processing retire it. No-op for files the tracker never queued.
    pub fn requeue(&mut self, ino: InodeNr) {
        if let Some(&prio) = self.last_prio.get(&ino) {
            self.queue.upsert(ino.raw(), prio);
        }
    }

    /// Drops a file from the tracker (processed or abandoned).
    pub fn forget(&mut self, ino: InodeNr) {
        self.queue.remove(ino.raw());
        self.resident.remove(&ino);
        self.last_prio.remove(&ino);
    }

    /// Queued files.
    pub fn len(&self) -> usize {
        self.queue.len()
    }

    /// Returns `true` if no file is queued.
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// Current resident-page estimate for a file.
    pub fn resident_pages(&self, ino: InodeNr) -> u64 {
        self.resident.get(&ino).copied().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::ItemId;
    use sim_core::BlockNr;

    fn item(ino: u64, offset: u64, flags: ItemFlags) -> Item {
        Item {
            id: ItemId::Inode(InodeNr(ino)),
            offset,
            flags,
            moved_to: None,
        }
    }

    fn block_item(b: u64) -> Item {
        Item {
            id: ItemId::Block(BlockNr(b)),
            offset: 0,
            flags: ItemFlags::EXISTS,
            moved_to: None,
        }
    }

    #[test]
    fn resident_pages_policy_orders_by_count() {
        let mut t = ResidencyTracker::new(Priority::ResidentPages);
        let items: Vec<Item> = (0..3)
            .map(|i| item(7, i * 4096, ItemFlags::EXISTS))
            .chain([item(8, 0, ItemFlags::EXISTS)])
            .collect();
        t.update(&items, |_| true);
        assert_eq!(t.len(), 2);
        assert_eq!(t.resident_pages(InodeNr(7)), 3);
        assert_eq!(t.pop_best(), Some(InodeNr(7)), "most resident first");
        assert_eq!(t.pop_best(), Some(InodeNr(8)));
        assert_eq!(t.pop_best(), None);
    }

    #[test]
    fn fraction_policy_prefers_small_fully_resident_files() {
        let mut t = ResidencyTracker::new(Priority::ResidentFraction);
        // File 1: 2 of 16 pages resident. File 2: 1 of 1.
        let items = vec![
            item(1, 0, ItemFlags::EXISTS),
            item(1, 4096, ItemFlags::EXISTS),
            item(2, 0, ItemFlags::EXISTS),
        ];
        t.update_with_sizes(&items, |_| true, |ino| if ino.raw() == 1 { 16 } else { 1 });
        assert_eq!(t.pop_best(), Some(InodeNr(2)), "100% beats 12.5%");
    }

    #[test]
    fn fraction_rounds_half_up_and_clamps_at_1000_permille() {
        // 1 of 3 pages resident: 333.3…‰ rounds to 333; 2 of 3: 666.6…‰
        // rounds up to 667 (truncation would give 666).
        let mut t = ResidencyTracker::new(Priority::ResidentFraction);
        t.update_with_sizes(&[item(1, 0, ItemFlags::EXISTS)], |_| true, |_| 3);
        t.update_with_sizes(
            &[
                item(2, 0, ItemFlags::EXISTS),
                item(2, 4096, ItemFlags::EXISTS),
            ],
            |_| true,
            |_| 3,
        );
        assert_eq!(t.last_prio.get(&InodeNr(1)), Some(&333));
        assert_eq!(t.last_prio.get(&InodeNr(2)), Some(&667));

        // A fully-processed file must read exactly 1000‰ even for sizes
        // that don't divide 1000 — and over-counted residency (stale
        // notifications after a truncate) clamps instead of exceeding it.
        for size in [1u64, 3, 7, 16, 999] {
            let mut t = ResidencyTracker::new(Priority::ResidentFraction);
            let items: Vec<Item> = (0..size + 2) // two stale extras
                .map(|i| item(9, i * 4096, ItemFlags::EXISTS))
                .collect();
            t.update_with_sizes(&items, |_| true, |_| size);
            assert_eq!(
                t.last_prio.get(&InodeNr(9)),
                Some(&1000),
                "size {size}: full residency must be exactly 1000‰"
            );
        }
    }

    #[test]
    fn eviction_dequeues_files() {
        let mut t = ResidencyTracker::new(Priority::ResidentPages);
        t.update(&[item(5, 0, ItemFlags::EXISTS)], |_| true);
        assert_eq!(t.len(), 1);
        t.update(&[item(5, 0, ItemFlags::NOT_EXISTS)], |_| true);
        assert!(t.is_empty(), "fully evicted file leaves the queue");
    }

    #[test]
    fn touched_only_has_flat_priorities() {
        let mut t = ResidencyTracker::new(Priority::TouchedOnly);
        let items: Vec<Item> = (0..4)
            .map(|i| item(9, i * 4096, ItemFlags::EXISTS))
            .chain([item(3, 0, ItemFlags::EXISTS)])
            .collect();
        t.update(&items, |_| true);
        // No residency info: ties broken by key, not by page count.
        assert_eq!(t.pop_best(), Some(InodeNr(9)));
        assert_eq!(t.pop_best(), Some(InodeNr(3)));
    }

    #[test]
    fn filters_ineligible_and_block_items() {
        let mut t = ResidencyTracker::new(Priority::ResidentPages);
        let items = vec![
            item(1, 0, ItemFlags::EXISTS),
            item(2, 0, ItemFlags::EXISTS),
            block_item(99),
        ];
        t.update(&items, |ino| ino.raw() == 1);
        assert_eq!(t.len(), 1);
        assert_eq!(t.pop_best(), Some(InodeNr(1)));
    }

    #[test]
    fn requeue_restores_popped_file_at_its_priority() {
        let mut t = ResidencyTracker::new(Priority::ResidentPages);
        let items: Vec<Item> = (0..3)
            .map(|i| item(7, i * 4096, ItemFlags::EXISTS))
            .chain([item(8, 0, ItemFlags::EXISTS)])
            .collect();
        t.update(&items, |_| true);
        let popped = t.pop_best().unwrap();
        assert_eq!(popped, InodeNr(7));
        // Back out: the file returns at its old priority, ahead of 8.
        t.requeue(popped);
        assert_eq!(t.pop_best(), Some(InodeNr(7)));
        // Requeue of a never-queued file is a no-op.
        t.requeue(InodeNr(99));
        assert_eq!(t.pop_best(), Some(InodeNr(8)));
        assert_eq!(t.pop_best(), None);
        // Forgotten files cannot be requeued.
        t.update(&[item(5, 0, ItemFlags::EXISTS)], |_| true);
        t.forget(InodeNr(5));
        t.requeue(InodeNr(5));
        assert!(t.is_empty());
    }

    #[test]
    fn forget_removes_state() {
        let mut t = ResidencyTracker::new(Priority::ResidentPages);
        t.update(&[item(5, 0, ItemFlags::EXISTS)], |_| true);
        t.forget(InodeNr(5));
        assert!(t.is_empty());
        assert_eq!(t.resident_pages(InodeNr(5)), 0);
    }

    /// Run-wise intake against per-item application. Batches interleave
    /// short runs of a few files' items (EXISTS, NOT_EXISTS, neither)
    /// with block items; one file is zero-size and one is outside the
    /// plan. After every op, under all three policies, the pop sequence
    /// of the queue, `last_prio` and the resident counts must equal a
    /// model that applies item by item with no shared code.
    mod runs {
        use super::*;
        use sim_core::check::{differential, DiffConfig};
        use sim_core::knobs::Knob;
        use sim_core::SimRng;

        const POLICIES: [Priority; 3] = [
            Priority::ResidentPages,
            Priority::ResidentFraction,
            Priority::TouchedOnly,
        ];

        /// Inode 4 is zero-size; inode 5 is outside the plan.
        fn size_of(ino: InodeNr) -> u64 {
            [0, 3, 7, 1, 0, 16][ino.raw() as usize]
        }

        fn eligible(ino: InodeNr) -> bool {
            ino.raw() != 5
        }

        #[derive(Clone, Debug)]
        enum Op {
            /// One fetched batch: `(inode or 0 for a block item, flag
            /// 0 EXISTS / 1 NOT_EXISTS / 2 neither)` in order.
            Feed(Vec<(u64, u8)>),
            /// The task pops its best file.
            Pop,
        }

        fn gen_op(rng: &mut SimRng, _: u64) -> Op {
            if rng.gen_range(0, 6) == 0 {
                return Op::Pop;
            }
            let mut items = Vec::new();
            for _ in 0..rng.gen_range(1, 5) {
                let ino = rng.gen_range(0, 6);
                for _ in 0..rng.gen_range(1, 6) {
                    let flag = match rng.gen_range(0, 8) {
                        0..=3 => 0,
                        4..=6 => 1,
                        _ => 2,
                    };
                    items.push((ino, flag));
                }
            }
            Op::Feed(items)
        }

        fn to_items(feed: &[(u64, u8)]) -> Vec<Item> {
            let flags = [
                ItemFlags::EXISTS,
                ItemFlags::NOT_EXISTS,
                ItemFlags::MODIFIED,
            ];
            let items = feed.iter().map(|&(ino, flag)| Item {
                id: match ino {
                    0 => ItemId::Block(BlockNr(7)),
                    _ => ItemId::Inode(InodeNr(ino)),
                },
                offset: 0,
                flags: flags[usize::from(flag)],
                moved_to: None,
            });
            items.collect()
        }

        /// The tracker applied one item at a time.
        #[derive(Default)]
        struct PerItem {
            /// Signed, so the sabotage can let a count go below 0.
            resident: BTreeMap<u64, i64>,
            queued: BTreeMap<u64, u64>,
            last_prio: BTreeMap<u64, u64>,
            /// The sabotage: counts do not saturate at 0.
            unsaturated: bool,
        }

        impl PerItem {
            fn feed(&mut self, policy: Priority, feed: &[(u64, u8)]) {
                for &(ino, flag) in feed {
                    if ino == 0 || !eligible(InodeNr(ino)) {
                        continue;
                    }
                    let prio = if policy == Priority::TouchedOnly {
                        if flag != 0 {
                            continue;
                        }
                        1
                    } else {
                        let count = self.resident.entry(ino).or_insert(0);
                        match flag {
                            0 => *count += 1,
                            1 if self.unsaturated || *count > 0 => *count -= 1,
                            _ => {}
                        }
                        let count = (*count).max(0) as u64;
                        let size = size_of(InodeNr(ino));
                        match policy {
                            Priority::ResidentPages => count,
                            _ if size == 0 => 0,
                            _ => (count.min(size) * 1000 + size / 2) / size,
                        }
                    };
                    if prio == 0 {
                        self.queued.remove(&ino);
                        self.last_prio.remove(&ino);
                    } else {
                        self.queued.insert(ino, prio);
                        self.last_prio.insert(ino, prio);
                    }
                }
            }

            fn pop(&mut self) -> Option<InodeNr> {
                let (&ino, _) = self.queued.iter().max_by_key(|&(&ino, &p)| (p, ino))?;
                self.queued.remove(&ino);
                Some(InodeNr(ino))
            }

            fn pops(&self) -> Vec<InodeNr> {
                let mut q = PerItem {
                    queued: self.queued.clone(),
                    ..PerItem::default()
                };
                std::iter::from_fn(|| q.pop()).collect()
            }
        }

        fn pops(t: &ResidencyTracker) -> Vec<InodeNr> {
            let mut q = t.queue.clone();
            std::iter::from_fn(|| q.pop_max().map(|(ino, _)| InodeNr(ino))).collect()
        }

        fn replay(log: &[Op], unsaturated: bool) -> Result<(), String> {
            for policy in POLICIES {
                let mut t = ResidencyTracker::new(policy);
                let mut model = PerItem {
                    unsaturated,
                    ..PerItem::default()
                };
                for (i, op) in log.iter().enumerate() {
                    match op {
                        Op::Feed(feed) => {
                            t.update_with_sizes(&to_items(feed), eligible, size_of);
                            model.feed(policy, feed);
                        }
                        Op::Pop => {
                            let (got, want) = (t.pop_best(), model.pop());
                            if got != want {
                                return Err(format!(
                                    "{policy:?} op {i}: popped {got:?} vs {want:?}"
                                ));
                            }
                        }
                    }
                    let (got, want) = (pops(&t), model.pops());
                    if got != want {
                        return Err(format!("{policy:?} op {i}: pop order {got:?} vs {want:?}"));
                    }
                    let last: BTreeMap<u64, u64> =
                        t.last_prio.iter().map(|(ino, &p)| (ino.raw(), p)).collect();
                    if last != model.last_prio {
                        let want = &model.last_prio;
                        return Err(format!("{policy:?} op {i}: last_prio {last:?} vs {want:?}"));
                    }
                    if policy != Priority::TouchedOnly {
                        for ino in 1..6 {
                            let want = model.resident.get(&ino).map_or(0, |&c| c.max(0) as u64);
                            let got = t.resident_pages(InodeNr(ino));
                            if got != want {
                                return Err(format!(
                                    "{policy:?} op {i}: ino {ino} resident {got} vs {want}"
                                ));
                            }
                        }
                    }
                }
            }
            Ok(())
        }

        #[test]
        fn run_wise_intake_matches_per_item_application() {
            let seed = Knob::CheckSeed
                .read()
                .unwrap_or_else(|e| panic!("{e}"))
                .unwrap_or(0x2E51_D3AC);
            let cfg = DiffConfig::new("residency_runs_differential", seed).ops(300);
            differential(&cfg, gen_op, |log| replay(log, false)).unwrap();
        }

        /// The harness can fail: a model whose counts go below 0 (and
        /// so needs more EXISTS items to surface the file again) is
        /// caught.
        #[test]
        fn counts_that_do_not_saturate_are_caught() {
            let cfg = DiffConfig::new("residency_runs_unsaturated", 0x5A7).ops(300);
            let failure = differential(&cfg, gen_op, |log| replay(log, true)).unwrap_err();
            assert!(failure.ops.len() <= 2, "{failure}");
        }
    }
}
