//! File-system scrubbing (§5.1 of the paper).
//!
//! The baseline scrubber "reads all allocated file system blocks on a
//! given device sequentially and verifies them against their checksums"
//! in extent-key (physical) order. The opportunistic scrubber registers
//! for `Added ∨ Dirtied` notifications: a page *added* to the cache was
//! verified by the Btrfs read path, so its block needs no scrubbing; a
//! page *dirtied* carries a new checksum, so a block marked scrubbed
//! before the sequential scan reached it must be re-verified.
//!
//! Work tracking lives in a task-private `verified` bitmap rather than
//! the framework's `done` bitmap: the scrubber must keep receiving
//! `Dirtied` events for blocks it has already marked, and Duet filters
//! all events for done items (§4.1).

use crate::task::{BtrfsCtx, BtrfsTask, HintSession, StepResult, TaskMetrics, TaskMode};
use duet::{EventMask, Item, ItemFlags, TaskScope};
use sim_btrfs::Run;
use sim_core::trace::TraceKind;
use sim_core::{BlockNr, SimResult, SparseBitmap, PAGE_SIZE};
use sim_disk::IoClass;

/// Blocks examined per step (1 MiB chunks).
const CHUNK_BLOCKS: u64 = 256;

/// The scrubbing task.
pub struct Scrubber {
    mode: TaskMode,
    class: IoClass,
    hints: HintSession,
    /// The last batch of hints fetched, kept for its allocation.
    batch: Vec<Item>,
    /// Blocks allocated at start: the scan plan, scanned in physical
    /// order.
    plan: SparseBitmap,
    /// Next planned block the scan examines, or `None` when done.
    frontier: Option<BlockNr>,
    /// Blocks verified (by the scan or opportunistically).
    verified: SparseBitmap,
    total: u64,
    own_read: u64,
    own_written: u64,
    opportunistic: u64,
    /// Latent corruptions detected and repaired.
    pub corruptions_fixed: u64,
    /// Test-only defect switch: when set, the scrubber reads blocks
    /// but never repairs them (used to prove the equivalence oracle
    /// catches a broken task).
    skip_repair: bool,
}

impl Scrubber {
    /// Creates a scrubber. In-kernel maintenance runs at idle I/O
    /// priority in the paper's experiments.
    pub fn new(mode: TaskMode) -> Self {
        Scrubber {
            mode,
            class: IoClass::Idle,
            hints: HintSession::default(),
            batch: Vec::new(),
            plan: SparseBitmap::new(),
            frontier: None,
            verified: SparseBitmap::new(),
            total: 0,
            own_read: 0,
            own_written: 0,
            opportunistic: 0,
            corruptions_fixed: 0,
            skip_repair: false,
        }
    }

    /// Blocks this scrubber has verified, in ascending order — the
    /// oracle's final-state digest.
    pub fn verified_blocks(&self) -> Vec<u64> {
        self.verified.iter().collect()
    }

    /// Sabotage switch for oracle self-tests: silently skip part of the
    /// scan and never repair, without reporting any error.
    #[doc(hidden)]
    pub fn sabotage_skip_repair(&mut self) {
        self.skip_repair = true;
    }

    /// Makes `runs` — disjoint and ascending, as the allocator lists
    /// them — the scan plan, with the frontier at its first block.
    fn set_plan(&mut self, runs: &[Run]) {
        self.plan.clear_all();
        for r in runs {
            self.plan.set_range(r.start.raw(), r.start.raw() + r.len);
        }
        self.total = self.plan.count();
        self.frontier = self.plan.next_set(0).map(BlockNr);
    }

    /// Moves the frontier past `b`, to the next planned block.
    fn advance_past(&mut self, b: BlockNr) {
        self.frontier = self.plan.next_set(b.raw() + 1).map(BlockNr);
    }

    /// Whether the sequential scan has already passed this planned
    /// block: the scan visits planned blocks in ascending order, so
    /// exactly those below the frontier. Runs once per `Dirtied`
    /// notification.
    fn passed(&self, b: BlockNr) -> bool {
        self.frontier.is_none_or(|f| b < f)
    }

    /// Whether a block belongs to the scan plan. Blocks allocated after
    /// the scrub started (copy-on-write updates land in fresh space)
    /// are outside the plan: verifying them is not planned work, so
    /// they must not count as savings.
    fn in_plan(&self, b: BlockNr) -> bool {
        self.plan.test(b.raw())
    }

    fn drain_events(&mut self, ctx: &mut BtrfsCtx<'_>) -> SimResult<()> {
        loop {
            self.hints.next_batch(ctx.duet, ctx.fs, &mut self.batch)?;
            if self.batch.is_empty() {
                return Ok(());
            }
            for item in &self.batch {
                let Some(block) = item.id.as_block() else {
                    continue;
                };
                if !self.in_plan(block) {
                    continue;
                }
                if item.flags.contains(ItemFlags::DIRTIED) {
                    // New data, new checksum: re-verify unless the scan
                    // already passed (matching the baseline's single-
                    // pass guarantee, §6.2).
                    if !self.passed(block) && self.verified.clear(block.raw()) {
                        if self.opportunistic > 0 {
                            self.opportunistic -= 1;
                        }
                        if let Some(t) = ctx.fs.trace() {
                            t.event(TraceKind::ScrubUnverify, ctx.now, || {
                                vec![("block", block.raw().into()), ("src", "hint".into())]
                            });
                        }
                    }
                } else if item.flags.contains(ItemFlags::ADDED) && self.verified.set(block.raw()) {
                    // Verified by the read path: scrubbed for free.
                    self.opportunistic += 1;
                    if let Some(t) = ctx.fs.trace() {
                        t.event(TraceKind::ScrubVerify, ctx.now, || {
                            vec![("block", block.raw().into()), ("src", "hint".into())]
                        });
                    }
                }
            }
        }
    }
}

impl BtrfsTask for Scrubber {
    fn name(&self) -> String {
        format!("scrub({})", self.mode.label())
    }

    fn start(&mut self, ctx: BtrfsCtx<'_>) -> SimResult<()> {
        self.set_plan(&ctx.fs.allocated_ranges());
        let scope = TaskScope::Block {
            device: ctx.fs.device(),
        };
        let mask = EventMask::ADDED | EventMask::DIRTIED;
        self.hints.open(self.mode, ctx.duet, scope, mask, ctx.fs)?;
        Ok(())
    }

    fn step(&mut self, mut ctx: BtrfsCtx<'_>) -> SimResult<StepResult> {
        self.drain_events(&mut ctx)?;
        // Work-item context span: every record emitted below (disk I/O,
        // checksum checks, effect events) is parented to this step.
        let span = ctx
            .fs
            .trace()
            .map(|t| t.ctx_begin(TraceKind::ScrubStep, ctx.now, Vec::new));
        let mut finish = ctx.now;
        let mut examined = 0u64;
        // Collect the blocks in this chunk that still need verification.
        let mut to_scrub: Vec<BlockNr> = Vec::new();
        while examined < CHUNK_BLOCKS {
            let Some(b) = self.frontier else {
                break;
            };
            if !self.verified.test(b.raw()) {
                to_scrub.push(b);
            }
            examined += 1;
            self.advance_past(b);
        }
        // Verify (and repair) every block of the chunk first: the
        // scrubber owns the checksum-failure path, whereas an ordinary
        // read of a corrupted block would just fail with EIO.
        if self.skip_repair {
            // Sabotage mode: silently drop a deterministic subset of
            // blocks from the scrub — they are neither repaired nor
            // recorded as verified. Also dodge corrupted blocks so the
            // broken run still "succeeds" (the failure is silent, which
            // is exactly what the oracle must catch).
            to_scrub.retain(|&b| b.raw() % 7 != 0);
            to_scrub.retain(|&b| ctx.fs.blocks().verify_checksum(b).is_ok());
        } else {
            for &b in &to_scrub {
                if ctx.fs.verify_and_repair(b)? {
                    self.corruptions_fixed += 1;
                }
            }
        }
        // Read the needed blocks: through the page cache when a live
        // file backs them (so other tasks can share the I/O, §6.3),
        // raw otherwise (snapshot-only or freed blocks).
        let mut i = 0;
        while i < to_scrub.len() {
            let b = to_scrub[i];
            match ctx.fs.blocks().backref_run(b)? {
                Some((br, mut backed)) => {
                    // Extend over physically-and-logically consecutive
                    // backrefs of the same file for one coalesced read:
                    // `backed` blocks from `b` on continue it, and past
                    // them the next piece may (across a chunk boundary).
                    let mut len = 1u64;
                    while i + 1 < to_scrub.len() && to_scrub[i + 1].raw() == b.raw() + len {
                        if len == backed {
                            match ctx.fs.blocks().backref_run(to_scrub[i + 1])? {
                                Some((next, n))
                                    if next.ino == br.ino
                                        && next.index.raw() == br.index.raw() + len =>
                                {
                                    backed += n;
                                }
                                _ => break,
                            }
                        }
                        len += 1;
                        i += 1;
                    }
                    let stats = ctx.fs.read(
                        br.ino,
                        br.index.raw() * PAGE_SIZE,
                        len * PAGE_SIZE,
                        self.class,
                        ctx.now,
                    )?;
                    self.own_read += stats.blocks_read;
                    self.own_written += stats.blocks_written;
                    finish = finish.max(stats.finish);
                }
                None => {
                    let stats = ctx.fs.read_raw(b, 1, self.class, ctx.now)?;
                    self.own_read += stats.blocks_read;
                    finish = finish.max(stats.finish);
                }
            }
            i += 1;
        }
        // Mark the chunk verified.
        for b in to_scrub {
            self.verified.set(b.raw());
            if let Some(t) = ctx.fs.trace() {
                t.event(TraceKind::ScrubVerify, ctx.now, || {
                    vec![("block", b.raw().into()), ("src", "scan".into())]
                });
            }
        }
        if let (Some(t), Some(id)) = (ctx.fs.trace(), span) {
            t.ctx_end(id, finish);
        }
        let complete = self.frontier.is_none();
        Ok(StepResult { finish, complete })
    }

    fn poll(&mut self, mut ctx: BtrfsCtx<'_>) -> SimResult<()> {
        self.drain_events(&mut ctx)
    }

    fn stop(&mut self, mut ctx: BtrfsCtx<'_>) -> SimResult<()> {
        self.drain_events(&mut ctx)?;
        self.hints.close(ctx.duet)
    }

    fn metrics(&self) -> TaskMetrics {
        TaskMetrics {
            total_units: self.total,
            done_units: self.verified.count().min(self.total),
            saved_units: self.opportunistic,
            blocks_read: self.own_read,
            blocks_written: self.own_written,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bridge::pump_btrfs;
    use crate::testkit::{btrfs_with_files, ctx, drive, T0};

    #[test]
    fn baseline_scrubs_every_block_once() {
        let (mut fs, mut duet, _) = btrfs_with_files(4, 64, 256);
        let mut task = Scrubber::new(TaskMode::Baseline);
        task.start(ctx(&mut fs, &mut duet)).unwrap();
        drive(&mut task, &mut fs, &mut duet);
        let m = task.metrics();
        assert_eq!(m.total_units, 256);
        assert_eq!(m.done_units, 256);
        assert_eq!(m.blocks_read, 256, "every block read exactly once");
        assert_eq!(m.saved_units, 0);
        assert_eq!(m.io_saved_fraction(), 0.0);
    }

    #[test]
    fn duet_scrubber_skips_workload_read_blocks() {
        let (mut fs, mut duet, files) = btrfs_with_files(4, 64, 256);
        let mut task = Scrubber::new(TaskMode::Duet);
        task.start(ctx(&mut fs, &mut duet)).unwrap();
        // The "workload" reads half the files before the scan begins.
        for &f in &files[..2] {
            fs.read(f, 0, 64 * PAGE_SIZE, IoClass::Normal, T0).unwrap();
        }
        pump_btrfs(&mut fs, &mut duet);
        drive(&mut task, &mut fs, &mut duet);
        let m = task.metrics();
        assert_eq!(m.done_units, 256);
        assert_eq!(m.saved_units, 128, "two files scrubbed for free");
        assert_eq!(m.blocks_read, 128);
        assert!((m.io_saved_fraction() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn dirtied_blocks_are_reverified_if_not_yet_passed() {
        let (mut fs, mut duet, files) = btrfs_with_files(2, 64, 256);
        let mut task = Scrubber::new(TaskMode::Duet);
        task.start(ctx(&mut fs, &mut duet)).unwrap();
        // Workload reads the *second* file (ahead of the scan), marking
        // it scrubbed...
        fs.read(files[1], 0, 64 * PAGE_SIZE, IoClass::Normal, T0)
            .unwrap();
        pump_btrfs(&mut fs, &mut duet);
        // ...then overwrites part of it, invalidating those checksums.
        fs.write(files[1], 0, 16 * PAGE_SIZE, IoClass::Normal, T0)
            .unwrap();
        pump_btrfs(&mut fs, &mut duet);
        drive(&mut task, &mut fs, &mut duet);
        let m = task.metrics();
        // First file (64) read by scan. Second file: 48 blocks saved;
        // 16 were rewritten. COW moved those to *new* blocks outside
        // the original plan, so the old 16 in-plan blocks were freed —
        // the scan re-reads nothing for them only if unallocated; the
        // plan-covered read volume must be at least the first file.
        assert!(m.blocks_read >= 64);
        assert!(m.saved_units >= 48, "saved {}", m.saved_units);
    }

    #[test]
    fn scrubber_detects_and_repairs_corruption() {
        let (mut fs, mut duet, _) = btrfs_with_files(1, 32, 256);
        fs.inject_corruption(BlockNr(5)).unwrap();
        fs.inject_corruption(BlockNr(17)).unwrap();
        let mut task = Scrubber::new(TaskMode::Baseline);
        task.start(ctx(&mut fs, &mut duet)).unwrap();
        drive(&mut task, &mut fs, &mut duet);
        assert_eq!(task.corruptions_fixed, 2);
        assert_eq!(fs.blocks().corrupted_count(), 0);
    }

    #[test]
    fn scrub_reads_are_sequential_and_coalesced() {
        let (mut fs, mut duet, _) = btrfs_with_files(1, 256, 256);
        let mut task = Scrubber::new(TaskMode::Baseline);
        task.start(ctx(&mut fs, &mut duet)).unwrap();
        drive(&mut task, &mut fs, &mut duet);
        // One populate run = physically contiguous: each 256-block step
        // should issue a single coalesced read.
        let reqs = fs.disk().metrics().idle.read_ops;
        assert!(reqs <= 2, "expected coalesced reads, got {reqs} requests");
    }

    /// A coalesced read runs on across the block table's chunk boundary
    /// (block 4096), where one piece of back-references ends and the
    /// next continues it: every step still issues one read.
    #[test]
    fn a_read_runs_on_across_the_block_tables_chunk_boundary() {
        let (mut fs, mut duet, files) = btrfs_with_files(1, 10, 256);
        let big = fs
            .populate_file(fs.root(), "big", 4200 * PAGE_SIZE)
            .unwrap();
        fs.delete_file(files[0]).unwrap();
        let first = fs.fibmap(big, sim_core::PageIndex(0)).unwrap();
        assert_eq!(first, Some(BlockNr(10)));
        let mut task = Scrubber::new(TaskMode::Baseline);
        task.start(ctx(&mut fs, &mut duet)).unwrap();
        let steps = drive(&mut task, &mut fs, &mut duet);
        assert_eq!(steps, 17, "4200 blocks, 256 a step");
        assert_eq!(fs.disk().metrics().idle.read_ops, steps);
        assert_eq!(task.metrics().blocks_read, 4200);
    }

    /// The scan plan — a bitmap of planned blocks and a frontier block —
    /// against the run list and binary searches it replaced: random
    /// disjoint ascending plans whose runs straddle word and bitmap
    /// chunk boundaries, frontier advances, and probes. After every op
    /// the frontier, `in_plan` and, on planned blocks, `passed` must
    /// agree at every run edge, around the frontier and at the probe.
    mod plan {
        use super::*;
        use sim_core::check::{differential, DiffConfig};
        use sim_core::knobs::Knob;
        use sim_core::SimRng;

        /// Bits per `SparseBitmap` chunk, so plans cross its chunks.
        const BITMAP_CHUNK: u64 = 32 * 1024;

        #[derive(Clone, Debug)]
        enum Op {
            /// Start a scrub over these runs.
            Plan(Vec<Run>),
            /// The scan examines this many more blocks.
            Advance(u64),
            /// Ask about one block.
            Probe(u64),
        }

        fn gen_op(rng: &mut SimRng, i: u64) -> Op {
            match (i, rng.gen_range(0, 16)) {
                (0, _) | (_, 0) => {
                    let mut at = match rng.gen_range(0, 3) {
                        0 => 0,
                        1 => rng.gen_range(0, 200),
                        _ => BITMAP_CHUNK - rng.gen_range(1, 300),
                    };
                    let runs = (0..rng.gen_range(0, 10)).map(|_| {
                        at += match rng.gen_range(0, 8) {
                            0 => BITMAP_CHUNK,
                            _ => rng.gen_range(1, 70),
                        };
                        let run = Run {
                            start: BlockNr(at),
                            len: rng.gen_range(1, 140),
                        };
                        at += run.len;
                        run
                    });
                    Op::Plan(runs.collect())
                }
                (_, 1..=9) => Op::Advance(rng.gen_range(1, 80)),
                _ => Op::Probe(rng.gen_range(0, 3 * BITMAP_CHUNK)),
            }
        }

        /// The run list and the binary searches the bitmap replaced.
        #[derive(Default)]
        struct Runs {
            plan: Vec<Run>,
            range_idx: usize,
            off_in_range: u64,
            /// The sabotage: a run's membership reaches one block past
            /// its end.
            past_end: bool,
        }

        impl Runs {
            fn frontier(&self) -> Option<BlockNr> {
                self.plan
                    .get(self.range_idx)
                    .map(|r| r.start.offset(self.off_in_range))
            }

            fn advance(&mut self) {
                self.off_in_range += 1;
                if self.off_in_range >= self.plan[self.range_idx].len {
                    self.range_idx += 1;
                    self.off_in_range = 0;
                }
            }

            fn passed(&self, b: BlockNr) -> bool {
                let i = self.plan.partition_point(|r| r.start.raw() <= b.raw());
                if i == 0 {
                    return self.range_idx > 0 || self.off_in_range > 0;
                }
                let idx = i - 1;
                let r = &self.plan[idx];
                if b.raw() < r.start.raw() + r.len {
                    idx < self.range_idx
                        || (idx == self.range_idx && b.raw() - r.start.raw() < self.off_in_range)
                } else {
                    idx < self.range_idx
                }
            }

            fn in_plan(&self, b: BlockNr) -> bool {
                let i = self.plan.partition_point(|r| r.start.raw() <= b.raw());
                if i == 0 {
                    return false;
                }
                let r = &self.plan[i - 1];
                let end = r.start.raw() + r.len + u64::from(self.past_end);
                b.raw() < end
            }
        }

        /// The first block of `probes` where the two disagree.
        fn diverged(
            task: &Scrubber,
            model: &Runs,
            probes: impl Iterator<Item = u64>,
        ) -> Option<String> {
            if task.frontier != model.frontier() {
                let want = model.frontier();
                return Some(format!("frontier {:?} vs {want:?}", task.frontier));
            }
            probes.map(BlockNr).find_map(|b| {
                let got = (task.in_plan(b), task.in_plan(b) && task.passed(b));
                let want = (model.in_plan(b), model.in_plan(b) && model.passed(b));
                (got != want).then(|| format!("{b}: (in_plan, passed) {got:?} vs {want:?}"))
            })
        }

        fn replay(log: &[Op], past_end: bool) -> Result<(), String> {
            let mut task = Scrubber::new(TaskMode::Duet);
            let mut model = Runs {
                past_end,
                ..Runs::default()
            };
            for (i, op) in log.iter().enumerate() {
                let mut probe = None;
                match op {
                    Op::Plan(runs) => {
                        task.set_plan(runs);
                        model = Runs {
                            plan: runs.clone(),
                            past_end,
                            ..Runs::default()
                        };
                        let total: u64 = runs.iter().map(|r| r.len).sum();
                        if task.total != total {
                            return Err(format!("op {i}: total {} vs {total}", task.total));
                        }
                    }
                    &Op::Advance(n) => {
                        for _ in 0..n {
                            let (Some(b), Some(_)) = (task.frontier, model.frontier()) else {
                                break;
                            };
                            task.advance_past(b);
                            model.advance();
                        }
                    }
                    &Op::Probe(b) => probe = Some(b),
                }
                let edges = model.plan.iter().flat_map(|r| {
                    let (start, end) = (r.start.raw(), r.start.raw() + r.len);
                    [start.saturating_sub(1), start, end - 1, end]
                });
                let near = model
                    .frontier()
                    .map(|f| f.raw().saturating_sub(1)..f.raw() + 2);
                let probes = edges.chain(near.into_iter().flatten()).chain(probe);
                if let Some(what) = diverged(&task, &model, probes) {
                    return Err(format!("op {i} {op:?}: plans diverged at {what}"));
                }
            }
            Ok(())
        }

        #[test]
        fn the_bitmap_plan_matches_the_run_list() {
            let seed = Knob::CheckSeed
                .read()
                .unwrap_or_else(|e| panic!("{e}"))
                .unwrap_or(0x5C2B_F207);
            let cfg = DiffConfig::new("scrub_plan_differential", seed).ops(200);
            differential(&cfg, gen_op, |log| replay(log, false)).unwrap();
        }

        /// The harness can fail: a run list whose runs reach one block
        /// past their end is caught, and the log shrinks to the plan.
        #[test]
        fn a_plan_one_past_its_run_ends_is_caught() {
            let cfg = DiffConfig::new("scrub_plan_past_run_end", 0x0FF1)
                .cases(4)
                .ops(200);
            let failure = differential(&cfg, gen_op, |log| replay(log, true)).unwrap_err();
            assert_eq!(failure.ops.len(), 1, "{failure}");
            assert!(failure.message.contains("in_plan"), "{failure}");
        }
    }
}
