//! The block table against a naive flat model of it: one per-block
//! `Vec` per column (reference count, back-reference, checksum-good
//! flag), each run operation a plain loop over them. Every op's window
//! is drawn across a chunk boundary, and a third of the ops aim at the
//! last stamp or the last shared window, so the table's pieces are cut
//! in the middle by live releases, split by a `set_backref` inside
//! them, and merged by a stamp that continues them, and their counts
//! change part of the way along: a snapshot reference over part of a
//! stamped run, a snapshot release or a `ref_inc` inside one, a live
//! release inside a shared run (which leaves a piece only snapshots
//! hold), and a stamp next to a piece with another count. After each op the two are
//! compared through the public getters (`refcount_of`, `backref_of`,
//! `backref_run`, `verify_checksum`, `corrupted_count`) around every
//! boundary, and over the whole device at the end, where the table must
//! also compare `==` to one rebuilt block by block from the model:
//! equal per-block state is equal, whatever history built it. A `Fork`
//! clones the table and the model; later ops
//! mutate the clone, and the original must still match the model as
//! it was at the fork — a fork never writes through. The freed runs
//! must be exactly the blocks that reached zero, and
//! `sim_disk::coalesce_into` must turn any block list into its maximal
//! ascending runs, whatever its output buffer held before. Stamps also draw the widest inode and pages a packed
//! back-reference holds, and just past them: the table must refuse
//! those whole, as the model predicts. Driven by
//! `sim_core::check::differential`: a failure prints the replay seed
//! and a shrunk op log.

use sim_btrfs::blocktable::{CHUNK_BLOCKS, PIECE_BYTES};
use sim_btrfs::{BackRef, BlockTable, Run};
use sim_core::check::{differential, DiffConfig};
use sim_core::knobs::Knob;
use sim_core::{BlockNr, InodeNr, PageIndex, SimError, SimRng};
use std::collections::BTreeSet;

/// Three full chunks and a partial fourth.
const CAPACITY: u64 = 3 * CHUNK_BLOCKS + 40;
/// Longest window; windows start within this of a chunk boundary.
const REACH: u64 = 24;

#[derive(Clone, Debug)]
enum Op {
    /// COW write lands on a window, for pages `.2..` of file `.1`.
    Stamp(Run, InodeNr, u64),
    /// A snapshot starts sharing a window.
    Share(Run),
    /// The live tree (`true`) or a snapshot lets go of a window; after
    /// `Share` this is partial release under snapshot sharing.
    Release(Run, bool),
    /// The live back-reference of one block is set.
    SetBackref(BlockNr, BackRef),
    /// One block gains a reference.
    RefInc(BlockNr),
    /// A latent error lands on a block.
    Corrupt(BlockNr),
    /// A block is rebuilt from a good copy.
    Repair(BlockNr),
    /// The table is forked; the clone carries on.
    Fork,
    /// Unsorted block list with duplicates.
    Coalesce(Vec<u64>),
}

/// Blocks within reach of chunk boundary `k` (the device's first block
/// is boundary 0; the last boundary is inside the partial chunk).
fn near_boundary(k: u64) -> std::ops::Range<u64> {
    let at = k * CHUNK_BLOCKS;
    at.saturating_sub(REACH)..(at + 2 * REACH).min(CAPACITY)
}

/// Every block an op can touch.
fn hot_blocks() -> impl Iterator<Item = BlockNr> {
    (0..=3).flat_map(near_boundary).map(BlockNr)
}

/// Generates the op log; remembers the last stamp it drew that fits
/// and the last window it shared, so it can aim at their pieces.
#[derive(Default)]
struct Gen {
    last: Option<(Run, InodeNr, u64)>,
    shared: Option<Run>,
}

impl Gen {
    fn op(&mut self, rng: &mut SimRng, i: u64) -> Op {
        if i == 0 {
            *self = Gen::default();
        }
        let aimed = match self.last {
            Some(last) if rng.gen_range(0, 3) == 0 => aim(rng, last, self.shared),
            _ => gen_op(rng),
        };
        match aimed {
            Op::Stamp(run, ino, page) if Flat::fits(run, ino, page) => {
                self.last = Some((run, ino, page));
            }
            Op::Share(run) => self.shared = Some(run),
            _ => {}
        }
        aimed
    }
}

/// A window strictly inside `run`, which must be at least 3 long.
fn inside(rng: &mut SimRng, run: Run) -> Run {
    let off = rng.gen_range(1, run.len - 1);
    Run {
        start: run.start.offset(off),
        len: rng.gen_range(1, run.len - off),
    }
}

/// An op on the piece the stamp `(run, ino, page)` made, or on the
/// count boundaries in and around it:
///
/// - a live release strictly inside it;
/// - a `set_backref` inside it (to its own value or another file's);
/// - a stamp of the same file that continues it — or, after the widest
///   page, a stamp of the next inode from page 0;
/// - a snapshot reference over part of it (head, tail or middle);
/// - a snapshot release strictly inside it;
/// - a `ref_inc` of one of its blocks;
/// - a live release strictly inside the last shared window;
/// - a stamp that starts where the last shared window ends, for the
///   pages that continue the stamp's if the window lies inside it.
fn aim(rng: &mut SimRng, (run, ino, page): (Run, InodeNr, u64), shared: Option<Run>) -> Op {
    let end = run.start.raw() + run.len;
    match rng.gen_range(0, 8) {
        0 if run.len >= 3 => Op::Release(inside(rng, run), true),
        1 => {
            let off = rng.gen_range(0, run.len);
            let ino = match rng.gen_range(0, 2) {
                0 => ino,
                _ => InodeNr(ino.raw() % 4 + 1),
            };
            let br = BackRef {
                ino,
                index: PageIndex((page + off).min(EDGE_PAGE)),
            };
            Op::SetBackref(run.start.offset(off), br)
        }
        _ if end < CAPACITY => {
            let next = Run {
                start: BlockNr(end),
                len: rng.gen_range(1, REACH + 1).min(CAPACITY - end),
            };
            // Past the widest page, the next inode's page 0: its
            // packed value follows, but it continues nothing.
            match page + run.len {
                EDGE_PAGE_END => Op::Stamp(next, InodeNr(ino.raw() + 1), 0),
                page => Op::Stamp(next, ino, page),
            }
        }
        3 => {
            let off = rng.gen_range(0, run.len);
            let part = Run {
                start: run.start.offset(off),
                len: rng.gen_range(1, run.len - off + 1),
            };
            Op::Share(part)
        }
        4 if run.len >= 3 => Op::Release(inside(rng, run), false),
        5 => Op::RefInc(run.start.offset(rng.gen_range(0, run.len))),
        6 => match shared {
            Some(window) if window.len >= 3 => Op::Release(inside(rng, window), true),
            _ => gen_op(rng),
        },
        7 => match shared {
            Some(window) if window.start.raw() + window.len < CAPACITY => {
                let from = window.start.raw() + window.len;
                let next = Run {
                    start: BlockNr(from),
                    len: rng.gen_range(1, REACH + 1).min(CAPACITY - from),
                };
                let page = match from.checked_sub(run.start.raw()) {
                    Some(off) if from <= end => page + off,
                    _ => gen_page(rng, next.len),
                };
                Op::Stamp(next, ino, page)
            }
            _ => gen_op(rng),
        },
        _ => gen_op(rng),
    }
}

fn gen_op(rng: &mut SimRng) -> Op {
    let at = rng.gen_range(0, 4) * CHUNK_BLOCKS;
    let start = (at + rng.gen_range(0, 2 * REACH)).saturating_sub(REACH);
    let window = Run {
        start: BlockNr(start),
        len: rng.gen_range(1, REACH + 1).min(CAPACITY - start),
    };
    let block = window.start.offset(rng.gen_range(0, window.len));
    match rng.gen_range(0, 20) {
        0..=6 => Op::Stamp(window, gen_ino(rng), gen_page(rng, window.len)),
        7..=9 => Op::Share(window),
        10..=14 => Op::Release(window, rng.gen_range(0, 2) == 0),
        15 => Op::Corrupt(block),
        16 => Op::Repair(block),
        17 => Op::Fork,
        _ => Op::Coalesce(
            (0..rng.gen_range(0, 24))
                .map(|_| rng.gen_range(0, 32))
                .collect(),
        ),
    }
}

/// Widest inode a back-reference holds.
const EDGE_INO: u64 = u32::MAX as u64 - 1;
/// Widest page a back-reference holds.
const EDGE_PAGE: u64 = u32::MAX as u64;
/// One past it.
const EDGE_PAGE_END: u64 = EDGE_PAGE + 1;

/// Mostly small inodes; sometimes the widest, or one past it.
fn gen_ino(rng: &mut SimRng) -> InodeNr {
    InodeNr(match rng.gen_range(0, 16) {
        0..=1 => EDGE_INO,
        2 => EDGE_INO + 1,
        _ => rng.gen_range(1, 5),
    })
}

/// First page of a `len`-page stamp: mostly small; sometimes a run
/// that ends on the widest page, or the widest page itself, which
/// only a one-page run fits.
fn gen_page(rng: &mut SimRng, len: u64) -> u64 {
    match rng.gen_range(0, 16) {
        0..=1 => EDGE_PAGE + 1 - len,
        2 => EDGE_PAGE,
        _ => rng.gen_range(0, 64),
    }
}

const NO_BACKREF: u64 = u64::MAX;

/// A deliberate defect in the model, which the suite must catch.
#[derive(Clone, Copy, PartialEq)]
enum Sabotage {
    None,
    /// A live release leaves the back-reference behind.
    StaleBackrefs,
    /// The page is packed into 31 bits: its top bit is lost.
    DropPageTopBit,
    /// A live release that trims a piece leaves a one-block stub: the
    /// run's first block keeps its back-reference when the block before
    /// it continues into it.
    TrimStub,
    /// A snapshot reference does not split the piece its run ends in:
    /// the block after the run gains a reference too, when the table
    /// would hold it in one piece with the run's last block.
    UnsplitShare,
}

/// The flat layout: one slot per block in each column.
#[derive(Clone)]
struct Flat {
    refcount: Vec<u32>,
    backref_ino: Vec<u64>,
    backref_idx: Vec<u64>,
    /// The stored checksum is good: set by a write or a repair, never
    /// cleared.
    checksum_ok: Vec<bool>,
    corrupted: BTreeSet<u64>,
    sabotage: Sabotage,
}

impl Flat {
    fn new(capacity: u64, sabotage: Sabotage) -> Flat {
        let n = capacity as usize;
        Flat {
            refcount: vec![0; n],
            backref_ino: vec![NO_BACKREF; n],
            backref_idx: vec![0; n],
            checksum_ok: vec![false; n],
            corrupted: BTreeSet::new(),
            sabotage,
        }
    }

    /// Whether a back-reference holds every page of the stamp.
    fn fits(run: Run, ino: InodeNr, first_page: u64) -> bool {
        ino.raw() <= EDGE_INO && first_page + run.len - 1 <= EDGE_PAGE
    }

    fn stamp_run(&mut self, run: Run, ino: InodeNr, first_page: u64) {
        let top_bit = 1 << 31;
        for (b, mut page) in run.blocks().zip(first_page..) {
            if self.sabotage == Sabotage::DropPageTopBit {
                page &= !top_bit;
            }
            let i = b.raw() as usize;
            self.checksum_ok[i] = true;
            self.corrupted.remove(&b.raw());
            self.refcount[i] += 1;
            self.backref_ino[i] = ino.raw();
            self.backref_idx[i] = page;
        }
    }

    fn ref_run(&mut self, run: Run) {
        let last = (run.start.raw() + run.len - 1) as usize;
        let overrun = self.sabotage == Sabotage::UnsplitShare && self.one_piece(last);
        for b in run.blocks() {
            self.refcount[b.raw() as usize] += 1;
        }
        if overrun {
            self.refcount[last + 1] += 1;
        }
    }

    /// Whether the table holds blocks `i` and `i + 1` in one piece: the
    /// same chunk, the same count, and back-references that continue
    /// each other or are both absent — unless both are blank.
    fn one_piece(&self, i: usize) -> bool {
        let j = i + 1;
        if j == self.refcount.len() || (j as u64).is_multiple_of(CHUNK_BLOCKS) {
            return false;
        }
        let owners = match (self.backref_ino[i], self.backref_ino[j]) {
            (NO_BACKREF, NO_BACKREF) => self.refcount[i] > 0,
            _ => self.continues_into(BlockNr(j as u64)),
        };
        owners && self.refcount[i] == self.refcount[j]
    }

    /// The blocks that reached zero, in order.
    fn release_run(&mut self, run: Run, live: bool) -> Vec<BlockNr> {
        let stub = self.sabotage == Sabotage::TrimStub && self.continues_into(run.start);
        let mut zeroed = Vec::new();
        for b in run.blocks() {
            let i = b.raw() as usize;
            self.refcount[i] -= 1;
            let kept = self.sabotage == Sabotage::StaleBackrefs || (stub && b == run.start);
            if live && !kept {
                self.backref_ino[i] = NO_BACKREF;
            }
            if self.refcount[i] == 0 {
                zeroed.push(b);
            }
        }
        zeroed
    }

    /// Whether the block before `b` backs the page before `b`'s, in the
    /// same file.
    fn continues_into(&self, b: BlockNr) -> bool {
        let Some(i) = (b.raw() as usize).checked_sub(1) else {
            return false;
        };
        let (ino, idx) = (self.backref_ino[i], self.backref_idx[i]);
        ino != NO_BACKREF && ino == self.backref_ino[i + 1] && idx + 1 == self.backref_idx[i + 1]
    }

    fn set_backref(&mut self, b: BlockNr, br: BackRef) {
        let i = b.raw() as usize;
        self.backref_ino[i] = br.ino.raw();
        self.backref_idx[i] = br.index.raw();
    }

    /// How many blocks from `b` on back the pages that follow `b`'s, in
    /// the same file, up to the end of `b`'s chunk.
    fn run_from(&self, b: BlockNr) -> u64 {
        let chunk_end = (b.raw() / CHUNK_BLOCKS + 1) * CHUNK_BLOCKS;
        let blocks = (b.raw()..chunk_end.min(CAPACITY)).map(BlockNr);
        1 + blocks
            .skip(1)
            .take_while(|&next| self.continues_into(next))
            .count() as u64
    }

    /// A table rebuilt block by block to the model's state: one
    /// reference, repair, corruption and back-reference at a time.
    fn rebuild(&self) -> Result<BlockTable, SimError> {
        let mut t = BlockTable::new(self.refcount.len() as u64);
        for (i, &n) in self.refcount.iter().enumerate() {
            let b = BlockNr(i as u64);
            if self.checksum_ok[i] {
                t.repair(b)?;
            }
            for _ in 0..n {
                t.ref_inc(b)?;
            }
            if let Some(br) = self.observe(b).1? {
                t.set_backref(b, br)?;
            }
        }
        for &b in &self.corrupted {
            t.inject_corruption(BlockNr(b))?;
        }
        Ok(t)
    }

    /// A repair makes the stored checksum good, even on a block never
    /// written.
    fn repair(&mut self, b: BlockNr) {
        self.corrupted.remove(&b.raw());
        self.checksum_ok[b.raw() as usize] = true;
    }

    /// What the getters must return for `b`.
    fn observe(&self, b: BlockNr) -> Observed {
        let i = b.raw() as usize;
        let backref = (self.backref_ino[i] != NO_BACKREF).then(|| BackRef {
            ino: InodeNr(self.backref_ino[i]),
            index: PageIndex(self.backref_idx[i]),
        });
        let verified = if self.corrupted.contains(&b.raw()) || !self.checksum_ok[i] {
            Err(SimError::ChecksumMismatch(b))
        } else {
            Ok(())
        };
        let run = backref.map(|br| (br, self.run_from(b)));
        (Ok(self.refcount[i]), Ok(backref), Ok(run), verified)
    }
}

type Observed = (
    Result<u32, SimError>,
    Result<Option<BackRef>, SimError>,
    Result<Option<(BackRef, u64)>, SimError>,
    Result<(), SimError>,
);

fn observe(t: &BlockTable, b: BlockNr) -> Observed {
    let (refcount, backref) = (t.refcount_of(b), t.backref_of(b));
    (refcount, backref, t.backref_run(b), t.verify_checksum(b))
}

/// The first difference between table and model over `blocks`.
fn diverged(
    t: &BlockTable,
    model: &Flat,
    mut blocks: impl Iterator<Item = BlockNr>,
) -> Option<String> {
    if t.corrupted_count() != model.corrupted.len() {
        let want = model.corrupted.len();
        return Some(format!("corrupted_count {} vs {want}", t.corrupted_count()));
    }
    blocks.find_map(|b| {
        let (got, want) = (observe(t, b), model.observe(b));
        (got != want).then(|| format!("{b}: {got:?} vs {want:?}"))
    })
}

/// `runs` must be ascending, non-touching, and expand to `blocks`.
fn is_maximal_cover(runs: &[Run], blocks: &[BlockNr]) -> bool {
    let touching = |w: &[Run]| w[0].start.raw() + w[0].len >= w[1].start.raw();
    let expanded = runs.iter().flat_map(|r| r.blocks());
    !runs.windows(2).any(touching) && expanded.eq(blocks.iter().copied())
}

/// Coalesces `blocks` into an output buffer that already holds a run,
/// and checks the runs are maximal, ascending and cover exactly the
/// deduplicated input.
fn check_coalesce(blocks: &[u64]) -> Result<(), String> {
    let mut input: Vec<BlockNr> = blocks.iter().copied().map(BlockNr).collect();
    let mut want = input.clone();
    want.sort_unstable();
    want.dedup();
    let stale = Run {
        start: BlockNr(1000),
        len: 3,
    };
    let mut runs = vec![stale];
    sim_disk::coalesce_into(&mut input, &mut runs);
    if is_maximal_cover(&runs, &want) {
        Ok(())
    } else {
        Err(format!("{blocks:?} coalesced to {runs:?}"))
    }
}

fn replay(log: &[Op], sabotage: Sabotage) -> Result<(), String> {
    let mut table = BlockTable::new(CAPACITY);
    let mut model = Flat::new(CAPACITY, sabotage);
    // Each fork's original, and the model as it was at the fork.
    let mut forked: Vec<(BlockTable, Flat)> = Vec::new();
    for (i, op) in log.iter().enumerate() {
        let fail = |what: &str| format!("op {i} {op:?}: {what}");
        let err = |e: SimError| fail(&e.to_string());
        match op {
            &Op::Stamp(run, ino, page) if Flat::fits(run, ino, page) => {
                table.stamp_run(run, ino, page).map_err(err)?;
                model.stamp_run(run, ino, page);
            }
            // Too wide for a back-reference: refused, the model untouched.
            &Op::Stamp(run, ino, page) => match table.stamp_run(run, ino, page) {
                Err(SimError::InvalidArgument(_)) => {}
                got => return Err(fail(&format!("stamp too wide, got {got:?}"))),
            },
            &Op::Share(run) => {
                table.ref_run(run).map_err(err)?;
                model.ref_run(run);
            }
            // Only referenced blocks can be let go of.
            Op::Release(run, _) if run.blocks().any(|b| model.refcount[b.raw() as usize] == 0) => {
                continue
            }
            &Op::Release(run, live) => {
                let freed = table.release_run(run, live).map_err(err)?;
                let zeroed = model.release_run(run, live);
                if !is_maximal_cover(&freed, &zeroed) {
                    return Err(fail(&format!("freed {freed:?}, model {zeroed:?}")));
                }
            }
            &Op::SetBackref(b, br) => {
                table.set_backref(b, br).map_err(err)?;
                model.set_backref(b, br);
            }
            &Op::RefInc(b) => {
                table.ref_inc(b).map_err(err)?;
                model.refcount[b.raw() as usize] += 1;
            }
            &Op::Corrupt(b) => {
                table.inject_corruption(b).map_err(err)?;
                model.corrupted.insert(b.raw());
            }
            &Op::Repair(b) => {
                table.repair(b).map_err(err)?;
                model.repair(b);
            }
            Op::Fork => {
                let clone = table.clone();
                forked.push((std::mem::replace(&mut table, clone), model.clone()));
            }
            Op::Coalesce(blocks) => {
                if let Err(what) = check_coalesce(blocks) {
                    return Err(fail(&what));
                }
            }
        }
        if let Some(what) = diverged(&table, &model, hot_blocks()) {
            return Err(fail(&format!("table and model diverged at {what}")));
        }
    }
    let everywhere = || (0..CAPACITY).map(BlockNr);
    if let Some(what) = diverged(&table, &model, everywhere()) {
        return Err(format!("end of log: table and model diverged at {what}"));
    }
    if table != model.rebuild().map_err(|e| format!("rebuild: {e}"))? {
        return Err("end of log: the table differs from its block-by-block rebuild".into());
    }
    for (k, (original, then)) in forked.iter().enumerate() {
        if let Some(what) = diverged(original, then, everywhere()) {
            return Err(format!("fork {k}'s original diverged at {what}"));
        }
    }
    Ok(())
}

#[test]
fn block_table_matches_the_flat_model() {
    let seed = Knob::CheckSeed
        .read()
        .unwrap_or_else(|e| panic!("{e}"))
        .unwrap_or(0xB10C_7AB1);
    let cfg = DiffConfig::new("run_ops_differential", seed).ops(400);
    let mut gen = Gen::default();
    differential(
        &cfg,
        |rng, i| gen.op(rng, i),
        |log| replay(log, Sabotage::None),
    )
    .unwrap();
}

/// The edge cases of coalescing, each into a non-empty output buffer;
/// the op log above draws random lists through the same check.
#[test]
fn coalesce_into_covers_each_edge_case() {
    let rows: [(&str, &[u64]); 5] = [
        ("empty input", &[]),
        ("one block", &[7]),
        ("duplicates", &[4, 4, 5, 4, 5]),
        ("descending input", &[9, 8, 7, 3, 2]),
        ("two runs", &[10, 11, 12, 20, 21]),
    ];
    for (row, blocks) in rows {
        check_coalesce(blocks).unwrap_or_else(|what| panic!("{row}: {what}"));
    }
}

/// A piece is 16 B, its `u16` count riding beside the slot run and
/// the packed owner: what a first write copies, per piece of the chunk.
#[test]
fn a_piece_is_sixteen_bytes() {
    assert_eq!(PIECE_BYTES, 16);
}

/// The harness can fail: a model whose live release forgets to clear
/// the back-reference is caught, and the log shrinks to the stamps and
/// the release that expose it.
#[test]
fn a_model_with_stale_backrefs_is_caught() {
    let cfg = DiffConfig::new("run_ops_vs_stale_model", 0x57A1E)
        .cases(4)
        .ops(400);
    let mut gen = Gen::default();
    let gen = |rng: &mut SimRng, i| gen.op(rng, i);
    let failure = differential(&cfg, gen, |log| replay(log, Sabotage::StaleBackrefs)).unwrap_err();
    assert!(failure.ops.len() <= 3, "{failure}");
    assert!(failure.message.contains("diverged"), "{failure}");
}

/// A packing that keeps 31 bits of the page is caught at the edge
/// pages, and the log shrinks to the one stamp that reaches them.
#[test]
fn a_packing_that_drops_the_page_top_bit_is_caught() {
    let cfg = DiffConfig::new("run_ops_vs_31_bit_pages", 0x70B17)
        .cases(4)
        .ops(400);
    let sabotage = Sabotage::DropPageTopBit;
    let mut gen = Gen::default();
    let gen = |rng: &mut SimRng, i| gen.op(rng, i);
    let failure = differential(&cfg, gen, |log| replay(log, sabotage)).unwrap_err();
    assert_eq!(failure.ops.len(), 1, "{failure}");
    assert!(failure.ops[0].starts_with("Stamp"), "{failure}");
    assert!(failure.message.contains("diverged"), "{failure}");
}

/// A trim that leaves a one-block stub is caught, and the log shrinks
/// to a stamp and the live release that cuts into its piece.
#[test]
fn a_model_whose_trim_leaves_a_stub_is_caught() {
    let cfg = DiffConfig::new("run_ops_vs_trim_stub", 0x57AB)
        .cases(4)
        .ops(400);
    let mut gen = Gen::default();
    let gen = |rng: &mut SimRng, i| gen.op(rng, i);
    let failure = differential(&cfg, gen, |log| replay(log, Sabotage::TrimStub)).unwrap_err();
    assert!(failure.ops.len() <= 3, "{failure}");
    assert!(
        failure.ops.iter().any(|op| op.starts_with("Release")),
        "{failure}"
    );
    assert!(failure.message.contains("diverged"), "{failure}");
}

/// A snapshot reference that does not split the piece its run ends in
/// is caught, and the log shrinks to a stamp and a reference that ends
/// inside it.
#[test]
fn a_model_whose_share_overruns_its_run_is_caught() {
    let cfg = DiffConfig::new("run_ops_vs_unsplit_share", 0x5B1D)
        .cases(4)
        .ops(400);
    let mut gen = Gen::default();
    let gen = |rng: &mut SimRng, i| gen.op(rng, i);
    let failure = differential(&cfg, gen, |log| replay(log, Sabotage::UnsplitShare)).unwrap_err();
    assert!(failure.ops.len() <= 3, "{failure}");
    assert!(
        failure.ops.iter().any(|op| op.starts_with("Share")),
        "{failure}"
    );
    assert!(failure.message.contains("diverged"), "{failure}");
}
