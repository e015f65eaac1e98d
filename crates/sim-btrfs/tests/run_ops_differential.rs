//! The block table against a naive flat model of it: one per-block
//! `Vec` per column (reference count, back-reference, checksum-good
//! flag), each run operation a plain loop over them. Every op's window
//! is drawn across a chunk boundary; after each op the two are compared
//! through the public getters (`refcount_of`, `backref_of`,
//! `verify_checksum`, `corrupted_count`) around every boundary, and
//! over the whole device at the end. A `Fork` clones the table and the model; later ops
//! mutate the clone, and the original must still match the model as
//! it was at the fork — a fork never writes through. The freed runs
//! must be exactly the blocks that reached zero, and
//! `sim_disk::coalesce` must turn any block list into its maximal
//! ascending runs. Driven by `sim_core::check::differential`: a failure
//! prints the replay seed and a shrunk op log.

use sim_btrfs::blocktable::CHUNK_BLOCKS;
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

fn gen_op(rng: &mut SimRng, _i: u64) -> Op {
    let at = rng.gen_range(0, 4) * CHUNK_BLOCKS;
    let start = (at + rng.gen_range(0, 2 * REACH)).saturating_sub(REACH);
    let window = Run {
        start: BlockNr(start),
        len: rng.gen_range(1, REACH + 1).min(CAPACITY - start),
    };
    let block = window.start.offset(rng.gen_range(0, window.len));
    match rng.gen_range(0, 20) {
        0..=6 => Op::Stamp(window, InodeNr(rng.gen_range(1, 5)), rng.gen_range(0, 64)),
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

const NO_BACKREF: u64 = u64::MAX;

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
    /// The sabotage: a live release leaves the back-reference behind.
    stale_backrefs: bool,
}

impl Flat {
    fn new(capacity: u64, stale_backrefs: bool) -> Flat {
        let n = capacity as usize;
        Flat {
            refcount: vec![0; n],
            backref_ino: vec![NO_BACKREF; n],
            backref_idx: vec![0; n],
            checksum_ok: vec![false; n],
            corrupted: BTreeSet::new(),
            stale_backrefs,
        }
    }

    fn stamp_run(&mut self, run: Run, ino: InodeNr, first_page: u64) {
        for (b, page) in run.blocks().zip(first_page..) {
            let i = b.raw() as usize;
            self.checksum_ok[i] = true;
            self.corrupted.remove(&b.raw());
            self.refcount[i] += 1;
            self.backref_ino[i] = ino.raw();
            self.backref_idx[i] = page;
        }
    }

    fn ref_run(&mut self, run: Run) {
        for b in run.blocks() {
            self.refcount[b.raw() as usize] += 1;
        }
    }

    /// The blocks that reached zero, in order.
    fn release_run(&mut self, run: Run, live: bool) -> Vec<BlockNr> {
        let mut zeroed = Vec::new();
        for b in run.blocks() {
            let i = b.raw() as usize;
            self.refcount[i] -= 1;
            if live && !self.stale_backrefs {
                self.backref_ino[i] = NO_BACKREF;
            }
            if self.refcount[i] == 0 {
                zeroed.push(b);
            }
        }
        zeroed
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
        (Ok(self.refcount[i]), Ok(backref), verified)
    }
}

type Observed = (
    Result<u32, SimError>,
    Result<Option<BackRef>, SimError>,
    Result<(), SimError>,
);

fn observe(t: &BlockTable, b: BlockNr) -> Observed {
    (t.refcount_of(b), t.backref_of(b), t.verify_checksum(b))
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

fn replay(log: &[Op], stale_backrefs: bool) -> Result<(), String> {
    let mut table = BlockTable::new(CAPACITY);
    let mut model = Flat::new(CAPACITY, stale_backrefs);
    // Each fork's original, and the model as it was at the fork.
    let mut forked: Vec<(BlockTable, Flat)> = Vec::new();
    for (i, op) in log.iter().enumerate() {
        let fail = |what: &str| format!("op {i} {op:?}: {what}");
        let err = |e: SimError| fail(&e.to_string());
        match op {
            &Op::Stamp(run, ino, page) => {
                table.stamp_run(run, ino, page).map_err(err)?;
                model.stamp_run(run, ino, page);
            }
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
                let mut sorted: Vec<BlockNr> = blocks.iter().copied().map(BlockNr).collect();
                let got = sim_disk::coalesce(sorted.clone());
                sorted.sort_unstable();
                sorted.dedup();
                if !is_maximal_cover(&got, &sorted) {
                    return Err(fail(&format!("coalesced to {got:?}")));
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
    differential(&cfg, gen_op, |log| replay(log, false)).unwrap();
}

/// The harness can fail: a model whose live release forgets to clear
/// the back-reference is caught, and the log shrinks to the stamps and
/// the release that expose it.
#[test]
fn a_model_with_stale_backrefs_is_caught() {
    let cfg = DiffConfig::new("run_ops_vs_stale_model", 0x57A1E)
        .cases(4)
        .ops(400);
    let failure = differential(&cfg, gen_op, |log| replay(log, true)).unwrap_err();
    assert!(failure.ops.len() <= 3, "{failure}");
    assert!(failure.message.contains("diverged"), "{failure}");
}
