//! The run-level block-table operations against the per-block loops
//! they replaced, kept here as the reference: `write_block`, `ref_inc`
//! and `set_backref` per block for `stamp_run`, `ref_inc` per block for
//! `ref_run`, `clear_backref` and `ref_dec` per block for `release_run`.
//! The tables must be `==` after every op, the freed runs must be
//! exactly the blocks that reached zero, and `sim_disk::coalesce` must
//! turn any block list into its maximal ascending runs. Driven by
//! `sim_core::check::differential`: a failure prints the replay seed
//! and a shrunk op log.

use sim_btrfs::{BackRef, BlockTable, Run};
use sim_core::check::{differential, DiffConfig};
use sim_core::fault::seed_from_env;
use sim_core::{BlockNr, InodeNr, PageIndex, SimError, SimRng};

const CAPACITY: u64 = 96;

#[derive(Clone, Debug)]
enum Op {
    /// COW write lands on a window, for pages `.2..` of file `.1`.
    Stamp(Run, InodeNr, u64),
    /// A snapshot starts sharing a window.
    Share(Run),
    /// The live tree (`true`) or a snapshot lets go of a window; after
    /// `Share` this is partial release under snapshot sharing.
    Release(Run, bool),
    /// Unsorted block list with duplicates.
    Coalesce(Vec<u64>),
}

fn gen_op(rng: &mut SimRng, _i: u64) -> Op {
    let start = rng.gen_range(0, CAPACITY);
    let window = Run {
        start: BlockNr(start),
        len: rng.gen_range(1, 12).min(CAPACITY - start),
    };
    match rng.gen_range(0, 10) {
        0..=3 => Op::Stamp(window, InodeNr(rng.gen_range(1, 5)), rng.gen_range(0, 64)),
        4..=5 => Op::Share(window),
        6..=8 => Op::Release(window, rng.gen_range(0, 2) == 0),
        _ => Op::Coalesce(
            (0..rng.gen_range(0, 24))
                .map(|_| rng.gen_range(0, 32))
                .collect(),
        ),
    }
}

/// `runs` must be ascending, non-touching, and expand to `blocks`.
fn is_maximal_cover(runs: &[Run], blocks: &[BlockNr]) -> bool {
    let touching = |w: &[Run]| w[0].start.raw() + w[0].len >= w[1].start.raw();
    let expanded = runs.iter().flat_map(|r| r.blocks());
    !runs.windows(2).any(touching) && expanded.eq(blocks.iter().copied())
}

fn replay(log: &[Op]) -> Result<(), String> {
    let mut fast = BlockTable::new(CAPACITY);
    let mut slow = BlockTable::new(CAPACITY);
    for (i, op) in log.iter().enumerate() {
        let fail = |what: &str| format!("op {i} {op:?}: {what}");
        let err = |e: SimError| fail(&e.to_string());
        match op {
            &Op::Stamp(run, ino, page) => {
                fast.stamp_run(run, ino, page).map_err(err)?;
                for (b, p) in run.blocks().zip(page..) {
                    slow.write_block(b).map_err(err)?;
                    slow.ref_inc(b).map_err(err)?;
                    let index = PageIndex(p);
                    slow.set_backref(b, BackRef { ino, index }).map_err(err)?;
                }
            }
            &Op::Share(run) => {
                fast.ref_run(run).map_err(err)?;
                for b in run.blocks() {
                    slow.ref_inc(b).map_err(err)?;
                }
            }
            // Only referenced blocks can be let go of.
            Op::Release(run, _) if run.blocks().any(|b| slow.refcount_of(b) == Ok(0)) => continue,
            &Op::Release(run, live) => {
                let mut zeroed = Vec::new();
                for b in run.blocks() {
                    if live {
                        slow.clear_backref(b).map_err(err)?;
                    }
                    if slow.ref_dec(b).map_err(err)? {
                        zeroed.push(b);
                    }
                }
                let freed = fast.release_run(run, live).map_err(err)?;
                if !is_maximal_cover(&freed, &zeroed) {
                    return Err(fail(&format!("freed {freed:?}")));
                }
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
        if fast != slow {
            return Err(fail("block tables diverged"));
        }
    }
    Ok(())
}

#[test]
fn run_level_ops_match_the_per_block_loops() {
    let seed = seed_from_env("DUET_CHECK_SEED", 0xB10C_7AB1).unwrap_or_else(|e| panic!("{e}"));
    let cfg = DiffConfig::new("run_ops_differential", seed).ops(400);
    differential(&cfg, gen_op, replay).unwrap();
}
