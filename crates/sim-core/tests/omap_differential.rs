//! Differential fuzz: `DOrdMap` vs a `BTreeMap` oracle.
//!
//! Driven by `sim_core::check::differential` — seeded op logs replayed
//! against both maps, with shrink-on-failure. The base seed comes from
//! `DUET_CHECK_SEED` (decimal or `0x`-hex): unset, the default below
//! is the pinned seed; CI rotates it per run and logs the value,
//! mirroring the fault-matrix split. Each test runs ≥ 10 independently seeded cases.

use sim_core::check::{differential, DiffConfig};
use sim_core::fault::seed_from_env;
use sim_core::omap::DOrdMap;
use sim_core::SimRng;
use std::collections::BTreeMap;

/// One operation of the differential log. Mutations and queries both
/// carry their operands so a shrunk log replays standalone.
#[derive(Clone, Debug)]
enum Op {
    Insert(u64, u64),
    Remove(u64),
    Get(u64),
    Floor(u64),
    Ceil(u64),
    Pred(u64),
    Succ(u64),
    /// Forward-collect `range(lo..hi)`.
    Range(u64, u64),
    /// The extent-map floor idiom: `range(..=k).next_back()`.
    RangeBack(u64),
    /// `range` under arbitrary (possibly inverted) bound kinds:
    /// `(start_kind, start_key, end_kind, end_key)` with kinds 0 =
    /// `Included`, 1 = `Excluded`, 2 = `Unbounded`. Ranges the
    /// `BTreeMap` oracle would panic on must yield an empty iterator.
    RangeBounds(u8, u64, u8, u64),
    /// `range(lo..=hi)` consumed from both ends, one end per bit of
    /// the pattern, with the exact size hint checked at every step.
    RangeMixed(u64, u64, u32),
    /// Full ordered iteration, forward and reverse.
    IterCheck,
    Clear,
}

fn gen_op(rng: &mut SimRng, _i: u64) -> Op {
    let k = rng.gen_range(0, 128);
    match rng.gen_range(0, 14) {
        0..=3 => Op::Insert(k, rng.gen_range(0, 1 << 20)),
        4..=5 => Op::Remove(k),
        6 => Op::Get(k),
        7 => Op::Floor(k),
        8 => match rng.gen_range(0, 3) {
            0 => Op::Ceil(k),
            1 => Op::Pred(k),
            _ => Op::Succ(k),
        },
        9 => {
            let l = rng.gen_range(0, 128);
            Op::Range(l.min(k), l.max(k))
        }
        10 => Op::RangeBack(k),
        11 => Op::RangeBounds(
            rng.gen_range(0, 3) as u8,
            k,
            rng.gen_range(0, 3) as u8,
            rng.gen_range(0, 130),
        ),
        12 => {
            let l = rng.gen_range(0, 128);
            Op::RangeMixed(l.min(k), l.max(k), rng.gen_range(0, 1 << 16) as u32)
        }
        _ => {
            if rng.gen_range(0, 40) == 0 {
                Op::Clear
            } else {
                Op::IterCheck
            }
        }
    }
}

fn bound(kind: u8, k: u64) -> std::ops::Bound<u64> {
    match kind {
        0 => std::ops::Bound::Included(k),
        1 => std::ops::Bound::Excluded(k),
        _ => std::ops::Bound::Unbounded,
    }
}

/// Applies a log to a fresh `DOrdMap` (deliberately small chunks so the
/// log crosses many chunk splits/merges) and a fresh `BTreeMap`,
/// comparing every observable.
fn replay(log: &[Op]) -> Result<(), String> {
    let mut m: DOrdMap<u64, u64> = DOrdMap::with_chunk_max(8);
    let mut oracle: BTreeMap<u64, u64> = BTreeMap::new();
    let kv = |e: (&u64, &u64)| (*e.0, *e.1);
    for (i, op) in log.iter().enumerate() {
        let fail = |what: &str| format!("op {i} {op:?}: {what} diverged");
        match *op {
            Op::Insert(k, v) => {
                if m.insert(k, v) != oracle.insert(k, v) {
                    return Err(fail("insert"));
                }
            }
            Op::Remove(k) => {
                if m.remove(&k) != oracle.remove(&k) {
                    return Err(fail("remove"));
                }
            }
            Op::Get(k) => {
                if m.get(&k) != oracle.get(&k) {
                    return Err(fail("get"));
                }
            }
            Op::Floor(k) => {
                if m.floor(&k).map(kv) != oracle.range(..=k).next_back().map(kv) {
                    return Err(fail("floor"));
                }
            }
            Op::Ceil(k) => {
                if m.ceil(&k).map(kv) != oracle.range(k..).next().map(kv) {
                    return Err(fail("ceil"));
                }
            }
            Op::Pred(k) => {
                if m.pred(&k).map(kv) != oracle.range(..k).next_back().map(kv) {
                    return Err(fail("pred"));
                }
            }
            Op::Succ(k) => {
                let excl = (std::ops::Bound::Excluded(k), std::ops::Bound::Unbounded);
                if m.succ(&k).map(kv) != oracle.range(excl).next().map(kv) {
                    return Err(fail("succ"));
                }
            }
            Op::Range(lo, hi) => {
                let got: Vec<(u64, u64)> = m.range(lo..hi).map(kv).collect();
                let want: Vec<(u64, u64)> = oracle.range(lo..hi).map(kv).collect();
                if got != want {
                    return Err(fail("range"));
                }
                let got_rev: Vec<(u64, u64)> = m.range(lo..hi).rev().map(kv).collect();
                let want_rev: Vec<(u64, u64)> = oracle.range(lo..hi).rev().map(kv).collect();
                if got_rev != want_rev {
                    return Err(fail("range.rev"));
                }
            }
            Op::RangeBack(k) => {
                if m.range(..=k).next_back().map(kv) != oracle.range(..=k).next_back().map(kv) {
                    return Err(fail("range(..=k).next_back"));
                }
            }
            Op::RangeBounds(lk, lo, hk, hi) => {
                let range = (bound(lk, lo), bound(hk, hi));
                let n = m.range(range).len();
                if m.range(range).size_hint() != (n, Some(n)) {
                    return Err(fail("range bounds size_hint"));
                }
                let got: Vec<(u64, u64)> = m.range(range).map(kv).collect();
                // BTreeMap::range panics on start > end, and on start
                // == end with both bounds excluded; DOrdMap documents
                // those as empty instead.
                let oracle_ok =
                    lk == 2 || hk == 2 || lo < hi || (lo == hi && !(lk == 1 && hk == 1));
                if oracle_ok {
                    let want: Vec<(u64, u64)> = oracle.range(range).map(kv).collect();
                    if got != want {
                        return Err(fail("range bounds"));
                    }
                    let got_rev: Vec<(u64, u64)> = m.range(range).rev().map(kv).collect();
                    let want_rev: Vec<(u64, u64)> = oracle.range(range).rev().map(kv).collect();
                    if got_rev != want_rev {
                        return Err(fail("range bounds rev"));
                    }
                } else if !got.is_empty() || n != 0 {
                    return Err(fail("inverted range not empty"));
                }
            }
            Op::RangeMixed(lo, hi, pattern) => {
                let mut it = m.range(lo..=hi);
                let mut want: std::collections::VecDeque<(u64, u64)> =
                    oracle.range(lo..=hi).map(kv).collect();
                for bit in 0..u32::BITS {
                    let n = want.len();
                    if it.len() != n || it.size_hint() != (n, Some(n)) {
                        return Err(fail("mixed size_hint"));
                    }
                    let (got, expect) = if (pattern >> bit) & 1 == 1 {
                        (it.next_back().map(kv), want.pop_back())
                    } else {
                        (it.next().map(kv), want.pop_front())
                    };
                    if got != expect {
                        return Err(fail("mixed consumption"));
                    }
                    if got.is_none() {
                        break;
                    }
                }
            }
            Op::IterCheck => {
                let got: Vec<(u64, u64)> = m.iter().map(kv).collect();
                let want: Vec<(u64, u64)> = oracle.iter().map(kv).collect();
                if got != want {
                    return Err(fail("iter"));
                }
                let got_rev: Vec<(u64, u64)> = m.iter().rev().map(kv).collect();
                if got_rev.iter().rev().cloned().collect::<Vec<_>>() != want {
                    return Err(fail("iter.rev"));
                }
                if m.first_key_value().map(kv) != oracle.first_key_value().map(kv)
                    || m.last_key_value().map(kv) != oracle.last_key_value().map(kv)
                {
                    return Err(fail("first/last"));
                }
            }
            Op::Clear => {
                m.clear();
                oracle.clear();
            }
        }
        if m.len() != oracle.len() {
            return Err(fail("len"));
        }
    }
    Ok(())
}

/// ≥ 10 independently seeded op logs, every ordered-map observable —
/// point ops, neighbour queries, ranges in both directions — compared
/// against the `BTreeMap` oracle op by op.
#[test]
fn dordmap_matches_btreemap_oracle() {
    let seed = seed_from_env("DUET_CHECK_SEED", 0xD1FF_BA5E).unwrap_or_else(|e| panic!("{e}"));
    let cfg = DiffConfig::new("dordmap-vs-btreemap", seed)
        .cases(12)
        .ops(3000);
    differential(&cfg, gen_op, replay).unwrap();
}

/// The same differential harness must actually detect a broken ordered
/// map — sabotage check so a vacuously green fuzz cannot ship. A map
/// that silently drops odd-key inserts must be caught and the failing
/// log shrunk to the single triggering insert.
#[test]
fn differential_harness_detects_sabotage() {
    let seed = seed_from_env("DUET_CHECK_SEED", 0xD1FF_BA5E).unwrap_or_else(|e| panic!("{e}"));
    let cfg = DiffConfig::new("sabotage", seed).cases(4).ops(500);
    let failure = differential(&cfg, gen_op, |log: &[Op]| {
        let mut m: DOrdMap<u64, u64> = DOrdMap::with_chunk_max(8);
        let mut oracle: BTreeMap<u64, u64> = BTreeMap::new();
        for (i, op) in log.iter().enumerate() {
            match *op {
                Op::Insert(k, v) => {
                    if k % 2 == 0 {
                        m.insert(k, v); // sabotage: odd keys vanish
                    }
                    oracle.insert(k, v);
                }
                Op::Remove(k) => {
                    m.remove(&k);
                    oracle.remove(&k);
                }
                _ => {}
            }
            if m.len() != oracle.len() {
                return Err(format!("op {i} {op:?}: len diverged"));
            }
        }
        Ok(())
    })
    .unwrap_err();
    assert_eq!(failure.ops.len(), 1, "shrinks to one insert: {failure}");
    assert!(failure.ops[0].starts_with("Insert("), "{failure}");
    assert!(failure.message.contains("len diverged"));
}
