//! The `bench` CLI — the workspace's one binary: the table/figure
//! harnesses, the golden-fixture regenerator, zero-dependency
//! microbenchmarks and the perf-regression gate.
//!
//! - `bench run [harness…]` runs the named harnesses of
//!   [`bench::figs::ALL`] in-process (no names = the full
//!   reproduction) and writes their CSVs plus
//!   `results/BENCH_sweeps.json` (see [`cmd::run`]).
//! - `bench golden` rewrites the committed golden fixtures (see
//!   [`cmd::golden`]; deliberate, like `baseline`).
//! - `bench micro` runs deterministic op mixes against the hot-path
//!   containers (dmap, slab, page cache, priority queue, block table,
//!   sparse bitmap) and the Duet framework's event→hint path, and
//!   writes `results/BENCH_micro.json`.
//! - `bench gate` compares `results/BENCH_sweeps.json` and
//!   `results/BENCH_micro.json` against the committed
//!   `results/BENCH_baseline.json` and exits nonzero on a regression
//!   beyond the tolerance band (`DUET_GATE_TOL`, default 10 %; micro
//!   rows use `DUET_GATE_TOL_MICRO`, default 35 % — single-shot
//!   nanosecond medians are noisier than end-to-end walls). Simulated
//!   op counts are compared *exactly*: they are deterministic, so any
//!   drift is a behaviour change, not noise.
//! - `bench baseline` rewrites `results/BENCH_baseline.json` from the
//!   current sweeps + micro results (re-baselining is a reviewed,
//!   deliberate act — see DESIGN.md §12).
//!
//! Everything here measures through [`bench::harness::Stopwatch`], the
//! workspace's single sanctioned wall-clock gateway (lint rule D1).

use bench::harness::Stopwatch;
use bench::synthfs::{drain, SynthEvents, SynthFs, SYNTH_ROOT};
use duet::{Duet, EventMask, PrioQueue, TaskScope};
use sim_btrfs::BlockTable;
use sim_cache::{PageCache, PageKey};
use sim_core::{BlockNr, DMap, DOrdMap, DSet, InodeNr, PageIndex, SimRng, Slab, SparseBitmap};
use std::process::ExitCode;

mod cmd;

/// Timed samples per microbenchmark (median reported).
const SAMPLES: usize = 15;
/// Warmup iterations before sampling.
const WARMUP: usize = 2;

struct MicroResult {
    name: &'static str,
    /// Operations per sample iteration.
    ops: u64,
    /// Median wall time of one sample, in nanoseconds.
    median_ns: u128,
}

impl MicroResult {
    fn ns_per_op(&self) -> f64 {
        self.median_ns as f64 / self.ops.max(1) as f64
    }
}

/// Runs `routine` WARMUP + SAMPLES times and records the median wall
/// time. The routine's return value is black-boxed so the work cannot
/// be optimized away.
fn measure<O>(name: &'static str, ops: u64, mut routine: impl FnMut() -> O) -> MicroResult {
    for _ in 0..WARMUP {
        std::hint::black_box(routine());
    }
    let mut samples: Vec<u128> = Vec::with_capacity(SAMPLES);
    for _ in 0..SAMPLES {
        let sw = Stopwatch::start();
        let out = routine();
        samples.push(sw.elapsed_ns());
        std::hint::black_box(out);
    }
    samples.sort_unstable();
    MicroResult {
        name,
        ops,
        median_ns: samples[samples.len() / 2],
    }
}

/// Mixed insert/get/remove churn on the deterministic hash map.
fn micro_dmap() -> MicroResult {
    const OPS: u64 = 200_000;
    measure("dmap/churn", OPS, || {
        let mut rng = SimRng::new(0xD0A7);
        let mut m: DMap<u64, u64> = DMap::new();
        let mut acc = 0u64;
        for i in 0..OPS {
            let k = rng.gen_range(0, 4096);
            match i % 4 {
                0..=1 => {
                    m.insert(k, i);
                }
                2 => {
                    if let Some(&v) = m.get(&k) {
                        acc = acc.wrapping_add(v);
                    }
                }
                _ => {
                    m.remove(&k);
                }
            }
        }
        acc.wrapping_add(m.len() as u64)
    })
}

/// Membership churn on the deterministic hash set.
fn micro_dset() -> MicroResult {
    const OPS: u64 = 200_000;
    measure("dset/churn", OPS, || {
        let mut rng = SimRng::new(0x5E70);
        let mut s: DSet<u64> = DSet::new();
        let mut hits = 0u64;
        for i in 0..OPS {
            let k = rng.gen_range(0, 4096);
            match i % 4 {
                0..=1 => {
                    s.insert(k);
                }
                2 => {
                    if s.contains(&k) {
                        hits += 1;
                    }
                }
                _ => {
                    s.remove(&k);
                }
            }
        }
        hits + s.len() as u64
    })
}

/// Allocation churn on the slab arena (LIFO free-list reuse).
fn micro_slab() -> MicroResult {
    const OPS: u64 = 200_000;
    measure("slab/churn", OPS, || {
        let mut rng = SimRng::new(0x51AB);
        let mut slab: Slab<u64> = Slab::new();
        let mut live: Vec<u32> = Vec::new();
        let mut acc = 0u64;
        for i in 0..OPS {
            if live.len() < 512 || rng.gen_range(0, 2) == 0 {
                live.push(slab.insert(i));
            } else {
                let at = rng.gen_range(0, live.len() as u64) as usize;
                let h = live.swap_remove(at);
                acc = acc.wrapping_add(slab.remove(h).unwrap_or(0));
            }
        }
        acc.wrapping_add(slab.len() as u64)
    })
}

/// Ordered-map churn on the deterministic chunked sorted vector: the
/// extent-map mix of inserts, floor queries (`range(..=k).next_back()`,
/// the FIBMAP translation), short forward ranges and removals.
fn micro_omap() -> MicroResult {
    const OPS: u64 = 200_000;
    measure("omap/churn_floor_range", OPS, || {
        let mut rng = SimRng::new(0x0DD1);
        let mut m: DOrdMap<u64, u64> = DOrdMap::new();
        let mut acc = 0u64;
        for i in 0..OPS {
            let k = rng.gen_range(0, 4096);
            match i % 8 {
                0..=2 => {
                    m.insert(k, i);
                }
                3..=4 => {
                    if let Some((&fk, &fv)) = m.range(..=k).next_back() {
                        acc = acc.wrapping_add(fk ^ fv);
                    }
                }
                5 => {
                    for (&rk, _) in m.range(k..k + 64) {
                        acc = acc.wrapping_add(rk);
                    }
                }
                _ => {
                    m.remove(&k);
                }
            }
        }
        acc.wrapping_add(m.len() as u64)
    })
}

/// Page-cache insert pressure against a small capacity: every insert
/// past warm-up evicts through the intrusive LRU.
fn micro_cache_evict() -> MicroResult {
    const OPS: u64 = 50_000;
    measure("pagecache/insert_evict", OPS, || {
        let mut c = PageCache::new(1024);
        for i in 0..OPS {
            let k = PageKey::new(InodeNr(i % 64), PageIndex(i / 64));
            c.insert(k, Some(BlockNr(i)), i % 16 == 0);
            if i % 64 == 0 {
                c.writeback_batch(8);
            }
            if i % 256 == 0 {
                c.drain_events();
            }
        }
        c.drain_events().len() + c.stats().evictions as usize
    })
}

/// The cache's full hot-path mix: lookups, dirtying, writeback batches
/// and per-file flushes over a resident working set.
fn micro_cache_mixed() -> MicroResult {
    const OPS: u64 = 50_000;
    measure("pagecache/mixed", OPS, || {
        let mut rng = SimRng::new(0xCA8E);
        let mut c = PageCache::new(2048);
        let mut acc = 0usize;
        for i in 0..OPS {
            let ino = InodeNr(rng.gen_range(0, 32));
            let k = PageKey::new(ino, PageIndex(rng.gen_range(0, 128)));
            match i % 8 {
                0..=2 => {
                    c.insert(k, Some(BlockNr(i)), false);
                }
                3..=4 => {
                    if c.lookup(k).is_some() {
                        acc += 1;
                    }
                }
                5 => {
                    c.mark_dirty(k);
                }
                6 => {
                    acc += c.writeback_batch(8).len();
                }
                _ => {
                    acc += c.flush_file(ino).len();
                }
            }
            if i % 256 == 0 {
                c.drain_events();
            }
        }
        acc
    })
}

/// Upsert/pop churn with frequent priority ties on the binary heap.
fn micro_prioqueue() -> MicroResult {
    const OPS: u64 = 200_000;
    measure("prioqueue/upsert_pop", OPS, || {
        let mut rng = SimRng::new(0x9A11);
        let mut q: PrioQueue<u64, u64> = PrioQueue::new();
        let mut acc = 0u64;
        for i in 0..OPS {
            let k = rng.gen_range(0, 1024);
            match i % 4 {
                0..=1 => {
                    q.upsert(k, rng.gen_range(0, 16));
                }
                2 => {
                    if let Some((pk, pp)) = q.pop_max() {
                        acc = acc.wrapping_add(pk ^ pp);
                    }
                }
                _ => {
                    q.remove(k);
                }
            }
        }
        acc.wrapping_add(q.len() as u64)
    })
}

/// Corruption-set churn on the block table (inject, verify, repair).
fn micro_blocktable() -> MicroResult {
    const OPS: u64 = 100_000;
    measure("blocktable/corruption", OPS, || {
        let mut rng = SimRng::new(0xB10C);
        let mut t = BlockTable::new(8192);
        let mut bad = 0u64;
        for i in 0..OPS {
            let b = BlockNr(rng.gen_range(0, 8192));
            match i % 4 {
                0 => {
                    let _ = t.write_block(b);
                }
                1 => {
                    let _ = t.inject_corruption(b);
                }
                2 => {
                    if t.verify_checksum(b).is_err() {
                        bad += 1;
                    }
                }
                _ => {
                    let _ = t.repair(b);
                }
            }
        }
        bad + t.corrupted_count() as u64
    })
}

/// Word-at-a-time range operations on the sparse bitmap.
fn micro_bitmap() -> MicroResult {
    const OPS: u64 = 4_000;
    measure("bitmap/set_clear_range", OPS, || {
        let mut rng = SimRng::new(0xB17A);
        let mut bm = SparseBitmap::new();
        let mut total = 0u64;
        for _ in 0..OPS {
            let start = rng.gen_range(0, 1 << 20);
            let len = rng.gen_range(1, 4096);
            bm.set_range(start, len);
            if rng.gen_range(0, 2) == 0 {
                bm.clear_range(start + len / 4, len / 2);
            }
            total = total.wrapping_add(bm.count());
        }
        total
    })
}

/// The framework's event→hint path on the §6.4 stream (the one fig9
/// and the benchmark's `duet.k_*` kernels replay): every page event
/// through one file session, drained every 120 events — fig9's 10 ms
/// fetch interval.
fn micro_duet(name: &'static str, mask: EventMask) -> MicroResult {
    const OPS: u64 = 120_000;
    measure(name, OPS, || {
        let mut duet = Duet::with_defaults();
        let scope = TaskScope::File {
            registered_dir: SYNTH_ROOT,
        };
        let sid = duet
            .register(scope, mask, &SynthFs)
            .expect("a fresh framework has a free slot");
        let mut fetched = 0;
        for (i, (meta, ev)) in SynthEvents::default().take(OPS as usize).enumerate() {
            duet.handle_page_event(meta, ev, &SynthFs);
            if i % 120 == 119 {
                fetched += drain(&mut duet, sid).expect("the session is live");
            }
        }
        fetched + duet.descriptor_count()
    })
}

fn run_micro() -> std::io::Result<Vec<MicroResult>> {
    let results = vec![
        micro_dmap(),
        micro_dset(),
        micro_slab(),
        micro_omap(),
        micro_cache_evict(),
        micro_cache_mixed(),
        micro_prioqueue(),
        micro_blocktable(),
        micro_bitmap(),
        micro_duet(
            "duet/event_fetch",
            EventMask::ADDED | EventMask::REMOVED | EventMask::DIRTIED,
        ),
        micro_duet(
            "duet/state_event_fetch",
            EventMask::EXISTS | EventMask::MODIFIED,
        ),
    ];
    let mut s = String::new();
    s.push_str("{\n  \"schema_version\": 1,\n  \"benches\": [\n");
    for (i, r) in results.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"name\": \"{}\", \"ops\": {}, \"median_ns\": {}, \"ns_per_op\": {:.3}}}{}\n",
            r.name,
            r.ops,
            r.median_ns,
            r.ns_per_op(),
            if i + 1 < results.len() { "," } else { "" }
        ));
    }
    s.push_str("  ]\n}\n");
    std::fs::create_dir_all("results")?;
    std::fs::write("results/BENCH_micro.json", s)?;
    for r in &results {
        println!(
            "{:<28} {:>12} ops  median {:>10.1} us  {:>8.1} ns/op",
            r.name,
            r.ops,
            r.median_ns as f64 / 1e3,
            r.ns_per_op()
        );
    }
    println!("[saved results/BENCH_micro.json]");
    Ok(results)
}

// --- Minimal extraction of the JSON this workspace writes itself. ---
// The files are machine-written with known shapes (`bench run`,
// `run_micro`, `write_baseline`), so targeted scanning is sufficient
// and keeps the gate dependency-free.

/// The first number following `"key":` at any nesting level.
fn json_num(json: &str, key: &str) -> Option<f64> {
    let needle = format!("\"{key}\":");
    let at = json.find(&needle)? + needle.len();
    let rest = json[at..].trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// All `{"name": "...", ...}` objects in `json`, as (name, object-body)
/// pairs. Objects are single-line in every file this tool reads.
fn json_objects(json: &str) -> Vec<(String, String)> {
    let mut out = Vec::new();
    for line in json.lines() {
        let line = line.trim();
        if !line.starts_with('{') {
            continue;
        }
        if let Some(at) = line.find("\"name\": \"") {
            let rest = &line[at + 9..];
            if let Some(end) = rest.find('"') {
                out.push((rest[..end].to_string(), line.to_string()));
            }
        }
    }
    out
}

fn read(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))
}

/// Parses a gate tolerance from an env value. A malformed or
/// non-finite value is a hard error, not a silent fallback: `0,2`
/// would otherwise quietly loosen to the default, and `inf` would
/// make the gate unfailable.
fn parse_tolerance(var: &str, value: Option<&str>, default: f64) -> Result<f64, String> {
    let Some(raw) = value else {
        return Ok(default);
    };
    let t: f64 = raw
        .trim()
        .parse()
        .map_err(|_| format!("{var}={raw:?} is not a number (e.g. 0.10 for 10%)"))?;
    if !t.is_finite() {
        return Err(format!(
            "{var}={raw:?} must be finite (an infinite tolerance disables the gate)"
        ));
    }
    if t < 0.0 {
        return Err(format!("{var}={raw:?} must be >= 0"));
    }
    Ok(t)
}

fn tolerance(var: &str, default: f64) -> Result<f64, String> {
    let value = std::env::var(var).ok();
    parse_tolerance(var, value.as_deref(), default)
}

fn write_baseline() -> Result<(), String> {
    let sweeps = read("results/BENCH_sweeps.json")?;
    let micro = read("results/BENCH_micro.json")?;
    let scale = json_num(&sweeps, "scale").ok_or("sweeps: missing scale")?;
    let jobs = json_num(&sweeps, "jobs").ok_or("sweeps: missing jobs")?;
    let total = json_num(&sweeps, "total_wall_ms").ok_or("sweeps: missing total_wall_ms")?;
    let mut s = String::new();
    s.push_str("{\n  \"schema_version\": 1,\n");
    s.push_str(&format!("  \"scale\": {scale},\n  \"jobs\": {jobs},\n"));
    s.push_str(&format!("  \"sweeps_total_wall_ms\": {total:.3},\n"));
    s.push_str("  \"harnesses\": [\n");
    let harnesses = json_objects(&sweeps);
    for (i, (name, obj)) in harnesses.iter().enumerate() {
        let wall = json_num(obj, "wall_ms").unwrap_or(0.0);
        let ops = json_num(obj, "ops").unwrap_or(0.0) as u64;
        let wall_clock = obj.contains("\"wall_clock\": true");
        s.push_str(&format!(
            "    {{\"name\": \"{name}\", \"wall_ms\": {wall:.3}, \"ops\": {ops}, \
             \"wall_clock\": {wall_clock}}}{}\n",
            if i + 1 < harnesses.len() { "," } else { "" }
        ));
    }
    s.push_str("  ],\n  \"micro\": [\n");
    let benches = json_objects(&micro);
    for (i, (name, obj)) in benches.iter().enumerate() {
        let ns = json_num(obj, "ns_per_op").unwrap_or(0.0);
        s.push_str(&format!(
            "    {{\"name\": \"{name}\", \"ns_per_op\": {ns:.3}}}{}\n",
            if i + 1 < benches.len() { "," } else { "" }
        ));
    }
    s.push_str("  ]\n}\n");
    std::fs::write("results/BENCH_baseline.json", s)
        .map_err(|e| format!("writing baseline: {e}"))?;
    println!("[saved results/BENCH_baseline.json]");
    Ok(())
}

fn run_gate() -> Result<(), String> {
    let sweeps = read("results/BENCH_sweeps.json")?;
    let micro = read("results/BENCH_micro.json")?;
    let baseline = read("results/BENCH_baseline.json")?;
    let tol = tolerance("DUET_GATE_TOL", 0.10)?;
    let tol_micro = tolerance("DUET_GATE_TOL_MICRO", 0.35)?;
    let mut failures: Vec<String> = Vec::new();
    let mut checked = 0usize;

    // The baseline is only comparable at the same scale and job count.
    for key in ["scale", "jobs"] {
        let cur = json_num(&sweeps, key);
        let base = json_num(&baseline, key);
        if cur != base {
            return Err(format!(
                "gate: {key} mismatch (current {cur:?}, baseline {base:?}); \
                 run the baseline settings or re-baseline deliberately"
            ));
        }
    }

    let base_total =
        json_num(&baseline, "sweeps_total_wall_ms").ok_or("baseline: missing total")?;
    let cur_total = json_num(&sweeps, "total_wall_ms").ok_or("sweeps: missing total")?;
    checked += 1;
    if cur_total > base_total * (1.0 + tol) {
        failures.push(format!(
            "total_wall_ms regressed: {cur_total:.1} ms vs baseline {base_total:.1} ms \
             (+{:.1}%, tolerance {:.0}%)",
            100.0 * (cur_total / base_total - 1.0),
            tol * 100.0
        ));
    }

    // Simulated ops are deterministic: exact equality, no band.
    let base_harnesses = json_objects(&baseline);
    for (name, obj) in json_objects(&sweeps) {
        let Some((_, base_obj)) = base_harnesses.iter().find(|(n, _)| *n == name) else {
            continue;
        };
        let cur_ops = json_num(&obj, "ops").unwrap_or(0.0) as u64;
        let base_ops = json_num(base_obj, "ops").unwrap_or(0.0) as u64;
        checked += 1;
        if cur_ops != base_ops {
            failures.push(format!(
                "{name}: simulated ops changed ({cur_ops} vs baseline {base_ops}) — \
                 behaviour drift, not a perf regression"
            ));
        }
    }

    for (name, obj) in json_objects(&micro) {
        let Some((_, base_obj)) = base_harnesses.iter().find(|(n, _)| *n == name) else {
            continue;
        };
        let cur_ns = json_num(&obj, "ns_per_op").unwrap_or(0.0);
        let base_ns = json_num(base_obj, "ns_per_op").unwrap_or(0.0);
        if base_ns <= 0.0 {
            continue;
        }
        checked += 1;
        if cur_ns > base_ns * (1.0 + tol_micro) {
            failures.push(format!(
                "{name}: {cur_ns:.1} ns/op vs baseline {base_ns:.1} ns/op (+{:.1}%, \
                 tolerance {:.0}%)",
                100.0 * (cur_ns / base_ns - 1.0),
                tol_micro * 100.0
            ));
        }
    }

    if failures.is_empty() {
        println!(
            "gate: OK — {checked} comparisons within tolerance \
             (total {cur_total:.1} ms vs baseline {base_total:.1} ms)"
        );
        Ok(())
    } else {
        for f in &failures {
            eprintln!("gate: FAIL {f}");
        }
        Err(format!("{} regression(s) beyond tolerance", failures.len()))
    }
}

fn main() -> ExitCode {
    if let Err(code) = bench::check_env() {
        return code;
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args: Vec<&str> = args.iter().map(String::as_str).collect();
    let outcome = match args.as_slice() {
        ["run", names @ ..] => cmd::run::run(names),
        ["golden"] => cmd::golden::run(),
        ["micro"] => run_micro().map(|_| ()).map_err(|e| e.to_string()),
        ["gate"] => run_gate(),
        ["baseline"] => write_baseline(),
        _ => {
            eprintln!(
                "usage: bench <run [harness...]|golden|micro|gate|baseline>\n\
                 \n\
                 run       run the named table/figure harnesses (default: all), write\n\
                 \x20         results/<name>.csv and results/BENCH_sweeps.json\n\
                 golden    rewrite the golden fixtures under tests/fixtures/ (repo root)\n\
                 micro     run container microbenchmarks, write results/BENCH_micro.json\n\
                 gate      compare sweeps+micro results against results/BENCH_baseline.json\n\
                 baseline  rewrite results/BENCH_baseline.json from current results"
            );
            return ExitCode::FAILURE;
        }
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::parse_tolerance;

    #[test]
    fn tolerance_unset_uses_default() {
        assert_eq!(parse_tolerance("DUET_GATE_TOL", None, 0.10), Ok(0.10));
    }

    #[test]
    fn tolerance_parses_valid_values() {
        assert_eq!(
            parse_tolerance("DUET_GATE_TOL", Some("0.25"), 0.10),
            Ok(0.25)
        );
        assert_eq!(parse_tolerance("DUET_GATE_TOL", Some("0"), 0.10), Ok(0.0));
        // Surrounding whitespace is harmless.
        assert_eq!(
            parse_tolerance("DUET_GATE_TOL", Some(" 0.5 "), 0.10),
            Ok(0.5)
        );
    }

    #[test]
    fn tolerance_rejects_malformed_values() {
        // A locale-style decimal comma must not silently fall back.
        let err = parse_tolerance("DUET_GATE_TOL", Some("0,2"), 0.10).unwrap_err();
        assert!(err.contains("DUET_GATE_TOL"), "{err}");
        assert!(err.contains("not a number"), "{err}");
        assert!(parse_tolerance("DUET_GATE_TOL", Some(""), 0.10).is_err());
        assert!(parse_tolerance("DUET_GATE_TOL", Some("ten"), 0.10).is_err());
    }

    #[test]
    fn tolerance_rejects_non_finite_and_negative() {
        // `inf` parses as f64 but would make the gate unfailable.
        let err = parse_tolerance("DUET_GATE_TOL_MICRO", Some("inf"), 0.35).unwrap_err();
        assert!(err.contains("finite"), "{err}");
        assert!(parse_tolerance("DUET_GATE_TOL", Some("NaN"), 0.10).is_err());
        assert!(parse_tolerance("DUET_GATE_TOL", Some("-0.1"), 0.10).is_err());
    }
}
