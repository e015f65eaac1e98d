//! The golden contract: what is pinned, and how it is serialized.
//!
//! [`FIXTURES`] is the table of committed root fixtures
//! (`tests/fixtures/`): one row per file, naming the function that
//! produces its bytes. The presets behind the rows are declared here
//! and nowhere else. `bench golden` is "for each row, write";
//! `tests/determinism.rs` is "for each row, produce twice, both equal
//! the committed file" — so re-baselining (DESIGN.md §12.2) is `bench
//! golden` plus a reviewed diff, and a fixture cannot be checked
//! against anything but the code that writes it.
//!
//! The serialization itself is part of the contract: floats are
//! rendered from their bit patterns, never through display rounding,
//! and every observable field is included.

use crate::config::{ExperimentConfig, TaskKind};
use crate::metrics::ExperimentResult;
use crate::presets::paper_scaled;
use crate::runner::{
    run_experiment, run_experiment_with, run_rsync_experiment, RsyncResult, RunOptions,
};
use sim_core::trace::TraceHandle;
use sim_core::SimResult;
use workloads::{DistKind, Personality};

/// One committed fixture: its file name and the function that
/// produces its bytes.
pub type Fixture = (&'static str, fn() -> SimResult<String>);

/// Every committed fixture under `tests/fixtures/`.
pub const FIXTURES: [Fixture; 7] = [
    ("golden_experiment_seed7.csv", || {
        Ok(golden_csv(&run_experiment(&experiment_preset())?))
    }),
    ("golden_baseline_seed21.csv", || {
        Ok(golden_csv(&run_experiment(&baseline_preset())?))
    }),
    ("golden_rsync.txt", || {
        let r = run_rsync_experiment(&rsync_preset())?;
        Ok(golden_rsync_line(&r) + "\n")
    }),
    ("golden_trace_seed7.txt", trace_digests),
    ("golden_cache_events.txt", || {
        Ok(cache_event_log(0xCAFE, 4000))
    }),
    ("golden_prioqueue_pops.txt", || {
        Ok(prioqueue_pop_log(0x9A11, 4000))
    }),
    ("golden_extent_oplog.txt", || Ok(extent_oplog(0xE47E, 4000))),
];

/// The paper setup shrunk 512×: each preset runs in well under a second.
const SCALE: u64 = 512;

/// Webserver at 40 % utilization with scrub + backup on Duet, seed 7.
fn seed7_preset(dist: DistKind) -> ExperimentConfig {
    let mut c = paper_scaled(
        SCALE,
        Personality::WebServer,
        dist,
        1.0,
        0.4,
        vec![TaskKind::Scrub, TaskKind::Backup],
        true,
    );
    c.seed = 7;
    c
}

/// The seed-7 experiment preset (MS-trace file popularity).
pub fn experiment_preset() -> ExperimentConfig {
    seed7_preset(DistKind::MsTrace(0))
}

/// The traced seed-7 preset (uniform file popularity).
pub fn traced_preset() -> ExperimentConfig {
    seed7_preset(DistKind::Uniform)
}

/// The seed-21 baseline preset: fileserver at 60 % with a scrubber and
/// no Duet session — the virtual clock and seeded RNG are the only
/// level the stack draws on there too.
pub fn baseline_preset() -> ExperimentConfig {
    let mut c = paper_scaled(
        SCALE,
        Personality::FileServer,
        DistKind::Uniform,
        1.0,
        0.6,
        vec![TaskKind::Scrub],
        false,
    );
    c.seed = 21;
    c
}

/// The rsync preset: two filesystems plus the residency priority queue
/// under a saturating webserver, Duet on, unaged layout.
pub fn rsync_preset() -> ExperimentConfig {
    ExperimentConfig {
        scatter_layout: false,
        ..paper_scaled(
            SCALE,
            Personality::WebServer,
            DistKind::Uniform,
            1.0,
            1.0,
            vec![],
            true,
        )
    }
}

/// The traced seed-7 run, pinned by digest: its golden CSV (tracing is
/// pure observation, so this is the untraced run's too), the JSONL
/// event stream and the aggregated counters.
fn trace_digests() -> SimResult<String> {
    let t = TraceHandle::with_default_capacity();
    let traced = RunOptions {
        trace: Some(&t),
        ..RunOptions::default()
    };
    let r = run_experiment_with(&traced_preset(), &traced)?;
    let jsonl = t.dump_jsonl();
    Ok(format!(
        "golden_csv_digest {}\njsonl_lines {}\njsonl_digest {}\ncounters_digest {}\n",
        fnv128_hex(golden_csv(&r).as_bytes()),
        jsonl.lines().count(),
        fnv128_hex(jsonl.as_bytes()),
        fnv128_hex(format!("{:?}", t.counters()).as_bytes())
    ))
}

/// Serializes every observable field of a result, exactly. Floats are
/// rendered from their bit patterns so the comparison cannot be fooled
/// by display rounding.
pub fn golden_csv(r: &ExperimentResult) -> String {
    let mut out = String::new();
    out.push_str("field,value\n");
    out.push_str(&format!("duration,{:?}\n", r.duration));
    out.push_str(&format!(
        "achieved_util,{:016x}\n",
        r.achieved_util.to_bits()
    ));
    out.push_str(&format!("workload_ops,{}\n", r.workload_ops));
    out.push_str(&format!("maintenance_blocks,{}\n", r.maintenance_blocks));
    out.push_str(&format!("maintenance_busy,{:?}\n", r.maintenance_busy));
    out.push_str(&format!("foreground_blocks,{}\n", r.foreground_blocks));
    out.push_str(&format!(
        "workload_latency_ms,{:016x},{:016x}\n",
        r.workload_latency_ms.0.to_bits(),
        r.workload_latency_ms.1.to_bits()
    ));
    out.push_str(&format!("duet_peak_memory,{}\n", r.duet_peak_memory));
    if let Some(s) = &r.duet_stats {
        out.push_str(&format!(
            "duet_stats,{},{},{},{},{}\n",
            s.events_processed,
            s.events_dropped,
            s.fetch_calls,
            s.items_fetched,
            s.peak_descriptors
        ));
    }
    for t in &r.tasks {
        out.push_str(&format!(
            "task,{},{},{},{},{},{},{},{:?}\n",
            t.name,
            t.metrics.total_units,
            t.metrics.done_units,
            t.metrics.saved_units,
            t.metrics.blocks_read,
            t.metrics.blocks_written,
            t.completed,
            t.completion_time
        ));
    }
    out
}

/// One-line golden serialization of an rsync run.
pub fn golden_rsync_line(r: &RsyncResult) -> String {
    format!(
        "{:?},{},{},{},{},{}",
        r.completion,
        r.metrics.total_units,
        r.metrics.done_units,
        r.metrics.saved_units,
        r.metrics.blocks_read,
        r.metrics.blocks_written
    )
}

/// 128-bit FNV-1a digest, hex-rendered. Used to pin large byte streams
/// (the trace JSONL) in a small fixture file without committing
/// megabytes of events.
pub fn fnv128_hex(bytes: &[u8]) -> String {
    // Two independent 64-bit FNV-1a passes (distinct offset bases)
    // rendered side by side: collisions would need to defeat both.
    let mut a: u64 = 0xcbf29ce484222325;
    let mut b: u64 = 0x811c9dc5a54c2a3d;
    for &x in bytes {
        a = (a ^ x as u64).wrapping_mul(0x100000001b3);
        b = (b ^ (x as u64).rotate_left(17)).wrapping_mul(0x100000001b3);
    }
    format!("{a:016x}{b:016x}")
}

/// Scripted page-cache op mix, serialized event by event. Every
/// observable of the cache — returned evictions, emitted events,
/// statistics, residency counters — is rendered in order, so the log
/// pins the exact hook sequence Duet would see. Used to prove the
/// O(1) container migration byte-identical to the B-tree cache.
pub fn cache_event_log(seed: u64, ops: u64) -> String {
    use sim_cache::{PageCache, PageKey};
    use sim_core::{BlockNr, InodeNr, PageIndex, SimRng};
    let mut rng = SimRng::new(seed);
    let mut c = PageCache::new(64);
    let mut out = String::new();
    let meta_str = |m: &sim_cache::PageMeta| {
        format!(
            "{}:{}:{}:{}",
            m.key.ino.raw(),
            m.key.index.raw(),
            m.block.map(|b| b.raw() as i64).unwrap_or(-1),
            m.dirty
        )
    };
    for op in 0..ops {
        let ino = InodeNr(rng.gen_range(0, 12));
        let idx = PageIndex(rng.gen_range(0, 16));
        let k = PageKey::new(ino, idx);
        match rng.gen_range(0, 10) {
            0..=2 => {
                let dirty = rng.gen_range(0, 3) == 0;
                let block = if rng.gen_range(0, 2) == 0 {
                    Some(BlockNr(rng.gen_range(0, 4096)))
                } else {
                    None
                };
                let ev = c.insert(k, block, dirty);
                out.push_str(&format!("insert {}", ev.len()));
                for m in &ev {
                    out.push_str(&format!(" {}", meta_str(m)));
                }
                out.push('\n');
            }
            3..=4 => {
                out.push_str(&format!(
                    "lookup {}\n",
                    c.lookup(k).as_ref().map(meta_str).unwrap_or("-".into())
                ));
            }
            5 => {
                out.push_str(&format!("dirty {}\n", c.mark_dirty(k)));
            }
            6 => {
                let batch = c.writeback_batch(rng.gen_range(1, 8) as usize);
                out.push_str(&format!("writeback {}", batch.len()));
                for m in &batch {
                    out.push_str(&format!(" {}", meta_str(m)));
                }
                out.push('\n');
            }
            7 => {
                let fl = c.flush_file(ino);
                out.push_str(&format!("flush_file {}", fl.len()));
                for m in &fl {
                    out.push_str(&format!(" {}", meta_str(m)));
                }
                out.push('\n');
            }
            8 => {
                if rng.gen_range(0, 4) == 0 {
                    let rm = c.remove_file(ino);
                    out.push_str(&format!("remove_file {}\n", rm.len()));
                } else {
                    out.push_str(&format!(
                        "remove {}\n",
                        c.remove(k).as_ref().map(meta_str).unwrap_or("-".into())
                    ));
                }
            }
            _ => {
                // A read-only probe of some file's first page: no LRU
                // move, no hit or miss counted.
                let probe = PageKey::new(InodeNr(rng.gen_range(0, 12)), PageIndex(0));
                out.push_str(&format!(
                    "peek {}\n",
                    c.peek(probe).as_ref().map(meta_str).unwrap_or("-".into())
                ));
            }
        }
        if op % 16 == 0 {
            let evs = c.drain_events();
            out.push_str(&format!("drain {}", evs.len()));
            for (m, e) in &evs {
                out.push_str(&format!(" {}={:?}", meta_str(m), e));
            }
            out.push('\n');
            let resident: Vec<String> = c.iter().map(|m| meta_str(&m)).collect();
            out.push_str(&format!("iter {}\n", resident.join(" ")));
        }
    }
    let s = c.stats();
    out.push_str(&format!(
        "stats {} {} {} {} {}\n",
        s.hits, s.misses, s.insertions, s.evictions, s.writebacks
    ));
    out
}

/// Scripted priority-queue op mix: upserts, removes and pops with
/// plenty of priority ties, serialized pop by pop. Pins the documented
/// tie-break order (max priority, ties by largest key) across the
/// B-tree → binary-heap migration.
pub fn prioqueue_pop_log(seed: u64, ops: u64) -> String {
    use duet::PrioQueue;
    use sim_core::SimRng;
    let mut rng = SimRng::new(seed);
    let mut q: PrioQueue<u64, u64> = PrioQueue::new();
    let mut out = String::new();
    for _ in 0..ops {
        let k = rng.gen_range(0, 48);
        match rng.gen_range(0, 5) {
            0..=2 => {
                // Few distinct priorities → frequent ties.
                let p = rng.gen_range(0, 6);
                out.push_str(&format!("upsert {k} {p} {:?}\n", q.upsert(k, p)));
            }
            3 => {
                out.push_str(&format!("remove {k} {:?}\n", q.remove(k)));
            }
            _ => {
                out.push_str(&format!("pop {:?} peek {:?}\n", q.pop_max(), q.peek_max()));
            }
        }
    }
    let rest: Vec<String> = q.iter_desc().map(|(k, p)| format!("{k}:{p}")).collect();
    out.push_str(&format!("iter_desc {}\n", rest.join(" ")));
    while let Some((k, p)) = q.pop_max() {
        out.push_str(&format!("drain {k} {p}\n"));
    }
    out
}

/// Scripted extent-map op mix: overlapping `map_range` COW updates,
/// `unmap_range` holes, FIBMAP translations and full clears, serialized
/// op by op with every observable — displaced/unmapped physical blocks,
/// extent count, mapped pages and the full in-order extent list. Pins
/// the split/trim/merge behaviour of `ExtentMap` byte for byte.
pub fn extent_oplog(seed: u64, ops: u64) -> String {
    use sim_btrfs::{ExtentMap, Run};
    use sim_core::{BlockNr, PageIndex, SimRng};
    let mut rng = SimRng::new(seed);
    let mut m = ExtentMap::new();
    let mut next_block: u64 = 0;
    let mut out = String::new();
    let blocks_str = |runs: &[Run]| {
        runs.iter()
            .flat_map(|r| r.blocks())
            .map(|b| b.raw().to_string())
            .collect::<Vec<_>>()
            .join(",")
    };
    for op in 0..ops {
        // Small logical space so updates overlap constantly, exercising
        // splits and trims on both edges.
        let start = rng.gen_range(0, 96);
        match rng.gen_range(0, 10) {
            0..=4 => {
                // COW write: one to three fresh runs of 1..8 pages.
                let nruns = rng.gen_range(1, 4);
                let mut runs = Vec::new();
                for _ in 0..nruns {
                    let len = rng.gen_range(1, 8);
                    runs.push(Run {
                        start: BlockNr(next_block),
                        len,
                    });
                    next_block += len;
                }
                let total: u64 = runs.iter().map(|r| r.len).sum();
                let displaced = m.map_range(start, &runs);
                out.push_str(&format!(
                    "map {start}+{total} displaced {}\n",
                    blocks_str(&displaced)
                ));
            }
            5..=6 => {
                let len = rng.gen_range(1, 16);
                let unmapped = m.unmap_range(start, len);
                out.push_str(&format!(
                    "unmap {start}+{len} freed {}\n",
                    blocks_str(&unmapped)
                ));
            }
            7..=8 => {
                let got = m
                    .block_of(PageIndex(start))
                    .map(|b| b.raw().to_string())
                    .unwrap_or("-".into());
                out.push_str(&format!("fibmap {start} {got}\n"));
            }
            _ => {
                if rng.gen_range(0, 24) == 0 {
                    let cleared = m.clear();
                    out.push_str(&format!("clear freed {}\n", blocks_str(&cleared)));
                } else {
                    out.push_str(&format!(
                        "count {} pages {}\n",
                        m.extent_count(),
                        m.mapped_pages()
                    ));
                }
            }
        }
        if op % 32 == 0 {
            let exts: Vec<String> = m
                .iter()
                .map(|e| format!("{}@{}+{}", e.logical, e.physical.raw(), e.len))
                .collect();
            out.push_str(&format!("iter {}\n", exts.join(" ")));
        }
    }
    out.push_str(&format!(
        "final count {} pages {}\n",
        m.extent_count(),
        m.mapped_pages()
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn extent_oplog_is_seed_deterministic() {
        let a = extent_oplog(7, 256);
        let b = extent_oplog(7, 256);
        let c = extent_oplog(8, 256);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(a.contains("map "), "op mix reaches map_range");
        assert!(a.contains("unmap "), "op mix reaches unmap_range");
    }

    #[test]
    fn digest_is_stable_and_input_sensitive() {
        let d1 = fnv128_hex(b"hello");
        let d2 = fnv128_hex(b"hello");
        let d3 = fnv128_hex(b"hellp");
        assert_eq!(d1, d2);
        assert_ne!(d1, d3);
        assert_eq!(d1.len(), 32);
    }
}
