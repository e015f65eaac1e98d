//! Golden determinism tests: the simulation is a pure function of its
//! configuration. Running the same preset twice must produce
//! byte-identical results — the property the D1/D2/D4 lint rules
//! (`cargo run -p xtask -- lint`) exist to protect.

use duet_repro::experiments::{
    paper_scaled, run_experiment, run_experiment_with, run_rsync_experiment, ExperimentResult,
    RunOptions, TaskKind,
};
use duet_repro::sim_core::trace::TraceHandle;
use duet_repro::workloads::{DistKind, Personality};

/// Serializes every observable field of a result, exactly. Floats are
/// rendered from their bit patterns so the comparison cannot be fooled
/// by display rounding.
fn golden_csv(r: &ExperimentResult) -> String {
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

fn traced_opts(t: &TraceHandle) -> RunOptions<'_> {
    RunOptions {
        trace: Some(t),
        ..RunOptions::default()
    }
}

/// The same preset, run twice, must emit a byte-identical golden CSV —
/// including float bit patterns, event counters and per-task I/O.
#[test]
fn experiment_preset_is_byte_identical_across_runs() {
    let cfg = || {
        let mut c = paper_scaled(
            512,
            Personality::WebServer,
            DistKind::MsTrace(0),
            1.0,
            0.4,
            vec![TaskKind::Scrub, TaskKind::Backup],
            true,
        );
        c.seed = 7;
        c
    };
    let first = golden_csv(&run_experiment(&cfg()).expect("first run"));
    let second = golden_csv(&run_experiment(&cfg()).expect("second run"));
    assert!(!first.is_empty() && first.lines().count() > 8);
    assert_eq!(first, second, "experiment run is not deterministic");
}

/// Baseline mode (no Duet session) must be deterministic too — the
/// virtual clock and seeded RNG are the only level the stack draws on.
#[test]
fn baseline_preset_is_byte_identical_across_runs() {
    let cfg = || {
        let mut c = paper_scaled(
            512,
            Personality::FileServer,
            DistKind::Uniform,
            1.0,
            0.6,
            vec![TaskKind::Scrub],
            false,
        );
        c.seed = 21;
        c
    };
    let first = golden_csv(&run_experiment(&cfg()).expect("first run"));
    let second = golden_csv(&run_experiment(&cfg()).expect("second run"));
    assert_eq!(first, second, "baseline run is not deterministic");
}

/// Tracing is pure observation: arming a handle must not perturb the
/// simulation (same golden CSV as an untraced run), and the trace
/// itself — the JSONL event stream and the aggregated counters — must
/// replay byte-identically across consecutive runs.
#[test]
fn traced_run_is_byte_identical_and_does_not_perturb_results() {
    let cfg = || {
        let mut c = paper_scaled(
            512,
            Personality::WebServer,
            DistKind::Uniform,
            1.0,
            0.4,
            vec![TaskKind::Scrub, TaskKind::Backup],
            true,
        );
        c.seed = 7;
        c
    };
    let plain = golden_csv(&run_experiment(&cfg()).expect("untraced run"));
    let traced = || {
        let t = TraceHandle::with_default_capacity();
        let r = run_experiment_with(&cfg(), &traced_opts(&t)).expect("traced run");
        (
            golden_csv(&r),
            t.dump_jsonl(),
            format!("{:?}", t.counters()),
        )
    };
    let first = traced();
    let second = traced();
    assert_eq!(first, second, "traced run is not deterministic");
    assert_eq!(first.0, plain, "tracing perturbed the simulation");
    assert!(
        first.1.lines().count() > 16,
        "a traced window this busy must produce events"
    );
}

/// Rsync drives two filesystems plus the residency priority queue; its
/// completion time and I/O counters must also replay exactly.
#[test]
fn rsync_preset_is_byte_identical_across_runs() {
    let cfg = paper_scaled(
        512,
        Personality::WebServer,
        DistKind::Uniform,
        1.0,
        1.0,
        vec![],
        true,
    );
    let a = run_rsync_experiment(&cfg, true).expect("first run");
    let b = run_rsync_experiment(&cfg, true).expect("second run");
    let ser = |r: &duet_repro::experiments::RsyncResult| {
        format!(
            "{:?},{},{},{},{},{}",
            r.completion,
            r.metrics.total_units,
            r.metrics.done_units,
            r.metrics.saved_units,
            r.metrics.blocks_read,
            r.metrics.blocks_written
        )
    };
    assert_eq!(ser(&a), ser(&b), "rsync run is not deterministic");
}

// ---------------------------------------------------------------------
// Fixture-pinned golden passes: the tests above prove run-to-run
// determinism *within* a build; these pin the outputs against committed
// fixtures, so a change in behaviour — a container swapped under the
// hood, an iteration order leak — fails the build even if it is
// self-consistent. Regenerate deliberately with
// `cargo run --release -p bench -- golden` (DESIGN.md §12).
// ---------------------------------------------------------------------

/// The seed-7 experiment preset must match the committed fixture
/// byte for byte.
#[test]
fn experiment_preset_matches_committed_fixture() {
    let mut c = paper_scaled(
        512,
        Personality::WebServer,
        DistKind::MsTrace(0),
        1.0,
        0.4,
        vec![TaskKind::Scrub, TaskKind::Backup],
        true,
    );
    c.seed = 7;
    let got = duet_repro::experiments::golden::golden_csv(&run_experiment(&c).expect("run"));
    assert_eq!(
        got,
        include_str!("fixtures/golden_experiment_seed7.csv"),
        "seed-7 experiment diverged from the committed golden fixture"
    );
    // The options entry point at its defaults *is* the plain run: every
    // traced, profiled or probed result comes from the validated path.
    let with_defaults = run_experiment_with(&c, &RunOptions::default()).expect("run");
    assert_eq!(
        duet_repro::experiments::golden::golden_csv(&with_defaults),
        got,
        "RunOptions::default() is not run_experiment"
    );
}

/// The seed-21 baseline preset must match its committed fixture.
#[test]
fn baseline_preset_matches_committed_fixture() {
    let mut c = paper_scaled(
        512,
        Personality::FileServer,
        DistKind::Uniform,
        1.0,
        0.6,
        vec![TaskKind::Scrub],
        false,
    );
    c.seed = 21;
    let got = duet_repro::experiments::golden::golden_csv(&run_experiment(&c).expect("run"));
    assert_eq!(
        got,
        include_str!("fixtures/golden_baseline_seed21.csv"),
        "seed-21 baseline diverged from the committed golden fixture"
    );
}

/// The rsync preset must match its committed one-line fixture.
#[test]
fn rsync_preset_matches_committed_fixture() {
    let cfg = paper_scaled(
        512,
        Personality::WebServer,
        DistKind::Uniform,
        1.0,
        1.0,
        vec![],
        true,
    );
    let r = run_rsync_experiment(&cfg, true).expect("run");
    let got = duet_repro::experiments::golden::golden_rsync_line(&r) + "\n";
    assert_eq!(
        got,
        include_str!("fixtures/golden_rsync.txt"),
        "rsync preset diverged from the committed golden fixture"
    );
}

/// The scripted page-cache op mix — every eviction, event and counter —
/// must replay the committed log exactly. This is the finest-grained
/// pin on the intrusive-LRU cache: 4000 ops of inserts, lookups,
/// writebacks, flushes, removals and protection windows.
#[test]
fn cache_event_log_matches_committed_fixture() {
    let got = duet_repro::experiments::golden::cache_event_log(0xCAFE, 4000);
    assert_eq!(
        got,
        include_str!("fixtures/golden_cache_events.txt"),
        "page-cache op-mix log diverged from the committed golden fixture"
    );
}

/// The scripted priority-queue op mix — with deliberate priority ties —
/// must replay the committed pop/peek log exactly, pinning the
/// documented tie-break (max priority, ties by largest key) across
/// container changes.
#[test]
fn prioqueue_pop_log_matches_committed_fixture() {
    let got = duet_repro::experiments::golden::prioqueue_pop_log(0x9A11, 4000);
    assert_eq!(
        got,
        include_str!("fixtures/golden_prioqueue_pops.txt"),
        "priority-queue op-mix log diverged from the committed golden fixture"
    );
}

/// The scripted extent-map op mix — overlapping COW mappings, unmaps,
/// FIBMAP translations and clears — must replay the committed log
/// exactly: every displaced block, extent count and in-order extent
/// list. This pins the `BTreeMap` → `DOrdMap` migration of the btrfs
/// extent map at the finest grain.
#[test]
fn extent_oplog_matches_committed_fixture() {
    let got = duet_repro::experiments::golden::extent_oplog(0xE47E, 4000);
    assert_eq!(
        got,
        include_str!("fixtures/golden_extent_oplog.txt"),
        "extent-map op-mix log diverged from the committed golden fixture"
    );
}

/// `DOrdMap` must be seed-independent by construction: its iteration
/// order is the key order, whatever hash or fault seed the process
/// carries. We pin that by replaying the extent op mix under several
/// `DUET_FAULT_SEED` values — the env var every seeded component in
/// the stack consults — and demanding byte-identical logs. (Edition
/// 2021: `set_var` is safe; the test reads the seed only through
/// constructors that run after each set.)
#[test]
fn extent_oplog_is_independent_of_fault_seed_env() {
    let baseline = duet_repro::experiments::golden::extent_oplog(0xE47E, 1000);
    for seed in ["1", "0xdeadbeef", "9999999"] {
        std::env::set_var("DUET_FAULT_SEED", seed);
        let got = duet_repro::experiments::golden::extent_oplog(0xE47E, 1000);
        std::env::remove_var("DUET_FAULT_SEED");
        assert_eq!(
            got, baseline,
            "extent-map log changed under DUET_FAULT_SEED={seed}"
        );
    }
}

/// The same seed-independence for `DOrdMap` directly: insertion order,
/// hash-seed environment and chunk geometry are all unobservable — the
/// sorted iteration, ranges and neighbour queries depend on the key
/// set alone.
#[test]
fn dordmap_iteration_is_seed_and_insertion_order_independent() {
    use duet_repro::sim_core::omap::DOrdMap;
    let keys: Vec<u64> = (0..257).map(|i| (i * 131) % 997).collect();
    let collect =
        |m: &DOrdMap<u64, u64>| -> Vec<(u64, u64)> { m.iter().map(|(&k, &v)| (k, v)).collect() };
    // Ascending insertion, no env seed.
    let mut a = DOrdMap::new();
    for &k in &keys {
        a.insert(k, k * 2);
    }
    // Reversed insertion under a hostile env seed, tiny chunks.
    std::env::set_var("DUET_FAULT_SEED", "0x5eed");
    let mut b = DOrdMap::with_chunk_max(2);
    for &k in keys.iter().rev() {
        b.insert(k, k * 2);
    }
    std::env::remove_var("DUET_FAULT_SEED");
    assert_eq!(collect(&a), collect(&b));
    let sorted: Vec<u64> = collect(&a).iter().map(|&(k, _)| k).collect();
    let mut expect = keys.clone();
    expect.sort_unstable();
    expect.dedup();
    assert_eq!(sorted, expect, "iteration is exactly the sorted key set");
}

/// The traced seed-7 run's digests (golden CSV, JSONL stream, counters)
/// must match the committed fixture.
#[test]
fn trace_digests_match_committed_fixture() {
    let fixture = include_str!("fixtures/golden_trace_seed7.txt");
    let mut c = paper_scaled(
        512,
        Personality::WebServer,
        DistKind::Uniform,
        1.0,
        0.4,
        vec![TaskKind::Scrub, TaskKind::Backup],
        true,
    );
    c.seed = 7;
    let t = TraceHandle::with_default_capacity();
    let r = run_experiment_with(&c, &traced_opts(&t)).expect("traced run");
    let jsonl = t.dump_jsonl();
    let golden = duet_repro::experiments::golden::golden_csv(&r);
    let fnv = duet_repro::experiments::golden::fnv128_hex;
    let got = format!(
        "golden_csv_digest {}\njsonl_lines {}\njsonl_digest {}\ncounters_digest {}\n",
        fnv(golden.as_bytes()),
        jsonl.lines().count(),
        fnv(jsonl.as_bytes()),
        fnv(format!("{:?}", t.counters()).as_bytes())
    );
    assert_eq!(
        got, fixture,
        "traced seed-7 digests diverged from the committed golden fixture"
    );
}
