//! Golden determinism tests: the simulation is a pure function of its
//! configuration. Running the same preset twice must produce
//! byte-identical results — the property the D1/D2/D4 rules
//! (`clippy.toml`) exist to protect — and those bytes
//! are the committed fixtures of `experiments::golden::FIXTURES`.

use duet_repro::experiments::golden::{self, FIXTURES};
use duet_repro::experiments::{run_experiment, snapshot};
use std::path::{Path, PathBuf};

fn fixture_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

#[expect(
    clippy::expect_used,
    reason = "test helper: a missing fixture fails the calling test"
)]
fn committed(file: &str) -> String {
    std::fs::read_to_string(fixture_dir().join(file)).expect(file)
}

/// One row of the golden table ([`FIXTURES`]): the snapshot store is
/// emptied, so the first production builds its stacks and the second
/// forks the memoized ones, and both must be the committed file byte
/// for byte — including float bit patterns, event counters and
/// per-task I/O. Run-to-run determinism, cold store ≡ warm store and
/// "behaviour did not change" (a container swapped under the hood, an
/// iteration order leak) are this one check. Regenerate deliberately with
/// `cargo run --release -p bench -- golden` (DESIGN.md §12.2).
#[expect(
    clippy::panic,
    clippy::expect_used,
    reason = "test helper: each row's failure fails its own test"
)]
fn check_row(file: &str) {
    let (_, produce) = FIXTURES
        .iter()
        .find(|(name, _)| *name == file)
        .unwrap_or_else(|| panic!("{file} is not in the golden table"));
    let committed = committed(file);
    snapshot::clear_store();
    let (hits, misses) = snapshot::warm_stats();
    assert_eq!(produce().expect(file), committed, "{file}, cold store");
    assert_eq!(produce().expect(file), committed, "{file}, warm store");
    let (hits_after, misses_after) = snapshot::warm_stats();
    assert_eq!(
        hits_after - hits,
        misses_after - misses,
        "{file}: every stack the first production built, the second forked"
    );
}

/// One test per row, so a divergence names its fixture; the list is
/// checked against the table below.
macro_rules! row_tests {
    ($($test:ident => $file:literal,)*) => {
        $(
            #[test]
            fn $test() {
                check_row($file);
            }
        )*
        const ROWS_TESTED: &[&str] = &[$($file),*];
    };
}

row_tests! {
    experiment_preset_matches_committed_fixture => "golden_experiment_seed7.csv",
    baseline_preset_matches_committed_fixture => "golden_baseline_seed21.csv",
    rsync_preset_matches_committed_fixture => "golden_rsync.txt",
    trace_digests_match_committed_fixture => "golden_trace_seed7.txt",
    // The finest-grained pins on the hot-path containers: 4000 scripted
    // ops each against the intrusive-LRU page cache (every eviction,
    // event and counter), the priority queue (deliberate priority ties:
    // max priority, ties by largest key) and the extent map
    // (overlapping COW mappings, unmaps, FIBMAP translations, clears).
    cache_event_log_matches_committed_fixture => "golden_cache_events.txt",
    prioqueue_pop_log_matches_committed_fixture => "golden_prioqueue_pops.txt",
    extent_oplog_matches_committed_fixture => "golden_extent_oplog.txt",
}

/// The table, the tests above and the fixture directory name the same
/// files: every row has a committed file and a test, and every
/// committed file has a row — a fixture nobody checks is how goldens
/// rot.
#[test]
fn golden_table_tests_and_fixture_directory_agree() {
    let mut rows = FIXTURES.map(|(file, _)| file);
    rows.sort();
    let mut tested = ROWS_TESTED.to_vec();
    tested.sort();
    let mut committed: Vec<String> = std::fs::read_dir(fixture_dir())
        .expect("fixture directory")
        .map(|e| e.expect("entry").file_name().into_string().expect("utf-8"))
        .collect();
    committed.sort();
    assert_eq!(tested, rows, "row tests vs golden table");
    assert_eq!(committed, rows, "tests/fixtures/ vs golden table");
}

/// Tracing is pure observation: the traced seed-7 row pins the digest
/// of the *traced* run's golden CSV (next to its 53 429-event JSONL
/// stream and its counters), and the same preset run untraced must
/// serialize to those very bytes.
#[test]
fn traced_run_is_byte_identical_and_does_not_perturb_results() {
    let plain = run_experiment(&golden::traced_preset()).expect("untraced run");
    let digest = golden::fnv128_hex(golden::golden_csv(&plain).as_bytes());
    assert_eq!(
        committed("golden_trace_seed7.txt").lines().next(),
        Some(format!("golden_csv_digest {digest}").as_str()),
        "tracing perturbed the simulation"
    );
}

/// `ExtentMap` must be seed-independent by construction: its iteration
/// order is the key order, whatever hash or fault seed the process
/// carries. We pin that by replaying the extent op mix under several
/// `DUET_FAULT_SEED` values — the env var every seeded component in
/// the stack consults — and demanding byte-identical logs. (Edition
/// 2021: `set_var` is safe; the test reads the seed only through
/// constructors that run after each set.)
#[test]
fn extent_oplog_is_independent_of_fault_seed_env() {
    let baseline = golden::extent_oplog(0xE47E, 1000);
    for seed in ["1", "0xdeadbeef", "9999999"] {
        std::env::set_var("DUET_FAULT_SEED", seed);
        let got = golden::extent_oplog(0xE47E, 1000);
        std::env::remove_var("DUET_FAULT_SEED");
        assert_eq!(
            got, baseline,
            "extent-map log changed under DUET_FAULT_SEED={seed}"
        );
    }
}

/// The same independence for the two ordered structures directly: the
/// order in which runs are freed into a `FreeSpace`, or disjoint
/// extents mapped into an `ExtentMap`, and the seed environment are all
/// unobservable — the state, its sorted iteration and every later
/// allocation depend on the key set alone.
#[test]
fn ordered_maps_are_seed_and_insertion_order_independent() {
    use duet_repro::sim_btrfs::{Extent, ExtentMap, FreeSpace, Run};
    use duet_repro::sim_core::BlockNr;
    // 64 disjoint runs in 8-block slots; every third fills its slot and
    // so touches its successor (coalescing / extent merging happens).
    let runs: Vec<Run> = (0..64u64)
        .map(|i| Run {
            start: BlockNr(i * 8),
            len: if i % 3 == 0 { 8 } else { 1 + i % 5 },
        })
        .collect();
    let build = |order: &[Run]| {
        let mut free = FreeSpace::new(512);
        free.alloc_exact(512).expect("empty device");
        let mut map = ExtentMap::new();
        for r in order {
            free.free_range(r.start, r.len);
            // Logical page = physical block: touching runs merge.
            map.map_range(r.start.raw(), &[*r]);
        }
        (free, map)
    };
    let (mut free_a, map_a) = build(&runs);
    std::env::set_var("DUET_FAULT_SEED", "0x5eed");
    let reversed: Vec<Run> = runs.iter().rev().copied().collect();
    let (mut free_b, map_b) = build(&reversed);
    std::env::remove_var("DUET_FAULT_SEED");

    assert_eq!(free_a, free_b);
    assert_eq!(free_a.allocated_ranges(), free_b.allocated_ranges());
    assert_eq!(map_a, map_b);
    let extents = |m: &ExtentMap| -> Vec<Extent> { m.iter().copied().collect() };
    assert_eq!(extents(&map_a), extents(&map_b));
    assert!(
        extents(&map_a)
            .windows(2)
            .all(|w| w[0].logical < w[1].logical),
        "iteration is in key order"
    );
    assert!(map_a.extent_count() < runs.len(), "touching runs merged");
    for want in [3, 8, 20, 1, 5] {
        assert_eq!(free_a.alloc(want), free_b.alloc(want), "alloc({want})");
    }
    assert_eq!(free_a, free_b);
}
