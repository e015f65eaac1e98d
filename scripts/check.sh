#!/usr/bin/env bash
# The full CI gate, runnable locally and fully offline (the workspace
# has no external dependencies, so no registry access is needed).
#
#   fmt --check  →  clippy -D warnings  →  xtask lint (layering)  →  cargo test
#   →  bench run smoke (tiny scale, 2 jobs)
#   →  duetbench package gate + benchmark-contract smoke
#
# The clippy step is where the determinism, panic-safety and waiver
# rules (D1-D4, E1, W1: root `[workspace.lints]` + `clippy.toml`,
# DESIGN.md §7) fail, and an unclosed trace context span (an unused
# `OpenSpan`); `cargo test` does not re-lint the workspace for them, it
# only proves on a probe crate that each can still fail. The xtask step
# is the layering check: every crate's manifest dependencies point
# strictly down the stack (DESIGN.md §11). Trace kinds and fault sites
# fail in `cargo test`: the §10.1 registry ≡ `TraceKind::ALL`, every
# kind emitted, every `FaultSite` a row of the fault matrix that fires.
#
# `cargo test --workspace` is where every suite runs, once: the
# differential fuzz (containers; Duet vs its contract model,
# crates/core/src/contract_tests.rs, seed 0xd1ffba5e), the Btrfs and
# F2fs random churn (tests/invariants.rs, base seed 0) and the fault
# matrix (0xd0e7f457) at their in-code default seeds (override with
# DUET_CHECK_SEED / DUET_FAULT_SEED to replay), the
# oracle's sabotage localization and fork == fresh. Every experiment
# run in it ends in fsck (debug assertions are on). CI adds a second,
# rotating-seed pass of the seeded suites.
#
# Host cost (wall time, per-layer attribution, kernels) is duetbench's
# question — `benchmark/run.sh`, `duetbench compare` — not a step here;
# the exact simulated-op counts of the smoke are pinned by
# crates/bench/tests/env_knobs.rs in the workspace test pass.
#
# Each step must pass before the next runs; the script exits non-zero
# on the first failure.

set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo run -p xtask -- lint (layering)"
cargo run -q -p xtask -- lint

echo "==> cargo test --workspace"
cargo test -q --workspace

echo "==> bench run smoke (DUET_SCALE=512 DUET_JOBS=2 DUET_TRACE=1, time-bounded)"
cargo build -q --release -p bench
timeout 600 env DUET_SCALE=512 DUET_JOBS=2 DUET_TRACE=1 ./target/release/bench run \
    fig2_scrub_saved fig4_rsync_speedup fig6_scrub_backup_completed fig9_cpu_overhead fig10_ssd \
    table5_max_util table6_gc_cleaning mem_overhead > /dev/null
test -s results/BENCH_sweeps.json
test -s results/fig2_scrub_saved_trace.csv
test -s results/fig4_rsync_speedup_trace.csv
test -s results/fig10_ssd_trace.csv
test -s results/table5_max_util_trace.csv
test -s results/table6_gc_cleaning_trace.csv
test -s results/mem_overhead_trace.csv

echo "==> duetbench: package gate + benchmark-contract smoke"
# The benchmark (BENCHMARK.json, benchmark/) measures this workspace
# from outside through a bound set of public APIs and pins every
# simulated statistic at seed 42. Gate it here so a change that breaks
# that API surface or moves a pinned statistic fails now, not in the
# next performance PR: the package's own checks, then every workload
# of BENCHMARK.json under the contract's invocation — pins, mirror ≡
# entry point, fsck: the hint-heavy Duet read path, whose backup looks
# up a back-reference per run of hinted blocks (read_hot_duet); the Btrfs COW
# write path (write_cow_duet); the only workload on sim-f2fs and the GC
# (f2fs_gc_write); the bypass workload, the only pinned run of the
# baseline backup and scrub read path (maint_cold_base); and Table 5's
# bisection sweep, whose CSV is pinned (sweep_table5).
benchmark/check.sh
for workload in read_hot_duet write_cow_duet maint_cold_base f2fs_gc_write sweep_table5; do
    smoke=$(benchmark/run.sh --workload "$workload" --seed 42 --seconds 3 --trace 1 | tail -n 1)
    if ! grep -q '^{"correct": true, "attempted": [0-9]*, "failed": 0,' <<<"$smoke"; then
        echo "duetbench contract smoke failed on $workload: ${smoke:0:160}" >&2
        exit 1
    fi
done

echo "==> all checks passed"
