#!/usr/bin/env bash
# The full CI gate, runnable locally and fully offline (the workspace
# has no external dependencies, so no registry access is needed).
#
#   fmt --check  →  clippy -D warnings  →  xtask lint  →  cargo test
#   →  differential fuzz (pinned seed: containers, Duet vs reference)
#   →  fault matrix (pinned seed)  →  oracle sabotage localization
#   →  snapshot/fork digests  →  bench run smoke (tiny scale, 2 jobs)
#   →  duetbench package gate + benchmark-contract smoke
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

echo "==> cargo run -p xtask -- lint"
cargo run -q -p xtask -- lint

echo "==> cargo test --workspace"
cargo test -q --workspace

echo "==> differential container fuzz (fixed seed)"
# DOrdMap (and DMap) against their std oracles under a pinned base
# seed: every case seed derives from it, and a failure prints the
# shrunk op log plus the seed to replay. CI runs a second pass with a
# rotating (but logged) DUET_CHECK_SEED, mirroring the fault-matrix
# split below.
DUET_CHECK_SEED=0xd1ffba5e cargo test -q -p sim-core --release --test omap_differential

echo "==> Duet framework vs naive reference (fixed seed)"
# The framework's flat descriptor table against the ordered-map
# reference model, every observable compared after every op
# (DESIGN.md §15.2); same pinned/rotating seed split.
DUET_CHECK_SEED=0xd1ffba5e cargo test -q -p duet --release differential_tests

echo "==> fault matrix (fixed seed)"
# The deterministic anchor: the full task × fault-plan grid under a
# pinned seed. CI runs a second pass with a rotating (but logged) seed;
# replay any failure by re-running this with the DUET_FAULT_SEED it
# printed (the line's plan="…" is a FaultPlan::parse spec for replaying
# a non-preset plan from code, not an environment variable).
DUET_FAULT_SEED=0xd0e7f457 cargo test -q -p experiments --test fault_matrix

echo "==> oracle sabotage localization smoke (pinned seed)"
# The trace-armed oracle must *localize* each task's deliberate defect
# (name the divergent effect, entity and originating site), not merely
# detect it; the seeds are pinned inside the test.
cargo test -q -p experiments --test localize

echo "==> snapshot/fork equivalence (digest oracle)"
# The warm-start plane (DESIGN.md §14) must be invisible: the digest
# tests pin fork ≡ fresh over the whole stack. (End to end, the golden
# table in the workspace pass above already produced every fixture
# once on freshly built stacks and once on forks of them.)
cargo test -q -p experiments --release snapshot::

echo "==> bench run smoke (DUET_SCALE=512 DUET_JOBS=2, time-bounded)"
cargo build -q --release -p bench
timeout 600 env DUET_SCALE=512 DUET_JOBS=2 ./target/release/bench run \
    fig2_scrub_saved fig6_scrub_backup_completed fig9_cpu_overhead > /dev/null
test -s results/BENCH_sweeps.json

echo "==> duetbench: package gate + benchmark-contract smoke"
# The benchmark (BENCHMARK.json, benchmark/) measures this workspace
# from outside through a bound set of public APIs and pins every
# simulated statistic at seed 42. Gate it here so a change that breaks
# that API surface or moves a pinned statistic fails now, not in the
# next performance PR: the package's own checks, then one workload
# under the contract's invocation — pins, mirror ≡ entry point, fsck.
benchmark/check.sh
smoke=$(benchmark/run.sh --workload write_cow_duet --seed 42 --seconds 3 --trace 1 | tail -n 1)
if ! grep -q '^{"correct": true, "attempted": [0-9]*, "failed": 0,' <<<"$smoke"; then
    echo "duetbench contract smoke failed: ${smoke:0:160}" >&2
    exit 1
fi

echo "==> all checks passed"
