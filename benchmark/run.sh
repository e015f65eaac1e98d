#!/usr/bin/env bash
# The one command: release build, then duetbench with the arguments
# given. See README.md, or `run.sh --help`-style usage on a bad flag.
#
#   benchmark/run.sh                          every workload: e2e rounds, traced pass, kernels
#   benchmark/run.sh --only W --rounds 7      one workload, seven rounds
#   benchmark/run.sh --bless                  re-record expected/*.json (seed 42)
#   benchmark/run.sh --workload W --seed S --seconds T --trace 0|1
#                                             the benchmark contract's invocation
#
# Exits non-zero if the build fails (as it must where the simulator's
# sources are missing) or any correctness check does.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
# The driver points CARGO_TARGET_DIR somewhere of its own, possibly
# relative to the directory it calls from; by default builds land in
# the repository's (git-ignored) target/.
target="${CARGO_TARGET_DIR:-$here/../target}"
case "$target" in /*) ;; *) target="$PWD/$target" ;; esac
export CARGO_TARGET_DIR="$target"
cargo build --release --quiet --manifest-path "$here/Cargo.toml"
exec "$target/release/duetbench" "$@"
