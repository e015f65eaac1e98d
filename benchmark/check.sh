#!/usr/bin/env bash
# Gate for the standalone benchmark package, and proof that adding it
# changed nothing outside its own directory.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$here/../target}"
cd "$here"
cargo fmt --check
cargo clippy --all-targets -- -D warnings
cargo test -q
cd "$here/.."
cargo run -q -p xtask -- lint
git diff --exit-code Cargo.lock
