//! `bench golden`: rewrites the committed golden fixtures — for each
//! row of the two golden tables, write what its producer returns.
//!
//! [`experiments::golden::FIXTURES`] lists the root fixtures
//! (experiment golden CSVs, the rsync line, the trace digests, the
//! scripted cache/prioqueue/extent op-mix logs) and
//! [`bench::cell::GOLDEN_GRIDS`] the two sweep grids. Run from the
//! repo root:
//!
//! ```text
//! cargo run --release -p bench -- golden
//! ```
//!
//! Only do this deliberately (see DESIGN.md §12.2): rewriting the
//! fixtures re-baselines the golden contract, and the diff must be
//! reviewed as a behaviour change, not as noise.

use sim_core::SimResult;
use std::path::Path;

fn write(dir: &str, file: &str, contents: SimResult<String>) -> Result<(), String> {
    let contents = contents.map_err(|e| format!("producing {file}: {e}"))?;
    let path = Path::new(dir).join(file);
    std::fs::write(&path, contents).map_err(|e| format!("writing {}: {e}", path.display()))?;
    println!("wrote {}", path.display());
    Ok(())
}

/// Rewrites every fixture under `tests/fixtures/` and
/// `crates/bench/tests/fixtures/` (relative to the current directory).
pub fn run() -> Result<(), String> {
    for (file, produce) in experiments::golden::FIXTURES {
        write("tests/fixtures", file, produce())?;
    }
    for (file, produce) in bench::cell::GOLDEN_GRIDS {
        write("crates/bench/tests/fixtures", file, produce(1))?;
    }
    println!("all fixtures written");
    Ok(())
}
