//! `cargo run -p xtask -- lint`: the layering check. It takes no flags.
//! Exit 0 when clean, 1 on a violation, 2 on a usage or I/O error.

use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args != ["lint"] {
        eprintln!("usage: cargo run -p xtask -- lint");
        eprintln!();
        eprintln!("Checks that crate dependency edges point strictly down the layer stack");
        eprintln!("(DESIGN.md §11). Lint rules are clippy's: `cargo clippy -- -D warnings`.");
        return ExitCode::from(2);
    }
    // crates/xtask → workspace root. CARGO_MANIFEST_DIR is compiled in,
    // so the lint works from any working directory.
    let root = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."));
    match xtask::lint(&root) {
        Ok((checked, violations)) if violations.is_empty() => {
            println!("xtask lint: OK ({checked} manifests checked)");
            ExitCode::SUCCESS
        }
        Ok((checked, violations)) => {
            for v in &violations {
                println!("{v}");
            }
            println!(
                "xtask lint: {} violation(s) in {checked} manifests checked",
                violations.len()
            );
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("xtask lint: error: {e}");
            ExitCode::from(2)
        }
    }
}
