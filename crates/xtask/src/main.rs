//! `cargo run -p xtask -- lint`: the workspace static analyzer.
//!
//! ```text
//! xtask lint [--format=text|json]
//! xtask lint --explain <RULE|all>
//! ```

use std::path::PathBuf;
use std::process::ExitCode;
use xtask::output::render_json;
use xtask::rules::{run_lint, Rule};

fn workspace_root() -> PathBuf {
    // crates/xtask → workspace root. CARGO_MANIFEST_DIR is compiled in,
    // so the lint works from any working directory.
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("."))
}

fn usage() -> ExitCode {
    eprintln!("usage: cargo run -p xtask -- lint [--format=text|json]");
    eprintln!("       cargo run -p xtask -- lint --explain <RULE|all>");
    eprintln!();
    eprintln!("Rule families:");
    for r in Rule::ALL {
        eprintln!("  {r}  {}", r.summary());
    }
    eprintln!();
    eprintln!("Waivers: inline `// lint: allow(XN): reason` (or `// lint: sorted` for D2),");
    eprintln!("or crates/xtask/lint.allow. Stale waivers are W1 errors.");
    ExitCode::from(2)
}

fn explain(rule: &str) -> ExitCode {
    let rules: Vec<Rule> = if rule == "all" {
        Rule::ALL.to_vec()
    } else {
        match Rule::parse(rule) {
            Some(r) => vec![r],
            None => {
                eprintln!("xtask lint: unknown rule `{rule}` (try one of: D1 D2 D3 D4 L1 S1 S2 F1 F2 E1 W1, or `all`)");
                return ExitCode::from(2);
            }
        }
    };
    for (i, r) in rules.iter().enumerate() {
        if i > 0 {
            println!();
        }
        println!("{r} — {}", r.summary());
        println!();
        println!("  {}", r.explain());
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) != Some("lint") {
        return usage();
    }
    let mut format = "text".to_string();
    let mut rest = args[1..].iter();
    while let Some(arg) = rest.next() {
        if let Some(f) = arg.strip_prefix("--format=") {
            format = f.to_string();
        } else if arg == "--format" {
            format = rest.next().cloned().unwrap_or_default();
        } else if let Some(r) = arg.strip_prefix("--explain=") {
            return explain(r);
        } else if arg == "--explain" {
            let Some(r) = rest.next() else {
                return usage();
            };
            return explain(r);
        } else {
            return usage();
        }
    }
    if !matches!(format.as_str(), "text" | "json") {
        eprintln!("xtask lint: unknown format `{format}` (text or json)");
        return ExitCode::from(2);
    }

    let root = workspace_root();
    match run_lint(&root) {
        Ok(report) => {
            match format.as_str() {
                "json" => print!("{}", render_json(&report)),
                _ => {
                    for w in &report.warnings {
                        eprintln!("warning: {w}");
                    }
                    if report.violations.is_empty() {
                        println!(
                            "xtask lint: OK ({} files checked, {} warnings)",
                            report.files_checked,
                            report.warnings.len()
                        );
                    } else {
                        for v in &report.violations {
                            println!("{v}");
                        }
                        println!(
                            "xtask lint: {} violation(s) in {} files checked \
                             (`--explain <RULE>` for rationale)",
                            report.violations.len(),
                            report.files_checked
                        );
                    }
                }
            }
            if report.violations.is_empty() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("xtask lint: error: {e}");
            ExitCode::from(2)
        }
    }
}
