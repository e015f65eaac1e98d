//! The lint's own acceptance tests: each seeded fixture must trigger
//! its rule, compliant code must not, waivers must work, and — the
//! point of the exercise — the workspace itself must be clean.

use std::path::PathBuf;
use xtask::rules::{classify, lint_source, parse_allowlist, run_lint, Rule, RuleSet, Violation};

fn fixture(name: &str) -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("reading {}: {e}", path.display()))
}

fn lint_fixture(name: &str) -> Vec<Violation> {
    lint_source(name, &fixture(name), RuleSet::FULL, &[])
}

#[test]
fn d1_flags_wall_clock() {
    let v = lint_fixture("d1_wall_clock.rs");
    assert!(!v.is_empty());
    assert!(v.iter().all(|x| x.rule == Rule::D1), "{v:?}");
    let tokens: Vec<&str> = v.iter().map(|x| x.token.as_str()).collect();
    assert!(tokens.contains(&"Instant"));
    assert!(tokens.contains(&"SystemTime"));
    assert!(tokens.contains(&"std::time"));
}

#[test]
fn d2_flags_hash_collections() {
    let v = lint_fixture("d2_hash_iteration.rs");
    assert!(v.iter().all(|x| x.rule == Rule::D2), "{v:?}");
    let maps = v.iter().filter(|x| x.token == "HashMap").count();
    let sets = v.iter().filter(|x| x.token == "HashSet").count();
    assert_eq!(
        maps, 2,
        "declaration and parameter use (the trailing `// lint: sorted` field is waived): {v:?}"
    );
    assert_eq!(sets, 2, "{v:?}");
}

/// The seeded deterministic containers (`sim_core::dmap`) iterate in
/// insertion order, so D2 must leave them alone — and point at them as
/// the sanctioned alternative when it does fire on a std hash
/// collection in the same file.
#[test]
fn d2_sanctions_dmap_containers() {
    let v = lint_fixture("d2_dmap_sanctioned.rs");
    assert!(v.iter().all(|x| x.rule == Rule::D2), "{v:?}");
    let tokens: Vec<&str> = v.iter().map(|x| x.token.as_str()).collect();
    assert_eq!(tokens, vec!["HashMap", "HashMap"], "import + field: {v:?}");
    assert!(
        v.iter().all(|x| x.message.contains("dmap::DMap")),
        "the diagnostic must name the sanctioned container: {v:?}"
    );
}

#[test]
fn d3_flags_panic_paths() {
    let v = lint_fixture("d3_panics.rs");
    assert!(v.iter().all(|x| x.rule == Rule::D3), "{v:?}");
    let tokens: Vec<&str> = v.iter().map(|x| x.token.as_str()).collect();
    assert_eq!(tokens, vec!["panic!", "unwrap", "expect", "todo!"]);
}

#[test]
fn d4_flags_ambient_state() {
    let v = lint_fixture("d4_ambient_state.rs");
    assert!(v.iter().all(|x| x.rule == Rule::D4), "{v:?}");
    let tokens: Vec<&str> = v.iter().map(|x| x.token.as_str()).collect();
    assert_eq!(tokens, vec!["static mut", "thread::spawn", "process::exit"]);
}

#[test]
fn d4_flags_scoped_threads() {
    // `thread::scope` is as ambient as `thread::spawn`; the `s.spawn`
    // inside the scope body is a method call, not `thread::spawn`, and
    // must not double-report.
    let v = lint_fixture("d4_thread_scope.rs");
    assert!(v.iter().all(|x| x.rule == Rule::D4), "{v:?}");
    let tokens: Vec<&str> = v.iter().map(|x| x.token.as_str()).collect();
    assert_eq!(tokens, vec!["thread::scope"]);
}

#[test]
fn d4_flags_env_reads_outside_tests_and_honours_waivers() {
    let v = lint_fixture("d4_env_var.rs");
    assert!(v.iter().all(|x| x.rule == Rule::D4), "{v:?}");
    let tokens: Vec<&str> = v.iter().map(|x| x.token.as_str()).collect();
    assert_eq!(tokens, vec!["env::var", "env::var_os"]);
    assert!(v[0].message.contains("sim_core::knobs"), "{v:?}");
    // Inline-waived, `env::args`, `env!` and test code: nothing fires.
    let v = lint_fixture("d4_env_var_waived.rs");
    assert!(v.is_empty(), "false positives: {v:?}");
}

#[test]
fn clean_code_passes_and_waivers_apply() {
    let v = lint_fixture("clean.rs");
    assert!(v.is_empty(), "false positives: {v:?}");
}

#[test]
fn allowlist_suppresses_matching_violations() {
    let allow = parse_allowlist(
        "# comment line\n\
         D3 d3_panics.rs unwrap   # demo waiver\n\
         D3 d3_panics.rs expect   # demo waiver\n",
    )
    .expect("parse");
    let v = lint_source(
        "d3_panics.rs",
        &fixture("d3_panics.rs"),
        RuleSet::FULL,
        &allow,
    );
    let tokens: Vec<&str> = v.iter().map(|x| x.token.as_str()).collect();
    assert_eq!(tokens, vec!["panic!", "todo!"]);
    assert!(allow.iter().all(|a| a.used.get()), "both entries consumed");
}

#[test]
fn allowlist_wildcard_token() {
    let allow = parse_allowlist("D3 d3_panics.rs *  # whole-file waiver\n").expect("parse");
    let v = lint_source(
        "d3_panics.rs",
        &fixture("d3_panics.rs"),
        RuleSet::FULL,
        &allow,
    );
    assert!(v.is_empty(), "{v:?}");
}

#[test]
fn allowlist_rejects_missing_justification() {
    assert!(parse_allowlist("D3 path.rs unwrap\n").is_err());
    assert!(parse_allowlist("D3 path.rs unwrap #   \n").is_err());
    assert!(parse_allowlist("D9 path.rs unwrap # x\n").is_err());
    assert!(parse_allowlist("D3 path.rs # x\n").is_err());
}

#[test]
fn scoping_matches_policy() {
    // Full rules in simulation/framework/experiment library code.
    assert_eq!(
        classify("crates/core/src/framework.rs"),
        Some(RuleSet::FULL)
    );
    assert_eq!(classify("crates/sim-btrfs/src/fs.rs"), Some(RuleSet::FULL));
    assert_eq!(classify("src/lib.rs"), Some(RuleSet::FULL));
    // Bench harness: wall-clock and ambient-state rules (the pool's
    // `thread::scope` is waived centrally, not descoped).
    assert_eq!(
        classify("crates/bench/src/figs/fig9_cpu_overhead.rs"),
        Some(RuleSet::BENCH)
    );
    assert_eq!(classify("crates/bench/src/pool.rs"), Some(RuleSet::BENCH));
    // Out of scope: tests, benches, examples, fixtures, the linter.
    assert_eq!(classify("tests/end_to_end.rs"), None);
    assert_eq!(classify("crates/core/src/framework_tests.rs"), None);
    assert_eq!(classify("crates/bench/benches/overhead.rs"), None);
    assert_eq!(classify("examples/quickstart.rs"), None);
    assert_eq!(classify("crates/xtask/src/main.rs"), None);
    assert_eq!(classify("crates/xtask/tests/fixtures/d3_panics.rs"), None);
}

#[test]
fn rules_skip_cfg_test_items() {
    let src = r#"
        pub fn ok() -> u64 { 1 }
        #[cfg(test)]
        mod tests {
            #[test]
            fn t() {
                let mut m = std::collections::HashMap::new();
                m.insert(1, 2);
                assert_eq!(*m.get(&1).unwrap(), 2);
                panic!("fine in tests");
            }
        }
    "#;
    let v = lint_source("lib.rs", src, RuleSet::FULL, &[]);
    assert!(v.is_empty(), "{v:?}");
}

/// The `trace` cargo feature is gone and nothing may grow another: a
/// feature is an on/off option every test and benchmark would have to
/// cover twice.
#[test]
fn no_manifest_declares_a_cargo_feature() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    let mut manifests = vec![root.join("Cargo.toml")];
    for entry in std::fs::read_dir(root.join("crates")).expect("crates/") {
        manifests.push(entry.expect("dir entry").path().join("Cargo.toml"));
    }
    assert!(manifests.len() >= 12, "{manifests:?}");
    for path in manifests {
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("reading {}: {e}", path.display()));
        for needle in ["[features]", "default-features", "features ="] {
            assert!(
                !text.contains(needle),
                "{} contains `{needle}`",
                path.display()
            );
        }
    }
}

/// The acceptance criterion: the workspace itself lints clean. This
/// test is what keeps the repo honest — a reintroduced violation fails
/// `cargo test` as well as CI's explicit `xtask lint` step.
#[test]
fn workspace_is_clean() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .map(PathBuf::from)
        .expect("workspace root");
    let report = run_lint(&root).expect("lint run");
    assert!(report.files_checked > 50, "walker found the workspace");
    assert!(
        report.violations.is_empty(),
        "workspace lint violations:\n{}",
        report
            .violations
            .iter()
            .map(|v| v.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
}
