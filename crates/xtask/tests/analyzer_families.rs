//! Per-family analyzer tests over the mini-workspaces in
//! `tests/fixtures/` (see the README there), plus the end-to-end
//! determinism check on the real workspace.

use std::path::{Path, PathBuf};
use xtask::model::WorkspaceModel;
use xtask::output::render_json;
use xtask::rules::{analyze, run_lint, LintReport, Rule};

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

#[expect(
    clippy::expect_used,
    reason = "test helper: a fixture that fails to load fails the calling test"
)]
fn lint_fixture(name: &str) -> LintReport {
    let model = WorkspaceModel::from_root(&fixture(name)).expect("fixture loads");
    analyze(&model)
}

/// `(rule, path, line, token)` for every violation, in report order.
fn keys(r: &LintReport) -> Vec<(Rule, String, u32, String)> {
    r.violations
        .iter()
        .map(|v| (v.rule, v.path.clone(), v.line, v.token.clone()))
        .collect()
}

#[test]
fn l1_fires_on_upward_sideways_and_xtask_edges() {
    let r = lint_fixture("layering");
    let got = keys(&r);
    let want = |rule, path: &str, line, token: &str| {
        assert!(
            got.contains(&(rule, path.into(), line, token.into())),
            "missing {rule:?} {path}:{line} `{token}` in {got:?}"
        );
    };
    // Upward manifest edge and upward `use` path: sim-btrfs → duet.
    want(Rule::L1, "crates/sim-btrfs/Cargo.toml", 6, "duet");
    want(Rule::L1, "crates/sim-btrfs/src/lib.rs", 3, "duet::");
    // Sideways manifest edge within a band: sim-cache → sim-disk.
    want(Rule::L1, "crates/sim-cache/Cargo.toml", 6, "sim-disk");
    // xtask may depend on no workspace crate at all.
    want(Rule::L1, "crates/xtask/Cargo.toml", 5, "sim-core");
    // The waived upward reference (lib.rs:7) is suppressed, its waiver
    // consumed, and nothing else fires — no W1.
    assert_eq!(r.violations.len(), 4, "{got:?}");
}

#[test]
fn s1_s2_fire_on_span_hygiene_fixture() {
    let r = lint_fixture("spans");
    let got = keys(&r);
    let lib = "crates/duet-tasks/src/lib.rs";
    assert!(
        got.contains(&(Rule::S1, lib.into(), 5, "ctx_begin".into())),
        "{got:?}"
    );
    assert!(
        got.contains(&(Rule::S2, lib.into(), 16, "rogue.kind".into())),
        "{got:?}"
    );
    assert!(
        got.contains(&(Rule::S2, lib.into(), 21, "TraceLayer::Task".into())),
        "{got:?}"
    );
    // Reverse drift: documented but never emitted, anchored at the row.
    assert!(
        got.contains(&(Rule::S2, "DESIGN.md".into(), 6, "never.emitted".into())),
        "{got:?}"
    );
    // The waived S1 context, the waived off-registry kind and the
    // unpaired context in a test item stay quiet.
    assert_eq!(r.violations.len(), 4, "{got:?}");
}

#[test]
fn f1_f2_fire_on_fault_registry_fixture() {
    let r = lint_fixture("faults");
    let reg = "crates/sim-core/src/fault.rs";
    let got = keys(&r);
    assert!(
        got.contains(&(Rule::F1, reg.into(), 7, "Unhooked".into())),
        "{got:?}"
    );
    assert!(
        got.contains(&(Rule::F1, reg.into(), 9, "Unpresetted".into())),
        "{got:?}"
    );
    assert!(
        got.contains(&(Rule::F2, reg.into(), 11, "Unmatrixed".into())),
        "{got:?}"
    );
    // The two F1 findings are distinct failure modes.
    let msg = |line: u32| {
        r.violations
            .iter()
            .find(|v| v.line == line)
            .map(|v| v.message.clone())
            .unwrap_or_default()
    };
    assert!(msg(7).contains("injection hook"));
    assert!(msg(9).contains("preset"));
    // `Hooked` is clean end to end; `WaivedSite` is fully waived inline.
    assert_eq!(r.violations.len(), 3, "{got:?}");
}

#[test]
fn w1_flags_stale_and_malformed_inline_waivers() {
    let r = lint_fixture("waivers");
    let lib = "crates/sim-core/src/lib.rs";
    let got = keys(&r);
    assert_eq!(r.violations.len(), 2, "{got:?}");
    let at = |line: u32| r.violations.iter().find(|v| v.line == line).unwrap();
    assert_eq!(at(1).rule, Rule::W1);
    assert!(at(1).message.contains("stale"), "{}", at(1).message);
    assert_eq!(at(4).rule, Rule::W1);
    assert!(at(4).message.contains("malformed"), "{}", at(4).message);
    assert!(r.violations.iter().all(|v| v.path == lib));
    // The waiver inside the `#[cfg(test)]` module is exempt: no finding
    // on its line.
    assert!(r.violations.iter().all(|v| v.line < 9), "{got:?}");
}

#[test]
fn lexer_keeps_rule_tokens_in_literals_and_comments_inert() {
    // Raw strings, byte strings and *nested* block comments are full of
    // rule tokens; only the F1 finding on `Ghost`, whose one hook sits
    // inside a literal, may fire.
    let r = lint_fixture("lexer");
    assert_eq!(
        keys(&r),
        vec![(
            Rule::F1,
            "crates/sim-core/src/fault.rs".into(),
            3,
            "Ghost".into()
        )],
    );
}

#[test]
fn json_report_is_byte_identical_across_runs() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let first = render_json(&run_lint(&root).expect("lint"));
    let again = render_json(&run_lint(&root).expect("lint, rerun"));
    assert_eq!(first, again, "report must not vary between runs");
}

/// The CLI speaks text and JSON and takes no worker count: the removed
/// `--jobs` flag and `sarif` format are usage errors, not aliases. A
/// rule that moved to clippy is an unknown rule that says where it went.
#[test]
fn removed_flags_are_rejected() {
    for (arg, expect) in [
        ("--jobs=2", "lint [--format=text|json]\n"),
        ("--format=sarif", "unknown format `sarif` (text or json)"),
        (
            "--explain=D3",
            "(try one of: L1 S1 S2 F1 F2 W1, or `all`)\n\
             D1-D4 and E1 are clippy lints: see clippy.toml",
        ),
    ] {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_xtask"))
            .args(["lint", arg])
            .output()
            .expect("the binary was built for this test");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{arg}: {stderr}");
        assert!(stderr.contains(expect), "{arg}: {stderr}");
        assert!(out.stdout.is_empty(), "{arg} produced a report");
    }
}
