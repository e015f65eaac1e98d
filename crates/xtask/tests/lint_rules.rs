//! The lint's own acceptance tests: scope policy, the rules that moved
//! to clippy still fail, and — the point of the exercise — the
//! workspace itself is clean.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::process::Command;
use xtask::rules::{is_library, run_lint};

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

#[test]
fn scoping_matches_policy() {
    // Library code of the simulation, framework, experiments and bench.
    assert!(is_library("crates/core/src/framework.rs"));
    assert!(is_library("crates/sim-btrfs/src/fs.rs"));
    assert!(is_library("src/lib.rs"));
    assert!(is_library("crates/bench/src/pool.rs"));
    // Out of scope: tests, benches, examples, fixtures, the linter.
    assert!(!is_library("tests/end_to_end.rs"));
    assert!(!is_library("crates/core/src/framework_tests.rs"));
    assert!(!is_library("crates/bench/benches/overhead.rs"));
    assert!(!is_library("examples/quickstart.rs"));
    assert!(!is_library("crates/xtask/src/main.rs"));
    assert!(!is_library(
        "crates/xtask/tests/fixtures/waivers/crates/sim-core/src/lib.rs"
    ));
}

/// The probe crate for `moved_rules_fail_under_clippy`. Every line
/// ending in `// want:` must trip exactly the lints it names; every
/// other line must stay silent — the `#[expect]`-waived forms and the
/// test module, which `clippy.toml`'s `allow-*-in-tests` lets panic.
/// Each `clippy.toml` entry has a line of its own.
const PROBE: &str = r#"// D1: wall clock.
pub fn d1() {
    let _t = std::time::Instant::now(); // want: clippy::disallowed_methods clippy::disallowed_types
    let _t = std::time::SystemTime::now(); // want: clippy::disallowed_methods clippy::disallowed_types
}

// D2: hash order.
pub fn d2_map(m: &std::collections::HashMap<u32, u32>) -> usize { // want: clippy::disallowed_types
    m.len()
}
pub fn d2_set(s: &std::collections::HashSet<u32>) -> usize { // want: clippy::disallowed_types
    s.len()
}

// D3: panics.
pub fn d3(x: Option<u32>, r: Result<u32, String>) -> u32 {
    if x == Some(0) {
        panic!("zero"); // want: clippy::panic
    }
    let a = x.unwrap(); // want: clippy::unwrap_used
    let b = r.expect("ok"); // want: clippy::expect_used
    a + b
}

// D4: ambient state.
pub fn d4_threads() {
    drop(std::thread::spawn(|| {})); // want: clippy::disallowed_methods
    std::thread::scope(|_| {}); // want: clippy::disallowed_methods
}
pub fn d4_env() -> bool {
    let v = std::env::var("X").is_ok(); // want: clippy::disallowed_methods
    let o = std::env::var_os("Y").is_some(); // want: clippy::disallowed_methods
    v || o
}
pub fn d4_exit() {
    std::process::exit(1) // want: clippy::exit
}
pub static mut COUNTER: u32 = 0;
pub fn d4_static_mut() {
    unsafe { COUNTER += 1 } // want: unsafe_code
}

// E1: discarded results, both shapes.
pub fn fallible() -> Result<(), String> {
    Ok(())
}
pub fn e1() {
    let _ = fallible(); // want: clippy::let_underscore_must_use
    fallible().ok(); // want: clippy::unused_result_ok
}

// W1: a stale waiver and a bare one.
#[expect(clippy::panic, reason = "stale: nothing here panics")] // want: unfulfilled_lint_expectations
pub fn w1_stale() {}
#[allow(dead_code)] // want: clippy::allow_attributes clippy::allow_attributes_without_reason
fn w1_bare() {}

// Waived forms: silent.
#[expect(clippy::disallowed_methods, reason = "probe: the sanctioned pool")]
pub fn waived_thread() {
    drop(std::thread::spawn(|| {}));
}
#[expect(clippy::disallowed_types, reason = "probe: the sanctioned stopwatch")]
pub fn waived_clock(t: std::time::Instant) -> u128 {
    t.elapsed().as_nanos()
}
#[expect(clippy::let_underscore_must_use, reason = "probe: a best-effort call")]
pub fn waived_discard() {
    let _ = fallible();
}
#[expect(clippy::unwrap_used, reason = "probe: a checked invariant")]
pub fn waived_unwrap(x: Option<u32>) -> u32 {
    x.unwrap()
}

#[cfg(test)]
mod tests {
    #[test]
    fn tests_may_panic() {
        let x = std::hint::black_box(Some(1u32));
        assert_eq!(x.unwrap(), x.expect("some"));
        if x.is_none() {
            panic!("none");
        }
    }
}
"#;

/// The root `[workspace.lints.*]` tables as a package's `[lints.*]`,
/// bodies verbatim.
fn workspace_lints(manifest: &str) -> String {
    let mut out = String::new();
    let mut copying = false;
    for line in manifest.lines() {
        if line.starts_with('[') {
            copying = line.starts_with("[workspace.lints.");
        }
        if copying {
            out.push_str(&line.replacen("[workspace.lints.", "[lints.", 1));
            out.push('\n');
        }
    }
    out
}

/// `(line, lint)` of every compiler message in cargo's JSON stream:
/// the message's lint code and its first span's line.
fn diagnostics(stream: &str) -> BTreeSet<(usize, String)> {
    fn after<'a>(s: &'a str, key: &str, end: char) -> Option<&'a str> {
        let rest = &s[s.find(key)? + key.len()..];
        Some(&rest[..rest.find(end)?])
    }
    stream
        .lines()
        .filter(|l| l.starts_with(r#"{"reason":"compiler-message""#))
        .filter_map(|l| {
            let code = after(l, r#""code":{"code":""#, '"')?;
            let line = after(l, r#""line_start":"#, ',')?.parse().ok()?;
            Some((line, code.to_string()))
        })
        .collect()
}

/// D1–D4, E1 and W1 are enforced by clippy, not by xtask: a throwaway
/// crate with the workspace's `[lints]` and the repo's `clippy.toml`
/// must trip each lint on the probe line that violates it, and nothing
/// else. Deleting any `clippy.toml` entry or workspace lint fails this.
#[test]
fn moved_rules_fail_under_clippy() {
    let root = repo_root();
    let manifest = std::fs::read_to_string(root.join("Cargo.toml")).expect("root Cargo.toml");
    let lints = workspace_lints(&manifest);
    assert!(lints.contains("[lints.rust]") && lints.contains("[lints.clippy]"));

    let probe = Path::new(env!("CARGO_TARGET_TMPDIR")).join("clippy_probe");
    std::fs::create_dir_all(probe.join("src")).expect("probe dir");
    std::fs::write(
        probe.join("Cargo.toml"),
        format!(
            "[package]\nname = \"clippy_probe\"\nversion = \"0.0.0\"\nedition = \"2021\"\n\
             \n[workspace]\n\n{lints}"
        ),
    )
    .expect("probe manifest");
    std::fs::write(probe.join("src/lib.rs"), PROBE).expect("probe source");

    // `--tests` checks the library once, with its test module compiled.
    let out = Command::new(env!("CARGO"))
        .args(["clippy", "--offline", "--quiet", "--tests"])
        .args(["--message-format=json", "--", "-D", "warnings"])
        .current_dir(&probe)
        .env("CARGO_TARGET_DIR", probe.join("target"))
        .env("CLIPPY_CONF_DIR", &root)
        .output()
        .expect("cargo clippy runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(!out.status.success(), "the probe must fail clippy");

    let want: BTreeSet<(usize, String)> = PROBE
        .lines()
        .enumerate()
        .filter_map(|(i, l)| Some((i + 1, l.split_once("// want: ")?.1)))
        .flat_map(|(n, lints)| lints.split_whitespace().map(move |l| (n, l.to_string())))
        .collect();
    let got = diagnostics(&stdout);
    assert_eq!(
        got,
        want,
        "clippy findings (line, lint) differ from the probe's `// want:` markers\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

/// The `trace` cargo feature is gone and nothing may grow another: a
/// feature is an on/off option every test and benchmark would have to
/// cover twice.
#[test]
fn no_manifest_declares_a_cargo_feature() {
    let root = repo_root();
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
    let report = run_lint(&repo_root()).expect("lint run");
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
