//! Every trace kind is emitted: each `TraceKind` variant is named in
//! some library source outside the trace plane that defines it. With the
//! registry test in `sim_core::trace` (DESIGN.md §10.1 ≡ `TraceKind::ALL`)
//! this keeps the documented schema, the enum and the emitters equal.

use sim_core::trace::TraceKind;
use std::path::Path;

/// Appends every `.rs` file under `dir` to `out`, except the trace plane
/// itself and `*_tests.rs` modules.
fn library_sources(dir: &Path, out: &mut String) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for path in entries.flatten().map(|e| e.path()) {
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if path.is_dir() {
            library_sources(&path, out);
        } else if name.ends_with(".rs")
            && !name.ends_with("_tests.rs")
            && !path.ends_with("sim-core/src/trace.rs")
        {
            out.push_str(&std::fs::read_to_string(&path).unwrap_or_default());
        }
    }
}

/// Whether `src` names `TraceKind::{variant}` as a whole path: the
/// `DiskRetry` in `TraceKind::DiskRetryExhausted` does not count.
fn names(src: &str, variant: &str) -> bool {
    let needle = format!("TraceKind::{variant}");
    src.match_indices(&needle).any(|(at, _)| {
        !src[at + needle.len()..].starts_with(|c: char| c.is_alphanumeric() || c == '_')
    })
}

#[test]
fn every_trace_kind_is_named_by_an_emitter() {
    let crates = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let mut src = String::new();
    for entry in std::fs::read_dir(&crates).expect("crates/").flatten() {
        library_sources(&entry.path().join("src"), &mut src);
    }
    assert!(names(&src, "BackupShip"), "the walk found the emitters");
    let unnamed: Vec<String> = TraceKind::ALL
        .iter()
        .map(|k| format!("{k:?}"))
        .filter(|v| !names(&src, v))
        .collect();
    assert!(
        unnamed.is_empty(),
        "trace kinds no library emits: {unnamed:?}"
    );
}

#[test]
fn a_prefix_of_another_kind_is_not_a_mention() {
    assert!(!names(
        "t.event(TraceKind::DiskRetryExhausted, at)",
        "DiskRetry"
    ));
    assert!(names("t.event(TraceKind::DiskRetry, at)", "DiskRetry"));
}
