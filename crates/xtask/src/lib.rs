//! Workspace tooling for the Duet reproduction. `xtask lint` is the
//! layering check (DESIGN.md §11): every `[dependencies]` and
//! `[dev-dependencies]` edge in `crates/*/Cargo.toml` points strictly
//! down the layer stack, and `xtask` depends on no workspace crate.
//!
//! Manifests are the whole check. In edition 2021 a `use` path can only
//! name a declared dependency, so a downward-only manifest graph already
//! makes every path, and every re-export, point down. What else only
//! this repository knows is stated in types and tests: trace kinds are
//! `sim_core::trace::TraceKind`, a context span is a value `ctx_end`
//! consumes, and fault sites are rows of an exhaustive `match` in the
//! fault matrix.

use std::fmt;
use std::path::Path;

/// The sanctioned layer ranks. An edge `a → b` is legal iff
/// `rank(b) < rank(a)`: strictly downward, no sideways edges within a
/// band, no upward edges ever. `xtask` is deliberately absent — the
/// checker sits outside the stack it checks and may depend on nothing.
pub const LAYER_RANKS: &[(&str, u32)] = &[
    ("sim-core", 0),
    ("sim-disk", 1),
    ("sim-cache", 1),
    ("sim-btrfs", 2),
    ("sim-f2fs", 2),
    ("duet", 3),
    ("duet-tasks", 4),
    ("workloads", 5),
    ("experiments", 6),
    ("bench", 7),
    ("duet-repro", 8),
];

/// The rank of a package, if it is part of the layered stack.
pub fn layer_rank(name: &str) -> Option<u32> {
    LAYER_RANKS
        .iter()
        .find(|(n, _)| *n == name)
        .map(|&(_, r)| r)
}

/// One illegal dependency edge, anchored at its manifest entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Manifest path relative to the checked root.
    pub path: String,
    /// 1-based line of the dependency entry.
    pub line: usize,
    /// The dependency the entry names.
    pub dep: String,
    pub message: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}: L1: {}", self.path, self.line, self.message)
    }
}

/// Checks every `crates/*/Cargo.toml` under `root`: the number of
/// manifests read, and the illegal edges in path and line order.
pub fn lint(root: &Path) -> Result<(usize, Vec<Violation>), String> {
    let crates = root.join("crates");
    let mut dirs: Vec<_> = std::fs::read_dir(&crates)
        .map_err(|e| format!("reading {}: {e}", crates.display()))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.join("Cargo.toml").is_file())
        .collect();
    dirs.sort();
    let mut out = Vec::new();
    for dir in &dirs {
        let manifest = dir.join("Cargo.toml");
        let text = std::fs::read_to_string(&manifest)
            .map_err(|e| format!("reading {}: {e}", manifest.display()))?;
        let rel = manifest.strip_prefix(root).unwrap_or(&manifest);
        check_manifest(&rel.to_string_lossy(), &text, &mut out);
    }
    Ok((dirs.len(), out))
}

/// A line parse of one manifest: the `[package]` name, then every key
/// of its dependency tables checked against the ranks.
fn check_manifest(rel: &str, text: &str, out: &mut Vec<Violation>) {
    let mut name = String::new();
    let mut section = "";
    for (nr, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.starts_with('[') {
            section = line.trim_matches(['[', ']']);
            continue;
        }
        if section == "package" {
            if let Some((key, value)) = line.split_once('=') {
                if key.trim() == "name" {
                    name = value.trim().trim_matches('"').to_string();
                }
            }
        }
        if !matches!(section, "dependencies" | "dev-dependencies") {
            continue;
        }
        let dep: String = line
            .chars()
            .take_while(|c| c.is_alphanumeric() || matches!(c, '-' | '_'))
            .collect();
        let Some(dep_rank) = layer_rank(&dep) else {
            continue;
        };
        let message = if name == "xtask" {
            format!(
                "`xtask` must not depend on workspace crate `{dep}`: \
                 it sits outside the stack it checks"
            )
        } else {
            let Some(rank) = layer_rank(&name) else {
                continue;
            };
            if dep_rank < rank {
                continue;
            }
            let direction = if dep_rank == rank {
                "sideways"
            } else {
                "upward"
            };
            format!(
                "{direction} dependency edge `{name}` (layer {rank}) → `{dep}` (layer {dep_rank}): \
                 edges must point strictly down the stack"
            )
        };
        out.push(Violation {
            path: rel.to_string(),
            line: nr + 1,
            dep,
            message,
        });
    }
}
