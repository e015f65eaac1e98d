//! Rule definitions, waiver machinery, and the analysis driver.
//!
//! ## Rule families
//!
//! | id | family | rule |
//! |----|--------|------|
//! | L1 | layering | crate dependencies point strictly down the layer stack (manifest edges and `use` paths) |
//! | S1 | trace hygiene | every `ctx_begin` is paired with a `ctx_end` in the same function |
//! | S2 | trace hygiene | every emitted trace kind is a string literal and appears in the DESIGN.md §10.1 kind registry (both directions) |
//! | F1 | fault registry | every `FaultSite` variant has an injection hook and a preset-plan mention |
//! | F2 | fault registry | every `FaultSite` variant has a `fault_matrix.rs` row |
//! | W1 | waiver audit | no stale or malformed inline waivers |
//!
//! The determinism, panic-safety and discarded-result rules (D1–D4,
//! E1) and the audit of their `#[expect]` waivers are clippy lints:
//! `clippy.toml` and the root `[workspace.lints]` (DESIGN.md §7).
//!
//! Test code is exempt everywhere: `#[cfg(test)]` / `#[test]` items,
//! `*_tests.rs` files, and anything under `tests/`, `benches/`,
//! `examples/` or `fixtures/`. A finding is waived inline with
//! `// lint: allow(XN): reason` on the same or preceding line. W1
//! itself is not waivable — a waiver for the waiver audit would be
//! circular.

use crate::model::{self, WorkspaceModel};
use crate::passes;
use std::cell::Cell;
use std::collections::BTreeMap;
use std::fmt;
use std::path::Path;

/// Rule identifiers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Rule {
    /// Crate layering: dependency edges point strictly downward.
    L1,
    /// Trace-context pairing: `ctx_begin` closed in the same function.
    S1,
    /// Trace-kind registry: emissions match the DESIGN.md schema table.
    S2,
    /// Fault sites are live: hook + preset mention for every variant.
    F1,
    /// Fault sites are tested: a fault-matrix row for every variant.
    F2,
    /// No stale or malformed waivers.
    W1,
}

impl Rule {
    /// Every rule, in report order.
    pub const ALL: [Rule; 6] = [Rule::L1, Rule::S1, Rule::S2, Rule::F1, Rule::F2, Rule::W1];

    pub fn name(self) -> &'static str {
        match self {
            Rule::L1 => "L1",
            Rule::S1 => "S1",
            Rule::S2 => "S2",
            Rule::F1 => "F1",
            Rule::F2 => "F2",
            Rule::W1 => "W1",
        }
    }

    pub fn parse(s: &str) -> Option<Rule> {
        Rule::ALL.into_iter().find(|r| r.name() == s)
    }

    /// One-line summary (`--explain` header, usage text).
    pub fn summary(self) -> &'static str {
        match self {
            Rule::L1 => "crate dependencies point strictly down the layer stack",
            Rule::S1 => "every ctx_begin pairs with a ctx_end in the same function",
            Rule::S2 => "emitted trace kinds are literals listed in the DESIGN.md registry",
            Rule::F1 => "every FaultSite variant has an injection hook and a preset mention",
            Rule::F2 => "every FaultSite variant has a fault_matrix.rs row",
            Rule::W1 => "no stale or malformed waivers",
        }
    }

    /// The rationale printed by `lint --explain <RULE>`.
    pub fn explain(self) -> &'static str {
        match self {
            Rule::L1 => {
                "The stack is layered: sim-core < sim-disk/sim-cache < \
                 sim-btrfs/sim-f2fs < duet < duet-tasks < workloads < experiments < \
                 bench < duet-repro, and xtask depends on nothing. Dependency edges \
                 (both `Cargo.toml` entries and `use` paths in library code) must \
                 point strictly downward — an upward or sideways edge lets framework \
                 behaviour leak into the substrate it is supposed to observe, which \
                 is exactly the coupling the paper's hint design avoids."
            }
            Rule::S1 => {
                "First-divergence localization replays context spans; a `ctx_begin` \
                 whose function never calls `ctx_end` leaks an open context into \
                 every later event's causality chain, silently corrupting blame \
                 assignment. Open and close the context in the same function (the \
                 close may sit on an early-return path)."
            }
            Rule::S2 => {
                "The trace schema (DESIGN.md §10.1) is the contract between \
                 emitters and the divergence localizer. A kind string that is \
                 computed at runtime cannot be audited; a kind that is emitted but \
                 undocumented (or documented but never emitted) is schema drift — \
                 the dominant failure mode of simulation instrumentation. Emit \
                 literal kinds and keep the registry table in sync (the check runs \
                 in both directions)."
            }
            Rule::F1 => {
                "A `FaultSite` variant with no `fire(...)` hook in library code is \
                 dead injection surface; one absent from every `FaultPlan::preset` \
                 is never exercised by the fault grid. Either wire the site up or \
                 delete it — a registry entry that cannot fire gives false \
                 confidence in fault coverage."
            }
            Rule::F2 => {
                "Every fault site must appear in \
                 `crates/experiments/tests/fault_matrix.rs` (by variant name or \
                 site label) so the Duet-vs-baseline equivalence oracle provably \
                 runs against it. A site the matrix never mentions is untested by \
                 construction."
            }
            Rule::W1 => {
                "Waivers are precision instruments: an inline `// lint: allow(..)` \
                 that no longer suppresses anything is rot — it documents an \
                 exemption that does not exist and will silently mask a future \
                 regression at the same site. Stale waivers, and waivers naming no \
                 rule of this tool, are errors; delete them. W1 itself cannot be \
                 waived."
            }
        }
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One finding.
#[derive(Debug, Clone)]
pub struct Violation {
    pub rule: Rule,
    /// Repo-relative path.
    pub path: String,
    pub line: u32,
    /// The offending token or token sequence.
    pub token: String,
    pub message: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: {}: {}",
            self.path, self.line, self.rule, self.message
        )
    }
}

/// Crates whose library code is in scope: the simulation substrate,
/// the framework, the tasks, the evaluation harness and the bench
/// binary.
const LIBRARY_PREFIXES: &[&str] = &[
    "crates/sim-core/src/",
    "crates/sim-disk/src/",
    "crates/sim-cache/src/",
    "crates/sim-btrfs/src/",
    "crates/sim-f2fs/src/",
    "crates/core/src/",
    "crates/duet-tasks/src/",
    "crates/workloads/src/",
    "crates/experiments/src/",
    "crates/bench/src/",
    "src/",
];

/// Whether a repo-relative path is library code the per-file checks
/// cover. Tooling, tests, benches, examples and fixtures are not.
pub fn is_library(rel: &str) -> bool {
    let rel = rel.replace('\\', "/");
    let test_only = rel.starts_with("tests/")
        || rel.contains("/tests/")
        || rel.contains("/benches/")
        || rel.starts_with("examples/")
        || rel.contains("/examples/")
        || rel.contains("/fixtures/")
        || rel.ends_with("_tests.rs");
    !test_only && LIBRARY_PREFIXES.iter().any(|p| rel.starts_with(p))
}

/// A pre-waiver finding of one pass.
#[derive(Debug, Clone)]
pub struct Finding {
    pub rule: Rule,
    pub rel: String,
    pub line: u32,
    pub token: String,
    pub message: String,
}

/// One inline waiver comment found in a library file.
struct InlineWaiver {
    line: u32,
    /// `None`: malformed (no rule of this tool inside `lint: allow(..)`).
    rule: Option<Rule>,
    text: String,
    consumed: Cell<bool>,
    /// Waivers inside test items are exempt from the staleness audit
    /// (the code they annotate is exempt from the rules).
    in_test: bool,
}

fn parse_inline_waivers(file: &model::SourceFile) -> Vec<InlineWaiver> {
    let lx = &file.lexed;
    let test_lines: Vec<(u32, u32)> = model::test_ranges(lx)
        .iter()
        .map(|&(a, b)| (lx.tokens[a].line, lx.tokens[b].line))
        .collect();
    lx.comments
        .iter()
        .filter_map(|c| {
            let rest = c.text.split("lint: allow(").nth(1)?;
            let name = rest.split(')').next().unwrap_or("");
            Some(InlineWaiver {
                line: c.line,
                rule: Rule::parse(name),
                text: c.text.trim().to_string(),
                consumed: Cell::new(false),
                in_test: test_lines.iter().any(|&(a, b)| c.line >= a && c.line <= b),
            })
        })
        .collect()
}

/// Outcome of a full lint run.
#[derive(Debug, Default)]
pub struct LintReport {
    pub violations: Vec<Violation>,
    /// Non-fatal notes (e.g. a missing DESIGN.md limits the S2 check).
    pub warnings: Vec<String>,
    /// Library files the passes covered.
    pub files_checked: usize,
}

/// Runs every pass over an already-built model. This is the whole
/// analysis, minus I/O — the fixture tests call it directly.
pub fn analyze(model: &WorkspaceModel) -> LintReport {
    let mut raw: Vec<Finding> = passes::layering::find(model);
    raw.extend(passes::spans::unpaired_contexts(model));
    raw.extend(passes::spans::kind_registry(model));
    raw.extend(passes::faults::find(model));

    // Waiver application, with consumption tracking for the W1 audit.
    let mut inline: BTreeMap<String, Vec<InlineWaiver>> = BTreeMap::new();
    for file in model.files.iter().filter(|f| f.library) {
        let ws = parse_inline_waivers(file);
        if !ws.is_empty() {
            inline.insert(file.rel.clone(), ws);
        }
    }

    let mut report = LintReport {
        files_checked: model.files_checked,
        ..LintReport::default()
    };
    if model.design_rel.is_none() {
        report
            .warnings
            .push("DESIGN.md not found: the S2 kind-registry check is limited".into());
    }

    for f in raw {
        let waiver = inline.get(&f.rel).and_then(|ws| {
            ws.iter()
                .find(|w| (w.line == f.line || w.line + 1 == f.line) && w.rule == Some(f.rule))
        });
        if let Some(w) = waiver {
            w.consumed.set(true);
            continue;
        }
        report.violations.push(Violation {
            rule: f.rule,
            path: f.rel,
            line: f.line,
            token: f.token,
            message: f.message,
        });
    }

    // W1: stale or malformed waivers are errors.
    for (rel, ws) in &inline {
        for w in ws.iter().filter(|w| !w.in_test) {
            let message = if w.rule.is_none() {
                format!(
                    "malformed waiver `{}`: no such xtask rule (D1–D4 and E1 are clippy lints: \
                     waive them with `#[expect]`)",
                    w.text
                )
            } else if !w.consumed.get() {
                format!(
                    "stale inline waiver `{}`: it no longer suppresses any violation — delete it",
                    w.text
                )
            } else {
                continue;
            };
            report.violations.push(Violation {
                rule: Rule::W1,
                path: rel.clone(),
                line: w.line,
                token: w.text.clone(),
                message,
            });
        }
    }

    report.violations.sort_by(|a, b| {
        (a.path.as_str(), a.line, a.rule, a.token.as_str()).cmp(&(
            b.path.as_str(),
            b.line,
            b.rule,
            b.token.as_str(),
        ))
    });
    report
}

/// Lints the whole workspace rooted at `root`.
pub fn run_lint(root: &Path) -> Result<LintReport, String> {
    Ok(analyze(&WorkspaceModel::from_root(root)?))
}
