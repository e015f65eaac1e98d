//! Rule definitions, waiver machinery, and the analysis driver.
//!
//! ## Rule families
//!
//! | id | family | rule |
//! |----|--------|------|
//! | D1 | determinism | no wall clock (`Instant::now`, `SystemTime`, `std::time`) — virtual `sim_core::clock` only |
//! | D2 | determinism | no `HashMap`/`HashSet` where iteration order can leak — `BTreeMap`/`BTreeSet`, or waive with `// lint: sorted` |
//! | D3 | panic safety | no `unwrap`/`expect`/`panic!`/`todo!`/`unimplemented!` in library code |
//! | D4 | determinism | no ambient state: `static mut`, `thread::spawn`, `thread::scope`, `process::exit` |
//! | L1 | layering | crate dependencies point strictly down the layer stack (manifest edges and `use` paths) |
//! | S1 | trace hygiene | every `ctx_begin` is paired with a `ctx_end` in the same function |
//! | S2 | trace hygiene | every emitted trace kind is a string literal and appears in the DESIGN.md §10.1 kind registry (both directions) |
//! | F1 | fault registry | every `FaultSite` variant has an injection hook and a preset-plan mention |
//! | F2 | fault registry | every `FaultSite` variant has a `fault_matrix.rs` row |
//! | E1 | error hygiene | no `let _ =` / statement-`.ok()` discard of a `SimResult` |
//! | W1 | waiver audit | no stale waivers: every `lint.allow` entry and inline waiver must suppress something |
//!
//! Test code is exempt from the per-file rules everywhere:
//! `#[cfg(test)]` / `#[test]` items, `*_tests.rs` files, and anything
//! under `tests/`, `benches/`, `examples/` or `fixtures/`. Individual
//! violations can be waived inline (`// lint: sorted` for D2,
//! `// lint: allow(XN): reason` for any rule, on the same or preceding
//! line) or centrally in `crates/xtask/lint.allow`. W1 itself is not
//! waivable — a waiver for the waiver audit would be circular.

use crate::lexer::{lex, Comment, Lexed};
use crate::model::{self, WorkspaceModel};
use crate::passes;
use std::collections::BTreeMap;
use std::fmt;
use std::path::Path;

/// Rule identifiers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Rule {
    /// No wall-clock time sources.
    D1,
    /// Deterministic iteration: no hash-ordered collections.
    D2,
    /// No panics in library code.
    D3,
    /// No ambient state (mutable statics, threads, process exit).
    D4,
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
    /// No silent discard of `SimResult` values.
    E1,
    /// No stale waivers.
    W1,
}

impl Rule {
    /// Every rule, in report order.
    pub const ALL: [Rule; 11] = [
        Rule::D1,
        Rule::D2,
        Rule::D3,
        Rule::D4,
        Rule::L1,
        Rule::S1,
        Rule::S2,
        Rule::F1,
        Rule::F2,
        Rule::E1,
        Rule::W1,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Rule::D1 => "D1",
            Rule::D2 => "D2",
            Rule::D3 => "D3",
            Rule::D4 => "D4",
            Rule::L1 => "L1",
            Rule::S1 => "S1",
            Rule::S2 => "S2",
            Rule::F1 => "F1",
            Rule::F2 => "F2",
            Rule::E1 => "E1",
            Rule::W1 => "W1",
        }
    }

    pub fn parse(s: &str) -> Option<Rule> {
        Rule::ALL.into_iter().find(|r| r.name() == s)
    }

    /// One-line summary (SARIF `shortDescription`, `--explain` header).
    pub fn summary(self) -> &'static str {
        match self {
            Rule::D1 => "no wall-clock time sources — virtual clock only",
            Rule::D2 => "no hash-ordered collections where iteration order can leak",
            Rule::D3 => "no panics in library code",
            Rule::D4 => "no ambient state (static mut, threads, process exit, env reads)",
            Rule::L1 => "crate dependencies point strictly down the layer stack",
            Rule::S1 => "every ctx_begin pairs with a ctx_end in the same function",
            Rule::S2 => "emitted trace kinds are literals listed in the DESIGN.md registry",
            Rule::F1 => "every FaultSite variant has an injection hook and a preset mention",
            Rule::F2 => "every FaultSite variant has a fault_matrix.rs row",
            Rule::E1 => "no silent discard of SimResult values",
            Rule::W1 => "no stale waivers: every waiver must suppress a real violation",
        }
    }

    /// The rationale printed by `lint --explain <RULE>`.
    pub fn explain(self) -> &'static str {
        match self {
            Rule::D1 => {
                "The reproduction's headline claim is bit-stable replay: the same seed \
                 and plan must produce the same digest on every machine, forever. Any \
                 wall-clock read (`Instant::now`, `SystemTime`, `std::time`) smuggles \
                 host timing into simulated results. Use the virtual clock \
                 (`sim_core::clock`, `SimInstant`) instead."
            }
            Rule::D2 => {
                "`HashMap`/`HashSet` iterate in randomized order, so any loop over one \
                 can leak nondeterminism into event delivery, trace streams or result \
                 files. Use `BTreeMap`/`BTreeSet`, or — when the iteration order \
                 provably cannot escape (e.g. the result is re-sorted) — waive the \
                 site with `// lint: sorted`."
            }
            Rule::D3 => {
                "Duet hints are advisory (paper §3.2): a task that panics on a bad \
                 hint violates degrade-to-baseline. Library code must route failures \
                 through `sim_core::SimResult` so the framework can fall back; \
                 `unwrap`/`expect`/`panic!`/`todo!`/`unimplemented!` are reserved for \
                 tests and the bench harness."
            }
            Rule::D4 => {
                "`static mut`, `thread::spawn`/`thread::scope` and `process::exit` \
                 are ambient state: they bypass the simulation's single-threaded \
                 deterministic event loop. The one sanctioned exception is the \
                 index-keyed worker pool in `bench::pool`, waived in lint.allow. \
                 `env::var`/`env::var_os` are ambient configuration: an ad-hoc \
                 reader is where `DUET_JOBS=abc` got silently ignored. Every \
                 environment read goes through the strict parsers in \
                 `sim_core::knobs` and `sim_core::fault::seed_from_env`, the two \
                 files waived in lint.allow."
            }
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
            Rule::E1 => {
                "Degrade-to-baseline (paper §3.2) means every `SimResult` is a \
                 decision point: handle it, propagate it, or explicitly document \
                 why dropping it is safe. `let _ = fallible()` and statement-form \
                 `fallible().ok();` silently discard the error path. Waive \
                 intentional best-effort sites with `// lint: allow(E1): reason`."
            }
            Rule::W1 => {
                "Waivers are precision instruments: a `lint.allow` entry or inline \
                 `// lint: allow(..)` that no longer suppresses anything is rot — \
                 it documents an exemption that does not exist and will silently \
                 mask a future regression at the same site. Stale waivers are \
                 errors; delete them. W1 itself cannot be waived."
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

/// Which per-file rules apply to a file. The model-level passes (L1,
/// S2 registry drift, F1, F2, W1) run once per workspace, not per file.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RuleSet {
    pub d1: bool,
    pub d2: bool,
    pub d3: bool,
    pub d4: bool,
    /// Trace-context pairing (S1).
    pub s1: bool,
    /// Trace-kind literal check at emission sites (S2).
    pub s2: bool,
    /// Discarded-`SimResult` detection (E1).
    pub e1: bool,
}

impl RuleSet {
    /// Every per-file rule (the sim/framework/experiment crates).
    pub const FULL: RuleSet = RuleSet {
        d1: true,
        d2: true,
        d3: true,
        d4: true,
        s1: true,
        s2: true,
        e1: true,
    };
    /// Wall-clock and ambient-state rules (the bench harness): harness
    /// code may panic and discard errors freely, but must not smuggle
    /// wall-clock time into simulated results, and any thread use
    /// outside the sanctioned `bench::pool` waiver is a violation.
    pub const BENCH: RuleSet = RuleSet {
        d1: true,
        d2: false,
        d3: false,
        d4: true,
        s1: false,
        s2: false,
        e1: false,
    };
    pub fn is_empty(&self) -> bool {
        !(self.d1 || self.d2 || self.d3 || self.d4 || self.s1 || self.s2 || self.e1)
    }
}

/// Crates whose library code is fully in scope: the simulation
/// substrate, the framework, the tasks and the evaluation harness.
const FULL_SCOPE_PREFIXES: &[&str] = &[
    "crates/sim-core/src/",
    "crates/sim-disk/src/",
    "crates/sim-cache/src/",
    "crates/sim-btrfs/src/",
    "crates/sim-f2fs/src/",
    "crates/core/src/",
    "crates/duet-tasks/src/",
    "crates/workloads/src/",
    "crates/experiments/src/",
    "src/",
];

/// Classifies a repo-relative path. `None` means the file is out of
/// scope (tooling, tests, benches, examples, fixtures).
pub fn classify(rel: &str) -> Option<RuleSet> {
    let rel = rel.replace('\\', "/");
    // Test-only code is exempt from every rule.
    if rel.starts_with("tests/")
        || rel.contains("/tests/")
        || rel.contains("/benches/")
        || rel.starts_with("examples/")
        || rel.contains("/examples/")
        || rel.contains("/fixtures/")
        || rel.ends_with("_tests.rs")
    {
        return None;
    }
    // The linter itself (and its fixtures) are out of scope.
    if rel.starts_with("crates/xtask/") {
        return None;
    }
    if FULL_SCOPE_PREFIXES.iter().any(|p| rel.starts_with(p)) {
        return Some(RuleSet::FULL);
    }
    // The bench harness runs real experiments and may panic freely, but
    // must not smuggle wall-clock time into simulated results, and its
    // only threads must be the sanctioned `bench::pool` workers.
    if rel.starts_with("crates/bench/src/") {
        return Some(RuleSet::BENCH);
    }
    None
}

/// One entry of `crates/xtask/lint.allow`:
/// `RULE PATH TOKEN  # justification` (TOKEN may be `*`).
#[derive(Debug, Clone)]
pub struct AllowEntry {
    pub rule: Rule,
    pub path: String,
    pub token: String,
    pub justification: String,
    /// 1-based line in lint.allow (anchors W1 stale-entry reports).
    pub line: u32,
    pub used: std::cell::Cell<bool>,
}

/// Parses the allowlist. Returns `Err` with a message on malformed
/// lines (missing fields or missing justification).
pub fn parse_allowlist(text: &str) -> Result<Vec<AllowEntry>, String> {
    let mut out = Vec::new();
    for (nr, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (spec, justification) = line
            .split_once('#')
            .ok_or(format!("lint.allow:{}: missing `# justification`", nr + 1))?;
        let justification = justification.trim();
        if justification.is_empty() {
            return Err(format!("lint.allow:{}: empty justification", nr + 1));
        }
        let fields: Vec<&str> = spec.split_whitespace().collect();
        let [rule, path, token] = fields[..] else {
            return Err(format!(
                "lint.allow:{}: expected `RULE PATH TOKEN # justification`",
                nr + 1
            ));
        };
        let rule =
            Rule::parse(rule).ok_or(format!("lint.allow:{}: unknown rule `{rule}`", nr + 1))?;
        if rule == Rule::W1 {
            return Err(format!(
                "lint.allow:{}: W1 (the waiver audit) cannot itself be waived",
                nr + 1
            ));
        }
        out.push(AllowEntry {
            rule,
            path: path.to_string(),
            token: token.to_string(),
            justification: justification.to_string(),
            line: nr as u32 + 1,
            used: std::cell::Cell::new(false),
        });
    }
    Ok(out)
}

/// A pre-waiver finding. Per-file passes report the offending token's
/// index so the driver can drop findings inside test items; model-level
/// passes report `tok_idx: None`.
#[derive(Debug, Clone)]
pub struct Finding {
    pub rule: Rule,
    pub rel: String,
    pub line: u32,
    pub token: String,
    pub message: String,
}

/// One inline waiver comment found in a scoped file.
struct InlineWaiver {
    line: u32,
    /// `None`: malformed (unknown rule name inside `lint: allow(..)`).
    rule: Option<Rule>,
    /// `true` for the D2-specific `// lint: sorted` form.
    sorted_form: bool,
    text: String,
    consumed: std::cell::Cell<bool>,
    /// Waivers inside test items are exempt from the staleness audit
    /// (the code they annotate is exempt from the rules).
    in_test: bool,
}

fn parse_inline_waivers(lx: &Lexed) -> Vec<InlineWaiver> {
    let test_lines: Vec<(u32, u32)> = model::test_ranges(lx)
        .iter()
        .map(|&(a, b)| (lx.tokens[a].line, lx.tokens[b].line))
        .collect();
    let mut out = Vec::new();
    for c in &lx.comments {
        let (rule, sorted_form) = if let Some(rest) = c.text.split("lint: allow(").nth(1) {
            let name = rest.split(')').next().unwrap_or("");
            (Rule::parse(name), false)
        } else if c.text.contains("lint: sorted") {
            (Some(Rule::D2), true)
        } else {
            continue;
        };
        out.push(InlineWaiver {
            line: c.line,
            rule,
            sorted_form,
            text: c.text.trim().to_string(),
            consumed: std::cell::Cell::new(false),
            in_test: test_lines.iter().any(|&(a, b)| c.line >= a && c.line <= b),
        });
    }
    out
}

/// Does any waiver comment cover `line` for `rule`? Waivers sit on the
/// violation's line or the line directly above. (Single-file entry
/// point; the workspace driver tracks consumption as well.)
fn waived(comments: &[Comment], rule: Rule, line: u32) -> bool {
    comments.iter().any(|c| {
        (c.line == line || c.line + 1 == line)
            && (c.text.contains(&format!("lint: allow({rule})"))
                || (rule == Rule::D2 && c.text.contains("lint: sorted")))
    })
}

/// Lints one file's source text in isolation: the token rules plus the
/// single-file slices of S1/E1 (E1 resolves callees against the file's
/// own `fn` signatures — the workspace driver uses the global symbol
/// table instead). `rel` is the repo-relative path used in reports and
/// allowlist matching.
pub fn lint_source(rel: &str, src: &str, rules: RuleSet, allow: &[AllowEntry]) -> Vec<Violation> {
    let lx = lex(src);
    let skip = model::test_ranges(&lx);
    let in_test = |idx: usize| skip.iter().any(|&(a, b)| idx >= a && idx <= b);
    let t = &lx.tokens;

    let mut simresult_fns = std::collections::BTreeSet::new();
    if rules.e1 {
        for i in 0..t.len() {
            if let Some(name) = model::simresult_fn_name(t, i) {
                simresult_fns.insert(name);
            }
        }
    }
    let raw = per_file_findings(t, rules, &simresult_fns);

    raw.into_iter()
        .filter(|(idx, _, _, _)| !in_test(*idx))
        .filter(|(idx, rule, token, _)| {
            let line = t[*idx].line;
            if waived(&lx.comments, *rule, line) {
                return false;
            }
            let allowed = allow
                .iter()
                .any(|a| a.rule == *rule && a.path == rel && (a.token == "*" || &a.token == token));
            if allowed {
                for a in allow {
                    if a.rule == *rule && a.path == rel && (a.token == "*" || &a.token == token) {
                        a.used.set(true);
                    }
                }
            }
            !allowed
        })
        .map(|(idx, rule, token, message)| Violation {
            rule,
            path: rel.to_string(),
            line: t[idx].line,
            token,
            message,
        })
        .collect()
}

/// Every per-file pass over one token stream, pre-waiver:
/// `(token index, rule, token, message)`.
fn per_file_findings(
    t: &[crate::lexer::Token],
    rules: RuleSet,
    simresult_fns: &std::collections::BTreeSet<String>,
) -> Vec<(usize, Rule, String, String)> {
    let mut raw = passes::tokens::find(t, rules);
    if rules.s1 {
        raw.extend(passes::spans::unpaired_contexts(t));
    }
    if rules.e1 {
        raw.extend(passes::errors::find(t, simresult_fns));
    }
    raw
}

/// Outcome of a full lint run.
#[derive(Debug, Default)]
pub struct LintReport {
    pub violations: Vec<Violation>,
    /// Non-fatal notes (e.g. a missing DESIGN.md limits the S2 check).
    pub warnings: Vec<String>,
    /// Files actually linted.
    pub files_checked: usize,
}

/// Runs every pass over an already-built model. This is the whole
/// analysis, minus I/O — the fixture tests call it directly.
pub fn analyze(model: &WorkspaceModel, allow: &[AllowEntry]) -> LintReport {
    let mut raw: Vec<Finding> = Vec::new();

    // Per-file passes (token rules, S1, S2 emission-site slice, E1),
    // with test items dropped before waiver matching.
    for file in &model.files {
        let Some(rules) = file.rules else {
            continue;
        };
        if rules.is_empty() {
            continue;
        }
        let mut rules = rules;
        if file.rel == model::TRACE_PLANE {
            // The trace plane defines the ctx/kind API; its delegating
            // wrappers are not emission or pairing sites.
            rules.s1 = false;
        }
        let t = &file.lexed.tokens;
        let skip = model::test_ranges(&file.lexed);
        let in_test = |idx: usize| skip.iter().any(|&(a, b)| idx >= a && idx <= b);
        for (idx, rule, token, message) in per_file_findings(t, rules, &model.simresult_fns) {
            if !in_test(idx) {
                raw.push(Finding {
                    rule,
                    rel: file.rel.clone(),
                    line: t[idx].line,
                    token,
                    message,
                });
            }
        }
    }

    // Model-level passes.
    raw.extend(passes::layering::find(model));
    raw.extend(passes::spans::kind_registry(model));
    raw.extend(passes::faults::find(model));

    // Waiver application, with consumption tracking for the W1 audit.
    let mut inline: BTreeMap<String, Vec<InlineWaiver>> = BTreeMap::new();
    for file in &model.files {
        if file.rules.is_some_and(|r| !r.is_empty()) {
            let ws = parse_inline_waivers(&file.lexed);
            if !ws.is_empty() {
                inline.insert(file.rel.clone(), ws);
            }
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
        let covered_inline = inline.get(&f.rel).is_some_and(|ws| {
            let hit = ws.iter().find(|w| {
                (w.line == f.line || w.line + 1 == f.line)
                    && w.rule == Some(f.rule)
                    && (!w.sorted_form || f.rule == Rule::D2)
            });
            if let Some(w) = hit {
                w.consumed.set(true);
            }
            hit.is_some()
        });
        if covered_inline {
            continue;
        }
        let mut covered_allow = false;
        for a in allow {
            if a.rule == f.rule && a.path == f.rel && (a.token == "*" || a.token == f.token) {
                a.used.set(true);
                covered_allow = true;
            }
        }
        if covered_allow {
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
        for w in ws {
            if w.in_test {
                continue;
            }
            if w.rule.is_none() {
                report.violations.push(Violation {
                    rule: Rule::W1,
                    path: rel.clone(),
                    line: w.line,
                    token: w.text.clone(),
                    message: format!("malformed waiver `{}`: unknown rule name", w.text),
                });
            } else if !w.consumed.get() {
                report.violations.push(Violation {
                    rule: Rule::W1,
                    path: rel.clone(),
                    line: w.line,
                    token: w.text.clone(),
                    message: format!(
                        "stale inline waiver `{}`: it no longer suppresses any violation — \
                         delete it",
                        w.text
                    ),
                });
            }
        }
    }
    for a in allow {
        if !a.used.get() {
            report.violations.push(Violation {
                rule: Rule::W1,
                path: "crates/xtask/lint.allow".into(),
                line: a.line,
                token: a.token.clone(),
                message: format!(
                    "stale allowlist entry `{} {} {}`: it no longer suppresses any violation — \
                     delete it",
                    a.rule, a.path, a.token
                ),
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
    let allow_path = root.join("crates/xtask/lint.allow");
    let allow = match std::fs::read_to_string(&allow_path) {
        Ok(text) => parse_allowlist(&text)?,
        Err(_) => Vec::new(),
    };
    let model = WorkspaceModel::from_root(root)?;
    Ok(analyze(&model, &allow))
}
