//! The shared workspace model every analysis pass runs over.
//!
//! `xtask lint` grew from a single-pass token linter into a multi-pass
//! analyzer; the passes share one [`WorkspaceModel`] built exactly once
//! per run:
//!
//! - the **file set** — every `.rs` file in the workspace plus every
//!   `Cargo.toml` and `DESIGN.md`, lexed up front (in parallel, with
//!   index-keyed collection so the model — and therefore every report —
//!   is byte-identical at any worker count);
//! - the **crate graph** — package names and dependency edges parsed
//!   from the manifests, which the L1 layering pass checks against the
//!   sanctioned layer ranks;
//! - **symbol tables** — the names of functions returning `SimResult`
//!   (for the E1 discarded-error pass), the `FaultSite` variants with
//!   their labels and preset mentions (F1/F2), the trace-kind emissions
//!   at every `TraceHandle` call site (S2), and the kind registry rows
//!   of DESIGN.md §10.1 that those emissions are checked against.
//!
//! The model can be built from disk ([`WorkspaceModel::from_root`]) or
//! from in-memory sources ([`WorkspaceModel::from_sources`]); the
//! fixture tests use the latter to exercise every pass hermetically.

use crate::lexer::{lex, Lexed};
use crate::rules::{classify, RuleSet};
use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};

/// One lexed `.rs` source file.
#[derive(Debug)]
pub struct SourceFile {
    /// Repo-relative path, `/`-separated.
    pub rel: String,
    /// Lexed tokens + comments.
    pub lexed: Lexed,
    /// Which per-file rules apply (`None`: out of scope — tests,
    /// fixtures, tooling).
    pub rules: Option<RuleSet>,
    /// The workspace package this file belongs to, if any.
    pub crate_name: Option<String>,
}

/// One workspace package parsed from its `Cargo.toml`.
#[derive(Debug, Clone)]
pub struct CrateInfo {
    /// Package name (`[package] name`), e.g. `"sim-btrfs"` or `"duet"`.
    pub name: String,
    /// Repo-relative manifest path.
    pub manifest_rel: String,
    /// `(dep name, manifest line)` for every `[dependencies]` /
    /// `[dev-dependencies]` entry.
    pub deps: Vec<(String, u32)>,
}

/// One `TraceHandle` emission call site (`tick`/`tick_n`/`event`/
/// `span`/`ctx_begin` with a `TraceLayer::…` first argument).
#[derive(Debug, Clone)]
pub struct KindEmission {
    pub rel: String,
    pub line: u32,
    /// The `TraceLayer` variant at the call site (e.g. `"Cache"`).
    pub layer_variant: String,
    /// The kind string, when the argument is a literal the analyzer
    /// can see; `None` when it is computed (itself an S2 violation).
    pub kind: Option<String>,
}

/// One `FaultSite` enum variant with everything the F1/F2 passes need.
#[derive(Debug, Clone)]
pub struct FaultSiteInfo {
    pub variant: String,
    /// Line of the variant in the registry enum.
    pub line: u32,
    /// The textual label from `label()`, when found (e.g. `"disk-eio"`).
    pub label: Option<String>,
}

/// One row of the DESIGN.md §10.1 kind registry table.
#[derive(Debug, Clone)]
pub struct DesignKind {
    pub layer: String,
    pub kind: String,
    pub line: u32,
}

/// Everything the passes share. Built once per lint run.
#[derive(Debug, Default)]
pub struct WorkspaceModel {
    /// Lexed `.rs` files, sorted by path.
    pub files: Vec<SourceFile>,
    /// Package name → manifest info.
    pub crates: BTreeMap<String, CrateInfo>,
    /// Names of functions whose declared return type is `SimResult`.
    pub simresult_fns: BTreeSet<String>,
    /// The `FaultSite` registry parsed from `sim_core::fault`.
    pub fault_sites: Vec<FaultSiteInfo>,
    /// Repo-relative path the registry was found under (F1/F2 reports
    /// anchor there).
    pub fault_registry_rel: Option<String>,
    /// `FaultSite` variants mentioned inside `FaultPlan::preset`.
    pub preset_mentions: BTreeSet<String>,
    /// `FaultSite` variants with an injection hook (`fire(FaultSite::…)`)
    /// in non-test library code outside the registry itself.
    pub hook_mentions: BTreeSet<String>,
    /// `FaultSite` variants (or labels) mentioned in the fault-matrix
    /// test file.
    pub matrix_mentions: BTreeSet<String>,
    /// Trace-kind emissions collected from non-test library code.
    pub emissions: Vec<KindEmission>,
    /// The DESIGN.md kind registry (`(layer, kind)` rows).
    pub design_kinds: Vec<DesignKind>,
    /// Repo-relative path DESIGN.md was found under (reports anchor
    /// there), or `None` when absent.
    pub design_rel: Option<String>,
    /// Files the per-file rule passes actually cover.
    pub files_checked: usize,
}

/// Path of the fault-site registry.
pub const FAULT_REGISTRY: &str = "crates/sim-core/src/fault.rs";
/// Path of the fault-matrix test file (the F2 row registry).
pub const FAULT_MATRIX: &str = "crates/experiments/tests/fault_matrix.rs";
/// Path of the trace plane implementation — excluded from the S1/S2
/// passes: its delegating wrappers *define* `ctx_begin`/`ctx_end` and
/// forward computed kinds by design.
pub const TRACE_PLANE: &str = "crates/sim-core/src/trace.rs";

/// The sanctioned layer ranks (L1). An edge `a → b` is legal iff
/// `rank(b) < rank(a)`: strictly downward, no sideways edges within a
/// band, no upward edges ever. `xtask` is deliberately absent — the
/// analyzer sits outside the stack it checks and may depend on nothing.
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

/// Maps a crate *identifier* as it appears in `use` paths (`sim_core`)
/// back to its package name (`sim-core`).
pub fn crate_of_ident(ident: &str) -> Option<&'static str> {
    LAYER_RANKS
        .iter()
        .map(|&(n, _)| n)
        .find(|n| n.replace('-', "_") == ident)
}

impl WorkspaceModel {
    /// Builds the model from `(repo-relative path, contents)` pairs.
    /// `.rs` entries are lexed in path order, `Cargo.toml` entries feed
    /// the crate graph, and a `DESIGN.md` entry feeds the kind registry.
    pub fn from_sources(sources: &[(String, String)]) -> WorkspaceModel {
        let mut model = WorkspaceModel::default();

        // Crate graph first: file → crate attribution needs it.
        let mut dir_to_crate: Vec<(String, String)> = Vec::new(); // (dir prefix, name)
        for (rel, text) in sources {
            if rel == "Cargo.toml" || rel.ends_with("/Cargo.toml") {
                if let Some(info) = parse_manifest(rel, text) {
                    let dir = rel.trim_end_matches("Cargo.toml").to_string();
                    dir_to_crate.push((dir, info.name.clone()));
                    model.crates.insert(info.name.clone(), info);
                }
            }
        }
        // Longest prefix wins: the workspace root manifest also claims
        // `""`, so `crates/<x>/…` must match `crates/<x>/` first.
        dir_to_crate.sort_by(|a, b| b.0.len().cmp(&a.0.len()).then(a.0.cmp(&b.0)));

        let mut rs: Vec<(&String, &String)> = sources
            .iter()
            .filter(|(rel, _)| rel.ends_with(".rs"))
            .map(|(rel, text)| (rel, text))
            .collect();
        rs.sort_by(|a, b| a.0.cmp(b.0));
        for (rel, text) in rs {
            let lexed = lex(text);
            let rules = classify(rel);
            let crate_name = dir_to_crate
                .iter()
                .find(|(dir, _)| rel.starts_with(dir.as_str()))
                .map(|(_, name)| name.clone());
            if rules.is_some_and(|r| !r.is_empty()) {
                model.files_checked += 1;
            }
            model.files.push(SourceFile {
                rel: rel.clone(),
                lexed,
                rules,
                crate_name,
            });
        }

        if let Some((rel, text)) = sources
            .iter()
            .find(|(rel, _)| rel == "DESIGN.md" || rel.ends_with("/DESIGN.md"))
        {
            model.design_rel = Some(rel.clone());
            model.design_kinds = parse_design_kinds(text);
        }

        model.build_symbols();
        model
    }

    /// Builds the model from the workspace on disk.
    pub fn from_root(root: &Path) -> Result<WorkspaceModel, String> {
        let mut paths: Vec<PathBuf> = Vec::new();
        collect_sources(root, &mut paths)
            .map_err(|e| format!("walking {}: {e}", root.display()))?;
        let mut sources = Vec::with_capacity(paths.len());
        for path in paths {
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .to_string_lossy()
                .replace('\\', "/");
            let text = std::fs::read_to_string(&path).map_err(|e| format!("reading {rel}: {e}"))?;
            sources.push((rel, text));
        }
        Ok(WorkspaceModel::from_sources(&sources))
    }

    fn build_symbols(&mut self) {
        // Pre-compute per-file test ranges once; several passes and the
        // symbol sweeps below all need them.
        for file in &self.files {
            let skip = test_ranges(&file.lexed);
            let in_test = |idx: usize| skip.iter().any(|&(a, b)| idx >= a && idx <= b);
            let is_lib = file.rules.is_some();
            let t = &file.lexed.tokens;
            let tok = |i: usize| t.get(i).map(|x| x.text.as_str()).unwrap_or("");

            // Symbol table: `fn name(…) -> SimResult<…>` anywhere in the
            // workspace (tests included — a discarded error is a
            // discarded error regardless of where the callee lives).
            for i in 0..t.len() {
                if let Some(name) = simresult_fn_name(t, i) {
                    self.simresult_fns.insert(name);
                }
            }

            // Trace-kind emissions: `recv.tick(TraceLayer::X, "kind", …)`
            // and friends, in non-test library code (the trace plane's
            // own delegating wrappers are excluded).
            if is_lib && file.rel != TRACE_PLANE {
                for i in 0..t.len() {
                    if !is_emit_method(&t[i].text) || tok(i + 1) != "(" {
                        continue;
                    }
                    if tok(i + 2) != "TraceLayer" || tok(i + 3) != ":" || tok(i + 4) != ":" {
                        continue;
                    }
                    if in_test(i) {
                        continue;
                    }
                    let layer_variant = tok(i + 5).to_string();
                    // The kind argument follows the first depth-1 comma.
                    let mut j = i + 6;
                    let mut depth = 1usize;
                    let mut kind_idx = None;
                    while j < t.len() {
                        match t[j].text.as_str() {
                            "(" | "[" | "{" => depth += 1,
                            ")" | "]" | "}" => {
                                depth -= 1;
                                if depth == 0 {
                                    break;
                                }
                            }
                            "," if depth == 1 => {
                                kind_idx = Some(j + 1);
                                break;
                            }
                            _ => {}
                        }
                        j += 1;
                    }
                    let kind = kind_idx
                        .and_then(|k| t.get(k))
                        .and_then(|x| x.literal.clone());
                    self.emissions.push(KindEmission {
                        rel: file.rel.clone(),
                        line: t[i].line,
                        layer_variant,
                        kind,
                    });
                }
            }

            // Fault registry: the `FaultSite` enum and its `label()` /
            // `preset()` tables.
            if file.rel == FAULT_REGISTRY || file.rel.ends_with("/fault.rs") {
                if self.fault_sites.is_empty() {
                    self.fault_sites = parse_fault_sites(&file.lexed);
                    if !self.fault_sites.is_empty() {
                        self.fault_registry_rel = Some(file.rel.clone());
                    }
                }
                for idx in fn_bodies(t, "preset") {
                    if let Some(v) = faultsite_variant(t, idx) {
                        self.preset_mentions.insert(v);
                    }
                }
            }

            // Injection hooks: `fire(FaultSite::V)` in non-test library
            // code outside the registry.
            if is_lib && !file.rel.ends_with("/fault.rs") {
                for i in 0..t.len() {
                    if t[i].text == "fire" && tok(i + 1) == "(" && !in_test(i) {
                        if let Some(v) = faultsite_variant(t, i + 2) {
                            self.hook_mentions.insert(v);
                        }
                    }
                }
            }

            // Fault-matrix rows: any `FaultSite::V` token or site-label
            // string literal in the matrix test file.
            if file.rel == FAULT_MATRIX || file.rel.ends_with("/fault_matrix.rs") {
                for i in 0..t.len() {
                    if let Some(v) = faultsite_variant(t, i) {
                        self.matrix_mentions.insert(v);
                    }
                    if let Some(lit) = &t[i].literal {
                        self.matrix_mentions.insert(lit.clone());
                    }
                }
            }
        }
    }

    /// The lexed file at `rel`, if present.
    pub fn file(&self, rel: &str) -> Option<&SourceFile> {
        self.files.iter().find(|f| f.rel == rel)
    }
}

fn is_ident(s: &str) -> bool {
    !s.is_empty()
        && s.chars().all(|c| c.is_alphanumeric() || c == '_')
        && !s.chars().next().is_some_and(|c| c.is_ascii_digit())
}

fn is_emit_method(s: &str) -> bool {
    matches!(s, "tick" | "tick_n" | "event" | "span" | "ctx_begin")
}

/// If token `i` opens a `fn` item declaring a `SimResult` return type,
/// the function's name.
pub fn simresult_fn_name(t: &[crate::lexer::Token], i: usize) -> Option<String> {
    if t.get(i)?.text != "fn" {
        return None;
    }
    let name = t.get(i + 1)?.text.clone();
    if !is_ident(&name) {
        return None;
    }
    // Scan past the parameter list: first `(` after the name, to its
    // matching `)` (generics like `<F: Fn(usize) -> T>` sit between —
    // depth counting over all bracket kinds handles them).
    let mut j = i + 2;
    while j < t.len() && t[j].text != "(" {
        if matches!(t[j].text.as_str(), "{" | ";") {
            return None; // no parameter list: not a function after all
        }
        j += 1;
    }
    let mut depth = 0usize;
    while j < t.len() {
        match t[j].text.as_str() {
            "(" => depth += 1,
            ")" => {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            _ => {}
        }
        j += 1;
    }
    // `-> …SimResult…` before the body/semicolon?
    if t.get(j + 1).map(|x| x.text.as_str()) != Some("-")
        || t.get(j + 2).map(|x| x.text.as_str()) != Some(">")
    {
        return None;
    }
    let mut k = j + 3;
    while k < t.len() && !matches!(t[k].text.as_str(), "{" | ";" | "where") {
        if t[k].text == "SimResult" {
            return Some(name);
        }
        k += 1;
    }
    None
}

/// Token indices of `FaultSite :: Variant` starting at `i`, returning
/// the variant name.
fn faultsite_variant(t: &[crate::lexer::Token], i: usize) -> Option<String> {
    if t.get(i)?.text != "FaultSite" || t.get(i + 1)?.text != ":" || t.get(i + 2)?.text != ":" {
        return None;
    }
    let v = &t.get(i + 3)?.text;
    is_ident(v).then(|| v.clone())
}

/// Token indices inside the bodies of functions named `name`.
fn fn_bodies(t: &[crate::lexer::Token], name: &str) -> Vec<usize> {
    let mut out = Vec::new();
    for (start, end) in fn_items(t) {
        if t.get(start + 1).map(|x| x.text.as_str()) == Some(name) {
            out.extend(start..=end);
        }
    }
    out
}

/// `(fn_token_idx, body_end_idx)` for every function item with a body.
/// The extent runs from the `fn` keyword through the matching `}` of
/// the body; bodyless declarations (trait methods) are skipped, as are
/// `fn`-pointer types (`fn` not followed by an identifier).
pub fn fn_items(t: &[crate::lexer::Token]) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < t.len() {
        if t[i].text != "fn" || !t.get(i + 1).is_some_and(|x| is_ident(&x.text)) {
            i += 1;
            continue;
        }
        let start = i;
        // Find the body's opening brace; a `;` first means no body.
        let mut j = i + 2;
        let mut found = None;
        while j < t.len() {
            match t[j].text.as_str() {
                "{" => {
                    found = Some(j);
                    break;
                }
                ";" => break,
                _ => {}
            }
            j += 1;
        }
        let Some(open) = found else {
            i = j + 1;
            continue;
        };
        let mut depth = 0usize;
        let mut end = open;
        while end < t.len() {
            match t[end].text.as_str() {
                "{" => depth += 1,
                "}" => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                _ => {}
            }
            end += 1;
        }
        out.push((start, end));
        i = end + 1;
    }
    out
}

/// Parses the `FaultSite` enum: variant names with their lines, plus
/// labels from the `label()` match arms.
fn parse_fault_sites(lx: &Lexed) -> Vec<FaultSiteInfo> {
    let t = &lx.tokens;
    let mut out: Vec<FaultSiteInfo> = Vec::new();
    // Variants: idents at brace depth 1 inside `enum FaultSite { … }`,
    // each terminated by `,` or `}`.
    let mut i = 0;
    while i + 2 < t.len() {
        if t[i].text == "enum" && t[i + 1].text == "FaultSite" && t[i + 2].text == "{" {
            let mut depth = 1usize;
            let mut j = i + 3;
            while j < t.len() && depth > 0 {
                match t[j].text.as_str() {
                    "{" | "(" => depth += 1,
                    "}" | ")" => depth -= 1,
                    s if depth == 1 && is_ident(s) => {
                        let next = t.get(j + 1).map(|x| x.text.as_str());
                        if matches!(next, Some(",") | Some("}")) {
                            out.push(FaultSiteInfo {
                                variant: s.to_string(),
                                line: t[j].line,
                                label: None,
                            });
                        }
                    }
                    _ => {}
                }
                j += 1;
            }
            break;
        }
        i += 1;
    }
    // Labels: `FaultSite::V => "label"` arms anywhere in the file.
    for i in 0..t.len() {
        if let Some(v) = faultsite_variant(t, i) {
            if t.get(i + 4).map(|x| x.text.as_str()) == Some("=")
                && t.get(i + 5).map(|x| x.text.as_str()) == Some(">")
            {
                if let Some(lit) = t.get(i + 6).and_then(|x| x.literal.clone()) {
                    if let Some(info) = out.iter_mut().find(|s| s.variant == v) {
                        info.label.get_or_insert(lit);
                    }
                }
            }
        }
    }
    out
}

/// Parses the §10.1 kind-registry rows out of DESIGN.md: markdown table
/// rows whose first cell is a backticked `TraceLayer` label and whose
/// second cell is the backticked kind. The backticks are mandatory —
/// they distinguish registry rows from prose tables that happen to
/// start with a layer word.
fn parse_design_kinds(text: &str) -> Vec<DesignKind> {
    const LAYERS: [&str; 6] = ["disk", "cache", "btrfs", "f2fs", "duet", "task"];
    let mut out = Vec::new();
    for (nr, line) in text.lines().enumerate() {
        let line = line.trim();
        if !line.starts_with('|') {
            continue;
        }
        let cells: Vec<&str> = line.trim_matches('|').split('|').map(str::trim).collect();
        if cells.len() < 2 {
            continue;
        }
        let backticked = |c: &str| c.len() > 2 && c.starts_with('`') && c.ends_with('`');
        if !backticked(cells[0]) || !backticked(cells[1]) {
            continue;
        }
        let layer = cells[0].trim_matches('`');
        let kind = cells[1].trim_matches('`');
        if LAYERS.contains(&layer) {
            out.push(DesignKind {
                layer: layer.to_string(),
                kind: kind.to_string(),
                line: nr as u32 + 1,
            });
        }
    }
    out
}

/// Minimal manifest parse: package name plus `[dependencies]` /
/// `[dev-dependencies]` keys with their line numbers.
fn parse_manifest(rel: &str, text: &str) -> Option<CrateInfo> {
    let mut name = None;
    let mut deps = Vec::new();
    let mut section = String::new();
    for (nr, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if line.starts_with('[') {
            section = line.trim_matches(['[', ']']).to_string();
            continue;
        }
        match section.as_str() {
            "package" => {
                if let Some(rest) = line.strip_prefix("name") {
                    if let Some(v) = rest.trim_start().strip_prefix('=') {
                        name = Some(v.trim().trim_matches('"').to_string());
                    }
                }
            }
            "dependencies" | "dev-dependencies" => {
                let key: String = line
                    .chars()
                    .take_while(|c| c.is_alphanumeric() || *c == '-' || *c == '_')
                    .collect();
                if !key.is_empty() {
                    deps.push((key, nr as u32 + 1));
                }
            }
            _ => {}
        }
    }
    Some(CrateInfo {
        name: name?,
        manifest_rel: rel.to_string(),
        deps,
    })
}

/// Index ranges of tokens that belong to `#[cfg(test)]` / `#[test]`
/// items (attribute through end of the item body).
pub fn test_ranges(lx: &Lexed) -> Vec<(usize, usize)> {
    let t = &lx.tokens;
    let mut out = Vec::new();
    let mut i = 0;
    while i < t.len() {
        if t[i].text != "#" || i + 1 >= t.len() || t[i + 1].text != "[" {
            i += 1;
            continue;
        }
        // Collect the attribute's tokens up to the matching `]`.
        let attr_start = i;
        let mut depth = 0usize;
        let mut j = i + 1;
        let mut attr: Vec<&str> = Vec::new();
        while j < t.len() {
            match t[j].text.as_str() {
                "[" => depth += 1,
                "]" => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                s => attr.push(s),
            }
            j += 1;
        }
        let is_test_attr = matches!(attr.first().copied(), Some("test"))
            || (attr.first() == Some(&"cfg") && attr.contains(&"test"));
        if !is_test_attr {
            i = j + 1;
            continue;
        }
        // Skip any further attributes, then the item itself: through the
        // first top-level `;` (no body) or the matching `}` of its body.
        let mut k = j + 1;
        while k + 1 < t.len() && t[k].text == "#" && t[k + 1].text == "[" {
            let mut d = 0usize;
            k += 1;
            while k < t.len() {
                match t[k].text.as_str() {
                    "[" => d += 1,
                    "]" => {
                        d -= 1;
                        if d == 0 {
                            break;
                        }
                    }
                    _ => {}
                }
                k += 1;
            }
            k += 1;
        }
        let mut brace = 0usize;
        let mut end = k;
        while end < t.len() {
            match t[end].text.as_str() {
                ";" if brace == 0 => break,
                "{" => brace += 1,
                "}" => {
                    brace -= 1;
                    if brace == 0 {
                        break;
                    }
                }
                _ => {}
            }
            end += 1;
        }
        out.push((attr_start, end));
        i = end + 1;
    }
    out
}

/// Recursively collects `.rs`, `Cargo.toml` and `DESIGN.md` files under
/// `dir` (sorted for stable output), skipping VCS/build artefacts.
fn collect_sources(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    let mut entries: Vec<_> = std::fs::read_dir(dir)?
        .collect::<Result<Vec<_>, _>>()?
        .into_iter()
        .map(|e| e.path())
        .collect();
    entries.sort();
    for path in entries {
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if path.is_dir() {
            // `fixtures` holds mini-workspaces for the analyzer's own
            // tests; picking up their manifests would corrupt the real
            // crate graph (fixture crates reuse real package names).
            if matches!(name, "target" | ".git" | "results" | "fixtures") {
                continue;
            }
            collect_sources(&path, out)?;
        } else if name.ends_with(".rs") || name == "Cargo.toml" || name == "DESIGN.md" {
            out.push(path);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn src(pairs: &[(&str, &str)]) -> Vec<(String, String)> {
        pairs
            .iter()
            .map(|(a, b)| (a.to_string(), b.to_string()))
            .collect()
    }

    #[test]
    fn manifest_and_crate_attribution() {
        let m = WorkspaceModel::from_sources(&src(&[
            ("Cargo.toml", "[package]\nname = \"root\"\n"),
            (
                "crates/a/Cargo.toml",
                "[package]\nname = \"a\"\n[dependencies]\nsim-core = { workspace = true }\n",
            ),
            ("crates/a/src/lib.rs", "pub fn f() {}"),
            ("src/lib.rs", "pub fn g() {}"),
        ]));
        assert_eq!(m.crates["a"].deps, vec![("sim-core".to_string(), 4)]);
        assert_eq!(
            m.file("crates/a/src/lib.rs").unwrap().crate_name.as_deref(),
            Some("a")
        );
        assert_eq!(
            m.file("src/lib.rs").unwrap().crate_name.as_deref(),
            Some("root")
        );
    }

    #[test]
    fn simresult_symbols_found() {
        let m = WorkspaceModel::from_sources(&src(&[(
            "crates/a/src/lib.rs",
            "pub fn ok(x: u32) -> SimResult<()> { Ok(()) }\n\
                 pub fn plain() -> u32 { 0 }\n\
                 pub fn qualified() -> sim_core::SimResult<bool> { Ok(true) }\n\
                 pub fn generic<F: Fn(usize) -> T, T>(f: F) -> SimResult<T> { Err(()) }",
        )]));
        assert!(m.simresult_fns.contains("ok"));
        assert!(m.simresult_fns.contains("qualified"));
        assert!(m.simresult_fns.contains("generic"));
        assert!(!m.simresult_fns.contains("plain"));
    }

    #[test]
    fn fault_registry_parse() {
        let m = WorkspaceModel::from_sources(
            &src(&[(
                "crates/sim-core/src/fault.rs",
                "pub enum FaultSite {\n    /// doc\n    DiskBoom,\n    CacheFizzle,\n}\n\
                 impl FaultSite {\n    pub fn label(self) -> &'static str {\n        match self {\n\
                 FaultSite::DiskBoom => \"disk-boom\",\nFaultSite::CacheFizzle => \"cache-fizzle\",\n}\n}\n}\n\
                 impl FaultPlan {\n  pub fn preset(name: &str) -> Option<FaultPlan> {\n\
                 let p = q().with_ppm(FaultSite::DiskBoom, 10);\n Some(p)\n}\n}",
            )]));
        let variants: Vec<&str> = m.fault_sites.iter().map(|s| s.variant.as_str()).collect();
        assert_eq!(variants, vec!["DiskBoom", "CacheFizzle"]);
        assert_eq!(m.fault_sites[0].label.as_deref(), Some("disk-boom"));
        assert!(m.preset_mentions.contains("DiskBoom"));
        assert!(!m.preset_mentions.contains("CacheFizzle"));
    }

    #[test]
    fn design_kind_rows_parse() {
        let rows = parse_design_kinds(
            "# Doc\n\n| layer | kind | meaning |\n|---|---|---|\n\
             | `disk` | `io` | service span |\n| `task` | `scrub.verify` | one block |\n\
             | other | x | not a layer row |\n",
        );
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].layer, "disk");
        assert_eq!(rows[1].kind, "scrub.verify");
    }
}
