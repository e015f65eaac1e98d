//! S1/S2 — trace-span hygiene.
//!
//! S1 (per file): a function that opens a trace context (`ctx_begin`)
//! must also close one (`ctx_end`) somewhere in the same function body
//! — an unclosed context leaks into every later event's causality
//! chain. Close-only functions are fine (the trace plane tolerates
//! stray ends); the asymmetry is deliberate.
//!
//! S2 (workspace): every emission call site with a literal
//! `TraceLayer::…` first argument must pass the kind as a *string
//! literal*, and the `(layer, kind)` pair must appear in the DESIGN.md
//! §10.1 kind registry. The check runs in reverse too: a documented
//! kind no library code emits is schema drift and is flagged at the
//! registry row. `crates/sim-core/src/trace.rs` is exempt — it defines
//! the API and forwards computed kinds by design.

use crate::lexer::Token;
use crate::model::{fn_items, test_ranges, WorkspaceModel, TRACE_PLANE};
use crate::rules::{Finding, Rule};

/// S1 over every library file outside test items.
pub fn unpaired_contexts(model: &WorkspaceModel) -> Vec<Finding> {
    let mut out = Vec::new();
    for file in &model.files {
        if !file.library || file.rel == TRACE_PLANE {
            continue;
        }
        let t = &file.lexed.tokens;
        let skip = test_ranges(&file.lexed);
        for (b, message) in unpaired_in(t) {
            if !skip.iter().any(|&(lo, hi)| b >= lo && b <= hi) {
                out.push(Finding {
                    rule: Rule::S1,
                    rel: file.rel.clone(),
                    line: t[b].line,
                    token: "ctx_begin".into(),
                    message,
                });
            }
        }
    }
    out
}

/// `(token index of the first ctx_begin, message)` for every function
/// in `t` that opens a context and never closes one.
fn unpaired_in(t: &[Token]) -> Vec<(usize, String)> {
    let mut raw = Vec::new();
    let tok = |i: usize| t.get(i).map(|x| x.text.as_str()).unwrap_or("");
    for (start, end) in fn_items(t) {
        let fn_name = tok(start + 1).to_string();
        let mut first_begin = None;
        let mut ends = 0usize;
        let stop = end.min(t.len().saturating_sub(1));
        for (i, token) in t.iter().enumerate().take(stop + 1).skip(start) {
            // A call site, not the definition: `fn ctx_begin(` is the
            // trace plane's own API surface.
            if tok(i.wrapping_sub(1)) == "fn" {
                continue;
            }
            match token.text.as_str() {
                "ctx_begin" if tok(i + 1) == "(" => {
                    first_begin.get_or_insert(i);
                }
                "ctx_end" if tok(i + 1) == "(" => ends += 1,
                _ => {}
            }
        }
        if let Some(b) = first_begin {
            if ends == 0 {
                raw.push((
                    b,
                    format!(
                        "`ctx_begin` in `fn {fn_name}` with no `ctx_end` in the same function \
                         — an unclosed context corrupts causality for every later event"
                    ),
                ));
            }
        }
    }
    raw
}

/// S2 over the whole model: literal-kind discipline at emission sites
/// plus two-way drift against the DESIGN.md kind registry.
pub fn kind_registry(model: &WorkspaceModel) -> Vec<Finding> {
    let mut out = Vec::new();
    for e in &model.emissions {
        let layer = e.layer_variant.to_lowercase();
        match &e.kind {
            None => out.push(Finding {
                rule: Rule::S2,
                rel: e.rel.clone(),
                line: e.line,
                token: format!("TraceLayer::{}", e.layer_variant),
                message: format!(
                    "trace kind for `TraceLayer::{}` is not a string literal — computed kinds \
                     cannot be checked against the DESIGN.md §10.1 registry",
                    e.layer_variant
                ),
            }),
            Some(kind) => {
                let documented = model
                    .design_kinds
                    .iter()
                    .any(|d| d.layer == layer && &d.kind == kind);
                // Without a DESIGN.md there is no registry to check
                // against (the driver surfaces that as a warning).
                if !documented && model.design_rel.is_some() {
                    out.push(Finding {
                        rule: Rule::S2,
                        rel: e.rel.clone(),
                        line: e.line,
                        token: kind.clone(),
                        message: format!(
                            "emitted trace kind `{layer}/{kind}` is missing from the DESIGN.md \
                             §10.1 kind registry — add a row or fix the emission"
                        ),
                    });
                }
            }
        }
    }
    if let Some(design_rel) = &model.design_rel {
        for d in &model.design_kinds {
            let emitted = model.emissions.iter().any(|e| {
                e.layer_variant.to_lowercase() == d.layer && e.kind.as_deref() == Some(&d.kind)
            });
            if !emitted {
                out.push(Finding {
                    rule: Rule::S2,
                    rel: design_rel.clone(),
                    line: d.line,
                    token: d.kind.clone(),
                    message: format!(
                        "documented trace kind `{}/{}` is never emitted by library code — \
                         schema drift; remove the row or restore the emission",
                        d.layer, d.kind
                    ),
                });
            }
        }
    }
    out
}
