//! L1 — cross-crate layering.
//!
//! The stack is ranked (see [`crate::model::LAYER_RANKS`]); an edge
//! from crate *a* to crate *b* is legal iff `rank(b) < rank(a)`. Both
//! kinds of edges are checked:
//!
//! - **manifest edges**: every `[dependencies]` entry in every member
//!   `Cargo.toml` (anchored at the entry's line);
//! - **`use`-path edges**: any `pkg_ident::` path in non-test library
//!   code (anchored at the path token) — this catches an upward
//!   reference even before it becomes a manifest edge, and sideways
//!   references through re-exports.
//!
//! `xtask` is held to a stricter rule: it may depend on no workspace
//! crate at all — the analyzer must sit outside the stack it checks.

use crate::model::{crate_of_ident, layer_rank, test_ranges, WorkspaceModel};
use crate::rules::{Finding, Rule};

pub fn find(model: &WorkspaceModel) -> Vec<Finding> {
    let mut out = Vec::new();

    for (name, info) in &model.crates {
        if name == "xtask" {
            for (dep, line) in &info.deps {
                if model.crates.contains_key(dep) || layer_rank(dep).is_some() {
                    out.push(Finding {
                        rule: Rule::L1,
                        rel: info.manifest_rel.clone(),
                        line: *line,
                        token: dep.clone(),
                        message: format!(
                            "`xtask` must not depend on workspace crate `{dep}` — the analyzer \
                             sits outside the layering it enforces"
                        ),
                    });
                }
            }
            continue;
        }
        let Some(rank) = layer_rank(name) else {
            continue;
        };
        for (dep, line) in &info.deps {
            let Some(dep_rank) = layer_rank(dep) else {
                continue;
            };
            if dep_rank >= rank {
                let direction = if dep_rank == rank {
                    "sideways"
                } else {
                    "upward"
                };
                out.push(Finding {
                    rule: Rule::L1,
                    rel: info.manifest_rel.clone(),
                    line: *line,
                    token: dep.clone(),
                    message: format!(
                        "{direction} dependency edge `{name}` (layer {rank}) → `{dep}` (layer \
                         {dep_rank}) — edges must point strictly down the stack"
                    ),
                });
            }
        }
    }

    for file in &model.files {
        if !file.library {
            continue;
        }
        let Some(crate_name) = &file.crate_name else {
            continue;
        };
        let Some(rank) = layer_rank(crate_name) else {
            continue;
        };
        let t = &file.lexed.tokens;
        let skip = test_ranges(&file.lexed);
        let in_test = |idx: usize| skip.iter().any(|&(a, b)| idx >= a && idx <= b);
        let tok = |i: usize| t.get(i).map(|x| x.text.as_str()).unwrap_or("");
        for (i, token) in t.iter().enumerate() {
            let Some(pkg) = crate_of_ident(&token.text) else {
                continue;
            };
            if pkg == crate_name || tok(i + 1) != ":" || tok(i + 2) != ":" || in_test(i) {
                continue;
            }
            let Some(pkg_rank) = layer_rank(pkg) else {
                continue;
            };
            if pkg_rank >= rank {
                let direction = if pkg_rank == rank {
                    "sideways"
                } else {
                    "upward"
                };
                out.push(Finding {
                    rule: Rule::L1,
                    rel: file.rel.clone(),
                    line: t[i].line,
                    token: format!("{}::", t[i].text),
                    message: format!(
                        "{direction} `use`-path reference from `{crate_name}` (layer {rank}) to \
                         `{pkg}` (layer {pkg_rank}) — edges must point strictly down the stack"
                    ),
                });
            }
        }
    }

    out
}
