//! F1/F2 — fault-site registry consistency.
//!
//! Every `FaultSite` variant must be *live* end to end:
//!
//! - **F1 (hook)**: ≥1 `fire(FaultSite::V)` injection call site in
//!   non-test library code outside the registry itself — a variant no
//!   hook fires is dead injection surface;
//! - **F1 (preset)**: ≥1 mention inside `FaultPlan::preset` — a
//!   variant absent from every preset never runs in the fault grid;
//! - **F2 (matrix)**: ≥1 mention (variant name or site label) in
//!   `crates/experiments/tests/fault_matrix.rs` — a site the matrix
//!   never names is untested by construction.
//!
//! All findings anchor at the variant's line in the registry enum, so
//! a single inline waiver above the variant covers a deliberate
//! exception.

use crate::model::WorkspaceModel;
use crate::rules::{Finding, Rule};

pub fn find(model: &WorkspaceModel) -> Vec<Finding> {
    let Some(rel) = &model.fault_registry_rel else {
        return Vec::new();
    };
    let mut out = Vec::new();
    for site in &model.fault_sites {
        let v = &site.variant;
        let at = |rule, message| Finding {
            rule,
            rel: rel.clone(),
            line: site.line,
            token: v.clone(),
            message,
        };
        if !model.hook_mentions.contains(v) {
            out.push(at(
                Rule::F1,
                format!(
                    "fault site `{v}` has no `fire(FaultSite::{v})` injection hook in library \
                     code — dead injection surface"
                ),
            ));
        }
        if !model.preset_mentions.contains(v) {
            out.push(at(
                Rule::F1,
                format!("fault site `{v}` appears in no `FaultPlan::preset` plan"),
            ));
        }
        let in_matrix = model.matrix_mentions.contains(v)
            || site
                .label
                .as_ref()
                .is_some_and(|l| model.matrix_mentions.contains(l));
        if !in_matrix {
            out.push(at(
                Rule::F2,
                format!(
                    "fault site `{v}` has no row in the fault matrix \
                     (crates/experiments/tests/fault_matrix.rs)"
                ),
            ));
        }
    }
    out
}
