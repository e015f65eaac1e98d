//! Workspace tooling for the Duet reproduction.
//!
//! The only subcommand today is `lint`, a zero-dependency multi-pass
//! static analyzer for the rules only this repository knows: layering
//! (L1), trace-span hygiene (S1/S2), fault-site liveness (F1/F2) and
//! the audit of its own waivers (W1). The determinism and panic-safety
//! rules are clippy lints (`clippy.toml`). See `rules` for the rule
//! table and DESIGN.md §11 ("Static analysis") for the rationale.
//!
//! Structure: `lexer` turns source into tokens; `model` builds the
//! shared [`model::WorkspaceModel`] (file set, crate graph, symbol
//! tables) once per run; the `passes` run over the model; `rules` owns
//! rule identity, waivers and the driver; `output` renders text/JSON.

pub mod lexer;
pub mod model;
pub mod output;
pub mod passes;
pub mod rules;
