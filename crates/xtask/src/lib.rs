//! Workspace tooling for the Duet reproduction.
//!
//! The only subcommand today is `lint`, a zero-dependency multi-pass
//! static analyzer enforcing the project's determinism, panic-safety,
//! layering and instrumentation-hygiene rules (D1–D4, L1, S1/S2,
//! F1/F2, E1, W1). See `rules` for the rule table and DESIGN.md §11
//! ("Static analysis") for the rationale.
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
