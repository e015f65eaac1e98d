//! The analysis passes. Each pass is a pure function over the shared
//! [`crate::model::WorkspaceModel`] (L1, S1, S2, F1/F2) and skips test
//! items itself; the driver in [`crate::rules`] owns waiver application
//! and the W1 staleness audit.

pub mod faults;
pub mod layering;
pub mod spans;
