//! The `bench` subcommands that live in their own files.

pub mod golden;
pub mod run;
