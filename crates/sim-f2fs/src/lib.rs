//! A simulated log-structured filesystem modelled on F2fs.
//!
//! The paper's fourth maintenance task is the F2fs in-kernel garbage
//! collector (§5.4): segments with many invalid blocks are cleaned by
//! reading their remaining valid blocks and re-appending them to the
//! log. The Duet-enabled cleaner discounts blocks that are already in
//! the page cache from the victim-selection cost, because they save the
//! synchronous read half of the migration.
//!
//! This crate provides:
//!
//! - [`segment`]: per-segment state, the victim-selection cost functions
//!   (greedy and cost-benefit) with the Duet `valid − cached/2`
//!   adjustment;
//! - [`fs::F2fsSim`]: the filesystem — append-only log allocation,
//!   flush-time block assignment (delayed allocation), invalidation of
//!   overwritten blocks, SSR fallback when clean segments run out, and
//!   [`fs::F2fsSim::clean_segment`], whose synchronous read phase is the
//!   "segment cleaning time" that Table 6 measures.

pub mod duet_glue;
pub mod fs;
pub mod segment;

pub use fs::{CleanResult, F2fsSim};
pub use segment::{cleaning_cost, segment_of, segment_start, SegState, SegmentInfo, VictimPolicy};
pub use sim_disk::OpStats;
