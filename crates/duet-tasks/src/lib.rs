//! The five maintenance tasks of the paper, adapted to Duet.
//!
//! Each task exists in two modes (Table 3):
//!
//! | Task | Type | Mask | Duet modification |
//! |---|---|---|---|
//! | [`Scrubber`] | block | `ADDED ∨ DIRTIED` | recently read blocks are not scrubbed |
//! | [`Backup`] | block | `EXISTS` | in-memory snapshot-shared blocks backed up out of order |
//! | [`Defrag`] | file | `EXISTS` | files with most resident pages prioritized |
//! | [`GarbageCollector`] | block | `EXISTS ∨ FLUSHED` | cleaning cost discounts cached blocks |
//! | [`Rsync`] | file | `EXISTS` | files with most resident pages transferred first |
//!
//! Tasks are resumable state machines ([`task::BtrfsTask::step`] /
//! [`Rsync::step`] / [`GarbageCollector::step`]): the experiment runner
//! invokes them in the device's idle gaps (or continuously, for rsync,
//! which runs at normal priority). [`bridge`] provides the
//! [`duet::FsIntrospect`] implementations and the event pumps standing
//! in for the kernel's inline page-cache hooks.

pub mod backup;
pub mod bridge;
pub mod defrag;
pub mod gc;
pub mod rsync;
pub mod scrub;
pub mod task;
#[cfg(test)]
mod testkit;

pub use backup::Backup;
pub use bridge::{pump_btrfs, pump_f2fs};
pub use defrag::Defrag;
pub use gc::{GarbageCollector, GcCtx};
pub use rsync::{Rsync, RsyncCtx};
pub use scrub::Scrubber;
pub use task::{BtrfsCtx, BtrfsTask, StepResult, TaskMetrics, TaskMode};
