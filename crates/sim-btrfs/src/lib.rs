//! A simulated copy-on-write filesystem modelled on Btrfs.
//!
//! Three of the paper's five maintenance tasks (scrubbing, snapshot
//! backup, defragmentation — §5.1–5.3) run against Btrfs. This crate
//! reproduces the Btrfs semantics they depend on, over the simulated
//! disk and page cache:
//!
//! - per-block **checksums**, verified on every device read and updated
//!   on write ([`blocktable`]);
//! - **copy-on-write** updates: every overwrite allocates fresh blocks,
//!   fragmenting files ([`alloc`], [`extent`]) and breaking snapshot
//!   sharing;
//! - **snapshots** with block-level sharing via reference counts
//!   ([`snapshot`]);
//! - **back-references** from blocks to the file pages they back,
//!   powering both the backup's sharing check and the FIBMAP-style
//!   file-page → block translation Duet uses to bridge file events to
//!   block tasks (§4.2);
//! - a **namespace** with rename events for Duet's registered-directory
//!   tracking ([`inode`], [`events`]).
//!
//! The top-level type is [`BtrfsSim`].

pub mod alloc;
pub mod blocktable;
pub mod duet_glue;
pub mod events;
pub mod extent;
pub mod fs;
pub mod inode;
pub mod snapshot;

pub use alloc::FreeSpace;
pub use blocktable::{BackRef, BlockTable};
pub use events::FsEvent;
pub use extent::{Extent, ExtentMap};
pub use fs::{BtrfsSim, DefragResult};
pub use inode::{Inode, InodeKind, InodeTable};
pub use sim_disk::{OpStats, Run};
pub use snapshot::{SnapFile, Snapshot, SnapshotId};

#[cfg(test)]
mod fs_tests;
