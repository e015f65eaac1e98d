//! Read-only snapshots with copy-on-write block sharing.
//!
//! "Btrfs is a copy-on-write file system that supports taking fast,
//! file-system snapshots. All data and metadata in the snapshot is
//! shared with the live file system until blocks are updated in the
//! live system." (§5.2). A snapshot here is a frozen copy of the file
//! table (extent maps + sizes + paths); sharing is expressed through the
//! per-block reference counts in
//! [`BlockTable`](crate::blocktable::BlockTable).

use crate::extent::ExtentMap;
use sim_core::InoMap;
use std::fmt;

/// Identifier of a snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SnapshotId(pub u32);

impl fmt::Display for SnapshotId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "snap#{}", self.0)
    }
}

/// A file frozen in a snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct SnapFile {
    /// Extent map at snapshot time.
    pub extents: ExtentMap,
    /// Size at snapshot time.
    pub size_bytes: u64,
    /// Path at snapshot time (for backup naming).
    pub path: String,
}

impl SnapFile {
    /// Size in whole pages.
    pub fn size_pages(&self) -> u64 {
        sim_core::ids::pages_for_bytes(self.size_bytes)
    }
}

/// A read-only snapshot: the frozen file table.
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    /// Snapshot identifier.
    pub id: SnapshotId,
    /// Files at snapshot time, keyed by their (live) inode number and
    /// walked in ascending inode order.
    pub files: InoMap<SnapFile>,
}

impl Snapshot {
    /// Total data pages captured by the snapshot.
    pub fn total_pages(&self) -> u64 {
        self.files.values().map(|f| f.extents.mapped_pages()).sum()
    }
}
