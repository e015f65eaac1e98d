//! Duet sessions: per-task registration state.
//!
//! A session is created by `duet_register` and identified by a small
//! integer that indexes the per-session slot in every merged item
//! descriptor (§4.2). Block tasks register a device and keep one `done`
//! bitmap (a bit per device block); file tasks register a directory and
//! keep `done` + `relevant` bitmaps (a bit per inode each) (§4.1).

use crate::events::EventMask;
use sim_cache::PageKey;
use sim_core::{DeviceId, InodeNr, SparseBitmap};
use std::collections::VecDeque;

/// Identifier of a registered session (0 .. max_sessions-1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SessionId(pub u32);

impl std::fmt::Display for SessionId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "sid#{}", self.0)
    }
}

/// What a task registered: a device (block task) or a directory subtree
/// (file task) — the `path` argument of `duet_register` (§3.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TaskScope {
    /// Block-layer task: receives events for the whole device.
    Block {
        /// The registered device.
        device: DeviceId,
    },
    /// File-layer task: receives events for files and directories under
    /// the registered directory.
    File {
        /// The registered directory.
        registered_dir: InodeNr,
    },
}

/// Per-session state inside the framework.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Session {
    pub scope: TaskScope,
    pub mask: EventMask,
    /// Completed work: blocks (block tasks) or inodes (file tasks).
    pub done: SparseBitmap,
    /// Known-relevant inodes (file tasks only).
    pub relevant: SparseBitmap,
    /// Pages with newly-pending notifications, in arrival order.
    pub queue: VecDeque<PageKey>,
    /// Events dropped because the per-session descriptor limit was hit
    /// (event-only sessions; §4.2 denial-of-service bound).
    pub dropped: u64,
}

impl Session {
    pub(crate) fn new(scope: TaskScope, mask: EventMask) -> Self {
        Session {
            scope,
            mask,
            done: SparseBitmap::new(),
            relevant: SparseBitmap::new(),
            queue: VecDeque::new(),
            dropped: 0,
        }
    }

    /// Bitmap memory charged to this session (§6.4 accounting).
    pub(crate) fn bitmap_bytes(&self) -> u64 {
        self.done.memory_bytes() + self.relevant.memory_bytes()
    }
}

/// An item returned by `duet_fetch`: `(item_id, offset, flags)` (§3.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Item {
    /// Block number (block tasks) or inode number (file tasks).
    pub id: ItemId,
    /// Byte offset within the file (file tasks; 0 for block tasks).
    pub offset: u64,
    /// Pending notifications for the page.
    pub flags: crate::events::ItemFlags,
    /// For a block item whose flags carry `FLUSHED`, the block
    /// *currently* backing the page, when it differs from `id` — a
    /// log-structured flush migrates the page to a new block, and the
    /// F2fs garbage collector "adjusts the in-memory counters for both
    /// the old and new segments" (§5.4). The kernel implementation
    /// learns both locations from the writeback context; we surface the
    /// same information here. `None` for file tasks, for items without
    /// `FLUSHED`, and when the block is unchanged.
    pub moved_to: Option<sim_core::BlockNr>,
}

/// Typed item identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ItemId {
    /// A device block (block tasks).
    Block(sim_core::BlockNr),
    /// A file or directory (file tasks).
    Inode(InodeNr),
}

impl ItemId {
    /// The inode, if this is a file item.
    pub fn as_inode(self) -> Option<InodeNr> {
        match self {
            ItemId::Inode(i) => Some(i),
            ItemId::Block(_) => None,
        }
    }

    /// The block, if this is a block item.
    pub fn as_block(self) -> Option<sim_core::BlockNr> {
        match self {
            ItemId::Block(b) => Some(b),
            ItemId::Inode(_) => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn item_id_accessors() {
        let b = ItemId::Block(sim_core::BlockNr(7));
        let i = ItemId::Inode(InodeNr(3));
        assert_eq!(b.as_block(), Some(sim_core::BlockNr(7)));
        assert_eq!(b.as_inode(), None);
        assert_eq!(i.as_inode(), Some(InodeNr(3)));
        assert_eq!(i.as_block(), None);
    }

    #[test]
    fn session_display() {
        assert_eq!(SessionId(3).to_string(), "sid#3");
    }
}
