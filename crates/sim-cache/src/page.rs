//! Page identity, metadata and page-cache events.

use sim_core::{BlockNr, InodeNr, PageIndex};

/// Identity of a page in the cache: one page of one file.
///
/// Directory pages are represented the same way (the paper notes Duet
/// "provides both file and directory pages to file tasks", §4.2);
/// anonymous pages are never inserted because they are "not backed by
/// files" and Duet ignores them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PageKey {
    /// Owning file or directory.
    pub ino: InodeNr,
    /// Logical page offset within the file.
    pub index: PageIndex,
}

impl PageKey {
    /// Creates a page key.
    pub fn new(ino: InodeNr, index: PageIndex) -> Self {
        PageKey { ino, index }
    }
}

/// Snapshot of a page's cache state, passed along with events.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PageMeta {
    /// Page identity.
    pub key: PageKey,
    /// Physical block backing the page, if already allocated. `None`
    /// models delayed allocation (§4.2): the block is assigned at
    /// writeback time.
    pub block: Option<BlockNr>,
    /// Whether the page is dirty.
    pub dirty: bool,
}

/// Page-cache events, exactly the four of Table 2.
///
/// The corresponding *state* notifications (`Exists`, `Modified`) are
/// derived by the Duet framework from these events; the cache itself
/// only reports what happened.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PageEvent {
    /// Page added to the cache.
    Added,
    /// Page removed from the cache.
    Removed,
    /// Dirty bit set.
    Dirtied,
    /// Dirty bit cleared (written back to storage).
    Flushed,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keys_are_ordered_by_inode_then_index() {
        let a = PageKey::new(InodeNr(1), PageIndex(9));
        let b = PageKey::new(InodeNr(2), PageIndex(0));
        let c = PageKey::new(InodeNr(2), PageIndex(1));
        assert!(a < b && b < c);
    }
}
