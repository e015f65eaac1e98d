//! Strongly-typed identifiers used across the simulated storage stack.
//!
//! A page index, a block number and an inode number are all "just"
//! integers, and mixing them up is the easiest bug to write in a storage
//! simulator. Each identifier is therefore a distinct newtype. Arithmetic
//! that makes sense for an identifier (offsetting a block number, the
//! page index covering a byte offset) is provided as named methods rather
//! than operator overloads, keeping call sites explicit.

use crate::{SimError, SimResult, PAGE_SIZE};
use std::fmt;

macro_rules! id_newtype {
    ($(#[$meta:meta])* $name:ident, $inner:ty, $prefix:literal) => {
        $(#[$meta])*
        #[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
        pub struct $name(pub $inner);

        impl $name {
            /// Returns the raw integer value.
            pub const fn raw(self) -> $inner {
                self.0
            }
        }

        impl fmt::Debug for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }

        impl From<$inner> for $name {
            fn from(v: $inner) -> Self {
                $name(v)
            }
        }
    };
}

id_newtype!(
    /// A physical block number on a simulated device.
    ///
    /// Blocks are [`crate::PAGE_SIZE`] bytes, matching the paper's 4 KiB
    /// filesystem block size.
    BlockNr,
    u64,
    "blk#"
);

id_newtype!(
    /// An inode number, uniquely identifying a file or directory within
    /// one filesystem.
    InodeNr,
    u64,
    "ino#"
);

id_newtype!(
    /// A page index: the logical offset of a page within a file, in
    /// page-size units.
    PageIndex,
    u64,
    "pg#"
);

id_newtype!(
    /// A simulated block device identifier.
    DeviceId,
    u32,
    "dev#"
);

id_newtype!(
    /// A segment number in the log-structured (F2fs-style) filesystem.
    SegmentNr,
    u32,
    "seg#"
);

impl BlockNr {
    /// Returns the block `n` positions after this one.
    pub const fn offset(self, n: u64) -> BlockNr {
        BlockNr(self.0 + n)
    }

    /// Absolute distance between two block numbers, in blocks.
    ///
    /// Used by the HDD model to derive seek distance.
    pub const fn distance(self, other: BlockNr) -> u64 {
        self.0.abs_diff(other.0)
    }
}

impl PageIndex {
    /// Returns the page index that covers byte `offset` of a file.
    pub const fn of_byte_offset(offset: u64) -> PageIndex {
        PageIndex(offset / PAGE_SIZE)
    }

    /// Returns the byte offset of the first byte of this page.
    pub const fn byte_offset(self) -> u64 {
        self.0 * PAGE_SIZE
    }

    /// Returns the next page index.
    pub const fn next(self) -> PageIndex {
        PageIndex(self.0 + 1)
    }
}

/// Number of pages needed to hold `bytes` bytes (rounding up).
pub const fn pages_for_bytes(bytes: u64) -> u64 {
    bytes.div_ceil(PAGE_SIZE)
}

/// One past the last byte of a request. A range that wraps `u64` is a
/// malformed request, not an empty one.
pub fn byte_range_end(offset: u64, len_bytes: u64) -> SimResult<u64> {
    offset.checked_add(len_bytes).ok_or_else(|| {
        SimError::InvalidArgument(format!(
            "byte range {offset} + {len_bytes} overflows the file offset space"
        ))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn newtypes_are_distinct_and_printable() {
        let b = BlockNr(7);
        let i = InodeNr(7);
        assert_eq!(b.raw(), i.raw());
        assert_eq!(format!("{b}"), "blk#7");
        assert_eq!(format!("{i}"), "ino#7");
        assert_eq!(format!("{:?}", PageIndex(3)), "pg#3");
        assert_eq!(format!("{}", DeviceId(1)), "dev#1");
        assert_eq!(format!("{}", SegmentNr(9)), "seg#9");
    }

    #[test]
    fn block_distance_is_symmetric() {
        assert_eq!(BlockNr(10).distance(BlockNr(4)), 6);
        assert_eq!(BlockNr(4).distance(BlockNr(10)), 6);
        assert_eq!(BlockNr(5).distance(BlockNr(5)), 0);
    }

    #[test]
    fn block_offset() {
        assert_eq!(BlockNr(10).offset(5), BlockNr(15));
    }

    #[test]
    fn page_index_byte_mapping() {
        assert_eq!(PageIndex::of_byte_offset(0), PageIndex(0));
        assert_eq!(PageIndex::of_byte_offset(PAGE_SIZE - 1), PageIndex(0));
        assert_eq!(PageIndex::of_byte_offset(PAGE_SIZE), PageIndex(1));
        assert_eq!(PageIndex(3).byte_offset(), 3 * PAGE_SIZE);
        assert_eq!(PageIndex(3).next(), PageIndex(4));
    }

    #[test]
    fn pages_for_bytes_rounds_up() {
        assert_eq!(pages_for_bytes(0), 0);
        assert_eq!(pages_for_bytes(1), 1);
        assert_eq!(pages_for_bytes(PAGE_SIZE), 1);
        assert_eq!(pages_for_bytes(PAGE_SIZE + 1), 2);
    }

    #[test]
    fn from_raw_integer() {
        let b: BlockNr = 42u64.into();
        assert_eq!(b, BlockNr(42));
    }
}
