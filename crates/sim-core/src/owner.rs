//! One word per owned block: the file page a block backs, packed.
//!
//! Both filesystems keep, for every device block, the (inode, page) it
//! backs — Btrfs's back-reference, F2fs's summary entry. Two `u64`s per
//! block would double the largest per-device state in the stack, so the
//! owner is packed into one word: the inode in the high 32 bits and the
//! page in the low 32. A packed owner therefore names an inode below
//! 2³² − 1 and a page up to 2³² − 1, and the all-ones word, which no
//! inode packs to, is [`NO_OWNER`]. A value that does not fit is an
//! `InvalidArgument`, so a caller that packs before it changes anything
//! fails whole.

use crate::{InodeNr, PageIndex, SimError, SimResult};

/// The packed owner of a block nobody owns. No inode packs to it:
/// inode numbers stop below `u32::MAX`.
pub const NO_OWNER: u64 = u64::MAX;

/// Packs `ino`'s page `page` into one word, if both fit.
#[inline]
pub fn pack(ino: InodeNr, page: u64) -> SimResult<u64> {
    if ino.raw() >= u64::from(u32::MAX) {
        return Err(SimError::InvalidArgument(format!(
            "{ino}: a packed owner holds inode numbers below {}",
            u32::MAX
        )));
    }
    if page > u64::from(u32::MAX) {
        return Err(SimError::InvalidArgument(format!(
            "{ino} page {page}: a packed owner holds pages up to {}",
            u32::MAX
        )));
    }
    Ok((ino.raw() << 32) | page)
}

/// The owner a word other than [`NO_OWNER`] packs.
#[inline]
pub fn unpack(packed: u64) -> (InodeNr, PageIndex) {
    (
        InodeNr(packed >> 32),
        PageIndex(packed & u64::from(u32::MAX)),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn owners_pack_to_the_edge_and_no_further() {
        let edge = (
            InodeNr(u64::from(u32::MAX) - 1),
            PageIndex(u64::from(u32::MAX)),
        );
        let packed = pack(edge.0, edge.1.raw()).unwrap();
        assert_ne!(packed, NO_OWNER, "the widest owner is still an owner");
        assert_eq!(unpack(packed), edge);
        assert_eq!(
            unpack(pack(InodeNr(0), 0).unwrap()),
            (InodeNr(0), PageIndex(0))
        );
        for (ino, page) in [
            (InodeNr(u64::from(u32::MAX)), 0),
            (InodeNr(1), u64::from(u32::MAX) + 1),
            (InodeNr(1), u64::MAX),
        ] {
            let err = pack(ino, page).unwrap_err();
            assert!(matches!(err, SimError::InvalidArgument(_)), "{err}");
        }
    }
}
