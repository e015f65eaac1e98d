//! Item descriptors: per-page pending-notification state.
//!
//! "While the item descriptors of different sessions are logically
//! independent, we reduce memory requirements by keeping a single item
//! descriptor per page for all sessions. The merged item descriptor
//! consists of the item_id, offset, and an N-byte array for storing the
//! flag fields for up to a maximum of N concurrent sessions." (§4.2)
//!
//! A descriptor is allocated when any session has pending notifications
//! on the page and deallocated when none has — including by
//! *cancellation*, when opposing events revert a page to its
//! last-reported state for every state session.
//!
//! All descriptors live in one [`DescriptorTable`], indexed per file
//! like the page cache (a [`PageTable`] over a slab), so a page event or
//! a fetched item resolves (inode, chunk, slot) and a per-file operation
//! walks that file's chunks only.

use crate::events::{EventMask, ItemFlags};
use sim_cache::PageKey;
use sim_core::{BlockNr, InodeNr, PageTable, Slab};

/// Per-session flag byte within a merged descriptor.
///
/// Layout: bits 0–3 are pending event notifications (added, removed,
/// dirtied, flushed); bit 4–5 cache the session's last-*reported*
/// existence/modification state (valid once bit 6, `STATE_INIT`, is
/// set); bit 7 forces a `NOT_EXISTS` delivery, used when a file is
/// moved out of the session's registered directory (§4.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(crate) struct SessFlags(u8);

const EVT_MASK: u8 = 0x0F;
const REPORTED_EXISTS: u8 = 1 << 4;
const REPORTED_MODIFIED: u8 = 1 << 5;
const STATE_INIT: u8 = 1 << 6;
const FORCE_NOT_EXISTS: u8 = 1 << 7;

impl SessFlags {
    pub(crate) fn evt_bits(self) -> u8 {
        self.0 & EVT_MASK
    }

    pub(crate) fn set_evt(&mut self, flag: ItemFlags) {
        debug_assert!(flag.bits() & !EVT_MASK == 0, "not an event bit");
        self.0 |= flag.bits();
    }

    pub(crate) fn clear_evt(&mut self) {
        self.0 &= !EVT_MASK;
    }

    pub(crate) fn state_init(self) -> bool {
        self.0 & STATE_INIT != 0
    }

    pub(crate) fn reported_exists(self) -> bool {
        self.0 & REPORTED_EXISTS != 0
    }

    pub(crate) fn reported_modified(self) -> bool {
        self.0 & REPORTED_MODIFIED != 0
    }

    pub(crate) fn set_reported(&mut self, exists: bool, modified: bool) {
        self.0 |= STATE_INIT;
        if exists {
            self.0 |= REPORTED_EXISTS;
        } else {
            self.0 &= !REPORTED_EXISTS;
        }
        if modified {
            self.0 |= REPORTED_MODIFIED;
        } else {
            self.0 &= !REPORTED_MODIFIED;
        }
    }

    pub(crate) fn force_not_exists(self) -> bool {
        self.0 & FORCE_NOT_EXISTS != 0
    }

    pub(crate) fn set_force_not_exists(&mut self) {
        self.0 |= FORCE_NOT_EXISTS;
    }

    pub(crate) fn clear_force_not_exists(&mut self) {
        self.0 &= !FORCE_NOT_EXISTS;
    }

    pub(crate) fn clear_all(&mut self) {
        self.0 = 0;
    }

    // Used by unit tests to assert full resets.
    #[cfg_attr(not(test), expect(dead_code))]
    pub(crate) fn is_clear(self) -> bool {
        self.0 == 0
    }
}

/// The paper's `N`: how many sessions a merged descriptor carries a
/// flag byte for, and so the most a framework instance can host.
pub(crate) const MAX_SESSIONS: usize = 16;

/// The occupied session slots and their event masks: what decides
/// whether a descriptor still has anything pending. The framework
/// keeps one in lockstep with its sessions (a mask never changes while
/// its session lives). Every page event walks it twice or more, so it
/// is compact and yields occupied slots only.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub(crate) struct SlotMasks {
    /// Bit per occupied slot.
    live: u16,
    masks: [EventMask; MAX_SESSIONS],
}

impl SlotMasks {
    /// Occupies `slot` with `mask`, or frees it with `None`.
    pub(crate) fn set(&mut self, slot: usize, mask: Option<EventMask>) {
        match mask {
            Some(mask) => {
                self.live |= 1 << slot;
                self.masks[slot] = mask;
            }
            None => self.live &= !(1 << slot),
        }
    }

    /// Whether no slot is occupied.
    pub(crate) fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Number of occupied slots.
    pub(crate) fn len(&self) -> usize {
        self.live.count_ones() as usize
    }

    /// The occupied slots and their masks, in slot order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (usize, EventMask)> + '_ {
        let mut live = self.live;
        std::iter::from_fn(move || {
            if live == 0 {
                return None;
            }
            let slot = live.trailing_zeros() as usize;
            live &= live - 1;
            Some((slot, self.masks[slot]))
        })
    }
}

/// A merged item descriptor for one page.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Descriptor {
    /// Physical block backing the page as of the latest event (`None`
    /// under delayed allocation).
    pub block: Option<BlockNr>,
    /// Current existence state of the page.
    pub cur_exists: bool,
    /// Current modification (dirty) state of the page.
    pub cur_modified: bool,
    /// Per-session flag bytes (the paper's N-byte array), inline.
    pub sess: [SessFlags; MAX_SESSIONS],
}

impl Descriptor {
    pub(crate) fn new(exists: bool, modified: bool, block: Option<BlockNr>) -> Self {
        Descriptor {
            block,
            cur_exists: exists,
            cur_modified: modified,
            sess: [SessFlags::default(); MAX_SESSIONS],
        }
    }

    /// Marks the session up-to-date with the page's current state:
    /// nothing stays pending for it.
    pub(crate) fn mark_reported(&mut self, slot: usize) {
        let f = &mut self.sess[slot];
        f.clear_evt();
        f.clear_force_not_exists();
        f.set_reported(self.cur_exists, self.cur_modified);
    }

    /// Whether the given session has anything pending on this page.
    pub(crate) fn pending_for(&self, slot: usize, mask: EventMask) -> bool {
        let f = self.sess[slot];
        if f.evt_bits() != 0 || f.force_not_exists() {
            return true;
        }
        if f.state_init() {
            if mask.contains(EventMask::EXISTS) && f.reported_exists() != self.cur_exists {
                return true;
            }
            if mask.contains(EventMask::MODIFIED) && f.reported_modified() != self.cur_modified {
                return true;
            }
        }
        false
    }

    /// Whether any session has pending notifications.
    pub(crate) fn pending_any(&self, slots: &SlotMasks) -> bool {
        slots
            .iter()
            .any(|(slot, mask)| self.pending_for(slot, mask))
    }

    /// The notifications owed to the session, which is marked
    /// up-to-date: what `duet_fetch` returns for this page (§3.2).
    pub(crate) fn deliver(&mut self, slot: usize, mask: EventMask) -> ItemFlags {
        let f = self.sess[slot];
        let mut flags = ItemFlags::from_evt_bits(f.evt_bits());
        if f.force_not_exists() {
            flags |= ItemFlags::NOT_EXISTS;
        } else if f.state_init() {
            if mask.contains(EventMask::EXISTS) && f.reported_exists() != self.cur_exists {
                flags |= if self.cur_exists {
                    ItemFlags::EXISTS
                } else {
                    ItemFlags::NOT_EXISTS
                };
            }
            if mask.contains(EventMask::MODIFIED) && f.reported_modified() != self.cur_modified {
                flags |= if self.cur_modified {
                    ItemFlags::MODIFIED
                } else {
                    ItemFlags::NOT_MODIFIED
                };
            }
        }
        self.mark_reported(slot);
        flags
    }

    /// Bytes of memory this descriptor accounts for in the §6.4 model:
    /// item id (8) + offset (8) + N-byte flag array + hash node (8).
    pub(crate) fn memory_bytes(max_sessions: usize) -> u64 {
        8 + 8 + max_sessions as u64 + 8
    }
}

/// The framework's descriptor store: merged descriptors in a slab,
/// indexed per file by a [`PageTable`], so that `set_done` on a file
/// walks that file's chunks only.
///
/// Which slab slot a descriptor lands in is a function of arrival
/// order, which two runs that reach the same descriptors need not
/// share: `iter` walks in key order, and `==` compares key →
/// descriptor, not handles.
#[derive(Clone, Default)]
pub(crate) struct DescriptorTable {
    index: PageTable,
    descs: Slab<Descriptor>,
    /// High-water mark of `descs.len()`.
    peak: usize,
}

/// Same descriptors under the same keys, whatever slots they occupy:
/// the index's handles and the slab's free list are layout.
impl PartialEq for DescriptorTable {
    fn eq(&self, other: &Self) -> bool {
        let DescriptorTable {
            index: _,
            descs,
            peak,
        } = self;
        *peak == other.peak
            && descs.len() == other.descs.len()
            && self.iter().all(|(key, d)| other.get(&key) == Some(d))
    }
}

impl DescriptorTable {
    pub(crate) fn len(&self) -> usize {
        self.descs.len()
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.descs.is_empty()
    }

    /// Most descriptors ever live at once.
    pub(crate) fn peak(&self) -> usize {
        self.peak
    }

    fn get(&self, key: &PageKey) -> Option<&Descriptor> {
        let h = self.index.get(key.ino, key.index)?;
        Some(&self.descs[h])
    }

    pub(crate) fn get_mut(&mut self, key: &PageKey) -> Option<&mut Descriptor> {
        let h = self.index.get(key.ino, key.index)?;
        Some(&mut self.descs[h])
    }

    /// The page's descriptor, allocated by `init` if absent — one walk
    /// to its slot either way. The flag says whether it already existed.
    pub(crate) fn get_or_insert_with(
        &mut self,
        key: PageKey,
        init: impl FnOnce() -> Descriptor,
    ) -> (&mut Descriptor, bool) {
        let descs = &mut self.descs;
        let (h, existed) = self
            .index
            .get_or_insert_with(key.ino, key.index, || descs.insert(init()));
        if !existed {
            self.peak = self.peak.max(self.descs.len());
        }
        (&mut self.descs[h], existed)
    }

    /// Frees the page's descriptor, if it has one.
    pub(crate) fn remove(&mut self, key: &PageKey) {
        if let Some(h) = self.index.remove(key.ino, key.index) {
            self.descs.remove(h);
        }
    }

    /// Shows `keep` every descriptor of one file and frees those it
    /// rejects. Cost is proportional to that file's chunks, not to the
    /// table.
    pub(crate) fn retain_file(
        &mut self,
        ino: InodeNr,
        mut keep: impl FnMut(&mut Descriptor) -> bool,
    ) {
        let descs = &mut self.descs;
        self.index
            .retain_file(ino, |_, h| Self::keep_or_free(descs, h, &mut keep));
    }

    /// Shows `keep` every descriptor in the table and frees those it
    /// rejects. A full walk: for `deregister` only.
    pub(crate) fn retain(&mut self, mut keep: impl FnMut(&mut Descriptor) -> bool) {
        let descs = &mut self.descs;
        self.index
            .retain(|_, _, h| Self::keep_or_free(descs, h, &mut keep));
    }

    fn keep_or_free(
        descs: &mut Slab<Descriptor>,
        h: u32,
        keep: &mut impl FnMut(&mut Descriptor) -> bool,
    ) -> bool {
        let kept = keep(&mut descs[h]);
        if !kept {
            descs.remove(h);
        }
        kept
    }

    /// Panics unless the index is consistent in itself and names every
    /// live descriptor exactly once.
    #[cfg(test)]
    pub(crate) fn assert_consistent(&self) {
        self.index.assert_consistent();
        let mut handles: Vec<u32> = self.index.iter().map(|(_, _, h)| h).collect();
        handles.sort_unstable();
        handles.dedup();
        assert_eq!(
            handles.len(),
            self.descs.len(),
            "index names every descriptor once"
        );
        assert!(handles.iter().all(|&h| self.descs.get(h).is_some()));
    }

    /// Every descriptor in `(inode, index)` order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (PageKey, &Descriptor)> {
        self.index
            .iter()
            .map(|(ino, index, h)| (PageKey::new(ino, index), &self.descs[h]))
    }

    /// Every page with a descriptor, in key order, with the slab slot
    /// it occupies: the table's layout.
    #[cfg(test)]
    pub(crate) fn layout(&self) -> Vec<(PageKey, u32)> {
        self.index
            .iter()
            .map(|(ino, index, h)| (PageKey::new(ino, index), h))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_core::PageIndex;

    #[test]
    fn sess_flags_roundtrip() {
        let mut f = SessFlags::default();
        assert!(f.is_clear());
        assert!(!f.state_init());
        f.set_evt(ItemFlags::ADDED);
        f.set_evt(ItemFlags::DIRTIED);
        assert_eq!(
            f.evt_bits(),
            ItemFlags::ADDED.bits() | ItemFlags::DIRTIED.bits()
        );
        f.set_reported(true, false);
        assert!(f.state_init());
        assert!(f.reported_exists());
        assert!(!f.reported_modified());
        f.clear_evt();
        assert_eq!(f.evt_bits(), 0);
        assert!(f.state_init(), "state survives event clear");
        f.set_reported(false, true);
        assert!(!f.reported_exists());
        assert!(f.reported_modified());
        f.set_force_not_exists();
        assert!(f.force_not_exists());
        f.clear_force_not_exists();
        assert!(!f.force_not_exists());
        f.clear_all();
        assert!(f.is_clear());
    }

    #[test]
    fn pending_logic() {
        let mut d = Descriptor::new(true, false, None);
        let mask = EventMask::EXISTS;
        assert!(!d.pending_for(0, mask), "untouched slot is idle");
        // Initialized at reported=not-exists while page exists: pending.
        d.sess[0].set_reported(false, false);
        assert!(d.pending_for(0, mask));
        // Reported catches up: idle.
        d.sess[0].set_reported(true, false);
        assert!(!d.pending_for(0, mask));
        // Modified axis ignored unless subscribed.
        d.cur_modified = true;
        assert!(!d.pending_for(0, mask));
        assert!(d.pending_for(0, EventMask::EXISTS | EventMask::MODIFIED));
        // Event bits always pending.
        d.sess[1].set_evt(ItemFlags::FLUSHED);
        assert!(d.pending_for(1, EventMask::FLUSHED));
        let mut slots = SlotMasks::default();
        assert!(slots.is_empty() && !d.pending_any(&slots));
        slots.set(0, Some(EventMask::EXISTS));
        slots.set(1, Some(EventMask::FLUSHED));
        slots.set(9, Some(EventMask::ADDED));
        assert_eq!(slots.len(), 3);
        assert!(slots.iter().map(|(slot, _)| slot).eq([0, 1, 9]));
        assert!(d.pending_any(&slots));
        slots.set(1, None);
        assert!(slots.iter().map(|(slot, _)| slot).eq([0, 9]));
        assert!(!d.pending_any(&slots), "a freed slot is not consulted");
    }

    #[test]
    fn memory_model_matches_paper() {
        // §6.4: "For N = 16, an item descriptor requires 32 bytes
        // (inode number, offset, 16-byte flag array and hash node)."
        // The paper counts 32-bit id+offset; our 64-bit fields give 40.
        assert_eq!(Descriptor::memory_bytes(16), 40);
    }

    fn table_of(files: u64, pages: u64) -> DescriptorTable {
        let mut t = DescriptorTable::default();
        for n in 0..files * pages {
            let key = PageKey::new(InodeNr(n % files), PageIndex(n / files));
            let (_, existed) = t.get_or_insert_with(key, || Descriptor::new(true, false, None));
            assert!(!existed);
        }
        t.assert_consistent();
        t
    }

    #[test]
    fn retain_file_visits_that_files_descriptors_only() {
        let mut t = table_of(1000, 100);
        assert_eq!((t.len(), t.peak()), (100_000, 100_000));
        // A file with none: nothing is visited, nothing moves.
        let before = t.layout();
        t.retain_file(InodeNr(5000), |_| unreachable!("no descriptor to show"));
        assert_eq!(t.layout(), before);
        // A file with a hundred: a hundred visits; the odd pages go.
        let mut visits = 0;
        t.retain_file(InodeNr(7), |d| {
            visits += 1;
            d.cur_modified = true;
            visits % 2 == 0
        });
        assert_eq!(visits, 100);
        assert_eq!((t.len(), t.peak()), (100_000 - 50, 100_000));
        assert_eq!(t.iter().filter(|(_, d)| d.cur_modified).count(), 50);
        t.assert_consistent();
        t.retain_file(InodeNr(7), |_| false);
        assert_eq!(t.len(), 100_000 - 100);
        t.assert_consistent();
    }

    #[test]
    fn index_survives_interleaved_inserts_and_removes() {
        let mut t = table_of(7, 9);
        let key = |n: u64| PageKey::new(InodeNr(n % 7), PageIndex(n / 7));
        for n in (0..63).step_by(2) {
            t.remove(&key(n));
            t.assert_consistent();
        }
        t.remove(&key(0));
        assert_eq!(t.len(), 31);
        for n in 0..63 {
            let (_, existed) = t.get_or_insert_with(key(n), || Descriptor::new(true, false, None));
            assert_eq!(existed, n % 2 == 1);
            t.assert_consistent();
        }
        let keys: Vec<PageKey> = t.iter().map(|(key, _)| key).collect();
        assert!(keys.is_sorted() && keys.len() == 63);
        t.retain(|_| false);
        assert!(t.is_empty());
        t.assert_consistent();
        assert_eq!(t.peak(), 63);
    }

    /// `==` is key → descriptor: blind to which slots two arrival orders
    /// filled, and it can fail — one flag, one extra page or a different
    /// peak breaks it.
    #[test]
    fn equality_ignores_layout_and_sees_every_descriptor() {
        let keys: Vec<PageKey> = (0..8)
            .map(|n| PageKey::new(InodeNr(n % 3), PageIndex(n * 31)))
            .collect();
        let build = |order: &mut dyn Iterator<Item = &PageKey>| {
            let mut t = DescriptorTable::default();
            for &key in order {
                t.get_or_insert_with(key, || Descriptor::new(true, false, None));
            }
            t
        };
        let forward = build(&mut keys.iter());
        let mut backward = build(&mut keys.iter().rev());
        assert_ne!(forward.layout(), backward.layout(), "not vacuous");
        assert!(forward == backward);
        let key = keys[5];
        backward.get_mut(&key).unwrap().sess[3].set_evt(ItemFlags::ADDED);
        assert!(forward != backward, "one flag");
        backward.get_mut(&key).unwrap().sess[3].clear_all();
        assert!(forward == backward);
        let extra = PageKey::new(InodeNr(9), PageIndex(1 << 40));
        backward.get_or_insert_with(extra, || Descriptor::new(true, false, None));
        assert!(forward != backward, "one extra page");
        backward.remove(&extra);
        assert!(forward != backward, "the peak remembers it");
    }
}
