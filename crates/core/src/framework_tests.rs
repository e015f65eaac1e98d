//! Behavioural tests of the Duet framework against a mock filesystem.

use crate::events::{EventMask, ItemFlags};
use crate::framework::{Duet, DuetConfig};
use crate::session::{ItemId, SessionId, TaskScope};
use sim_cache::FsIntrospect;
use sim_cache::{PageEvent, PageKey, PageMeta};
use sim_core::{BlockNr, DeviceId, InodeNr, PageIndex, SimError};
use std::collections::BTreeMap;

const DEV: DeviceId = DeviceId(0);
const ROOT: InodeNr = InodeNr(1);

/// A minimal filesystem stand-in: a parent tree, a page map and fibmap.
#[derive(Default)]
struct MockFs {
    parents: BTreeMap<InodeNr, InodeNr>,
    names: BTreeMap<InodeNr, String>,
    cache: BTreeMap<PageKey, PageMeta>,
    fibmap: BTreeMap<(InodeNr, PageIndex), BlockNr>,
}

impl MockFs {
    fn new() -> Self {
        let mut fs = MockFs::default();
        fs.parents.insert(ROOT, ROOT);
        fs.names.insert(ROOT, String::new());
        fs
    }

    fn add(&mut self, ino: u64, parent: InodeNr, name: &str) -> InodeNr {
        let ino = InodeNr(ino);
        self.parents.insert(ino, parent);
        self.names.insert(ino, name.to_string());
        ino
    }

    fn set_parent(&mut self, ino: InodeNr, parent: InodeNr) {
        self.parents.insert(ino, parent);
    }

    fn cache_page(&mut self, ino: InodeNr, idx: u64, block: Option<u64>, dirty: bool) -> PageMeta {
        let key = PageKey::new(ino, PageIndex(idx));
        let meta = PageMeta {
            key,
            block: block.map(BlockNr),
            dirty,
        };
        self.cache.insert(key, meta);
        if let Some(b) = block {
            self.fibmap.insert((ino, PageIndex(idx)), BlockNr(b));
        }
        meta
    }
}

impl FsIntrospect for MockFs {
    fn device(&self) -> DeviceId {
        DEV
    }

    fn is_under(&self, ino: InodeNr, dir: InodeNr) -> bool {
        let mut cur = ino;
        loop {
            if cur == dir {
                return true;
            }
            match self.parents.get(&cur) {
                Some(&p) if p != cur => cur = p,
                _ => return cur == dir,
            }
        }
    }

    fn path_of(&self, ino: InodeNr) -> Option<String> {
        if ino == ROOT {
            return Some("/".into());
        }
        let mut parts = Vec::new();
        let mut cur = ino;
        while cur != ROOT {
            parts.push(self.names.get(&cur)?.clone());
            cur = *self.parents.get(&cur)?;
        }
        let mut s = String::new();
        for p in parts.iter().rev() {
            s.push('/');
            s.push_str(p);
        }
        Some(s)
    }

    fn fibmap(&self, ino: InodeNr, index: PageIndex) -> Option<BlockNr> {
        self.fibmap.get(&(ino, index)).copied()
    }

    fn has_cached_pages(&self, ino: InodeNr) -> bool {
        self.cache.keys().any(|k| k.ino == ino)
    }

    fn cached_pages(&self) -> Vec<PageMeta> {
        self.cache.values().copied().collect()
    }

    fn cached_pages_of(&self, ino: InodeNr) -> Vec<PageMeta> {
        self.cache
            .values()
            .filter(|m| m.key.ino == ino)
            .copied()
            .collect()
    }
}

fn meta(ino: InodeNr, idx: u64, block: Option<u64>, dirty: bool) -> PageMeta {
    PageMeta {
        key: PageKey::new(ino, PageIndex(idx)),
        block: block.map(BlockNr),
        dirty,
    }
}

// ----- registration ---------------------------------------------------------

#[test]
fn register_rejects_empty_mask_and_overflow() {
    let fs = MockFs::new();
    let mut duet = Duet::new(DuetConfig {
        max_sessions: 2,
        descriptor_limit: 100,
    });
    assert!(matches!(
        duet.register(
            TaskScope::File {
                registered_dir: ROOT
            },
            EventMask::empty(),
            &fs
        ),
        Err(SimError::InvalidArgument(_))
    ));
    let s1 = duet
        .register(
            TaskScope::File {
                registered_dir: ROOT,
            },
            EventMask::EXISTS,
            &fs,
        )
        .unwrap();
    let _s2 = duet
        .register(
            TaskScope::File {
                registered_dir: ROOT,
            },
            EventMask::EXISTS,
            &fs,
        )
        .unwrap();
    assert_eq!(
        duet.register(
            TaskScope::File {
                registered_dir: ROOT
            },
            EventMask::EXISTS,
            &fs
        ),
        Err(SimError::TooManySessions)
    );
    duet.deregister(s1).unwrap();
    // Slot is reusable.
    duet.register(
        TaskScope::File {
            registered_dir: ROOT,
        },
        EventMask::EXISTS,
        &fs,
    )
    .unwrap();
    assert_eq!(duet.session_count(), 2);
}

#[test]
fn register_rejects_device_mismatch() {
    let fs = MockFs::new();
    let mut duet = Duet::with_defaults();
    assert!(matches!(
        duet.register(
            TaskScope::Block {
                device: DeviceId(9)
            },
            EventMask::ADDED,
            &fs
        ),
        Err(SimError::InvalidArgument(_))
    ));
}

#[test]
fn registration_scan_reports_cached_pages() {
    let mut fs = MockFs::new();
    let f = fs.add(10, ROOT, "f");
    fs.cache_page(f, 0, Some(100), false);
    fs.cache_page(f, 1, Some(101), true);
    let mut duet = Duet::with_defaults();
    let sid = duet
        .register(
            TaskScope::File {
                registered_dir: ROOT,
            },
            EventMask::EXISTS | EventMask::MODIFIED,
            &fs,
        )
        .unwrap();
    let mut items = duet.fetch(sid, 10, &fs).unwrap();
    items.sort_by_key(|i| i.offset);
    assert_eq!(items.len(), 2);
    assert!(items[0].flags.contains(ItemFlags::EXISTS));
    assert!(!items[0].flags.contains(ItemFlags::MODIFIED));
    assert!(items[1].flags.contains(ItemFlags::EXISTS));
    assert!(items[1].flags.contains(ItemFlags::MODIFIED), "dirty page");
    assert_eq!(items[0].id, ItemId::Inode(f));
    // Everything is up to date now.
    assert!(duet.fetch(sid, 10, &fs).unwrap().is_empty());
    assert_eq!(duet.descriptor_count(), 0, "descriptors freed after fetch");
}

// ----- event notifications ----------------------------------------------------

#[test]
fn event_session_receives_subscribed_events_only() {
    let mut fs = MockFs::new();
    let f = fs.add(10, ROOT, "f");
    let mut duet = Duet::with_defaults();
    let sid = duet
        .register(
            TaskScope::File {
                registered_dir: ROOT,
            },
            EventMask::ADDED | EventMask::DIRTIED,
            &fs,
        )
        .unwrap();
    duet.handle_page_event(meta(f, 0, Some(100), false), PageEvent::Added, &fs);
    duet.handle_page_event(meta(f, 0, Some(100), true), PageEvent::Dirtied, &fs);
    duet.handle_page_event(meta(f, 0, Some(100), false), PageEvent::Flushed, &fs);
    let items = duet.fetch(sid, 10, &fs).unwrap();
    assert_eq!(items.len(), 1, "merged into one item");
    assert!(items[0].flags.contains(ItemFlags::ADDED));
    assert!(items[0].flags.contains(ItemFlags::DIRTIED));
    assert!(
        !items[0].flags.contains(ItemFlags::FLUSHED),
        "not subscribed"
    );
}

#[test]
fn paper_example_add_fetch_remove() {
    // §3.2: "suppose a page is added, a fetch operation occurs, and then
    // the page is removed. The next fetch call will return an item for
    // the page with only the removed bit set."
    let mut fs = MockFs::new();
    let f = fs.add(10, ROOT, "f");
    let mut duet = Duet::with_defaults();
    let sid = duet
        .register(
            TaskScope::File {
                registered_dir: ROOT,
            },
            EventMask::ADDED | EventMask::REMOVED,
            &fs,
        )
        .unwrap();
    duet.handle_page_event(meta(f, 0, Some(100), false), PageEvent::Added, &fs);
    let first = duet.fetch(sid, 10, &fs).unwrap();
    assert_eq!(first.len(), 1);
    assert!(first[0].flags.contains(ItemFlags::ADDED));
    duet.handle_page_event(meta(f, 0, Some(100), false), PageEvent::Removed, &fs);
    let second = duet.fetch(sid, 10, &fs).unwrap();
    assert_eq!(second.len(), 1);
    assert_eq!(second[0].flags, ItemFlags::REMOVED, "only the removed bit");
}

// ----- state notifications ----------------------------------------------------

#[test]
fn state_cancellation_on_revert() {
    // §3.2: a page removed and re-added between fetches has reverted to
    // the same state — no event is generated. And the converse: added
    // then removed before any fetch yields nothing.
    let mut fs = MockFs::new();
    let f = fs.add(10, ROOT, "f");
    let mut duet = Duet::with_defaults();
    let sid = duet
        .register(
            TaskScope::File {
                registered_dir: ROOT,
            },
            EventMask::EXISTS,
            &fs,
        )
        .unwrap();
    duet.handle_page_event(meta(f, 0, Some(100), false), PageEvent::Added, &fs);
    duet.handle_page_event(meta(f, 0, Some(100), false), PageEvent::Removed, &fs);
    assert!(duet.fetch(sid, 10, &fs).unwrap().is_empty(), "cancelled");
    assert_eq!(
        duet.descriptor_count(),
        0,
        "descriptor freed by cancellation"
    );
    // Now: add, fetch (EXISTS reported), remove, re-add: reverted.
    duet.handle_page_event(meta(f, 0, Some(100), false), PageEvent::Added, &fs);
    let items = duet.fetch(sid, 10, &fs).unwrap();
    assert_eq!(items.len(), 1);
    assert!(items[0].flags.contains(ItemFlags::EXISTS));
    duet.handle_page_event(meta(f, 0, Some(100), false), PageEvent::Removed, &fs);
    duet.handle_page_event(meta(f, 0, Some(100), false), PageEvent::Added, &fs);
    assert!(
        duet.fetch(sid, 10, &fs).unwrap().is_empty(),
        "reverted to reported state"
    );
}

#[test]
fn state_change_reported_after_fetch() {
    let mut fs = MockFs::new();
    let f = fs.add(10, ROOT, "f");
    let mut duet = Duet::with_defaults();
    let sid = duet
        .register(
            TaskScope::File {
                registered_dir: ROOT,
            },
            EventMask::EXISTS,
            &fs,
        )
        .unwrap();
    duet.handle_page_event(meta(f, 0, Some(100), false), PageEvent::Added, &fs);
    let items = duet.fetch(sid, 10, &fs).unwrap();
    assert!(items[0].flags.contains(ItemFlags::EXISTS));
    duet.handle_page_event(meta(f, 0, Some(100), false), PageEvent::Removed, &fs);
    let items = duet.fetch(sid, 10, &fs).unwrap();
    assert_eq!(items.len(), 1);
    assert!(items[0].flags.contains(ItemFlags::NOT_EXISTS));
}

#[test]
fn modified_axis_tracks_dirty_and_flush() {
    let mut fs = MockFs::new();
    let f = fs.add(10, ROOT, "f");
    let mut duet = Duet::with_defaults();
    let sid = duet
        .register(
            TaskScope::File {
                registered_dir: ROOT,
            },
            EventMask::MODIFIED,
            &fs,
        )
        .unwrap();
    duet.handle_page_event(meta(f, 0, Some(100), false), PageEvent::Added, &fs);
    // Existence changes are not subscribed; nothing pending.
    assert!(duet.fetch(sid, 10, &fs).unwrap().is_empty());
    duet.handle_page_event(meta(f, 0, Some(100), true), PageEvent::Dirtied, &fs);
    let items = duet.fetch(sid, 10, &fs).unwrap();
    assert!(items[0].flags.contains(ItemFlags::MODIFIED));
    duet.handle_page_event(meta(f, 0, Some(100), false), PageEvent::Flushed, &fs);
    let items = duet.fetch(sid, 10, &fs).unwrap();
    assert!(items[0].flags.contains(ItemFlags::NOT_MODIFIED));
    // Dirty+flush between fetches cancels.
    duet.handle_page_event(meta(f, 0, Some(100), true), PageEvent::Dirtied, &fs);
    duet.handle_page_event(meta(f, 0, Some(100), false), PageEvent::Flushed, &fs);
    assert!(duet.fetch(sid, 10, &fs).unwrap().is_empty());
}

// ----- relevance ---------------------------------------------------------------

#[test]
fn file_task_filters_by_registered_directory() {
    let mut fs = MockFs::new();
    let dir = fs.add(2, ROOT, "watched");
    let inside = fs.add(10, dir, "in");
    let outside = fs.add(11, ROOT, "out");
    let mut duet = Duet::with_defaults();
    let sid = duet
        .register(
            TaskScope::File {
                registered_dir: dir,
            },
            EventMask::EXISTS,
            &fs,
        )
        .unwrap();
    duet.handle_page_event(meta(inside, 0, Some(1), false), PageEvent::Added, &fs);
    duet.handle_page_event(meta(outside, 0, Some(2), false), PageEvent::Added, &fs);
    let items = duet.fetch(sid, 10, &fs).unwrap();
    assert_eq!(items.len(), 1);
    assert_eq!(items[0].id, ItemId::Inode(inside));
    // The irrelevant file was marked done: no walk on later events.
    assert!(duet.check_done(sid, ItemId::Inode(outside)).unwrap());
    assert!(!duet.check_done(sid, ItemId::Inode(inside)).unwrap());
}

// ----- block tasks / fibmap bridging ---------------------------------------------

#[test]
fn block_task_receives_block_items() {
    let mut fs = MockFs::new();
    let f = fs.add(10, ROOT, "f");
    let mut duet = Duet::with_defaults();
    let sid = duet
        .register(TaskScope::Block { device: DEV }, EventMask::ADDED, &fs)
        .unwrap();
    duet.handle_page_event(meta(f, 3, Some(103), false), PageEvent::Added, &fs);
    let items = duet.fetch(sid, 10, &fs).unwrap();
    assert_eq!(items.len(), 1);
    assert_eq!(items[0].id, ItemId::Block(BlockNr(103)));
    assert_eq!(items[0].offset, 0);
}

#[test]
fn blockless_pages_deferred_for_block_tasks() {
    // §4.2: "In the event that a page does not correspond to a block yet
    // (e.g. due to delayed allocation), the page is left to be returned
    // by a later fetch operation."
    let mut fs = MockFs::new();
    let f = fs.add(10, ROOT, "f");
    let mut duet = Duet::with_defaults();
    let sid = duet
        .register(
            TaskScope::Block { device: DEV },
            EventMask::ADDED | EventMask::DIRTIED,
            &fs,
        )
        .unwrap();
    // Event with no block: filtered at intake (deferred).
    duet.handle_page_event(meta(f, 0, None, true), PageEvent::Dirtied, &fs);
    assert!(duet.fetch(sid, 10, &fs).unwrap().is_empty());
    // Once the block is allocated and a new event arrives, it flows.
    fs.fibmap.insert((f, PageIndex(0)), BlockNr(55));
    duet.handle_page_event(meta(f, 0, Some(55), true), PageEvent::Dirtied, &fs);
    let items = duet.fetch(sid, 10, &fs).unwrap();
    assert_eq!(items.len(), 1);
    assert_eq!(items[0].id, ItemId::Block(BlockNr(55)));
}

/// A page's migration rides only on the item that reports its flush:
/// an item without `FLUSHED` carries no `moved_to`, even when the page
/// has moved since its event.
#[test]
fn moved_to_rides_only_on_flushed_items() {
    let mut fs = MockFs::new();
    let f = fs.add(10, ROOT, "f");
    let mut duet = Duet::with_defaults();
    let sid = duet
        .register(
            TaskScope::Block { device: DEV },
            EventMask::EXISTS | EventMask::FLUSHED,
            &fs,
        )
        .unwrap();
    let page = fs.cache_page(f, 0, Some(100), false);
    duet.handle_page_event(page, PageEvent::Added, &fs);
    // The page migrates to block 200 before the task fetches.
    fs.fibmap.insert((f, PageIndex(0)), BlockNr(200));
    let items = duet.fetch(sid, 10, &fs).unwrap();
    assert_eq!(items.len(), 1);
    assert_eq!(items[0].flags, ItemFlags::EXISTS);
    assert_eq!(items[0].id, ItemId::Block(BlockNr(100)));
    assert_eq!(items[0].moved_to, None);
    // The flush event carries the block as of flush time, the old one.
    duet.handle_page_event(page, PageEvent::Flushed, &fs);
    let items = duet.fetch(sid, 10, &fs).unwrap();
    assert_eq!(items.len(), 1);
    assert_eq!(items[0].flags, ItemFlags::FLUSHED);
    assert_eq!(items[0].id, ItemId::Block(BlockNr(100)));
    assert_eq!(items[0].moved_to, Some(BlockNr(200)));
}

// ----- done tracking --------------------------------------------------------------

#[test]
fn set_done_file_clears_pending_and_filters_future() {
    let mut fs = MockFs::new();
    let f = fs.add(10, ROOT, "f");
    let mut duet = Duet::with_defaults();
    let sid = duet
        .register(
            TaskScope::File {
                registered_dir: ROOT,
            },
            EventMask::EXISTS,
            &fs,
        )
        .unwrap();
    duet.handle_page_event(meta(f, 0, Some(1), false), PageEvent::Added, &fs);
    duet.handle_page_event(meta(f, 1, Some(2), false), PageEvent::Added, &fs);
    duet.set_done(sid, ItemId::Inode(f)).unwrap();
    assert!(
        duet.fetch(sid, 10, &fs).unwrap().is_empty(),
        "marked up-to-date"
    );
    assert_eq!(duet.descriptor_count(), 0);
    // Future events on the file are ignored.
    duet.handle_page_event(meta(f, 2, Some(3), false), PageEvent::Added, &fs);
    assert!(duet.fetch(sid, 10, &fs).unwrap().is_empty());
    // unset_done re-enables tracking.
    duet.unset_done(sid, ItemId::Inode(f)).unwrap();
    duet.handle_page_event(meta(f, 3, Some(4), false), PageEvent::Added, &fs);
    assert_eq!(duet.fetch(sid, 10, &fs).unwrap().len(), 1);
}

#[test]
fn set_done_block_filters_lazily() {
    let mut fs = MockFs::new();
    let f = fs.add(10, ROOT, "f");
    let mut duet = Duet::with_defaults();
    let sid = duet
        .register(TaskScope::Block { device: DEV }, EventMask::ADDED, &fs)
        .unwrap();
    duet.handle_page_event(meta(f, 0, Some(7), false), PageEvent::Added, &fs);
    // Mark done after the event arrived but before fetching.
    duet.set_done(sid, ItemId::Block(BlockNr(7))).unwrap();
    assert!(duet.fetch(sid, 10, &fs).unwrap().is_empty());
    // Future events for the block are filtered at intake.
    duet.handle_page_event(meta(f, 0, Some(7), false), PageEvent::Added, &fs);
    assert!(duet.fetch(sid, 10, &fs).unwrap().is_empty());
    assert!(duet.check_done(sid, ItemId::Block(BlockNr(7))).unwrap());
}

// ----- get_path --------------------------------------------------------------------

#[test]
fn get_path_relative_and_truth_check() {
    let mut fs = MockFs::new();
    let dir = fs.add(2, ROOT, "watched");
    let sub = fs.add(3, dir, "sub");
    let f = fs.add(10, sub, "file.txt");
    let mut duet = Duet::with_defaults();
    let sid = duet
        .register(
            TaskScope::File {
                registered_dir: dir,
            },
            EventMask::EXISTS,
            &fs,
        )
        .unwrap();
    // No cached pages: the hint is stale — back out (§3.2).
    assert_eq!(
        duet.get_path(sid, f, &fs),
        Err(SimError::PathNotAvailable(f))
    );
    fs.cache_page(f, 0, Some(1), false);
    assert_eq!(duet.get_path(sid, f, &fs).unwrap(), "sub/file.txt");
    // Root-registered session gets the path without a leading slash.
    let sid2 = duet
        .register(
            TaskScope::File {
                registered_dir: ROOT,
            },
            EventMask::EXISTS,
            &fs,
        )
        .unwrap();
    assert_eq!(duet.get_path(sid2, f, &fs).unwrap(), "watched/sub/file.txt");
    // Block sessions cannot resolve paths.
    let sid3 = duet
        .register(TaskScope::Block { device: DEV }, EventMask::ADDED, &fs)
        .unwrap();
    assert!(matches!(
        duet.get_path(sid3, f, &fs),
        Err(SimError::Unsupported(_))
    ));
}

// ----- renames ----------------------------------------------------------------------

#[test]
fn file_moved_into_registered_directory() {
    let mut fs = MockFs::new();
    let dir = fs.add(2, ROOT, "watched");
    let f = fs.add(10, ROOT, "f");
    fs.cache_page(f, 0, Some(1), false);
    let mut duet = Duet::with_defaults();
    let sid = duet
        .register(
            TaskScope::File {
                registered_dir: dir,
            },
            EventMask::EXISTS,
            &fs,
        )
        .unwrap();
    // Outside: an event marks it done-as-irrelevant.
    duet.handle_page_event(meta(f, 0, Some(1), false), PageEvent::Added, &fs);
    assert!(duet.fetch(sid, 10, &fs).unwrap().is_empty());
    // Move it in: descriptors are seeded from its cached pages (§4.1).
    let old_parent = ROOT;
    fs.set_parent(f, dir);
    duet.handle_rename(f, old_parent, false, &fs);
    let items = duet.fetch(sid, 10, &fs).unwrap();
    assert_eq!(items.len(), 1);
    assert!(items[0].flags.contains(ItemFlags::EXISTS));
}

#[test]
fn file_moved_out_reports_removed_then_ignored() {
    let mut fs = MockFs::new();
    let dir = fs.add(2, ROOT, "watched");
    let f = fs.add(10, dir, "f");
    fs.cache_page(f, 0, Some(1), false);
    let mut duet = Duet::with_defaults();
    let sid = duet
        .register(
            TaskScope::File {
                registered_dir: dir,
            },
            EventMask::EXISTS | EventMask::REMOVED,
            &fs,
        )
        .unwrap();
    // Drain the registration scan.
    let _ = duet.fetch(sid, 10, &fs).unwrap();
    // Move out.
    fs.set_parent(f, ROOT);
    duet.handle_rename(f, dir, false, &fs);
    let items = duet.fetch(sid, 10, &fs).unwrap();
    assert_eq!(items.len(), 1);
    assert!(items[0].flags.contains(ItemFlags::REMOVED));
    assert!(items[0].flags.contains(ItemFlags::NOT_EXISTS));
    // Delivered once: nothing stays owed, so no descriptor is left.
    assert_eq!(duet.descriptor_count(), 0);
    // The file is done: new events are ignored.
    duet.handle_page_event(meta(f, 1, Some(2), false), PageEvent::Added, &fs);
    assert!(duet.fetch(sid, 10, &fs).unwrap().is_empty());
}

#[test]
fn directory_rename_resets_relevance_except_processed() {
    let mut fs = MockFs::new();
    let dir = fs.add(2, ROOT, "watched");
    let sub = fs.add(3, dir, "sub");
    let f1 = fs.add(10, sub, "a");
    let f2 = fs.add(11, sub, "b");
    let mut duet = Duet::with_defaults();
    let sid = duet
        .register(
            TaskScope::File {
                registered_dir: dir,
            },
            EventMask::EXISTS,
            &fs,
        )
        .unwrap();
    duet.handle_page_event(meta(f1, 0, Some(1), false), PageEvent::Added, &fs);
    duet.handle_page_event(meta(f2, 0, Some(2), false), PageEvent::Added, &fs);
    let _ = duet.fetch(sid, 10, &fs).unwrap();
    // f1 fully processed: relevant + done.
    duet.set_done(sid, ItemId::Inode(f1)).unwrap();
    // Move `sub` out of the registered directory.
    fs.set_parent(sub, ROOT);
    duet.handle_rename(sub, dir, true, &fs);
    // f1 keeps both bits (won't generate unnecessary events); f2 was
    // reset and will be re-checked on next access — and found
    // irrelevant now.
    assert!(duet.check_done(sid, ItemId::Inode(f1)).unwrap());
    assert!(!duet.check_done(sid, ItemId::Inode(f2)).unwrap());
    duet.handle_page_event(meta(f2, 1, Some(3), false), PageEvent::Added, &fs);
    assert!(duet.fetch(sid, 10, &fs).unwrap().is_empty());
    assert!(
        duet.check_done(sid, ItemId::Inode(f2)).unwrap(),
        "re-marked irrelevant"
    );
}

// ----- bounds / bookkeeping -------------------------------------------------------

#[test]
fn event_only_sessions_drop_over_limit() {
    let mut fs = MockFs::new();
    let f = fs.add(10, ROOT, "f");
    let mut duet = Duet::new(DuetConfig {
        max_sessions: 2,
        descriptor_limit: 3,
    });
    let sid = duet
        .register(
            TaskScope::File {
                registered_dir: ROOT,
            },
            EventMask::ADDED,
            &fs,
        )
        .unwrap();
    for i in 0..10 {
        duet.handle_page_event(meta(f, i, Some(i), false), PageEvent::Added, &fs);
    }
    assert_eq!(duet.queue_len(sid).unwrap(), 3);
    assert_eq!(duet.dropped_events(sid).unwrap(), 7);
    assert_eq!(duet.stats().events_dropped, 7);
    // State sessions are never dropped.
    let sid2 = duet
        .register(
            TaskScope::File {
                registered_dir: ROOT,
            },
            EventMask::EXISTS,
            &fs,
        )
        .unwrap();
    for i in 10..20 {
        duet.handle_page_event(meta(f, i, Some(i), false), PageEvent::Added, &fs);
    }
    assert_eq!(duet.fetch(sid2, 100, &fs).unwrap().len(), 10);
    assert_eq!(duet.dropped_events(sid2).unwrap(), 0);
}

#[test]
fn fetch_respects_max() {
    let mut fs = MockFs::new();
    let f = fs.add(10, ROOT, "f");
    let mut duet = Duet::with_defaults();
    let sid = duet
        .register(
            TaskScope::File {
                registered_dir: ROOT,
            },
            EventMask::EXISTS,
            &fs,
        )
        .unwrap();
    for i in 0..10 {
        duet.handle_page_event(meta(f, i, Some(i), false), PageEvent::Added, &fs);
    }
    let a = duet.fetch(sid, 4, &fs).unwrap();
    assert_eq!(a.len(), 4);
    let b = duet.fetch(sid, 100, &fs).unwrap();
    assert_eq!(b.len(), 6);
}

#[test]
fn memory_accounting_tracks_descriptors_and_bitmaps() {
    let mut fs = MockFs::new();
    let f = fs.add(10, ROOT, "f");
    let mut duet = Duet::with_defaults();
    let sid = duet
        .register(
            TaskScope::File {
                registered_dir: ROOT,
            },
            EventMask::EXISTS,
            &fs,
        )
        .unwrap();
    let m0 = duet.memory_bytes();
    for i in 0..100 {
        duet.handle_page_event(meta(f, i, Some(i), false), PageEvent::Added, &fs);
    }
    assert_eq!(duet.descriptor_count(), 100);
    assert!(duet.memory_bytes() > m0);
    assert_eq!(duet.stats().peak_descriptors, 100);
    let _ = duet.fetch(sid, 1000, &fs).unwrap();
    assert_eq!(duet.descriptor_count(), 0);
    // Bitmap memory remains (relevant bit for the file).
    assert!(duet.memory_bytes() > 0);
}

#[test]
fn two_sessions_independent_views_on_merged_descriptor() {
    let mut fs = MockFs::new();
    let f = fs.add(10, ROOT, "f");
    let mut duet = Duet::with_defaults();
    let s1 = duet
        .register(
            TaskScope::File {
                registered_dir: ROOT,
            },
            EventMask::EXISTS,
            &fs,
        )
        .unwrap();
    let s2 = duet
        .register(
            TaskScope::File {
                registered_dir: ROOT,
            },
            EventMask::DIRTIED,
            &fs,
        )
        .unwrap();
    duet.handle_page_event(meta(f, 0, Some(1), false), PageEvent::Added, &fs);
    duet.handle_page_event(meta(f, 0, Some(1), true), PageEvent::Dirtied, &fs);
    // One merged descriptor serves both sessions.
    assert_eq!(duet.descriptor_count(), 1);
    let i1 = duet.fetch(s1, 10, &fs).unwrap();
    assert_eq!(i1.len(), 1);
    assert!(i1[0].flags.contains(ItemFlags::EXISTS));
    // Session 1 fetch must not consume session 2's pending bits.
    let i2 = duet.fetch(s2, 10, &fs).unwrap();
    assert_eq!(i2.len(), 1);
    assert!(i2[0].flags.contains(ItemFlags::DIRTIED));
    assert_eq!(duet.descriptor_count(), 0);
}

#[test]
fn deregister_releases_descriptors() {
    let mut fs = MockFs::new();
    let f = fs.add(10, ROOT, "f");
    let mut duet = Duet::with_defaults();
    let sid = duet
        .register(
            TaskScope::File {
                registered_dir: ROOT,
            },
            EventMask::EXISTS,
            &fs,
        )
        .unwrap();
    for i in 0..5 {
        duet.handle_page_event(meta(f, i, Some(i), false), PageEvent::Added, &fs);
    }
    assert_eq!(duet.descriptor_count(), 5);
    duet.deregister(sid).unwrap();
    assert_eq!(duet.descriptor_count(), 0);
    assert_eq!(duet.session_count(), 0);
    assert!(matches!(
        duet.fetch(sid, 1, &fs),
        Err(SimError::InvalidSession(_))
    ));
}

#[test]
fn status_reports_sessions_and_counters() {
    let mut fs = MockFs::new();
    let f = fs.add(10, ROOT, "f");
    let mut duet = Duet::with_defaults();
    duet.register(
        TaskScope::File {
            registered_dir: ROOT,
        },
        EventMask::EXISTS,
        &fs,
    )
    .unwrap();
    duet.register(TaskScope::Block { device: DEV }, EventMask::ADDED, &fs)
        .unwrap();
    duet.handle_page_event(meta(f, 0, Some(1), false), PageEvent::Added, &fs);
    let s = duet.status();
    assert!(s.contains("2 session(s)"), "{s}");
    assert!(s.contains("file task under"), "{s}");
    assert!(s.contains("block task on dev#0"), "{s}");
    assert!(s.contains("EXISTS"), "{s}");
    assert!(s.contains("1 events processed"), "{s}");
}

#[test]
fn delete_clears_bitmap_state() {
    let mut fs = MockFs::new();
    let f = fs.add(10, ROOT, "f");
    let mut duet = Duet::with_defaults();
    let sid = duet
        .register(
            TaskScope::File {
                registered_dir: ROOT,
            },
            EventMask::EXISTS,
            &fs,
        )
        .unwrap();
    duet.handle_page_event(meta(f, 0, Some(1), false), PageEvent::Added, &fs);
    duet.set_done(sid, ItemId::Inode(f)).unwrap();
    assert!(duet.check_done(sid, ItemId::Inode(f)).unwrap());
    duet.handle_delete(f);
    assert!(!duet.check_done(sid, ItemId::Inode(f)).unwrap());
}

// ----- fault injection -----------------------------------------------------

mod faults {
    use super::*;
    use sim_core::fault::{FaultHandle, FaultPlan, FaultSite};

    fn file_scope() -> TaskScope {
        TaskScope::File {
            registered_dir: ROOT,
        }
    }

    #[test]
    fn forced_session_exhaustion_despite_free_slots() {
        let fs = MockFs::new();
        let mut duet = Duet::with_defaults();
        let plan = FaultPlan::quiet().with_ppm(FaultSite::DuetSessionExhaustion, 1_000_000);
        let handle = FaultHandle::new(3, plan);
        duet.set_faults(Some(handle.clone()));
        let err = duet
            .register(file_scope(), EventMask::EXISTS, &fs)
            .unwrap_err();
        assert_eq!(err, SimError::TooManySessions);
        assert_eq!(handle.fired(FaultSite::DuetSessionExhaustion), 1);
        assert_eq!(duet.session_count(), 0);
        // Disarmed, the same register succeeds: the slot was never used.
        duet.set_faults(None);
        duet.register(file_scope(), EventMask::EXISTS, &fs).unwrap();
    }

    #[test]
    fn forced_path_unavailable_on_get_path() {
        let mut fs = MockFs::new();
        let f = fs.add(10, ROOT, "f");
        fs.cache_page(f, 0, Some(5), false);
        let mut duet = Duet::with_defaults();
        let sid = duet.register(file_scope(), EventMask::EXISTS, &fs).unwrap();
        let plan = FaultPlan::quiet().with_ppm(FaultSite::DuetPathUnavailable, 1_000_000);
        let handle = FaultHandle::new(4, plan);
        duet.set_faults(Some(handle.clone()));
        // The file is cached and in scope, yet the forced fault makes
        // get_path report it unavailable — the §3.2 back-out trigger.
        let err = duet.get_path(sid, f, &fs).unwrap_err();
        assert_eq!(err, SimError::PathNotAvailable(f));
        assert!(handle.fired(FaultSite::DuetPathUnavailable) >= 1);
        duet.set_faults(None);
        assert_eq!(duet.get_path(sid, f, &fs).unwrap(), "f");
    }

    #[test]
    fn churn_keeps_sid_valid_but_resets_framework_state() {
        let mut fs = MockFs::new();
        let f = fs.add(10, ROOT, "f");
        fs.cache_page(f, 0, Some(5), false);
        let mut duet = Duet::with_defaults();
        let sid = duet.register(file_scope(), EventMask::EXISTS, &fs).unwrap();
        // Drain the registration-scan item, then mark it done.
        let items = duet.fetch(sid, 16, &fs).unwrap();
        assert_eq!(items.len(), 1);
        duet.set_done(sid, ItemId::Inode(f)).unwrap();
        assert!(duet.check_done(sid, ItemId::Inode(f)).unwrap());
        // Churn: same sid, fresh session — done bitmap and queue are
        // gone, and the re-registration scan re-seeds the cached page.
        duet.churn_session(sid, &fs).unwrap();
        assert_eq!(duet.session_count(), 1);
        assert!(!duet.check_done(sid, ItemId::Inode(f)).unwrap());
        let items = duet.fetch(sid, 16, &fs).unwrap();
        assert_eq!(items.len(), 1, "rescan re-delivers the cached page");
        assert_eq!(items[0].id, ItemId::Inode(f));
    }

    #[test]
    fn churn_fault_fires_on_page_events() {
        let mut fs = MockFs::new();
        let f = fs.add(10, ROOT, "f");
        let mut duet = Duet::with_defaults();
        let sid = duet.register(file_scope(), EventMask::EXISTS, &fs).unwrap();
        let plan = FaultPlan::quiet().with_ppm(FaultSite::DuetSessionChurn, 1_000_000);
        let handle = FaultHandle::new(5, plan);
        duet.set_faults(Some(handle.clone()));
        duet.handle_page_event(meta(f, 0, Some(1), false), PageEvent::Added, &fs);
        assert_eq!(handle.fired(FaultSite::DuetSessionChurn), 1);
        // The session survived the churn and processed the event.
        let items = duet.fetch(sid, 16, &fs).unwrap();
        assert_eq!(items.len(), 1);
    }

    #[test]
    fn churn_of_invalid_session_is_an_error() {
        let fs = MockFs::new();
        let mut duet = Duet::with_defaults();
        let err = duet
            .churn_session(crate::session::SessionId(9), &fs)
            .unwrap_err();
        assert_eq!(err, SimError::InvalidSession(9));
    }
}

// ----- the descriptor table ------------------------------------------------------

/// Builds the descriptor set {(f, 1), (f, 2), (f, 3)} for a session on
/// `/a`, with a second session on `/b` whose only descriptor is freed
/// by its deregistration — allocated either first (so its freed slot
/// sits below the survivors') or last.
fn three_descriptors(other_arrives_first: bool) -> Duet {
    let mut fs = MockFs::new();
    let a = fs.add(2, ROOT, "a");
    let b = fs.add(3, ROOT, "b");
    let f = fs.add(10, a, "f");
    let g = fs.add(11, b, "g");
    let mut duet = Duet::with_defaults();
    for dir in [a, b] {
        duet.register(
            TaskScope::File {
                registered_dir: dir,
            },
            EventMask::EXISTS,
            &fs,
        )
        .unwrap();
    }
    let other = meta(g, 0, Some(50), false);
    if other_arrives_first {
        duet.handle_page_event(other, PageEvent::Added, &fs);
    }
    for i in 1..=3 {
        duet.handle_page_event(meta(f, i, Some(i), false), PageEvent::Added, &fs);
    }
    if !other_arrives_first {
        duet.handle_page_event(other, PageEvent::Added, &fs);
    }
    duet.deregister(SessionId(1)).unwrap();
    duet.assert_index_consistent();
    duet
}

#[test]
fn equality_does_not_depend_on_arrival_order() {
    let (x, y) = (three_descriptors(true), three_descriptors(false));
    // Not vacuous: the two tables really are laid out differently —
    // the same pages sit in different slab slots, and the slot freed
    // by the deregistration differs — so a derived `==` would fail.
    assert_ne!(x.layout(), y.layout());
    assert!(x == y);
    for duet in [&x, &y] {
        assert_eq!(duet.descriptor_count(), 3);
    }
}

#[test]
fn session_cap_is_the_flag_arrays_sixteen() {
    let fs = MockFs::new();
    for max_sessions in [1, 2, 16] {
        let mut duet = Duet::new(DuetConfig {
            max_sessions,
            descriptor_limit: 100,
        });
        for _ in 0..max_sessions {
            duet.register(TaskScope::Block { device: DEV }, EventMask::ADDED, &fs)
                .unwrap();
        }
        assert_eq!(
            duet.register(TaskScope::Block { device: DEV }, EventMask::ADDED, &fs),
            Err(SimError::TooManySessions)
        );
    }
}

#[test]
#[should_panic(expected = "max_sessions = 17 exceeds the cap of 16")]
fn seventeen_sessions_are_rejected_loudly() {
    Duet::new(DuetConfig {
        max_sessions: 17,
        descriptor_limit: 100,
    });
}

#[test]
fn set_done_on_a_file_without_descriptors_leaves_a_large_table_untouched() {
    let fs = MockFs::new();
    let mut duet = Duet::with_defaults();
    let sid = duet
        .register(TaskScope::Block { device: DEV }, EventMask::ADDED, &fs)
        .unwrap();
    for n in 0..100_000u64 {
        let page = meta(InodeNr(10 + n / 100), n % 100, Some(n), false);
        duet.handle_page_event(page, PageEvent::Added, &fs);
    }
    assert_eq!(duet.descriptor_count(), 100_000);
    let before = duet.layout();
    duet.set_done(sid, ItemId::Inode(InodeNr(5))).unwrap();
    assert_eq!(duet.layout(), before);
    duet.assert_index_consistent();
    // A file that has descriptors loses exactly its own.
    duet.set_done(sid, ItemId::Inode(InodeNr(10))).unwrap();
    assert_eq!(duet.descriptor_count(), 100_000 - 100);
    assert!(duet.layout().iter().all(|(key, _)| key.ino != InodeNr(10)));
    duet.assert_index_consistent();
}
