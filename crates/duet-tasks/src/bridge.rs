//! Wiring between the simulated filesystems and the Duet framework.
//!
//! Provides the
//! event pumps that play the role of the kernel's inline hooks: after
//! every filesystem operation, the simulation drains the page-cache and
//! namespace event queues into the framework, preserving order.

use duet::Duet;
use sim_btrfs::{BtrfsSim, FsEvent};
use sim_f2fs::F2fsSim;

/// Drains page-cache and namespace events from a Btrfs filesystem into
/// the framework, in occurrence order — the simulation's stand-in for
/// the kernel's inline page-cache hooks (§4.1). Call after every
/// filesystem operation (the experiment runner does).
pub fn pump_btrfs(fs: &mut BtrfsSim, duet: &mut Duet) {
    // Take the queue wholesale and hand its buffer back afterwards:
    // the pump runs after every filesystem operation, so a fresh
    // allocation per drain is pure per-op overhead.
    let page_events = fs.cache_mut().take_events();
    for &(meta, ev) in &page_events {
        duet.handle_page_event(meta, ev, fs);
    }
    fs.cache_mut().put_back_events(page_events);
    let fs_events = fs.drain_fs_events();
    for ev in fs_events {
        match ev {
            FsEvent::Created { .. } => {}
            FsEvent::Deleted { ino, .. } => duet.handle_delete(ino),
            FsEvent::Renamed {
                ino,
                old_parent,
                is_dir,
                ..
            } => duet.handle_rename(ino, old_parent, is_dir, fs),
        }
    }
}

/// Drains page-cache events from an F2fs filesystem into the framework.
pub fn pump_f2fs(fs: &mut F2fsSim, duet: &mut Duet) {
    let page_events = fs.cache_mut().take_events();
    for &(meta, ev) in &page_events {
        duet.handle_page_event(meta, ev, fs);
    }
    fs.cache_mut().put_back_events(page_events);
}

#[cfg(test)]
mod tests {
    use super::*;
    use duet::{EventMask, FsIntrospect, ItemFlags, TaskScope};
    use sim_core::{DeviceId, PageIndex, SimInstant, PAGE_SIZE};
    use sim_disk::{Disk, HddModel, IoClass};

    fn btrfs() -> BtrfsSim {
        let disk = Disk::new(Box::new(HddModel::sas_10k(4096)));
        BtrfsSim::new(DeviceId(0), disk, 128)
    }

    #[test]
    fn pump_delivers_read_events_to_block_session() {
        let mut fs = btrfs();
        let ino = fs.populate_file(fs.root(), "f", 4 * PAGE_SIZE).unwrap();
        let mut duet = Duet::with_defaults();
        let sid = duet
            .register(
                TaskScope::Block {
                    device: DeviceId(0),
                },
                EventMask::ADDED,
                &fs,
            )
            .unwrap();
        fs.read(ino, 0, 4 * PAGE_SIZE, IoClass::Normal, SimInstant::EPOCH)
            .unwrap();
        pump_btrfs(&mut fs, &mut duet);
        let items = duet.fetch(sid, 16, &fs).unwrap();
        assert_eq!(items.len(), 4);
        assert!(items.iter().all(|i| i.flags.contains(ItemFlags::ADDED)));
        assert!(items.iter().all(|i| i.id.as_block().is_some()));
    }

    #[test]
    fn pump_delivers_rename_events() {
        let mut fs = btrfs();
        let dir = fs.mkdir(fs.root(), "watched").unwrap();
        let ino = fs.populate_file(fs.root(), "f", 2 * PAGE_SIZE).unwrap();
        fs.read(ino, 0, 2 * PAGE_SIZE, IoClass::Normal, SimInstant::EPOCH)
            .unwrap();
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
        pump_btrfs(&mut fs, &mut duet);
        assert!(duet.fetch(sid, 16, &fs).unwrap().is_empty(), "outside dir");
        fs.rename(ino, dir, "f").unwrap();
        pump_btrfs(&mut fs, &mut duet);
        let items = duet.fetch(sid, 16, &fs).unwrap();
        assert_eq!(items.len(), 2, "cached pages seeded on move-in");
    }

    /// Every notification names a page that was really touched, and
    /// file sessions with disjoint masks see disjoint flags: EXISTS
    /// sees the 8 pages read from `a` and the 4 written to `b`, DIRTIED
    /// only those 4.
    #[test]
    fn file_sessions_see_only_touched_pages_under_their_mask() {
        let mut fs = btrfs();
        let a = fs.populate_file(fs.root(), "a", 8 * PAGE_SIZE).unwrap();
        let b = fs.populate_file(fs.root(), "b", 8 * PAGE_SIZE).unwrap();
        let mut duet = Duet::with_defaults();
        let scope = TaskScope::File {
            registered_dir: fs.root(),
        };
        let exists_sid = duet.register(scope, EventMask::EXISTS, &fs).unwrap();
        let dirty_sid = duet.register(scope, EventMask::DIRTIED, &fs).unwrap();
        fs.read(a, 0, 8 * PAGE_SIZE, IoClass::Normal, SimInstant::EPOCH)
            .unwrap();
        fs.write(b, 0, 4 * PAGE_SIZE, IoClass::Normal, SimInstant::EPOCH)
            .unwrap();
        pump_btrfs(&mut fs, &mut duet);
        let mut per_file = |sid, flag| {
            let items = duet.fetch(sid, 64, &fs).unwrap();
            assert!(items.iter().all(|i| i.flags == flag), "{items:?}");
            let of = |ino| {
                items
                    .iter()
                    .filter(|i| i.id.as_inode() == Some(ino))
                    .count()
            };
            (of(a), of(b), items.len())
        };
        assert_eq!(per_file(exists_sid, ItemFlags::EXISTS), (8, 4, 12));
        assert_eq!(per_file(dirty_sid, ItemFlags::DIRTIED), (0, 4, 4));
    }

    #[test]
    fn f2fs_fibmap_tracks_flush_migration() {
        let disk = Disk::new(Box::new(HddModel::sas_10k(64)));
        let mut fs = F2fsSim::new(DeviceId(1), disk, 32, 8);
        let ino = fs.populate_file("a", 2 * PAGE_SIZE).unwrap();
        let before = FsIntrospect::fibmap(&fs, ino, PageIndex(0)).unwrap();
        fs.write(ino, 0, PAGE_SIZE, IoClass::Normal, SimInstant::EPOCH)
            .unwrap();
        fs.background_writeback(16, IoClass::Normal, SimInstant::EPOCH)
            .unwrap();
        let after = FsIntrospect::fibmap(&fs, ino, PageIndex(0)).unwrap();
        assert_ne!(before, after, "flush moved the block");
    }
}
