//! Behavioural tests of the full filesystem: COW semantics, snapshot
//! sharing, verify-on-read, defragmentation and event generation.

use crate::blocktable::BackRef;
use crate::events::FsEvent;
use crate::fs::BtrfsSim;
use crate::snapshot::SnapshotId;
use sim_cache::PageEvent;
use sim_core::{BlockNr, DeviceId, InodeNr, PageIndex, SimError, SimInstant, PAGE_SIZE};
use sim_disk::{Disk, HddModel, IoClass};

const T0: SimInstant = SimInstant::EPOCH;
const NORMAL: IoClass = IoClass::Normal;
const IDLE: IoClass = IoClass::Idle;

fn make_fs(capacity_blocks: u64, cache_pages: usize) -> BtrfsSim {
    let disk = Disk::new(Box::new(HddModel::sas_10k(capacity_blocks)));
    BtrfsSim::new(DeviceId(0), disk, cache_pages)
}

fn page_bytes(n: u64) -> u64 {
    n * PAGE_SIZE
}

/// The block backing page `p` of file `ino` in the snapshot.
fn snap_block(fs: &BtrfsSim, snap: SnapshotId, ino: InodeNr, p: u64) -> Option<BlockNr> {
    let file = fs.snapshot(snap).unwrap().files.get(ino)?;
    file.extents.block_of(PageIndex(p))
}

#[test]
fn populate_creates_on_disk_data_without_io() {
    let mut fs = make_fs(1024, 64);
    let ino = fs
        .populate_file(fs.root(), "data.bin", page_bytes(10))
        .unwrap();
    assert_eq!(fs.inodes().get(ino).unwrap().size_pages(), 10);
    assert_eq!(fs.allocated_blocks(), 10);
    assert_eq!(fs.disk().metrics().total_blocks(), 0, "population is free");
    assert_eq!(fs.cache().len(), 0, "population does not touch the cache");
    // The data is mapped and fibmap resolves it.
    assert!(fs.fibmap(ino, PageIndex(0)).unwrap().is_some());
    assert!(fs.fibmap(ino, PageIndex(10)).unwrap().is_none());
}

#[test]
fn read_miss_then_hit() {
    let mut fs = make_fs(1024, 64);
    let ino = fs.populate_file(fs.root(), "f", page_bytes(4)).unwrap();
    let s1 = fs.read(ino, 0, page_bytes(4), NORMAL, T0).unwrap();
    assert_eq!(s1.blocks_read, 4);
    assert_eq!(s1.cache_hits, 0);
    assert_eq!(
        s1.read_reqs, 1,
        "contiguous blocks coalesce into one request"
    );
    assert!(s1.finish > T0);
    // Second read: all hits, no I/O.
    let s2 = fs.read(ino, 0, page_bytes(4), NORMAL, s1.finish).unwrap();
    assert_eq!(s2.blocks_read, 0);
    assert_eq!(s2.cache_hits, 4);
    assert_eq!(s2.finish, s1.finish);
}

#[test]
fn byte_range_past_the_offset_space_is_rejected() {
    let mut fs = make_fs(1024, 64);
    let ino = fs.populate_file(fs.root(), "f", page_bytes(4)).unwrap();
    // In release a wrapped `offset + len` used to read or write nothing.
    for (offset, len) in [(u64::MAX, 2), (u64::MAX - PAGE_SIZE, 2 * PAGE_SIZE)] {
        let read = fs.read(ino, offset, len, NORMAL, T0);
        assert!(
            matches!(read, Err(SimError::InvalidArgument(_))),
            "{read:?}"
        );
        let write = fs.write(ino, offset, len, NORMAL, T0);
        assert!(
            matches!(write, Err(SimError::InvalidArgument(_))),
            "{write:?}"
        );
    }
    assert_eq!(fs.inodes().get(ino).unwrap().size_bytes, page_bytes(4));
    assert_eq!(fs.cache().len(), 0);
    fs.check_consistency().unwrap();
    // The last addressable byte is still a valid (if unmapped) request.
    assert!(fs.read(ino, u64::MAX - 1, 1, NORMAL, T0).is_ok());
}

#[test]
fn read_generates_added_events() {
    let mut fs = make_fs(1024, 64);
    let ino = fs.populate_file(fs.root(), "f", page_bytes(3)).unwrap();
    fs.read(ino, 0, page_bytes(3), NORMAL, T0).unwrap();
    let evs = fs.cache_mut().drain_events();
    let added = evs.iter().filter(|(_, e)| *e == PageEvent::Added).count();
    assert_eq!(added, 3);
    assert!(evs.iter().all(|(m, _)| m.key.ino == ino));
    assert!(evs.iter().all(|(m, _)| m.block.is_some()));
}

#[test]
fn write_is_copy_on_write() {
    let mut fs = make_fs(1024, 64);
    let ino = fs.populate_file(fs.root(), "f", page_bytes(4)).unwrap();
    let b_before = fs.fibmap(ino, PageIndex(1)).unwrap().unwrap();
    fs.write(ino, page_bytes(1), PAGE_SIZE, NORMAL, T0).unwrap();
    let b_after = fs.fibmap(ino, PageIndex(1)).unwrap().unwrap();
    assert_ne!(b_before, b_after, "overwrite allocated a fresh block");
    // Unshared old block is freed.
    assert_eq!(fs.blocks().refcount_of(b_before).unwrap(), 0);
    assert_eq!(fs.allocated_blocks(), 4);
    // Other pages unchanged.
    assert_eq!(fs.inodes().get(ino).unwrap().extents.mapped_pages(), 4);
}

#[test]
fn cow_overwrites_fragment_files() {
    let mut fs = make_fs(4096, 256);
    let ino = fs.populate_file(fs.root(), "f", page_bytes(32)).unwrap();
    assert_eq!(fs.file_extent_count(ino).unwrap(), 1);
    // Scattered small overwrites split the extent map.
    for p in [3u64, 9, 17, 25] {
        fs.write(ino, page_bytes(p), PAGE_SIZE, NORMAL, T0).unwrap();
    }
    assert!(fs.file_extent_count(ino).unwrap() >= 5, "fragmented by COW");
}

#[test]
fn write_leaves_data_dirty_until_flush() {
    let mut fs = make_fs(1024, 64);
    let ino = fs.create_file(fs.root(), "f").unwrap();
    let s = fs.write(ino, 0, page_bytes(2), NORMAL, T0).unwrap();
    assert_eq!(s.blocks_written, 0, "write-back caching: no immediate I/O");
    assert_eq!(fs.dirty_pages(), 2);
    let f = fs.fsync(ino, NORMAL, T0).unwrap();
    assert_eq!(f.blocks_written, 2);
    assert_eq!(fs.dirty_pages(), 0);
    // fsync again is a no-op.
    let f2 = fs.fsync(ino, NORMAL, f.finish).unwrap();
    assert_eq!(f2.blocks_written, 0);
}

#[test]
fn background_writeback_flushes_oldest() {
    let mut fs = make_fs(1024, 64);
    let a = fs.create_file(fs.root(), "a").unwrap();
    let b = fs.create_file(fs.root(), "b").unwrap();
    fs.write(a, 0, page_bytes(2), NORMAL, T0).unwrap();
    fs.write(b, 0, page_bytes(2), NORMAL, T0).unwrap();
    let s = fs.background_writeback(2, IDLE, T0).unwrap();
    assert_eq!(s.blocks_written, 2);
    assert_eq!(fs.dirty_pages(), 2, "only the batch was flushed");
}

#[test]
fn eviction_of_dirty_pages_charges_writes() {
    let mut fs = make_fs(1024, 4); // tiny cache
    let ino = fs.create_file(fs.root(), "f").unwrap();
    // Write 8 pages through a 4-page cache: at least 4 dirty evictions.
    let s = fs.write(ino, 0, page_bytes(8), NORMAL, T0).unwrap();
    assert!(
        s.blocks_written >= 4,
        "dirty evictions wrote {}",
        s.blocks_written
    );
    assert_eq!(fs.cache().len(), 4);
}

/// The read path reuses its lists between calls, and nothing in them
/// carries over: after a read that wrote dirty evictions and a read
/// that failed its checksum, reading file `b` does exactly what it
/// does on a clone taken before the failed read, whose lists start
/// empty.
#[test]
fn a_failed_read_leaves_nothing_for_the_next() {
    let mut fs = make_fs(1024, 8);
    let a = fs.populate_file(fs.root(), "a", page_bytes(8)).unwrap();
    let b = fs.populate_file(fs.root(), "b", page_bytes(8)).unwrap();
    let c = fs.populate_file(fs.root(), "c", page_bytes(8)).unwrap();
    let d = fs.create_file(fs.root(), "d").unwrap();
    fs.write(d, 0, page_bytes(8), NORMAL, T0).unwrap();
    let s = fs.read(c, 0, page_bytes(8), NORMAL, T0).unwrap();
    assert!(s.blocks_written > 0, "the read evicted a dirty page of d");
    assert!(fs == fs.clone(), "the grown lists are not compared");
    let bad = fs.fibmap(a, PageIndex(3)).unwrap().unwrap();
    fs.inject_corruption(bad).unwrap();
    let mut fresh = fs.clone();
    let err = fs.read(a, 0, page_bytes(8), NORMAL, s.finish).unwrap_err();
    assert_eq!(err, SimError::ChecksumMismatch(bad));
    let got = fs.read(b, 0, page_bytes(8), NORMAL, s.finish).unwrap();
    let want = fresh.read(b, 0, page_bytes(8), NORMAL, s.finish).unwrap();
    assert_eq!(got, want);
    assert_eq!((got.blocks_read, got.read_reqs, got.write_reqs), (8, 1, 0));
    assert_eq!(fs.disk().metrics(), fresh.disk().metrics());
}

/// The write path takes the same lists: a write after a read that
/// wrote a dirty eviction does what it does on a clone whose lists
/// start empty.
#[test]
fn a_write_after_a_dirty_eviction_writes_only_its_own() {
    let mut fs = make_fs(1024, 8);
    let c = fs.populate_file(fs.root(), "c", page_bytes(8)).unwrap();
    let d = fs.create_file(fs.root(), "d").unwrap();
    fs.write(d, 0, page_bytes(8), NORMAL, T0).unwrap();
    let s = fs.read(c, 0, page_bytes(8), NORMAL, T0).unwrap();
    assert!(s.blocks_written > 0, "the read evicted a dirty page of d");
    let mut fresh = fs.clone();
    let got = fs.write(c, 0, page_bytes(2), NORMAL, s.finish).unwrap();
    let want = fresh.write(c, 0, page_bytes(2), NORMAL, s.finish).unwrap();
    assert_eq!(got, want);
    assert_eq!(fs.disk().metrics(), fresh.disk().metrics());
}

#[test]
fn append_extends_file() {
    let mut fs = make_fs(1024, 64);
    let ino = fs.create_file(fs.root(), "log").unwrap();
    fs.append(ino, page_bytes(2), NORMAL, T0).unwrap();
    assert_eq!(fs.inodes().get(ino).unwrap().size_pages(), 2);
    fs.append(ino, PAGE_SIZE, NORMAL, T0).unwrap();
    assert_eq!(fs.inodes().get(ino).unwrap().size_pages(), 3);
}

#[test]
fn verify_on_read_detects_corruption() {
    let mut fs = make_fs(1024, 64);
    let ino = fs.populate_file(fs.root(), "f", page_bytes(2)).unwrap();
    let b = fs.fibmap(ino, PageIndex(0)).unwrap().unwrap();
    fs.inject_corruption(b).unwrap();
    let err = fs.read(ino, 0, PAGE_SIZE, NORMAL, T0).unwrap_err();
    assert_eq!(err, SimError::ChecksumMismatch(b));
    // Scrub-style verify-and-repair fixes it.
    assert!(fs.verify_and_repair(b).unwrap());
    assert!(!fs.verify_and_repair(b).unwrap(), "already repaired");
    fs.read(ino, 0, PAGE_SIZE, NORMAL, T0).unwrap();
}

#[test]
fn snapshot_shares_blocks_until_overwrite() {
    let mut fs = make_fs(1024, 64);
    let ino = fs.populate_file(fs.root(), "f", page_bytes(4)).unwrap();
    let b1 = fs.fibmap(ino, PageIndex(1)).unwrap().unwrap();
    let snap = fs.create_snapshot().unwrap();
    assert_eq!(fs.blocks().refcount_of(b1).unwrap(), 2, "live + snapshot");
    assert_eq!(snap_block(&fs, snap, ino, 1), Some(b1));
    // Overwrite breaks sharing for that page only.
    fs.write(ino, page_bytes(1), PAGE_SIZE, NORMAL, T0).unwrap();
    assert_ne!(fs.fibmap(ino, PageIndex(1)).unwrap(), Some(b1));
    let b0 = fs.fibmap(ino, PageIndex(0)).unwrap();
    assert_eq!(snap_block(&fs, snap, ino, 0), b0);
    // The old block survives (the snapshot still references it).
    assert_eq!(fs.blocks().refcount_of(b1).unwrap(), 1);
    assert_eq!(snap_block(&fs, snap, ino, 1), Some(b1));
}

#[test]
fn deleting_file_preserves_snapshot_blocks() {
    let mut fs = make_fs(1024, 64);
    let ino = fs.populate_file(fs.root(), "f", page_bytes(3)).unwrap();
    let b0 = fs.fibmap(ino, PageIndex(0)).unwrap().unwrap();
    let snap = fs.create_snapshot().unwrap();
    fs.delete_file(ino).unwrap();
    assert!(!fs.inodes().exists(ino));
    // Blocks still held by the snapshot.
    assert_eq!(fs.blocks().refcount_of(b0).unwrap(), 1);
    assert_eq!(fs.allocated_blocks(), 3);
    assert_eq!(snap_block(&fs, snap, ino, 0), Some(b0));
    // Deleting the snapshot frees everything.
    fs.delete_snapshot(snap).unwrap();
    assert_eq!(fs.allocated_blocks(), 0);
}

#[test]
fn snapshot_total_pages() {
    let mut fs = make_fs(1024, 64);
    fs.populate_file(fs.root(), "a", page_bytes(3)).unwrap();
    fs.populate_file(fs.root(), "b", page_bytes(5)).unwrap();
    let snap = fs.create_snapshot().unwrap();
    assert_eq!(fs.snapshot(snap).unwrap().total_pages(), 8);
    assert_eq!(fs.snapshot(snap).unwrap().files.len(), 2);
}

/// Every walk by inode is ascending by construction: after deletes and
/// re-creations leave holes in the numbering, the file list, the inode
/// walk and the snapshot's file table (the backup plan's order) come
/// back sorted with no sort anywhere on the way.
#[test]
fn inode_walks_are_ascending_across_holes() {
    let mut fs = make_fs(1024, 64);
    let root = fs.root();
    let dir = fs.mkdir(root, "d").unwrap();
    let mut files: Vec<InodeNr> = (0..8)
        .map(|i| {
            let parent = if i % 3 == 0 { dir } else { root };
            fs.populate_file(parent, &format!("f{i}"), page_bytes(1))
                .unwrap()
        })
        .collect();
    for at in [6, 2, 0] {
        fs.delete_file(files.remove(at)).unwrap();
    }
    files.push(fs.populate_file(root, "f0", page_bytes(2)).unwrap());
    files.push(fs.populate_file(dir, "g", page_bytes(1)).unwrap());
    fs.delete_file(files.remove(3)).unwrap();
    let ascending = |v: &[InodeNr]| v.windows(2).all(|w| w[0] < w[1]);
    let by_inode = fs.inodes().files_by_inode();
    assert!(ascending(&by_inode), "{by_inode:?}");
    let mut want = files.clone();
    want.sort_unstable();
    assert_eq!(by_inode, want);
    let all: Vec<InodeNr> = fs.inodes().iter().map(|n| n.ino).collect();
    assert!(ascending(&all), "{all:?}");
    assert_eq!(all.len(), files.len() + 2, "files, root and d");
    let snap = fs.create_snapshot().unwrap();
    let planned: Vec<InodeNr> = fs.snapshot(snap).unwrap().files.keys().collect();
    assert_eq!(planned, want);
    fs.check_consistency().unwrap();
}

#[test]
fn defrag_merges_extents() {
    let mut fs = make_fs(4096, 256);
    let ino = fs.populate_file(fs.root(), "f", page_bytes(16)).unwrap();
    fs.fragment_file(ino, 4).unwrap();
    let before = fs.file_extent_count(ino).unwrap();
    assert!(before >= 4, "fragment_file produced {before} extents");
    let r = fs.defrag_file(ino, IDLE, T0).unwrap();
    assert_eq!(r.extents_before, before);
    assert_eq!(r.extents_after, 1);
    assert_eq!(r.pages, 16);
    // Cold cache: all pages read, all written.
    assert_eq!(r.stats.blocks_read, 16);
    assert_eq!(r.stats.blocks_written, 16);
    assert_eq!(r.cached_pages, 0);
    assert_eq!(fs.file_extent_count(ino).unwrap(), 1);
    assert_eq!(fs.allocated_blocks(), 16, "old space freed");
}

#[test]
fn defrag_uses_cached_pages() {
    let mut fs = make_fs(4096, 256);
    let ino = fs.populate_file(fs.root(), "f", page_bytes(16)).unwrap();
    fs.fragment_file(ino, 4).unwrap();
    // Warm half the file.
    fs.read(ino, 0, page_bytes(8), NORMAL, T0).unwrap();
    let r = fs.defrag_file(ino, IDLE, T0).unwrap();
    assert_eq!(r.cached_pages, 8);
    assert_eq!(r.stats.blocks_read, 8, "only the cold half was read");
    assert_eq!(r.stats.blocks_written, 16);
}

#[test]
fn defrag_skips_unfragmented() {
    let mut fs = make_fs(1024, 64);
    let ino = fs.populate_file(fs.root(), "f", page_bytes(8)).unwrap();
    let r = fs.defrag_file(ino, IDLE, T0).unwrap();
    assert_eq!(r.stats.total_blocks(), 0);
    assert_eq!(r.extents_before, 1);
}

#[test]
fn fragment_file_scatters_physically() {
    let mut fs = make_fs(4096, 64);
    let ino = fs.populate_file(fs.root(), "f", page_bytes(12)).unwrap();
    fs.fragment_file(ino, 3).unwrap();
    let node = fs.inodes().get(ino).unwrap();
    let extents: Vec<_> = node.extents.iter().copied().collect();
    assert!(extents.len() >= 3);
    // Physically non-adjacent.
    for w in extents.windows(2) {
        assert_ne!(
            w[0].physical.raw() + w[0].len,
            w[1].physical.raw(),
            "extents are physically adjacent; fragmentation failed"
        );
    }
    // All pages still mapped.
    assert_eq!(node.extents.mapped_pages(), 12);
}

#[test]
fn rename_and_fs_events() {
    let mut fs = make_fs(1024, 64);
    let dir = fs.mkdir(fs.root(), "d").unwrap();
    let ino = fs.populate_file(fs.root(), "f", page_bytes(1)).unwrap();
    fs.drain_fs_events();
    fs.rename(ino, dir, "g").unwrap();
    let evs = fs.drain_fs_events();
    assert_eq!(evs.len(), 1);
    match evs[0] {
        FsEvent::Renamed {
            ino: i,
            old_parent,
            new_parent,
            is_dir,
        } => {
            assert_eq!(i, ino);
            assert_eq!(old_parent, fs.root());
            assert_eq!(new_parent, dir);
            assert!(!is_dir);
        }
        other => panic!("unexpected event {other:?}"),
    }
    assert_eq!(fs.path_of(ino).unwrap(), "/d/g");
}

#[test]
fn create_delete_events() {
    let mut fs = make_fs(1024, 64);
    let ino = fs.populate_file(fs.root(), "f", page_bytes(1)).unwrap();
    let evs = fs.drain_fs_events();
    assert!(matches!(evs[0], FsEvent::Created { is_dir: false, .. }));
    fs.delete_file(ino).unwrap();
    let evs = fs.drain_fs_events();
    assert!(matches!(evs[0], FsEvent::Deleted { .. }));
}

#[test]
fn delete_removes_cached_pages() {
    let mut fs = make_fs(1024, 64);
    let ino = fs.populate_file(fs.root(), "f", page_bytes(4)).unwrap();
    fs.read(ino, 0, page_bytes(4), NORMAL, T0).unwrap();
    assert_eq!(fs.cache().len(), 4);
    fs.cache_mut().drain_events();
    fs.delete_file(ino).unwrap();
    assert_eq!(fs.cache().len(), 0);
    let evs = fs.cache_mut().drain_events();
    assert_eq!(
        evs.iter().filter(|(_, e)| *e == PageEvent::Removed).count(),
        4
    );
    assert_eq!(fs.allocated_blocks(), 0);
}

#[test]
fn allocated_ranges_cover_all_data() {
    let mut fs = make_fs(4096, 64);
    fs.populate_file(fs.root(), "a", page_bytes(10)).unwrap();
    fs.populate_file(fs.root(), "b", page_bytes(6)).unwrap();
    let total: u64 = fs.allocated_ranges().iter().map(|r| r.len).sum();
    assert_eq!(total, 16);
    assert_eq!(total, fs.allocated_blocks());
}

#[test]
fn backrefs_follow_cow() {
    let mut fs = make_fs(1024, 64);
    let ino = fs.populate_file(fs.root(), "f", page_bytes(2)).unwrap();
    let b0 = fs.fibmap(ino, PageIndex(0)).unwrap().unwrap();
    let br = fs.blocks().backref_of(b0).unwrap().unwrap();
    assert_eq!(br.ino, ino);
    assert_eq!(br.index, PageIndex(0));
    // After COW, the new block carries the backref; the old one none.
    fs.write(ino, 0, PAGE_SIZE, NORMAL, T0).unwrap();
    assert_eq!(fs.blocks().backref_of(b0).unwrap(), None);
    let b0_new = fs.fibmap(ino, PageIndex(0)).unwrap().unwrap();
    assert_eq!(fs.blocks().backref_of(b0_new).unwrap().unwrap().ino, ino);
}

#[test]
fn read_beyond_eof_is_clamped() {
    let mut fs = make_fs(1024, 64);
    let ino = fs.populate_file(fs.root(), "f", page_bytes(2)).unwrap();
    let s = fs.read(ino, 0, page_bytes(100), NORMAL, T0).unwrap();
    assert_eq!(s.blocks_read, 2);
    let s2 = fs.read(ino, page_bytes(50), PAGE_SIZE, NORMAL, T0).unwrap();
    assert_eq!(s2.total_blocks(), 0);
}

#[test]
fn no_space_reported() {
    let mut fs = make_fs(8, 64);
    let err = fs
        .populate_file(fs.root(), "big", page_bytes(9))
        .unwrap_err();
    assert_eq!(err, SimError::NoSpace);
}

#[test]
fn mean_extents_per_file_reflects_fragmentation() {
    let mut fs = make_fs(4096, 64);
    let a = fs.populate_file(fs.root(), "a", page_bytes(8)).unwrap();
    fs.populate_file(fs.root(), "b", page_bytes(8)).unwrap();
    assert!((fs.mean_extents_per_file() - 1.0).abs() < 1e-9);
    fs.fragment_file(a, 4).unwrap();
    assert!(fs.mean_extents_per_file() > 2.0);
}

#[test]
fn delete_nonexistent_and_dir_errors() {
    let mut fs = make_fs(1024, 64);
    assert!(matches!(
        fs.delete_file(InodeNr(99)),
        Err(SimError::NoSuchInode(_))
    ));
    let d = fs.mkdir(fs.root(), "d").unwrap();
    assert!(matches!(
        fs.delete_file(d),
        Err(SimError::InvalidArgument(_))
    ));
}

#[test]
fn write_to_missing_file_errors() {
    let mut fs = make_fs(1024, 64);
    assert!(matches!(
        fs.write(InodeNr(42), 0, 1, NORMAL, T0),
        Err(SimError::NoSuchInode(_))
    ));
}

#[test]
fn snapshot_block_absent_for_post_snapshot_files() {
    let mut fs = make_fs(1024, 64);
    let snap = fs.create_snapshot().unwrap();
    let ino = fs.populate_file(fs.root(), "new", page_bytes(2)).unwrap();
    assert_eq!(snap_block(&fs, snap, ino, 0), None);
}

#[test]
fn fsck_passes_on_healthy_fs_and_catches_corruption() {
    let mut fs = make_fs(1024, 64);
    let ino = fs.populate_file(fs.root(), "f", page_bytes(4)).unwrap();
    fs.read(ino, 0, page_bytes(4), NORMAL, T0).unwrap();
    fs.check_consistency().unwrap();
    // Snapshots and COW keep it consistent.
    let snap = fs.create_snapshot().unwrap();
    fs.write(ino, 0, PAGE_SIZE, NORMAL, T0).unwrap();
    fs.check_consistency().unwrap();
    fs.delete_snapshot(snap).unwrap();
    fs.check_consistency().unwrap();
    // A refcount corruption is detected.
    let b = fs.fibmap(ino, PageIndex(1)).unwrap().unwrap();
    fs.corrupt_refcount_for_test(b);
    let err = fs.check_consistency().unwrap_err();
    assert!(err.to_string().contains("fsck"), "{err}");
}

/// A reference on a block nobody claims is a leak, whether or not the
/// allocator counts the block.
#[test]
fn fsck_catches_a_reference_on_a_free_block() {
    let mut fs = make_fs(1024, 64);
    fs.populate_file(fs.root(), "f", page_bytes(4)).unwrap();
    let free = BlockNr(1000);
    let allocated = fs.allocated_ranges();
    assert!(allocated.iter().all(|r| !r.blocks().any(|b| b == free)));
    fs.check_consistency().unwrap();
    fs.corrupt_refcount_for_test(free);
    let err = fs.check_consistency().unwrap_err();
    assert!(err.to_string().contains("no extent claims it"), "{err}");
}

/// A live block on the free map and a leaked block elsewhere keep the
/// allocated count, so only the block-by-block split catches them.
#[test]
fn fsck_catches_a_live_block_on_the_free_map() {
    let mut fs = make_fs(1024, 64);
    let ino = fs.populate_file(fs.root(), "f", page_bytes(4)).unwrap();
    let live = fs.fibmap(ino, PageIndex(1)).unwrap().unwrap();
    fs.check_consistency().unwrap();
    let allocated = fs.allocated_blocks();
    let leaked = fs.swap_free_block_for_test(live);
    assert_ne!(leaked, live);
    assert_eq!(fs.allocated_blocks(), allocated);
    let err = fs.check_consistency().unwrap_err();
    let want = format!("block {live} is referenced but free");
    assert!(err.to_string().contains(&want), "{err}");
}

/// A block the snapshot keeps after an overwrite must have lost its
/// live back-reference; so must a free block past every live one.
#[test]
fn fsck_catches_a_backref_the_live_tree_no_longer_maps() {
    for past_every_live_block in [false, true] {
        let mut fs = make_fs(1024, 64);
        let ino = fs.populate_file(fs.root(), "f", page_bytes(4)).unwrap();
        let old = fs.fibmap(ino, PageIndex(1)).unwrap().unwrap();
        fs.create_snapshot().unwrap();
        fs.write(ino, page_bytes(1), PAGE_SIZE, NORMAL, T0).unwrap();
        assert_eq!(fs.blocks().backref_of(old).unwrap(), None);
        fs.check_consistency().unwrap();
        let stale = BackRef {
            ino,
            index: PageIndex(1),
        };
        let b = if past_every_live_block {
            BlockNr(1000)
        } else {
            old
        };
        fs.set_backref_for_test(b, stale);
        let err = fs.check_consistency().unwrap_err();
        let want = format!("block {b}: backref {stale:?}, the live tree does not map it");
        assert!(err.to_string().contains(&want), "{err}");
    }
}

/// A live block whose back-reference names another page, or none, is
/// caught where the pieces stop matching the extent.
#[test]
fn fsck_catches_a_live_block_whose_backref_names_another_page() {
    let mut fs = make_fs(1024, 64);
    let ino = fs.populate_file(fs.root(), "f", page_bytes(4)).unwrap();
    let b = fs.fibmap(ino, PageIndex(2)).unwrap().unwrap();
    fs.check_consistency().unwrap();
    let wrong = BackRef {
        ino,
        index: PageIndex(3),
    };
    fs.set_backref_for_test(b, wrong);
    let err = fs.check_consistency().unwrap_err();
    let want = format!("block {b}: backref Some({wrong:?}) != ({ino}, pg 2)");
    assert!(err.to_string().contains(&want), "{err}");
}

/// A file ends where a back-reference's page field does: a write past
/// page 2^32 - 1 is refused before any block is allocated.
#[test]
fn a_write_past_page_two_to_the_32_is_refused_whole() {
    let mut fs = make_fs(1024, 64);
    let ino = fs.populate_file(fs.root(), "f", page_bytes(4)).unwrap();
    let allocated = fs.allocated_blocks();
    let err = fs.write(ino, 1 << 44, PAGE_SIZE, NORMAL, T0).unwrap_err();
    assert!(matches!(err, SimError::InvalidArgument(_)), "{err}");
    assert_eq!(fs.allocated_blocks(), allocated, "no block was taken");
    fs.check_consistency().unwrap();
    let last = (1 << 44) - PAGE_SIZE;
    fs.write(ino, last, PAGE_SIZE, NORMAL, T0).unwrap();
    let br = fs.blocks().backref_of(
        fs.fibmap(ino, PageIndex(u64::from(u32::MAX)))
            .unwrap()
            .unwrap(),
    );
    assert_eq!(br.unwrap().unwrap().index, PageIndex(u64::from(u32::MAX)));
    fs.check_consistency().unwrap();
}

// Randomized churn test driven by the deterministic `SimRng` (the
// workspace builds offline, with no proptest dep).
mod properties {
    use super::*;
    use sim_core::SimRng;

    #[derive(Debug, Clone, Copy)]
    enum Churn {
        Write { file: u8, page: u8 },
        Append { file: u8 },
        Delete { file: u8 },
        Read { file: u8 },
        Defrag { file: u8 },
        Writeback,
    }

    /// Weighted churn pick mirroring the original generator's 4:2:1:3:1:1
    /// operation mix.
    fn churn_pick(rng: &mut SimRng) -> Churn {
        let file = rng.gen_range(0, 6) as u8;
        match rng.gen_range(0, 12) {
            0..=3 => Churn::Write {
                file,
                page: rng.gen_range(0, 8) as u8,
            },
            4..=5 => Churn::Append { file },
            6 => Churn::Delete { file },
            7..=9 => Churn::Read { file },
            10 => Churn::Defrag { file },
            _ => Churn::Writeback,
        }
    }

    /// Snapshots are immutable: whatever churn the live filesystem
    /// sees — overwrites, appends, deletions and re-creation,
    /// defragmentation — every (file, page) → block mapping captured
    /// at snapshot time stays intact and its blocks stay allocated,
    /// fsck holds after every op, and every live file reads back,
    /// until the snapshot is deleted; then all space is reclaimed.
    #[test]
    fn snapshot_mappings_survive_arbitrary_churn() {
        for case in 0..48u64 {
            let mut rng = SimRng::new(0x5A95 ^ case);
            let ops: Vec<Churn> = (0..rng.gen_range(1, 80))
                .map(|_| churn_pick(&mut rng))
                .collect();
            {
                let mut fs = make_fs(1 << 14, 256);
                let mut files = Vec::new();
                for i in 0..6u64 {
                    files.push(
                        fs.populate_file(fs.root(), &format!("f{i}"), page_bytes(8))
                            .unwrap(),
                    );
                }
                let snap = fs.create_snapshot().unwrap();
                // Capture the ground truth.
                let mut truth = Vec::new();
                for &ino in &files {
                    for p in 0..8u64 {
                        truth.push((ino, p, snap_block(&fs, snap, ino, p)));
                    }
                }
                let mut created = 0;
                for op in ops {
                    match op {
                        Churn::Write { file, page } => {
                            fs.write(
                                files[file as usize],
                                page as u64 * PAGE_SIZE,
                                PAGE_SIZE,
                                NORMAL,
                                T0,
                            )
                            .unwrap();
                        }
                        Churn::Append { file } => {
                            fs.append(files[file as usize], PAGE_SIZE, NORMAL, T0)
                                .unwrap();
                        }
                        Churn::Delete { file } => {
                            // A new file takes its place, so allocation
                            // reuses the space the delete freed.
                            fs.delete_file(files[file as usize]).unwrap();
                            created += 1;
                            files[file as usize] = fs
                                .populate_file(fs.root(), &format!("n{created}"), page_bytes(4))
                                .unwrap();
                        }
                        Churn::Read { file } => {
                            let ino = files[file as usize];
                            let size = fs.inodes().get(ino).unwrap().size_bytes;
                            fs.read(ino, 0, size, NORMAL, T0).unwrap();
                        }
                        Churn::Defrag { file } => {
                            fs.defrag_file(files[file as usize], IDLE, T0).unwrap();
                        }
                        Churn::Writeback => {
                            fs.background_writeback(64, NORMAL, T0).unwrap();
                        }
                    }
                    fs.check_consistency().expect("fsck");
                    // The snapshot view never changes.
                    for &(ino, p, expected) in &truth {
                        assert_eq!(snap_block(&fs, snap, ino, p), expected);
                        if let Some(b) = expected {
                            assert!(
                                fs.blocks().refcount_of(b).unwrap() >= 1,
                                "snapshot block freed under churn"
                            );
                        }
                    }
                }
                // Every live file reads back from the device, flushed
                // and dropped from the cache: each mapped block is read
                // and passes its checksum.
                for &ino in &files {
                    fs.fsync(ino, NORMAL, T0).unwrap();
                    fs.cache_mut().remove_file(ino);
                    let node = fs.inodes().get(ino).unwrap();
                    let (size, mapped) = (node.size_bytes, node.extents.mapped_pages());
                    let s = fs.read(ino, 0, size, NORMAL, T0).unwrap();
                    assert_eq!(s.blocks_read, mapped, "{ino}: read back");
                }
                // Deleting the files and the snapshot reclaims everything.
                for &ino in &files {
                    fs.delete_file(ino).unwrap();
                }
                fs.delete_snapshot(snap).unwrap();
                assert_eq!(fs.allocated_blocks(), 0, "space leak");
            }
        }
    }
}

#[test]
fn raw_read_bypasses_cache() {
    let mut fs = make_fs(1024, 64);
    fs.populate_file(fs.root(), "f", page_bytes(4)).unwrap();
    let s = fs.read_raw(BlockNr(0), 4, IDLE, T0).unwrap();
    assert_eq!(s.blocks_read, 4);
    assert_eq!(fs.cache().len(), 0);
    assert_eq!(fs.cache_mut().drain_events().len(), 0);
}

#[test]
fn latent_error_corrupts_written_block_and_surfaces_on_verify() {
    use sim_core::fault::{FaultHandle, FaultPlan, FaultSite};
    let mut fs = make_fs(1024, 64);
    let ino = fs.populate_file(fs.root(), "f", page_bytes(8)).unwrap();
    // Certain latent error on every write run: the dirtied pages land
    // corrupted when written back.
    let plan = FaultPlan::quiet().with_ppm(FaultSite::DiskLatentError, 1_000_000);
    let handle = FaultHandle::new(0x1A7E, plan);
    fs.set_faults(Some(handle.clone()));
    assert_eq!(fs.blocks().corrupted_count(), 0);
    fs.write(ino, 0, page_bytes(2), NORMAL, T0).unwrap();
    fs.fsync(ino, NORMAL, T0).unwrap();
    assert!(handle.fired(FaultSite::DiskLatentError) >= 1);
    assert!(fs.blocks().corrupted_count() >= 1, "bit rot must land");
    // The corruption is silent until something verifies the block; a
    // scrub-style sweep finds and repairs it.
    fs.set_faults(None);
    let corrupted: Vec<BlockNr> = (0..1024)
        .map(BlockNr)
        .filter(|&b| {
            matches!(
                fs.blocks().verify_checksum(b),
                Err(SimError::ChecksumMismatch(_))
            )
        })
        .collect();
    assert!(!corrupted.is_empty());
    for b in corrupted {
        assert!(fs.verify_and_repair(b).unwrap());
    }
    assert_eq!(fs.blocks().corrupted_count(), 0);
}

#[test]
fn quiet_plan_leaves_write_path_byte_identical() {
    // Arming a quiet plan must not perturb anything: same ops, same
    // final state, no fault stream draws recorded as fired.
    use sim_core::fault::{FaultHandle, FaultPlan, FaultSite};
    let run = |armed: bool| {
        let mut fs = make_fs(1024, 64);
        if armed {
            fs.set_faults(Some(FaultHandle::new(7, FaultPlan::quiet())));
        }
        let ino = fs.populate_file(fs.root(), "f", page_bytes(8)).unwrap();
        fs.write(ino, 0, page_bytes(4), NORMAL, T0).unwrap();
        fs.fsync(ino, NORMAL, T0).unwrap();
        let mut state: Vec<(u64, Option<BlockNr>)> = Vec::new();
        for p in 0..8 {
            state.push((
                p,
                fs.inodes().get(ino).unwrap().extents.block_of(PageIndex(p)),
            ));
        }
        state
    };
    assert_eq!(run(false), run(true));
    let mut fs = make_fs(64, 8);
    let handle = FaultHandle::new(7, FaultPlan::quiet());
    fs.set_faults(Some(handle.clone()));
    fs.populate_file(fs.root(), "g", page_bytes(2)).unwrap();
    assert_eq!(handle.fired(FaultSite::DiskLatentError), 0);
}
