//! Layer kernels: fixed, seeded op streams against one layer's public
//! API, reported as host nanoseconds per operation.
//!
//! A traced run can only time what the runner calls directly. The page
//! cache and the disk model sit *beneath* a filesystem call, so their
//! cost is measured here in isolation and multiplied by the traced
//! run's counters into an `est_s` (see `runner::summarize_layers`). The
//! `sim-core` kernels repeat the op mixes of `bench micro`, so they are
//! comparable with `results/BENCH_baseline.json`.

use bench::harness::Stopwatch;
use bench::synthfs::{SynthFs, SYNTH_ROOT};
use duet::{Duet, DuetConfig, EventMask, ItemId, SessionId, TaskScope};
use sim_btrfs::BtrfsSim;
use sim_cache::{PageCache, PageEvent, PageKey, PageMeta};
use sim_core::{
    BlockNr, DMap, DOrdMap, DSet, DeviceId, InodeNr, PageIndex, SegmentNr, SimInstant, SimRng,
    Slab, SparseBitmap, PAGE_SIZE,
};
use sim_disk::{DeviceModel, Disk, HddModel, IoClass, IoKind, IoRequest, SsdModel};
use sim_f2fs::{F2fsSim, SegState};
use std::hint::black_box;

/// Timed samples per kernel (the median is reported), after one
/// untimed warm-up.
const SAMPLES: usize = 5;

/// One kernel's result.
pub struct Kernel {
    /// Per-layer metric name, e.g. `sim-cache.k_lookup_hit_ns`.
    pub metric: &'static str,
    /// Median cost of one operation, in the metric's unit.
    pub value: f64,
}

/// Runs `sample` — which sets up untimed and returns the nanoseconds
/// its timed part took — and reports the median cost of one of its
/// `ops` operations in units of `unit_ns` nanoseconds (1 for ns, 1e3
/// for µs, 1e6 for ms).
fn kernel(
    metric: &'static str,
    ops: u64,
    unit_ns: f64,
    mut sample: impl FnMut() -> u128,
) -> Kernel {
    sample();
    let mut ns: Vec<u128> = (0..SAMPLES).map(|_| sample()).collect();
    ns.sort_unstable();
    Kernel {
        metric,
        value: ns[SAMPLES / 2] as f64 / ops as f64 / unit_ns,
    }
}

/// Times `f` alone.
fn timed<R>(f: impl FnOnce() -> R) -> u128 {
    let sw = Stopwatch::start();
    black_box(f());
    sw.elapsed_ns()
}

/// Every kernel, lowest layer first.
pub fn run_all() -> Vec<Kernel> {
    let mut out = sim_core_kernels();
    out.extend(disk_kernels());
    out.extend(cache_kernels());
    out.extend(btrfs_kernels());
    out.extend(f2fs_kernels());
    out.extend(duet_kernels());
    out
}

// ----- sim-core: the `bench micro` op mixes --------------------------------

fn sim_core_kernels() -> Vec<Kernel> {
    const OPS: u64 = 200_000;
    vec![
        kernel("sim-core.k_dmap_ns", OPS, 1.0, || {
            timed(|| {
                let mut rng = SimRng::new(0xD0A7);
                let mut m: DMap<u64, u64> = DMap::new();
                let mut acc = 0u64;
                for i in 0..OPS {
                    let k = rng.gen_range(0, 4096);
                    match i % 4 {
                        0..=1 => {
                            m.insert(k, i);
                        }
                        2 => acc = acc.wrapping_add(m.get(&k).copied().unwrap_or(0)),
                        _ => {
                            m.remove(&k);
                        }
                    }
                }
                acc.wrapping_add(m.len() as u64)
            })
        }),
        kernel("sim-core.k_dset_ns", OPS, 1.0, || {
            timed(|| {
                let mut rng = SimRng::new(0x5E70);
                let mut s: DSet<u64> = DSet::new();
                let mut hits = 0u64;
                for i in 0..OPS {
                    let k = rng.gen_range(0, 4096);
                    match i % 4 {
                        0..=1 => {
                            s.insert(k);
                        }
                        2 => hits += u64::from(s.contains(&k)),
                        _ => {
                            s.remove(&k);
                        }
                    }
                }
                hits + s.len() as u64
            })
        }),
        kernel("sim-core.k_slab_ns", OPS, 1.0, || {
            timed(|| {
                let mut rng = SimRng::new(0x51AB);
                let mut slab: Slab<u64> = Slab::new();
                let mut live: Vec<u32> = Vec::new();
                let mut acc = 0u64;
                for i in 0..OPS {
                    if live.len() < 512 || rng.gen_range(0, 2) == 0 {
                        live.push(slab.insert(i));
                    } else {
                        let at = rng.gen_range(0, live.len() as u64) as usize;
                        acc = acc.wrapping_add(slab.remove(live.swap_remove(at)).unwrap_or(0));
                    }
                }
                acc.wrapping_add(slab.len() as u64)
            })
        }),
        kernel("sim-core.k_omap_ns", OPS, 1.0, || {
            timed(|| {
                let mut rng = SimRng::new(0x0DD1);
                let mut m: DOrdMap<u64, u64> = DOrdMap::new();
                let mut acc = 0u64;
                for i in 0..OPS {
                    let k = rng.gen_range(0, 4096);
                    match i % 8 {
                        0..=2 => {
                            m.insert(k, i);
                        }
                        3..=4 => {
                            if let Some((&fk, &fv)) = m.range(..=k).next_back() {
                                acc = acc.wrapping_add(fk ^ fv);
                            }
                        }
                        5 => {
                            for (&rk, _) in m.range(k..k + 64) {
                                acc = acc.wrapping_add(rk);
                            }
                        }
                        _ => {
                            m.remove(&k);
                        }
                    }
                }
                acc.wrapping_add(m.len() as u64)
            })
        }),
        kernel("sim-core.k_bitmap_ns", 4_000, 1.0, || {
            timed(|| {
                let mut rng = SimRng::new(0xB17A);
                let mut bm = SparseBitmap::new();
                let mut total = 0u64;
                for _ in 0..4_000 {
                    let start = rng.gen_range(0, 1 << 20);
                    let len = rng.gen_range(1, 4096);
                    bm.set_range(start, len);
                    if rng.gen_range(0, 2) == 0 {
                        bm.clear_range(start + len / 4, len / 2);
                    }
                    total = total.wrapping_add(bm.count());
                }
                total
            })
        }),
    ]
}

// ----- sim-disk -------------------------------------------------------------

const DISK_BLOCKS: u64 = 1 << 22; // 16 GiB
const DISK_OPS: u64 = 100_000;

/// Submits `DISK_OPS` reads back to back, each when the previous one
/// completes; `next` picks the start block.
fn disk_stream(
    model: Box<dyn DeviceModel>,
    nblocks: u64,
    mut next: impl FnMut(u64) -> u64,
) -> u128 {
    let mut disk = Disk::new(model);
    timed(|| {
        let mut now = SimInstant::EPOCH;
        for i in 0..DISK_OPS {
            let req = IoRequest::new(IoKind::Read, BlockNr(next(i)), nblocks, IoClass::Normal);
            now = disk.submit(&req, now);
        }
        now
    })
}

fn disk_kernels() -> Vec<Kernel> {
    let random = || {
        let mut rng = SimRng::new(0xD15C);
        move |_| rng.gen_range(0, DISK_BLOCKS - 8)
    };
    vec![
        kernel("sim-disk.k_hdd_rand_ns", DISK_OPS, 1.0, || {
            disk_stream(Box::new(HddModel::sas_10k(DISK_BLOCKS)), 8, random())
        }),
        kernel("sim-disk.k_hdd_seq_ns", DISK_OPS, 1.0, || {
            disk_stream(Box::new(HddModel::sas_10k(DISK_BLOCKS)), 32, |i| i * 32)
        }),
        kernel("sim-disk.k_ssd_ns", DISK_OPS, 1.0, || {
            disk_stream(Box::new(SsdModel::intel_510(DISK_BLOCKS)), 8, random())
        }),
    ]
}

// ----- sim-cache ------------------------------------------------------------

const CACHE_PAGES: u64 = 4096;
const CACHE_OPS: u64 = 200_000;

/// Empties the cache's event queue the way the runner's pump does
/// (take, hand the buffer back), without a framework behind it.
fn discard_events(cache: &mut PageCache) {
    let mut events = cache.take_events();
    events.clear();
    cache.put_back_events(events);
}

fn page(i: u64) -> PageKey {
    PageKey::new(InodeNr(2 + i / 64), PageIndex(i % 64))
}

/// A cache holding pages `0..CACHE_PAGES`, clean, events drained.
fn full_cache() -> PageCache {
    let mut c = PageCache::new(CACHE_PAGES as usize);
    for i in 0..CACHE_PAGES {
        c.insert(page(i), Some(BlockNr(i)), false);
    }
    discard_events(&mut c);
    c
}

fn cache_kernels() -> Vec<Kernel> {
    vec![
        // Every insert into the full cache evicts the LRU page: the
        // read-miss path's share of the cache.
        kernel("sim-cache.k_insert_evict_ns", CACHE_OPS, 1.0, || {
            let mut c = full_cache();
            let mut evicted = Vec::new();
            timed(|| {
                for i in CACHE_PAGES..CACHE_PAGES + CACHE_OPS {
                    evicted.clear();
                    c.insert_into(page(i), Some(BlockNr(i)), false, &mut evicted);
                    if i % 256 == 0 {
                        discard_events(&mut c);
                    }
                }
                c.stats().evictions
            })
        }),
        kernel("sim-cache.k_lookup_hit_ns", CACHE_OPS, 1.0, || {
            let mut c = full_cache();
            let mut rng = SimRng::new(0xCA11);
            timed(|| {
                let mut found = 0u64;
                for _ in 0..CACHE_OPS {
                    found += u64::from(c.lookup(page(rng.gen_range(0, CACHE_PAGES))).is_some());
                }
                assert_eq!(found, CACHE_OPS, "every lookup hits");
                found
            })
        }),
        // Dirty a resident page, and clean 64 at a time: the write
        // path's share of the cache.
        kernel("sim-cache.k_dirty_writeback_ns", CACHE_OPS, 1.0, || {
            let mut c = full_cache();
            let mut rng = SimRng::new(0xD127);
            timed(|| {
                let mut cleaned = 0usize;
                for i in 0..CACHE_OPS {
                    c.mark_dirty(page(rng.gen_range(0, CACHE_PAGES)));
                    if i % 64 == 63 {
                        cleaned += c.writeback_batch(64).len();
                        discard_events(&mut c);
                    }
                }
                cleaned
            })
        }),
    ]
}

// ----- sim-btrfs ------------------------------------------------------------

const FS_FILES: u64 = 256;
const FILE_PAGES: u64 = 64;
const FS_PAGES: u64 = FS_FILES * FILE_PAGES;

/// A Btrfs filesystem with `FS_FILES` files of `FILE_PAGES` pages on
/// disk and nothing cached.
fn btrfs_with_files(cache_pages: usize) -> (BtrfsSim, Vec<InodeNr>) {
    let disk = Disk::new(Box::new(HddModel::sas_10k(FS_PAGES * 8)));
    let mut fs = BtrfsSim::new(DeviceId(0), disk, cache_pages);
    let root = fs.root();
    let files = (0..FS_FILES)
        .map(|i| {
            fs.populate_file(root, &format!("k{i:04}"), FILE_PAGES * PAGE_SIZE)
                .expect("populate fits the device")
        })
        .collect();
    discard_events(fs.cache_mut());
    (fs, files)
}

/// Reads every file whole, once, discarding events per file as the
/// runner's pump would.
fn read_all(fs: &mut BtrfsSim, files: &[InodeNr]) -> SimInstant {
    let mut now = SimInstant::EPOCH;
    for &ino in files {
        now = fs
            .read(ino, 0, FILE_PAGES * PAGE_SIZE, IoClass::Normal, now)
            .expect("read of a populated file")
            .finish;
        discard_events(fs.cache_mut());
    }
    now
}

fn btrfs_kernels() -> Vec<Kernel> {
    vec![
        // Cache a sixteenth of the data: every page misses, is read
        // from the disk model and evicts another.
        kernel("sim-btrfs.k_read_miss_ns_page", FS_PAGES, 1.0, || {
            let (mut fs, files) = btrfs_with_files((FS_PAGES / 16) as usize);
            timed(|| read_all(&mut fs, &files))
        }),
        kernel("sim-btrfs.k_read_hit_ns_page", FS_PAGES, 1.0, || {
            let (mut fs, files) = btrfs_with_files(FS_PAGES as usize);
            read_all(&mut fs, &files);
            let hits_before = fs.cache().stats().hits;
            let ns = timed(|| read_all(&mut fs, &files));
            assert_eq!(fs.cache().stats().hits - hits_before, FS_PAGES, "all hits");
            ns
        }),
        // Overwrite every file whole (COW allocation, dirty insert) and
        // flush it.
        kernel("sim-btrfs.k_cow_write_ns_page", FS_PAGES, 1.0, || {
            let (mut fs, files) = btrfs_with_files((FS_PAGES / 16) as usize);
            timed(|| {
                let mut now = SimInstant::EPOCH;
                for &ino in &files {
                    now = fs
                        .write(ino, 0, FILE_PAGES * PAGE_SIZE, IoClass::Normal, now)
                        .expect("overwrite of a populated file")
                        .finish;
                    fs.background_writeback(FILE_PAGES as usize, IoClass::Normal, now)
                        .expect("writeback");
                    discard_events(fs.cache_mut());
                }
                now
            })
        }),
        // Deep clone of a populated filesystem with a warm cache: what
        // one snapshot fork costs per `FS_PAGES` pages of data.
        kernel("sim-btrfs.k_fork_ms", 1, 1e6, || {
            let (mut fs, files) = btrfs_with_files(FS_PAGES as usize);
            read_all(&mut fs, &files);
            timed(|| fs.clone())
        }),
    ]
}

// ----- sim-f2fs -------------------------------------------------------------

const SEG_BLOCKS: u64 = 512;
const F2FS_SEGS: u64 = 256;

/// An F2fs filesystem a quarter full of `FILE_PAGES`-page files.
fn f2fs_with_files() -> (F2fsSim, Vec<InodeNr>) {
    let disk = Disk::new(Box::new(HddModel::sas_10k(F2FS_SEGS * SEG_BLOCKS)));
    let mut fs = F2fsSim::new(DeviceId(1), disk, 4096, SEG_BLOCKS);
    let nfiles = F2FS_SEGS * SEG_BLOCKS / 4 / FILE_PAGES;
    let files = (0..nfiles)
        .map(|i| {
            fs.populate_file(&format!("k{i:04}"), FILE_PAGES * PAGE_SIZE)
                .expect("populate fits the device")
        })
        .collect();
    discard_events(fs.cache_mut());
    (fs, files)
}

/// Overwrites the first half of every file and flushes it to the log,
/// leaving every populated segment half valid.
fn overwrite_half(fs: &mut F2fsSim, files: &[InodeNr]) -> SimInstant {
    let mut now = SimInstant::EPOCH;
    for &ino in files {
        now = fs
            .write(ino, 0, FILE_PAGES / 2 * PAGE_SIZE, IoClass::Normal, now)
            .expect("overwrite of a populated file")
            .finish;
        fs.background_writeback(FILE_PAGES as usize, IoClass::Normal, now)
            .expect("writeback");
        discard_events(fs.cache_mut());
    }
    now
}

fn f2fs_kernels() -> Vec<Kernel> {
    let pages_written = F2FS_SEGS * SEG_BLOCKS / 4 / 2;
    const CLEANINGS: u64 = 32;
    vec![
        kernel("sim-f2fs.k_write_ns_page", pages_written, 1.0, || {
            let (mut fs, files) = f2fs_with_files();
            timed(|| overwrite_half(&mut fs, &files))
        }),
        // Clean the first `CLEANINGS` half-valid segments, flushing the
        // migrated blocks after each.
        kernel("sim-f2fs.k_clean_segment_us", CLEANINGS, 1e3, || {
            let (mut fs, files) = f2fs_with_files();
            let now = overwrite_half(&mut fs, &files);
            let victims: Vec<SegmentNr> = (0..fs.nsegs())
                .map(SegmentNr)
                .filter(|&s| fs.segment(s).state == SegState::Full && fs.segment(s).valid > 0)
                .take(CLEANINGS as usize)
                .collect();
            assert_eq!(
                victims.len() as u64,
                CLEANINGS,
                "enough half-valid segments"
            );
            timed(|| {
                for &seg in &victims {
                    fs.clean_segment(seg, IoClass::Idle, now).expect("clean");
                    fs.background_writeback(SEG_BLOCKS as usize, IoClass::Idle, now)
                        .expect("writeback");
                    discard_events(fs.cache_mut());
                }
            })
        }),
    ]
}

// ----- duet (crates/core): the fig9 SynthFs stream --------------------------

const DUET_FILES: u64 = 512;
const DUET_FILE_PAGES: u64 = 64;
const DUET_EVENTS: u64 = 240_000;

fn duet_with_session(mask: EventMask) -> (Duet, SessionId) {
    let mut duet = Duet::new(DuetConfig {
        max_sessions: 16,
        descriptor_limit: 1 << 20,
    });
    let sid = duet
        .register(
            TaskScope::File {
                registered_dir: SYNTH_ROOT,
            },
            mask,
            &SynthFs,
        )
        .expect("a free session slot");
    (duet, sid)
}

/// Delivers `DUET_EVENTS` page events — fig9's mix of adds, dirties and
/// removes over 512 files × 64 pages.
fn deliver_events(duet: &mut Duet) {
    let mut cursor = 0u64;
    for _ in 0..DUET_EVENTS {
        cursor = cursor
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let ino = InodeNr(2 + (cursor >> 33) % DUET_FILES);
        let idx = PageIndex((cursor >> 20) % DUET_FILE_PAGES);
        let meta = PageMeta {
            key: PageKey::new(ino, idx),
            block: Some(BlockNr((ino.raw() << 20) + idx.raw())),
            dirty: false,
        };
        let ev = match cursor % 4 {
            0 | 1 => PageEvent::Added,
            2 => PageEvent::Dirtied,
            _ => PageEvent::Removed,
        };
        duet.handle_page_event(meta, ev, &SynthFs);
    }
}

/// Fetches until the session has nothing pending; returns the items
/// fetched.
fn drain(duet: &mut Duet, sid: SessionId) -> u64 {
    let mut fetched = 0u64;
    loop {
        let n = duet.fetch(sid, 256, &SynthFs).expect("live session").len();
        fetched += n as u64;
        if n < 256 {
            return fetched;
        }
    }
}

fn duet_kernels() -> Vec<Kernel> {
    let event_mask = EventMask::ADDED | EventMask::REMOVED | EventMask::DIRTIED;
    let state_mask = EventMask::EXISTS | EventMask::MODIFIED;
    // The stream is fixed, so what it leaves pending is too: count it
    // once, untimed.
    let pending_items = {
        let (mut duet, sid) = duet_with_session(event_mask);
        deliver_events(&mut duet);
        drain(&mut duet, sid)
    };
    vec![
        kernel("duet.k_event_ns", DUET_EVENTS, 1.0, || {
            let (mut duet, _) = duet_with_session(event_mask);
            timed(|| deliver_events(&mut duet))
        }),
        kernel("duet.k_state_event_ns", DUET_EVENTS, 1.0, || {
            let (mut duet, _) = duet_with_session(state_mask);
            timed(|| deliver_events(&mut duet))
        }),
        // Drain everything the stream left pending, 256 items a call.
        kernel("duet.k_fetch_item_ns", pending_items, 1.0, || {
            let (mut duet, sid) = duet_with_session(event_mask);
            deliver_events(&mut duet);
            timed(|| drain(&mut duet, sid))
        }),
        // set_done on every file (marks its pending descriptors
        // reported), check_done, then unset_done.
        kernel("duet.k_done_ns", DUET_FILES * 3, 1.0, || {
            let (mut duet, sid) = duet_with_session(state_mask);
            deliver_events(&mut duet);
            timed(|| {
                let mut done = 0u64;
                for f in 0..DUET_FILES {
                    let item = ItemId::Inode(InodeNr(2 + f));
                    duet.set_done(sid, item).expect("live session");
                    done += u64::from(duet.check_done(sid, item).expect("live session"));
                    duet.unset_done(sid, item).expect("live session");
                }
                done
            })
        }),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_kernel_runs_and_reports_a_positive_cost_under_its_dictionary_name() {
        let kernels = run_all();
        let mut expected: Vec<&str> = crate::metrics::PER_LAYER
            .iter()
            .map(|m| m.name)
            .filter(|n| n.split('.').nth(1).is_some_and(|m| m.starts_with("k_")))
            .collect();
        let mut got: Vec<&str> = kernels.iter().map(|k| k.metric).collect();
        expected.sort_unstable();
        got.sort_unstable();
        assert_eq!(got, expected, "kernels and dictionary list the same names");
        for k in &kernels {
            assert!(
                k.value.is_finite() && k.value > 0.0,
                "{} = {}",
                k.metric,
                k.value
            );
        }
    }
}
