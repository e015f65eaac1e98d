//! Random churn across the full stack: randomized operation sequences
//! must preserve the storage invariants the maintenance tasks rely on.
//!
//! Seeded like the differential suites: the base seed is
//! `DUET_CHECK_SEED` (in-code default 0), case `i` runs at base + `i`,
//! and a failure names its case seed.

use duet_repro::duet::{Duet, EventMask, TaskScope};
use duet_repro::duet_tasks::pump_btrfs;
use duet_repro::sim_btrfs::BtrfsSim;
use duet_repro::sim_core::knobs::Knob;
use duet_repro::sim_core::{DeviceId, InodeNr, SegmentNr, SimInstant, SimRng, PAGE_SIZE};
use duet_repro::sim_disk::{Disk, HddModel, IoClass};
use duet_repro::sim_f2fs::{F2fsSim, SegState};

const T0: SimInstant = SimInstant::EPOCH;
/// Cases per test.
const CASES: u64 = 5;

/// Runs `churn` at each case seed; a failure names the seed to replay.
fn for_each_case(churn: fn(u64) -> Result<(), String>) -> Result<(), String> {
    let base = Knob::CheckSeed.read()?.unwrap_or(0);
    (0..CASES).try_for_each(|case| {
        let seed = base.wrapping_add(case);
        churn(seed).map_err(|why| {
            format!("case seed {seed:#x} (replay: DUET_CHECK_SEED={seed:#x}): {why}")
        })
    })
}

/// Btrfs under random churn (reads, overwrites, appends, delete and
/// re-create, writeback), with Duet watching: fsck and `allocated ==
/// mapped` hold after every op, and every live file reads back.
#[test]
fn btrfs_random_churn_preserves_invariants() {
    if let Err(why) = for_each_case(btrfs_churn) {
        panic!("{why}");
    }
}

fn btrfs_churn(seed: u64) -> Result<(), String> {
    let mut rng = SimRng::new(seed);
    let disk = Disk::new(Box::new(HddModel::sas_10k(1 << 15)));
    let mut fs = BtrfsSim::new(DeviceId(0), disk, 256);
    let mut duet = Duet::with_defaults();
    let mut files = (0..8)
        .map(|i| fs.populate_file(fs.root(), &format!("f{i}"), 8 * PAGE_SIZE))
        .collect::<Result<Vec<InodeNr>, _>>()
        .map_err(|e| format!("populate: {e}"))?;
    duet.register(
        TaskScope::File {
            registered_dir: fs.root(),
        },
        EventMask::EXISTS | EventMask::MODIFIED,
        &fs,
    )
    .map_err(|e| format!("register: {e}"))?;
    let mut created = 8u64;
    for op in 0..300 {
        let kind = rng.gen_range(0, 100);
        let idx = rng.gen_range(0, files.len() as u64) as usize;
        let ino = files[idx];
        let done = match kind {
            0..=39 => {
                let size = fs.inodes().get(ino).map(|n| n.size_bytes).unwrap_or(0);
                if size > 0 {
                    fs.read(ino, 0, size, IoClass::Normal, T0).map(drop)
                } else {
                    Ok(())
                }
            }
            40..=69 => {
                let page = rng.gen_range(0, 8);
                fs.write(ino, page * PAGE_SIZE, PAGE_SIZE, IoClass::Normal, T0)
                    .map(drop)
            }
            70..=79 => fs.append(ino, PAGE_SIZE, IoClass::Normal, T0).map(drop),
            80..=89 => {
                // A new file takes its place, so allocation reuses the
                // space the delete freed.
                created += 1;
                fs.delete_file(ino).and_then(|()| {
                    files[idx] =
                        fs.populate_file(fs.root(), &format!("n{created}"), 4 * PAGE_SIZE)?;
                    Ok(())
                })
            }
            _ => fs.background_writeback(64, IoClass::Normal, T0).map(drop),
        };
        pump_btrfs(&mut fs, &mut duet);
        done.and_then(|()| fs.check_consistency())
            .map_err(|e| format!("op {op} ({kind}): {e}"))?;
        let mapped: u64 = files
            .iter()
            .filter_map(|&f| fs.inodes().get(f).ok())
            .map(|n| n.extents.mapped_pages())
            .sum();
        if fs.allocated_blocks() != mapped {
            return Err(format!(
                "op {op} ({kind}): allocation leak: {} allocated, {mapped} mapped",
                fs.allocated_blocks()
            ));
        }
    }
    // Everything still readable with intact checksums.
    for &f in &files {
        let size = fs.inodes().get(f).map_err(|e| e.to_string())?.size_bytes;
        fs.read(f, 0, size, IoClass::Normal, T0)
            .map_err(|e| format!("read-back of {f}: {e}"))?;
    }
    Ok(())
}

/// F2fs under random churn (overwrites, reads, writeback, cleaning the
/// emptiest full segment): fsck after every op gives every mapped page
/// exactly one valid block (so valid blocks == mapped pages), and after
/// a final flush every page reads back: cleaning never loses data.
#[test]
fn f2fs_random_churn_and_cleaning_preserves_data() {
    if let Err(why) = for_each_case(f2fs_churn) {
        panic!("{why}");
    }
}

/// Pages per F2fs churn file.
const F2FS_PAGES: u64 = 16;

fn f2fs_churn(seed: u64) -> Result<(), String> {
    let mut rng = SimRng::new(seed);
    let disk = Disk::new(Box::new(HddModel::sas_10k(32 * 64)));
    let mut fs = F2fsSim::new(DeviceId(1), disk, 128, 64);
    let files = (0..6)
        .map(|i| fs.populate_file(&format!("f{i}"), F2FS_PAGES * PAGE_SIZE))
        .collect::<Result<Vec<InodeNr>, _>>()
        .map_err(|e| format!("populate: {e}"))?;
    for op in 0..200 {
        let kind = rng.gen_range(0, 100);
        let ino = files[rng.gen_range(0, files.len() as u64) as usize];
        let done = match kind {
            0..=49 => {
                let page = rng.gen_range(0, F2FS_PAGES);
                fs.write(ino, page * PAGE_SIZE, PAGE_SIZE, IoClass::Normal, T0)
                    .map(drop)
            }
            50..=69 => fs
                .read(ino, 0, F2FS_PAGES * PAGE_SIZE, IoClass::Normal, T0)
                .map(drop),
            70..=89 => fs.background_writeback(64, IoClass::Normal, T0).map(drop),
            _ => {
                let victim = (0..fs.nsegs())
                    .map(SegmentNr)
                    .filter(|&s| fs.segment(s).state == SegState::Full && fs.segment(s).valid > 0)
                    .min_by_key(|&s| fs.segment(s).valid);
                match victim {
                    Some(v) => fs.clean_segment(v, IoClass::Idle, T0).map(drop),
                    None => Ok(()),
                }
            }
        };
        done.and_then(|()| fs.check_consistency())
            .map_err(|e| format!("op {op} ({kind}): {e}"))?;
    }
    while fs.dirty_pages() > 0 {
        fs.background_writeback(256, IoClass::Normal, T0)
            .map_err(|e| format!("final flush: {e}"))?;
    }
    for &f in &files {
        let s = fs
            .read(f, 0, F2FS_PAGES * PAGE_SIZE, IoClass::Normal, T0)
            .map_err(|e| format!("read-back of {f}: {e}"))?;
        if s.blocks_read + s.cache_hits != F2FS_PAGES {
            return Err(format!(
                "{f}: {} of {F2FS_PAGES} pages read back",
                s.blocks_read + s.cache_hits
            ));
        }
    }
    Ok(())
}
