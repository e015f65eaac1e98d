//! Cross-crate integration tests: full storage stack + Duet + tasks +
//! workload, exercising the paper's core claims end to end.

use duet_repro::duet::{Duet, EventMask, ItemFlags, TaskScope};
use duet_repro::duet_tasks::{pump_btrfs, Backup, BtrfsCtx, BtrfsTask, Defrag, Scrubber, TaskMode};
use duet_repro::experiments::{
    paper_scaled, run_experiment, run_rsync_experiment, ExperimentConfig, TaskKind,
};
use duet_repro::sim_btrfs::BtrfsSim;
use duet_repro::sim_core::{DeviceId, SimInstant, PAGE_SIZE};
use duet_repro::sim_disk::{Disk, HddModel, IoClass};
use duet_repro::workloads::{DistKind, Personality};

const T0: SimInstant = SimInstant::EPOCH;

fn btrfs(cap: u64, cache: usize) -> BtrfsSim {
    BtrfsSim::new(
        DeviceId(0),
        Disk::new(Box::new(HddModel::sas_10k(cap))),
        cache,
    )
}

/// The paper's central safety claim: reordering maintenance work must
/// not change what gets done. A Duet scrubber must verify exactly the
/// blocks a baseline scrubber verifies (modulo blocks rewritten during
/// the run), and never *more* I/O.
#[test]
fn duet_scrubber_never_does_more_io_and_verifies_everything() {
    let mut fs = btrfs(1 << 16, 1024);
    for i in 0..16 {
        fs.populate_file(fs.root(), &format!("f{i}"), 64 * PAGE_SIZE)
            .unwrap();
    }
    let total_blocks = fs.allocated_blocks();
    let mut duet = Duet::with_defaults();
    let mut baseline = Scrubber::new(TaskMode::Baseline);
    // Baseline on an untouched twin.
    {
        let mut fs2 = btrfs(1 << 16, 1024);
        for i in 0..16 {
            fs2.populate_file(fs2.root(), &format!("f{i}"), 64 * PAGE_SIZE)
                .unwrap();
        }
        let mut d2 = Duet::with_defaults();
        baseline
            .start(BtrfsCtx {
                fs: &mut fs2,
                duet: &mut d2,
                now: T0,
            })
            .unwrap();
        loop {
            let r = baseline
                .step(BtrfsCtx {
                    fs: &mut fs2,
                    duet: &mut d2,
                    now: T0,
                })
                .unwrap();
            if r.complete {
                break;
            }
        }
    }
    // Duet run with a concurrent reader warming half the files.
    let mut task = Scrubber::new(TaskMode::Duet);
    task.start(BtrfsCtx {
        fs: &mut fs,
        duet: &mut duet,
        now: T0,
    })
    .unwrap();
    let files = fs.inodes().files_by_inode();
    for &f in &files[..8] {
        fs.read(f, 0, 64 * PAGE_SIZE, IoClass::Normal, T0).unwrap();
    }
    pump_btrfs(&mut fs, &mut duet);
    loop {
        let r = task
            .step(BtrfsCtx {
                fs: &mut fs,
                duet: &mut duet,
                now: T0,
            })
            .unwrap();
        pump_btrfs(&mut fs, &mut duet);
        if r.complete {
            break;
        }
    }
    let base_m = baseline.metrics();
    let duet_m = task.metrics();
    assert_eq!(base_m.done_units, total_blocks);
    assert_eq!(duet_m.done_units, total_blocks, "same guarantee");
    assert!(duet_m.blocks_read < base_m.blocks_read, "fewer reads");
    assert_eq!(
        duet_m.blocks_read + duet_m.saved_units,
        total_blocks,
        "every block either read by the scrubber or verified by the workload"
    );
}

/// Backup correctness under concurrent modification: the backup is of
/// the snapshot, so overwrites during the run must not leak new data
/// into it, and everything in the snapshot must be shipped.
#[test]
fn backup_ships_exactly_the_snapshot() {
    let mut fs = btrfs(1 << 16, 1024);
    for i in 0..8 {
        fs.populate_file(fs.root(), &format!("f{i}"), 32 * PAGE_SIZE)
            .unwrap();
    }
    let mut duet = Duet::with_defaults();
    let mut task = Backup::new(TaskMode::Duet);
    task.start(BtrfsCtx {
        fs: &mut fs,
        duet: &mut duet,
        now: T0,
    })
    .unwrap();
    let snap_pages = fs.snapshot(task.snapshot().unwrap()).unwrap().total_pages();
    // Concurrent churn: overwrite some files, read others.
    let files = fs.inodes().files_by_inode();
    fs.write(files[1], 0, 32 * PAGE_SIZE, IoClass::Normal, T0)
        .unwrap();
    fs.read(files[5], 0, 32 * PAGE_SIZE, IoClass::Normal, T0)
        .unwrap();
    pump_btrfs(&mut fs, &mut duet);
    loop {
        let r = task
            .step(BtrfsCtx {
                fs: &mut fs,
                duet: &mut duet,
                now: T0,
            })
            .unwrap();
        pump_btrfs(&mut fs, &mut duet);
        if r.complete {
            break;
        }
    }
    let m = task.metrics();
    assert_eq!(m.done_units, snap_pages, "whole snapshot shipped");
    assert_eq!(task.sent_bytes, snap_pages * PAGE_SIZE);
    // The warmed, still-shared file saved its reads.
    assert!(m.saved_units >= 32, "saved {}", m.saved_units);
}

/// Defragmentation must leave every file fully mapped and reduce total
/// fragmentation, regardless of processing order.
#[test]
fn defrag_preserves_data_layout_invariants() {
    let mut fs = btrfs(1 << 17, 2048);
    let mut inos = Vec::new();
    for i in 0..12 {
        let ino = fs
            .populate_file(fs.root(), &format!("f{i}"), 24 * PAGE_SIZE)
            .unwrap();
        fs.fragment_file(ino, 4).unwrap();
        inos.push(ino);
    }
    let before = fs.mean_extents_per_file();
    let mut duet = Duet::with_defaults();
    let mut task = Defrag::new(TaskMode::Duet);
    task.start(BtrfsCtx {
        fs: &mut fs,
        duet: &mut duet,
        now: T0,
    })
    .unwrap();
    // Warm a few files so the priority queue reorders work.
    for &f in &inos[6..9] {
        fs.read(f, 0, 24 * PAGE_SIZE, IoClass::Normal, T0).unwrap();
    }
    pump_btrfs(&mut fs, &mut duet);
    loop {
        let r = task
            .step(BtrfsCtx {
                fs: &mut fs,
                duet: &mut duet,
                now: T0,
            })
            .unwrap();
        pump_btrfs(&mut fs, &mut duet);
        if r.complete {
            break;
        }
    }
    assert!(fs.mean_extents_per_file() < before);
    for &ino in &inos {
        let node = fs.inodes().get(ino).unwrap();
        assert_eq!(node.extents.mapped_pages(), 24, "no pages lost");
        assert_eq!(node.extents.extent_count(), 1, "fully defragmented");
    }
    // Every block still readable (checksums intact after rewrite).
    for &ino in &inos {
        fs.read(ino, 0, 24 * PAGE_SIZE, IoClass::Idle, T0).unwrap();
    }
}

/// Framework-level invariant under a full experiment: Duet sessions on
/// the same data never increase a task's I/O relative to its baseline.
#[test]
fn duet_never_increases_maintenance_io() {
    for task in [TaskKind::Scrub, TaskKind::Backup] {
        let cfg = |duet: bool| {
            let mut c = paper_scaled(
                512,
                Personality::WebServer,
                DistKind::Uniform,
                1.0,
                0.4,
                vec![task],
                duet,
            );
            c.seed = 99;
            c
        };
        let base = run_experiment(&cfg(false)).unwrap();
        let duet = run_experiment(&cfg(true)).unwrap();
        // Same or more work done, with no more I/O.
        assert!(
            duet.work_completed() + 1e-9 >= base.work_completed(),
            "{task:?}: duet {:.3} vs base {:.3}",
            duet.work_completed(),
            base.work_completed()
        );
        if duet.work_completed() >= base.work_completed() {
            assert!(
                duet.maintenance_blocks <= base.maintenance_blocks,
                "{task:?}: duet {} blocks vs base {}",
                duet.maintenance_blocks,
                base.maintenance_blocks
            );
        }
    }
}

/// Rsync end-to-end: destination equals source (names and sizes) in
/// both modes, and Duet is at least as fast.
#[test]
fn rsync_mirrors_source_and_speeds_up() {
    let cfg = |duet: bool| ExperimentConfig {
        scatter_layout: false,
        ..paper_scaled(
            512,
            Personality::WebServer,
            DistKind::Uniform,
            1.0,
            1.0,
            vec![],
            duet,
        )
    };
    let base = run_rsync_experiment(&cfg(false)).unwrap();
    let duet = run_rsync_experiment(&cfg(true)).unwrap();
    assert_eq!(base.metrics.done_units, base.metrics.total_units);
    assert_eq!(duet.metrics.done_units, duet.metrics.total_units);
    assert!(
        duet.completion <= base.completion,
        "duet {} vs base {}",
        duet.completion,
        base.completion
    );
}

/// Event-delivery sanity across the whole stack: every notification a
/// registered session receives refers to a page that was genuinely
/// touched, and sessions with disjoint masks see disjoint flag sets.
#[test]
fn notifications_reflect_real_activity() {
    let mut fs = btrfs(1 << 15, 512);
    let a = fs.populate_file(fs.root(), "a", 8 * PAGE_SIZE).unwrap();
    let b = fs.populate_file(fs.root(), "b", 8 * PAGE_SIZE).unwrap();
    let mut duet = Duet::with_defaults();
    let exists_sid = duet
        .register(
            TaskScope::File {
                registered_dir: fs.root(),
            },
            EventMask::EXISTS,
            &fs,
        )
        .unwrap();
    let dirty_sid = duet
        .register(
            TaskScope::File {
                registered_dir: fs.root(),
            },
            EventMask::DIRTIED,
            &fs,
        )
        .unwrap();
    fs.read(a, 0, 8 * PAGE_SIZE, IoClass::Normal, T0).unwrap();
    fs.write(b, 0, 4 * PAGE_SIZE, IoClass::Normal, T0).unwrap();
    pump_btrfs(&mut fs, &mut duet);
    let exists_items = duet.fetch(exists_sid, 64, &fs).unwrap();
    let dirty_items = duet.fetch(dirty_sid, 64, &fs).unwrap();
    // The EXISTS session sees both files' pages entering the cache.
    assert_eq!(exists_items.len(), 12);
    assert!(exists_items
        .iter()
        .all(|i| i.flags.contains(ItemFlags::EXISTS)));
    // The DIRTIED session sees only b's written pages.
    assert_eq!(dirty_items.len(), 4);
    assert!(dirty_items
        .iter()
        .all(|i| i.id.as_inode() == Some(b) && i.flags.contains(ItemFlags::DIRTIED)));
}
