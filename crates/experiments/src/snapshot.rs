//! Warm-start snapshots of the experiment setup prefix.
//!
//! Every Btrfs-model experiment starts the same way: build the disk and
//! filesystem, populate (or set up the workload over) the file set, age
//! the layout, optionally pre-fragment, then drain events and reset
//! device metrics. Sweeps like `table5_max_util` run dozens of cells
//! whose configurations differ only in knobs the prefix never reads —
//! target utilization, task list, Duet mode, scheduling policy — so the
//! prefix used to be rebuilt per cell for no reason, and dominated the
//! sweep's wall time.
//!
//! This module captures the prefix **once** per distinct [`SetupKey`]
//! (the setup-relevant slice of [`ExperimentConfig`]) in a per-thread
//! [`SnapshotStore`] and hands every subsequent cell a fork: a `Clone`,
//! independent by copy-on-write below `BlockTable` (a fork shares the
//! pristine's block-table chunks until it writes one) and by copy above.
//! Equivalence is not assumed, it is checked: [`PreparedStack`] and
//! every type under it (disk model, cache, filesystem trees, Duet,
//! workload RNG streams) derive `PartialEq`, and the tests in this
//! module pin fork ≡ fresh with `==`. End to end, the runner's tests
//! run the golden presets on the stack [`prepare`] builds — never
//! stored, never cloned — and demand the forked run's golden bytes.
//!
//! Two per-cell knobs are deliberately excluded from the prefix and
//! applied *after* the fork by the runner:
//!
//! - the throttle target (`WorkloadConfig::target_util`) — read only by
//!   the per-operation throttle, never during `Workload::setup`;
//! - the profiled busy-per-op seed (`Workload::seed_busy_per_op`) —
//!   writes only the throttle's estimate, which nothing in the prefix
//!   reads.

use crate::config::ExperimentConfig;
use crate::runner::build_disk;
use duet::Duet;
use sim_btrfs::BtrfsSim;
use sim_core::snapshot::SnapshotStore;
use sim_core::{SimError, SimResult, SimRng};
use std::cell::RefCell;
use workloads::{populate_fileset, Workload};

/// Pristine prefixes kept per thread. A sweep visits its distinct
/// prefixes in row-major order, so a handful of slots gives
/// near-perfect reuse while bounding resident filesystem images.
const STORE_CAP: usize = 4;

/// The setup-relevant slice of an [`ExperimentConfig`]: every field the
/// prefix reads, with the workload's `target_util` excluded (applied
/// post-fork). Floats are keyed by bit pattern so equality is exact.
/// Two configurations with equal keys build byte-identical prefixes.
#[derive(Debug, Clone, PartialEq, Eq)]
struct SetupKey {
    device: crate::config::DeviceKind,
    capacity_blocks: u64,
    cache_pages: usize,
    num_files: usize,
    mean_file_bytes: u64,
    sigma_bits: u64,
    workload: Option<WorkloadShape>,
    scatter_layout: bool,
    fragmentation: Option<(u64, u64)>,
    seed: u64,
}

/// Workload shape minus `target_util` (see [`SetupKey`]).
#[derive(Debug, Clone, PartialEq, Eq)]
struct WorkloadShape {
    personality: workloads::Personality,
    dist: workloads::DistKind,
    coverage_bits: u64,
    burst: u32,
    append_bytes: u64,
    seed: u64,
}

fn setup_key(cfg: &ExperimentConfig) -> SetupKey {
    SetupKey {
        device: cfg.device,
        capacity_blocks: cfg.capacity_blocks,
        cache_pages: cfg.cache_pages,
        num_files: cfg.fileset.num_files,
        mean_file_bytes: cfg.fileset.mean_file_bytes,
        sigma_bits: cfg.fileset.sigma.to_bits(),
        workload: cfg.workload.map(|w| WorkloadShape {
            personality: w.personality,
            dist: w.dist,
            coverage_bits: w.coverage.to_bits(),
            burst: w.burst,
            append_bytes: w.append_bytes,
            seed: w.seed,
        }),
        scatter_layout: cfg.scatter_layout,
        fragmentation: cfg.fragmentation.map(|(f, p)| (f.to_bits(), p)),
        seed: cfg.seed,
    }
}

/// The fully prepared stack at the snapshot point: populated and aged
/// filesystem, fresh framework, workload with its setup-time RNG
/// streams advanced. Tracing and fault handles are deliberately
/// disarmed here (the runner arms them per cell, after the fork), so a
/// clone shares no live trace or fault buffers with other forks (what
/// it does share, block-table chunks, is copied before it is written).
#[derive(Clone, PartialEq)]
pub struct PreparedStack {
    /// The populated, aged filesystem (metrics freshly reset).
    pub fs: BtrfsSim,
    /// A pristine framework instance (registration runs per cell).
    pub duet: Duet,
    /// The foreground workload, when the configuration has one.
    pub workload: Option<Workload>,
}

/// Builds the setup prefix from scratch: population (free of simulated
/// I/O), layout aging, pre-fragmentation, event drain, metric reset.
/// This is the single source of truth for the prefix — the runner
/// always goes through it, forked or fresh. A `fragmentation` whose
/// fraction is outside `[0, 1]` (or NaN), or whose piece count is 0, is
/// an error; a warm fork needs no check of its own, because its key
/// holds the same fraction bits and piece count as the build that
/// passed this one.
pub fn prepare(cfg: &ExperimentConfig) -> SimResult<PreparedStack> {
    if let Some((fraction, pieces)) = cfg.fragmentation {
        if !(0.0..=1.0).contains(&fraction) || pieces == 0 {
            return Err(SimError::InvalidArgument(format!(
                "fragmentation = ({fraction}, {pieces}): the fraction must lie in [0, 1] \
                 and the piece count must be positive"
            )));
        }
    }
    let disk = build_disk(cfg.device, cfg.capacity_blocks);
    let mut fs = BtrfsSim::new(sim_core::DeviceId(0), disk, cfg.cache_pages);
    let duet = Duet::with_defaults();

    // Population (free of simulated I/O).
    let workload = match cfg.workload {
        Some(wcfg) => Some(Workload::setup(&mut fs, wcfg, cfg.fileset)?),
        None => {
            populate_fileset(&mut fs, cfg.fileset, cfg.seed)?;
            None
        }
    };
    // Layout aging: relocate files in random order and split them into
    // ~256 KiB extents. Inode order no longer matches physical order,
    // and a logical (per-file) pass seeks every few extents — which is
    // why the paper's backup is about half as fast as the physically
    // sequential scrubber (§6.2). Scrubbing is unaffected: its scan
    // follows physical order regardless of extent ownership.
    if cfg.scatter_layout {
        let mut files = fs.inodes().files_by_inode();
        let mut rng = SimRng::new(cfg.seed.wrapping_add(0x5CA7));
        rng.shuffle(&mut files);
        for ino in files {
            let pages = fs.inodes().get(ino)?.size_pages();
            let pieces = (pages / 64).clamp(1, 4);
            fs.fragment_file(ino, pieces)?;
        }
    }
    // Pre-fragmentation for the defragmentation experiments.
    if let Some((fraction, pieces)) = cfg.fragmentation {
        let files = fs.inodes().files_by_inode();
        let mut rng = SimRng::new(cfg.seed.wrapping_add(0xF7A6));
        let k = (files.len() as f64 * fraction).round() as usize;
        let mut order: Vec<_> = files.clone();
        rng.shuffle(&mut order);
        for &ino in &order[..k] {
            fs.fragment_file(ino, pieces)?;
        }
    }
    fs.cache_mut().drain_events();
    fs.drain_fs_events();
    fs.disk_mut().reset_metrics();
    Ok(PreparedStack { fs, duet, workload })
}

thread_local! {
    /// One memo per sweep worker: the stack holds non-`Send` handles,
    /// and per-thread stores need no locking.
    static STORE: RefCell<SnapshotStore<SetupKey, PreparedStack>> =
        RefCell::new(SnapshotStore::with_capacity(STORE_CAP));
}

/// The prepared stack for `cfg`: a fork of this thread's pristine
/// snapshot when an identical prefix was already built, a fork of the
/// fresh (and now memoized) build otherwise.
pub fn obtain(cfg: &ExperimentConfig) -> SimResult<PreparedStack> {
    STORE.with(|s| {
        s.borrow_mut()
            .fork_or_build(setup_key(cfg), || prepare(cfg))
    })
}

/// `(hits, misses)` of this thread's snapshot store — forks served warm
/// vs prefixes built from scratch. For logging and tests.
pub fn warm_stats() -> (u64, u64) {
    STORE.with(|s| {
        let s = s.borrow();
        (s.hits(), s.misses())
    })
}

/// Drops this thread's resident snapshots (for memory-sensitive
/// callers and test isolation; counters are kept).
pub fn clear_store() {
    STORE.with(|s| s.borrow_mut().clear());
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TaskKind;
    use crate::presets::paper_scaled;
    use duet::{EventMask, TaskScope};
    use sim_cache::PageKey;
    use sim_core::{InodeNr, PageIndex, SimInstant, PAGE_SIZE};
    use sim_disk::IoClass;
    use workloads::{DistKind, Personality};

    fn cfg(util: f64) -> ExperimentConfig {
        paper_scaled(
            1024,
            Personality::WebServer,
            DistKind::Uniform,
            1.0,
            util,
            vec![TaskKind::Scrub],
            true,
        )
    }

    #[test]
    fn setup_key_ignores_target_util_tasks_and_duet() {
        let a = cfg(0.1);
        let mut b = cfg(0.9);
        b.tasks = vec![TaskKind::Backup, TaskKind::Defrag];
        b.duet = false;
        assert_eq!(setup_key(&a), setup_key(&b), "same prefix, one build");
        let mut c = cfg(0.1);
        c.seed += 1;
        assert_ne!(setup_key(&a), setup_key(&c), "seed changes the prefix");
    }

    /// A fraction above 1, a negative or NaN fraction and a zero piece
    /// count each fail naming the value, instead of being clamped to all
    /// files, saturated to none or fragmenting nothing.
    #[test]
    fn a_bad_fragmentation_is_rejected() {
        for (bad, shown) in [
            ((1.5, 5), "(1.5, 5)"),
            ((-0.1, 5), "(-0.1, 5)"),
            ((f64::NAN, 5), "(NaN, 5)"),
            ((0.1, 0), "(0.1, 0)"),
        ] {
            let mut c = cfg(0.5);
            c.fragmentation = Some(bad);
            match prepare(&c) {
                Err(SimError::InvalidArgument(why)) => assert!(why.contains(shown), "{why}"),
                Err(e) => panic!("{shown}: wrong error {e}"),
                Ok(_) => panic!("{shown} was accepted"),
            }
        }
        let mut c = cfg(0.5);
        c.fragmentation = Some((1.0, 1));
        assert!(prepare(&c).is_ok(), "the bounds themselves are valid");
    }

    #[test]
    fn fork_equals_fresh_build() {
        clear_store();
        // Pristine built at target 0.3, forked for a 0.6 cell.
        let warm = obtain(&cfg(0.3)).expect("build");
        let mut fork = obtain(&cfg(0.6)).expect("fork");
        if let Some(w) = fork.workload.as_mut() {
            w.set_target_util(0.6);
        }
        let fresh = prepare(&cfg(0.6)).expect("fresh");
        assert!(
            fork == fresh,
            "fork + retarget must be indistinguishable from a fresh build"
        );
        // And the pristine state was not tainted by handing out forks.
        let again = obtain(&cfg(0.3)).expect("fork again");
        assert!(warm == again);
        let (hits, misses) = warm_stats();
        assert!(hits >= 2, "hits {hits}");
        assert!(misses >= 1, "misses {misses}");
    }

    #[test]
    fn workload_free_prefix_forks_too() {
        clear_store();
        let mut c = cfg(0.5);
        c.workload = None;
        let a = obtain(&c).expect("build");
        let b = obtain(&c).expect("fork");
        assert!(a.workload.is_none());
        assert!(a == b);
        assert!(a == prepare(&c).expect("fresh"));
    }

    /// The fork tests cannot pass vacuously at any layer: exactly one
    /// mutation in the filesystem, the framework, the workload or the
    /// copy-on-write block table makes the stacks unequal.
    #[test]
    fn one_mutation_in_any_layer_breaks_equality() {
        let base = prepare(&cfg(0.5)).expect("fresh");
        assert!(base.clone() == base);

        let mut s = base.clone();
        let key = PageKey::new(InodeNr(1), PageIndex(0));
        s.fs.cache_mut().insert(key, None, false);
        assert!(s != base, "one cache insert");

        let mut s = base.clone();
        let device = sim_core::DeviceId(0);
        s.duet
            .register(TaskScope::Block { device }, EventMask::ADDED, &s.fs)
            .expect("register");
        assert!(s != base, "one registered session");

        let mut s = base.clone();
        let w = s.workload.as_mut().expect("the preset has a workload");
        w.run_op(&mut s.fs, SimInstant::EPOCH).expect("run_op");
        // Put the filesystem back: the workload alone must differ.
        s.fs = base.fs.clone();
        assert!(s != base, "one run_op");

        // One write into a forked stack lands in a block-table chunk
        // the pristine shares: the fork differs, and the pristine —
        // forked again — still equals a fresh build, so the write
        // copied the chunk instead of going through to it.
        clear_store();
        let mut s = obtain(&cfg(0.5)).expect("build");
        let ino = s.fs.inodes().files_by_inode()[0];
        s.fs.write(ino, 0, PAGE_SIZE, IoClass::Normal, SimInstant::EPOCH)
            .expect("write");
        assert!(s.fs.blocks() != base.fs.blocks(), "one write");
        assert!(obtain(&cfg(0.5)).expect("fork") == base, "written through");
    }
}
