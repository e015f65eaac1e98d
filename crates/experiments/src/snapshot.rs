//! Warm-start snapshots of the experiment setup prefix.
//!
//! Every Btrfs-model experiment starts the same way: build the disk and
//! filesystem, populate (or set up the workload over) the file set, age
//! the layout, optionally pre-fragment, then drain events and reset
//! device metrics. [`prepare`] is the only code that does this: the
//! runner's experiments, rsync's source stack and the §6.1.2
//! calibration pass all start from it. Sweeps like `table5_max_util`
//! run dozens of cells whose configurations differ only in knobs the
//! prefix never reads — target utilization, task list, Duet mode,
//! scheduling policy — so the prefix used to be rebuilt per cell for no
//! reason, and dominated the sweep's wall time.
//!
//! This module captures the prefix **once** per distinct key in a
//! per-thread [`SnapshotStore`] and hands every subsequent cell a fork:
//! a `Clone`, independent by copy-on-write below `BlockTable` (a fork
//! shares the pristine's block-table chunks until it writes one) and by
//! copy above. The key is the [`ExperimentConfig`] itself with the
//! fields the prefix never reads reset to constants, so a new config
//! field is compared by default: forgetting one costs sharing, never
//! correctness. [`obtain`] returns the stack for `cfg` — the workload's
//! `target_util`, the one post-fork field the stack holds, is applied
//! to the fork before it is handed out — so `obtain(cfg) ==
//! prepare(cfg)` holds for every `cfg`.
//!
//! Equivalence is not assumed, it is checked: [`PreparedStack`] and
//! every type under it (disk model, cache, filesystem trees, Duet,
//! workload RNG streams) derive `PartialEq`, and the tests in this
//! module pin fork ≡ fresh with `==`, for a change of each config field;
//! the few hand-written impls (the trace and fault handles, `Disk`)
//! exist where representation is not state, and destructure their type
//! exhaustively so a new field does not compile until it is named. End
//! to end, the runner's tests run the golden presets on the stack
//! [`prepare`] builds — never stored, never cloned — and demand the
//! forked run's golden bytes.
//!
//! The profiled busy-per-op seed (`Workload::seed_busy_per_op`) is the
//! one per-cell knob applied by the runner after [`obtain`]: it writes
//! only the throttle's estimate, which nothing in the prefix reads.

use crate::config::ExperimentConfig;
use crate::runner::build_disk;
use duet::Duet;
use sim_btrfs::BtrfsSim;
use sim_core::{SimDuration, SimError, SimResult, SimRng};
use sim_disk::SchedulerPolicy;
use std::cell::RefCell;
use workloads::{populate_fileset, Workload, WorkloadConfig};

/// Pristine prefixes kept per thread. A sweep visits its distinct
/// prefixes in row-major order, so a handful of slots gives
/// near-perfect reuse while bounding resident filesystem images.
const STORE_CAP: usize = 4;

/// The memo key of `cfg`'s prefix: the config with every field the
/// prefix never reads reset to a constant. Two configurations with equal
/// keys build equal prefixes up to `target_util`, which [`obtain`] sets
/// on the fork.
pub(crate) fn setup_key(cfg: &ExperimentConfig) -> ExperimentConfig {
    ExperimentConfig {
        workload: cfg.workload.map(|w| WorkloadConfig {
            target_util: 0.0,
            ..w
        }),
        tasks: Vec::new(),
        duet: false,
        policy: SchedulerPolicy::default_cfq(),
        duration: SimDuration::ZERO,
        poll_period: SimDuration::ZERO,
        defrag_file_granularity: false,
        informed_replacement: false,
        ..cfg.clone()
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
/// This is the single source of truth for the prefix — every Btrfs
/// stack is built here, forked or fresh. A `fragmentation` whose
/// fraction is outside `[0, 1]` (or NaN), or whose piece count is 0, is
/// an error; a warm fork needs no check of its own, because its key
/// holds a fraction and piece count equal to those of the build that
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

/// A bounded memo of pristine snapshots, FIFO-evicted. A hit hands out
/// a clone (the fork); the pristine copy is never handed out mutably,
/// so every fork starts from the same state.
#[derive(Debug)]
struct SnapshotStore<K, T> {
    /// Insertion-ordered (oldest first) pristine snapshots.
    entries: Vec<(K, T)>,
    cap: usize,
    hits: u64,
    misses: u64,
}

impl<K: PartialEq, T: Clone> SnapshotStore<K, T> {
    /// A store holding at most `cap` pristine snapshots (min 1).
    fn with_capacity(cap: usize) -> Self {
        SnapshotStore {
            entries: Vec::new(),
            cap: cap.max(1),
            hits: 0,
            misses: 0,
        }
    }

    /// Returns a fork of the snapshot for `key`, building (and
    /// memoizing) the pristine state with `build` on a miss. The
    /// returned value is always a fresh, independent clone — mutating
    /// it cannot affect later forks of the same key.
    fn fork_or_build<E>(&mut self, key: K, build: impl FnOnce() -> Result<T, E>) -> Result<T, E> {
        if let Some(i) = self.entries.iter().position(|(k, _)| *k == key) {
            self.hits += 1;
            return Ok(self.entries[i].1.clone());
        }
        let pristine = build()?;
        self.misses += 1;
        if self.entries.len() >= self.cap {
            self.entries.remove(0);
        }
        let fork = pristine.clone();
        self.entries.push((key, pristine));
        Ok(fork)
    }
}

thread_local! {
    /// One memo per sweep worker: the stack holds non-`Send` (`Rc`-based
    /// trace and fault) handles, and per-thread stores need no locking.
    static STORE: RefCell<SnapshotStore<ExperimentConfig, PreparedStack>> =
        RefCell::new(SnapshotStore::with_capacity(STORE_CAP));
}

/// The prepared stack for `cfg`, equal to [`prepare`]`(cfg)`: a fork of
/// this thread's pristine snapshot when a prefix with the same key was
/// already built, a fork of the fresh (and now memoized) build
/// otherwise.
pub fn obtain(cfg: &ExperimentConfig) -> SimResult<PreparedStack> {
    obtain_by(cfg, setup_key)
}

/// [`obtain`] with `key` naming the snapshot `cfg` may fork: the tests
/// hand it a wrong one to show that the key is checked.
fn obtain_by(
    cfg: &ExperimentConfig,
    key: fn(&ExperimentConfig) -> ExperimentConfig,
) -> SimResult<PreparedStack> {
    let mut stack = STORE.with(|s| s.borrow_mut().fork_or_build(key(cfg), || prepare(cfg)))?;
    if let (Some(w), Some(wcfg)) = (stack.workload.as_mut(), cfg.workload) {
        w.set_target_util(wcfg.target_util);
    }
    Ok(stack)
}

/// `(hits, misses)` of this thread's snapshot store — forks served warm
/// vs prefixes built from scratch. For logging and tests.
pub fn warm_stats() -> (u64, u64) {
    STORE.with(|s| {
        let s = s.borrow();
        (s.hits, s.misses)
    })
}

/// Drops this thread's resident snapshots (for memory-sensitive
/// callers and test isolation; counters are kept).
pub fn clear_store() {
    STORE.with(|s| s.borrow_mut().entries.clear());
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{DeviceKind, TaskKind};
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
    fn store_forks_are_independent_of_the_pristine_state() {
        let mut store: SnapshotStore<u32, Vec<u64>> = SnapshotStore::with_capacity(2);
        let built: Result<Vec<u64>, ()> = store.fork_or_build(7, || Ok(vec![1, 2, 3]));
        let mut fork = built.unwrap();
        fork.push(99); // Mutating a fork...
        let again: Vec<u64> = store.fork_or_build(7, || Err(())).unwrap();
        assert_eq!(again, vec![1, 2, 3], "...must not taint later forks");
        assert_eq!(store.hits, 1);
        assert_eq!(store.misses, 1);
    }

    #[test]
    fn store_evicts_fifo_at_capacity() {
        let mut store: SnapshotStore<u32, u32> = SnapshotStore::with_capacity(2);
        for k in 0..3u32 {
            assert_eq!(store.fork_or_build(k, || Ok::<_, ()>(k * 10)), Ok(k * 10));
        }
        assert_eq!(store.entries.len(), 2);
        // Key 0 was evicted: rebuilding it is a miss.
        let rebuilt: u32 = store.fork_or_build(0, || Ok::<_, ()>(42)).unwrap();
        assert_eq!(rebuilt, 42);
        assert_eq!(store.misses, 4);
        assert_eq!(store.hits, 0);
    }

    #[test]
    fn build_errors_propagate_and_memoize_nothing() {
        let mut store: SnapshotStore<u32, u32> = SnapshotStore::with_capacity(2);
        let err: Result<u32, &str> = store.fork_or_build(1, || Err("boom"));
        assert_eq!(err, Err("boom"));
        assert!(store.entries.is_empty());
        assert_eq!(store.misses, 0, "failed builds are not counted");
    }

    fn wl(c: &mut ExperimentConfig) -> &mut WorkloadConfig {
        c.workload.as_mut().expect("the preset has a workload")
    }

    /// The one-field changes of `cfg(0.5)` whose fork under `key` is not
    /// the stack `prepare` builds, or — for a field the prefix never
    /// reads — was not served from the warm snapshot. Each change starts
    /// from a store warmed with `cfg(0.5)` alone.
    fn wrong_forks(key: fn(&ExperimentConfig) -> ExperimentConfig) -> Vec<&'static str> {
        type Change = (&'static str, fn(&mut ExperimentConfig));
        let read: [Change; 16] = [
            ("device", |c| c.device = DeviceKind::Ssd),
            ("capacity_blocks", |c| c.capacity_blocks += 1 << 12),
            ("cache_pages", |c| c.cache_pages += 64),
            ("num_files", |c| c.fileset.num_files += 3),
            ("mean_file_bytes", |c| c.fileset.mean_file_bytes /= 2),
            ("sigma", |c| c.fileset.sigma = 0.3),
            ("no workload", |c| c.workload = None),
            ("personality", |c| {
                wl(c).personality = Personality::FileServer
            }),
            ("dist", |c| wl(c).dist = DistKind::MsTrace(0)),
            ("coverage", |c| wl(c).coverage = 0.5),
            ("burst", |c| wl(c).burst = 4),
            ("append_bytes", |c| wl(c).append_bytes *= 2),
            ("workload seed", |c| wl(c).seed += 1),
            ("scatter_layout", |c| c.scatter_layout = false),
            ("fragmentation", |c| c.fragmentation = Some((0.2, 3))),
            ("seed", |c| c.seed += 1),
        ];
        let post_fork: [Change; 8] = [
            ("tasks", |c| {
                c.tasks = vec![TaskKind::Backup, TaskKind::Defrag]
            }),
            ("duet", |c| c.duet = false),
            ("policy", |c| c.policy = SchedulerPolicy::NoPriority),
            ("duration", |c| c.duration = SimDuration::from_secs(3)),
            ("poll_period", |c| {
                c.poll_period = SimDuration::from_millis(5)
            }),
            ("defrag_file_granularity", |c| {
                c.defrag_file_granularity = true
            }),
            ("informed_replacement", |c| c.informed_replacement = true),
            ("target_util", |c| wl(c).target_util = 0.9),
        ];
        let changes = read.iter().map(|c| (c, false));
        let changes = changes.chain(post_fork.iter().map(|c| (c, true)));
        let mut wrong = Vec::new();
        for (&(field, change), must_hit) in changes {
            let mut changed = cfg(0.5);
            change(&mut changed);
            clear_store();
            obtain(&cfg(0.5)).expect("warm");
            let (hits, _) = warm_stats();
            let fork = obtain_by(&changed, key).expect("obtain");
            let hit = warm_stats().0 > hits;
            if fork != prepare(&changed).expect("fresh") || (must_hit && !hit) {
                wrong.push(field);
            }
        }
        wrong
    }

    /// A change of any field the prefix reads builds its own stack, and
    /// a change of any other field forks the warm one.
    #[test]
    fn every_config_field_forks_the_stack_prepare_builds() {
        assert_eq!(wrong_forks(setup_key), Vec::<&str>::new());
    }

    /// The check above can fail: a key that drops `scatter_layout` hands
    /// the unaged config the aged layout.
    #[test]
    fn a_key_without_the_layout_flag_is_caught() {
        let sabotaged = |c: &ExperimentConfig| ExperimentConfig {
            scatter_layout: true,
            ..setup_key(c)
        };
        assert_eq!(wrong_forks(sabotaged), ["scatter_layout"]);
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
        let fork = obtain(&cfg(0.6)).expect("fork");
        let fresh = prepare(&cfg(0.6)).expect("fresh");
        assert!(
            fork == fresh,
            "a fork must be indistinguishable from a fresh build"
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
    /// mutation in the filesystem, the framework, the workload, the
    /// copy-on-write block table or the namespace makes the stacks
    /// unequal.
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

        // One rename inside a forked stack changes a directory's name
        // table and nothing else of that directory: its inode alone must
        // already differ, and the pristine must not see the rename.
        let mut s = obtain(&cfg(0.5)).expect("fork");
        let ino = s.fs.inodes().files_by_inode()[0];
        let parent = s.fs.inodes().get(ino).expect("file").parent;
        s.fs.rename(ino, parent, "renamed").expect("rename");
        assert!(s != base, "one rename");
        let dir = |s: &PreparedStack| s.fs.inodes().get(parent).expect("dir").clone();
        assert!(dir(&s) != dir(&base), "one name-table entry");
        assert!(obtain(&cfg(0.5)).expect("fork") == base, "renamed through");
    }
}
