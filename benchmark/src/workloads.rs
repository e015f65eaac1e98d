//! The five named workloads: what each runs and why it exists.
//!
//! A workload is one input to one public entry point of the simulator.
//! The benchmark applies `--seed` here, to the configuration; the
//! simulator only ever sees the resulting config.

use experiments::{paper_scaled, ExperimentConfig, GcExperimentConfig, TaskKind};
use sim_core::SimDuration;
use sim_disk::SchedulerPolicy;
use sim_f2fs::VictimPolicy;
use workloads::{DistKind, FileSetConfig, Personality, WorkloadConfig};

/// Scale divisors (1/scale of the paper's 50 GB / 30 min setup). Chosen
/// so one cold round of any workload takes 1.2–3 s on the reference
/// 2-core VM and at least four rounds fit in `run_seconds`; 32 is also
/// the harnesses' default scale.
const FOREGROUND_SCALE: u64 = 32;
const MAINT_ONLY_SCALE: u64 = 16;
const GC_SCALE: u64 = 16;
const SWEEP_SCALE: u64 = 512;

/// What a workload hands to the simulator.
pub enum Input {
    /// `experiments::run_experiment`.
    Btrfs(ExperimentConfig),
    /// `experiments::run_gc_experiment`.
    Gc(GcExperimentConfig),
    /// A registered `bench::figs` sweep harness at `scale`; `shapes` are
    /// the set-up prefixes timed as its `setup_s`.
    Sweep {
        harness: &'static str,
        scale: u64,
        shapes: Vec<ExperimentConfig>,
    },
}

/// One named workload.
pub struct Workload {
    pub name: &'static str,
    /// Why the workload exists — which layers it is meant to load.
    pub why: &'static str,
    /// Builds the input for `seed`.
    pub input: fn(u64) -> Input,
}

/// Every workload, in the order rounds interleave them.
pub const ALL: &[Workload] = &[
    Workload {
        name: "read_hot_duet",
        why: "Webserver reads at 50% util with scrub+backup+defrag on Duet: page-event delivery, \
              fetch/poll and cache insert/evict carry the run; where duet core changes must show",
        input: |seed| {
            Input::Btrfs(three_tasks(
                FOREGROUND_SCALE,
                Personality::WebServer,
                0.5,
                true,
                seed,
            ))
        },
    },
    Workload {
        name: "write_cow_duet",
        why: "Fileserver 1:2 R:W on the same stack: COW allocation, extent/free-space maps, \
              writeback, Modified/Removed events; a read-path gain that costs writes shows here",
        input: |seed| {
            Input::Btrfs(three_tasks(
                FOREGROUND_SCALE,
                Personality::FileServer,
                0.5,
                true,
                seed,
            ))
        },
    },
    Workload {
        name: "maint_cold_base",
        why: "Bypass: no foreground, no Duet sessions; time is task step, btrfs raw reads/defrag, \
              cache miss path, HDD model. A duet/workloads change must not move it",
        input: |seed| {
            Input::Btrfs(three_tasks(
                MAINT_ONLY_SCALE,
                Personality::WebServer,
                0.0,
                false,
                seed,
            ))
        },
    },
    Workload {
        name: "f2fs_gc_write",
        why: "Table 6 config with Duet: the only workload on sim-f2fs and the GC task; \
              write-heavy, FLUSHED-event-heavy use of sim-cache and duet",
        input: |seed| Input::Gc(table6_duet(GC_SCALE, seed)),
    },
    Workload {
        name: "sweep_table5",
        why: "table5_max_util as users run it, 2 jobs: 54 bisection cells, completion probe, \
              profile memo, snapshot fork per probe, bench::pool; ignores --seed",
        input: |_seed| Input::Sweep {
            harness: "table5_max_util",
            scale: SWEEP_SCALE,
            shapes: table5_shapes(SWEEP_SCALE),
        },
    },
];

/// Looks a workload up by name.
pub fn find(name: &str) -> Option<&'static Workload> {
    ALL.iter().find(|w| w.name == name)
}

/// Scrub, backup and defrag over a 10 %-fragmented, aged filesystem;
/// `util == 0.0` means no foreground workload at all.
pub(crate) fn three_tasks(
    scale: u64,
    personality: Personality,
    util: f64,
    duet: bool,
    seed: u64,
) -> ExperimentConfig {
    let mut cfg = paper_scaled(
        scale,
        personality,
        DistKind::Uniform,
        1.0,
        util,
        vec![TaskKind::Scrub, TaskKind::Backup, TaskKind::Defrag],
        duet,
    );
    cfg.fragmentation = Some((0.1, 5));
    cfg.seed = seed;
    if let Some(w) = cfg.workload.as_mut() {
        w.seed = seed;
    }
    cfg
}

/// `bench::figs::table6_gc_cleaning`'s cell at 60 % utilization with
/// Duet on, written out literally (the harness keeps it private).
pub(crate) fn table6_duet(scale: u64, seed: u64) -> GcExperimentConfig {
    let seg_blocks = 512u64;
    let nsegs = ((48u64 << 30) / scale / (seg_blocks * sim_core::PAGE_SIZE)).max(64) as u32;
    let data_bytes = (24u64 << 30) / scale;
    GcExperimentConfig {
        nsegs,
        seg_blocks,
        cache_pages: (((2u64 << 30) / scale) / sim_core::PAGE_SIZE).max(512) as usize,
        fileset: FileSetConfig {
            num_files: (data_bytes / (256 * 1024)).max(16) as usize,
            mean_file_bytes: 256 * 1024,
            sigma: 0.4,
        },
        workload: WorkloadConfig {
            personality: Personality::FileServer,
            dist: DistKind::Uniform,
            coverage: 1.0,
            target_util: 0.6,
            burst: 8,
            append_bytes: 16 * 1024,
            seed,
        },
        duet: true,
        victim_policy: VictimPolicy::Greedy,
        gc_window: 4096.min(nsegs),
        gc_interval: SimDuration::from_millis(200),
        policy: SchedulerPolicy::default_cfq(),
        duration: SimDuration::from_secs((30 * 60) / scale),
        seed,
    }
}

/// The nine workload shapes of Table 5's rows. The sweep builds one
/// set-up prefix per shape (and a second, fragmented one for its defrag
/// columns) inside its timed call; building the nine once beforehand is
/// what `setup_s` reports for the sweep, so prefix cost shows as set-up
/// there too.
fn table5_shapes(scale: u64) -> Vec<ExperimentConfig> {
    use DistKind::{MsTrace, Uniform};
    use Personality::{FileServer, WebProxy, WebServer};
    [
        (WebServer, 0.25, Uniform),
        (WebServer, 0.50, Uniform),
        (WebServer, 0.75, Uniform),
        (WebServer, 1.0, Uniform),
        (WebServer, 1.0, MsTrace(0)),
        (WebProxy, 1.0, Uniform),
        (WebProxy, 1.0, MsTrace(0)),
        (FileServer, 1.0, Uniform),
        (FileServer, 1.0, MsTrace(0)),
    ]
    .into_iter()
    .map(|(personality, overlap, dist)| {
        paper_scaled(
            scale,
            personality,
            dist,
            overlap,
            0.5,
            vec![TaskKind::Scrub],
            true,
        )
    })
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_contract_safe_and_findable() {
        for (i, w) in ALL.iter().enumerate() {
            assert!(crate::cli::is_safe_name(w.name), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
            assert!(
                ALL[..i].iter().all(|o| o.name != w.name),
                "duplicate {}",
                w.name
            );
            assert!(find(w.name).is_some());
        }
        assert!(find("read_hot").is_none());
    }

    #[test]
    fn seed_reaches_both_rng_streams_and_the_bypass_has_no_workload() {
        let Input::Btrfs(hot) = (find("read_hot_duet").expect("known").input)(7) else {
            panic!("read_hot_duet is a Btrfs workload");
        };
        assert_eq!((hot.seed, hot.workload.map(|w| w.seed)), (7, Some(7)));
        assert!(hot.duet && hot.tasks.len() == 3 && hot.fragmentation == Some((0.1, 5)));
        let Input::Btrfs(cold) = (find("maint_cold_base").expect("known").input)(7) else {
            panic!("maint_cold_base is a Btrfs workload");
        };
        assert!(cold.workload.is_none() && !cold.duet && cold.seed == 7);
        let Input::Gc(gc) = (find("f2fs_gc_write").expect("known").input)(7) else {
            panic!("f2fs_gc_write is a GC workload");
        };
        assert_eq!((gc.seed, gc.workload.seed, gc.duet), (7, 7, true));
    }
}
