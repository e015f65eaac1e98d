//! End-to-end tests of the experiment runner at small scale.

use crate::config::{DeviceKind, ExperimentConfig, TaskKind};
use crate::metrics::max_utilization;
use crate::presets::paper_scaled;
use crate::runner::{
    run_experiment, run_gc_experiment, run_prepared, run_rsync_experiment, run_until,
    GcExperimentConfig, RunOptions,
};
use sim_core::{SimDuration, SimError};
use sim_disk::SchedulerPolicy;
use sim_f2fs::VictimPolicy;
use workloads::{DistKind, FileSetConfig, Personality, WorkloadConfig};

/// A small configuration: ~32 MB of data, 2 MB cache, 20 s window.
fn small_cfg(tasks: Vec<TaskKind>, duet: bool, util: f64) -> ExperimentConfig {
    ExperimentConfig {
        device: DeviceKind::Hdd,
        capacity_blocks: 1 << 16, // 256 MiB
        cache_pages: 512,         // 2 MiB
        fileset: FileSetConfig {
            num_files: 256,
            mean_file_bytes: 128 * 1024,
            sigma: 0.4,
        },
        workload: (util > 0.0).then_some(WorkloadConfig {
            personality: Personality::WebServer,
            dist: DistKind::Uniform,
            coverage: 1.0,
            target_util: util,
            burst: 8,
            append_bytes: 16 * 1024,
            seed: 7,
        }),
        tasks,
        duet,
        policy: SchedulerPolicy::default_cfq(),
        duration: SimDuration::from_secs(20),
        fragmentation: None,
        poll_period: SimDuration::from_millis(20),
        defrag_file_granularity: false,
        informed_replacement: false,
        scatter_layout: true,
        seed: 7,
    }
}

#[test]
fn idle_device_scrub_completes_with_no_savings() {
    let r = run_experiment(&small_cfg(vec![TaskKind::Scrub], false, 0.0)).unwrap();
    assert!(r.all_completed(), "scrub on an idle device must finish");
    assert_eq!(r.io_saved(), 0.0, "baseline saves nothing");
    assert_eq!(r.work_completed(), 1.0);
    assert!(r.maintenance_blocks > 0);
    assert_eq!(r.foreground_blocks, 0);
    assert_eq!(r.workload_ops, 0);
}

/// Under a workload, Duet saves maintenance I/O and never costs any:
/// it completes at least the baseline's work, and when it does, it
/// reads no more maintenance blocks (fewer, when both finish).
#[test]
fn duet_under_workload_saves_maintenance_io() {
    for task in [TaskKind::Scrub, TaskKind::Backup] {
        let base = run_experiment(&small_cfg(vec![task], false, 0.4)).unwrap();
        let duet = run_experiment(&small_cfg(vec![task], true, 0.4)).unwrap();
        let (b, d) = (base.work_completed(), duet.work_completed());
        assert!(
            duet.io_saved() > base.io_saved() + 0.05,
            "{task:?}: saved {:.3} vs {:.3}",
            duet.io_saved(),
            base.io_saved()
        );
        // The baseline scrubber reads every block itself (the baseline
        // backup's cache hits count as saved).
        if task == TaskKind::Scrub {
            assert_eq!(base.io_saved(), 0.0);
        }
        assert!(d + 1e-9 >= b, "{task:?}: duet work {d:.3} vs base {b:.3}");
        if d >= b {
            assert!(
                duet.maintenance_blocks <= base.maintenance_blocks,
                "{task:?}: duet {} blocks vs base {}",
                duet.maintenance_blocks,
                base.maintenance_blocks
            );
        }
        if base.all_completed() && duet.all_completed() {
            assert!(
                duet.maintenance_blocks < base.maintenance_blocks,
                "{task:?}: duet {} blocks vs base {}",
                duet.maintenance_blocks,
                base.maintenance_blocks
            );
        }
        // Utilization throttle roughly hit its target.
        assert!(
            (0.25..0.55).contains(&duet.achieved_util),
            "{task:?}: util {:.3}",
            duet.achieved_util
        );
    }
}

#[test]
fn scrub_and_backup_collaborate_without_workload() {
    // §6.3: "even when Filebench is not run (0% utilization), Duet
    // reduces the total I/O needed to complete maintenance work by at
    // least 50%" — one pass over the data serves both tasks.
    let r = run_experiment(&small_cfg(
        vec![TaskKind::Scrub, TaskKind::Backup],
        true,
        0.0,
    ))
    .unwrap();
    assert!(r.all_completed());
    assert!(
        r.io_saved() > 0.40,
        "cross-task synergy saved only {:.3}",
        r.io_saved()
    );
    let base = run_experiment(&small_cfg(
        vec![TaskKind::Scrub, TaskKind::Backup],
        false,
        0.0,
    ))
    .unwrap();
    assert!(base.all_completed());
    assert!(
        r.maintenance_blocks < base.maintenance_blocks * 3 / 4,
        "duet {} vs base {}",
        r.maintenance_blocks,
        base.maintenance_blocks
    );
}

#[test]
fn defrag_runs_on_fragmented_fs() {
    let mut cfg = small_cfg(vec![TaskKind::Defrag], true, 0.0);
    cfg.fragmentation = Some((0.1, 5));
    let r = run_experiment(&cfg).unwrap();
    assert!(r.all_completed());
    assert!(
        r.tasks[0].metrics.total_units > 0,
        "some files were fragmented"
    );
    assert!(r.maintenance_blocks > 0);
}

#[test]
fn higher_utilization_slows_maintenance() {
    let lo = run_experiment(&small_cfg(vec![TaskKind::Backup], false, 0.2)).unwrap();
    let hi = run_experiment(&small_cfg(vec![TaskKind::Backup], false, 0.8)).unwrap();
    assert!(
        hi.work_completed() <= lo.work_completed() + 1e-9,
        "hi {:.3} vs lo {:.3}",
        hi.work_completed(),
        lo.work_completed()
    );
}

#[test]
fn max_utilization_improves_with_duet() {
    let max = |duet: bool| {
        let cfg = small_cfg(vec![TaskKind::Backup], duet, 0.5);
        max_utilization(&cfg, &RunOptions::default()).unwrap()
    };
    let (base, base_ops) = max(false);
    let (duet, duet_ops) = max(true);
    let b = base.expect("baseline completes on an idle device");
    let d = duet.expect("duet completes on an idle device");
    assert!(d >= b, "duet max util {d} < baseline {b}");
    assert!(base_ops > 0 && duet_ops > 0, "the probes ran the workload");
}

/// Maximum utilization varies the workload's target: a config without
/// a workload has none to vary.
#[test]
fn max_utilization_needs_a_workload() {
    let cfg = small_cfg(vec![TaskKind::Backup], true, 0.0);
    match max_utilization(&cfg, &RunOptions::default()) {
        Err(SimError::InvalidArgument(why)) => assert!(why.contains("workload"), "{why}"),
        other => panic!("expected a rejection, got {other:?}"),
    }
}

/// A malformed file set or workload is an `InvalidArgument` from the
/// run, whichever part of setup reads it, never a panic.
#[test]
fn malformed_workload_and_file_set_configs_are_errors() {
    type Malform = fn(&mut ExperimentConfig);
    fn util(c: &mut ExperimentConfig, u: f64) {
        c.workload.as_mut().unwrap().target_util = u;
    }
    let cases: [(&str, Malform); 14] = [
        ("coverage 0", |c| {
            c.workload.as_mut().unwrap().coverage = 0.0
        }),
        ("coverage NaN", |c| {
            c.workload.as_mut().unwrap().coverage = f64::NAN
        }),
        ("no files", |c| c.fileset.num_files = 0),
        ("no files, no workload", |c| {
            c.fileset.num_files = 0;
            c.workload = None;
        }),
        ("empty files", |c| c.fileset.mean_file_bytes = 0),
        ("empty appends", |c| {
            c.workload.as_mut().unwrap().append_bytes = 0
        }),
        ("target_util NaN", |c| util(c, f64::NAN)),
        ("target_util 0", |c| util(c, 0.0)),
        ("target_util -0.5", |c| util(c, -0.5)),
        ("target_util inf", |c| util(c, f64::INFINITY)),
        ("target_util 7", |c| util(c, 7.0)),
        ("sigma NaN", |c| c.fileset.sigma = f64::NAN),
        ("sigma inf", |c| c.fileset.sigma = f64::INFINITY),
        ("sigma -0.5", |c| c.fileset.sigma = -0.5),
    ];
    for (what, malform) in cases {
        let mut cfg = small_cfg(vec![TaskKind::Scrub], true, 0.5);
        malform(&mut cfg);
        match run_experiment(&cfg) {
            Err(SimError::InvalidArgument(_)) => {}
            other => panic!("{what}: expected InvalidArgument, got {other:?}"),
        }
    }
    let mut gc = small_gc_cfg(true);
    gc.workload.target_util = f64::NAN;
    match run_gc_experiment(&gc) {
        Err(SimError::InvalidArgument(_)) => {}
        other => panic!("GC target_util NaN: expected InvalidArgument, got {other:?}"),
    }
}

/// A page's block address is a `u32` with the all-ones value reserved,
/// so a GC device of 2³² − 1 blocks or more (or none) is refused before
/// anything is built — no row here allocates its device.
#[test]
fn a_gc_device_f2fs_cannot_address_is_an_error() {
    for (nsegs, seg_blocks) in [
        (65_537, 65_535),
        (1 << 16, 1 << 16),
        (u32::MAX, u64::MAX),
        (0, 256),
        (256, 0),
    ] {
        let cfg = GcExperimentConfig {
            nsegs,
            seg_blocks,
            ..small_gc_cfg(true)
        };
        match run_gc_experiment(&cfg) {
            Err(SimError::InvalidArgument(why)) => assert!(why.contains("F2fs device"), "{why}"),
            other => panic!("{nsegs} × {seg_blocks}: expected InvalidArgument, got {other:?}"),
        }
    }
}

/// [`small_cfg`]'s rsync transfer, unaged, with Duet or without.
fn rsync_cfg(duet: bool) -> ExperimentConfig {
    ExperimentConfig {
        scatter_layout: false,
        duration: SimDuration::from_secs(60),
        ..small_cfg(vec![], duet, 1.0)
    }
}

#[test]
fn rsync_duet_speeds_up_transfer() {
    let base = run_rsync_experiment(&rsync_cfg(false)).unwrap();
    let duet = run_rsync_experiment(&rsync_cfg(true)).unwrap();
    assert_eq!(base.metrics.done_units, base.metrics.total_units);
    assert_eq!(duet.metrics.done_units, duet.metrics.total_units);
    let s = crate::metrics::speedup(base.completion, duet.completion);
    assert!(s >= 1.0, "speedup {s:.2}");
    assert!(duet.metrics.saved_units >= base.metrics.saved_units);
}

/// A transfer cut off by the `20 × duration` safety cap is an error,
/// not a completion time a speedup could be computed from.
#[test]
fn rsync_cut_off_by_the_safety_cap_is_an_error() {
    for duet in [false, true] {
        let cfg = ExperimentConfig {
            duration: SimDuration::from_millis(1),
            ..rsync_cfg(duet)
        };
        match run_rsync_experiment(&cfg) {
            Err(sim_core::SimError::InvalidArgument(why)) => {
                assert!(why.contains("safety cap of 20 × duration"), "{why}")
            }
            other => panic!("expected the cap error, got {other:?}"),
        }
    }
}

/// rsync's source is the stack its config describes: an aged layout
/// (files split and scattered) makes the baseline's per-file reads seek,
/// so the transfer takes longer than on the unaged one.
#[test]
fn rsync_honours_its_layout() {
    let completion = |scatter_layout: bool| {
        let cfg = ExperimentConfig {
            scatter_layout,
            ..paper_scaled(
                512,
                Personality::WebServer,
                DistKind::Uniform,
                0.25,
                1.0,
                vec![],
                false,
            )
        };
        run_rsync_experiment(&cfg).unwrap().completion
    };
    let (unaged, aged) = (completion(false), completion(true));
    assert!(aged > unaged, "aged {aged} vs unaged {unaged}");
}

#[test]
fn ssd_experiment_runs() {
    let mut cfg = small_cfg(vec![TaskKind::Scrub], true, 0.4);
    cfg.device = DeviceKind::Ssd;
    let r = run_experiment(&cfg).unwrap();
    assert!(r.work_completed() > 0.9);
}

/// A small Table 6 configuration: a 256 MiB device of 1 MiB segments.
fn small_gc_cfg(duet: bool) -> GcExperimentConfig {
    GcExperimentConfig {
        nsegs: 256,
        seg_blocks: 256, // 1 MiB segments
        cache_pages: 2048,
        fileset: FileSetConfig {
            num_files: 128,
            mean_file_bytes: 256 * 1024,
            sigma: 0.3,
        },
        workload: WorkloadConfig {
            personality: Personality::FileServer,
            dist: DistKind::Uniform,
            coverage: 1.0,
            target_util: 0.5,
            burst: 8,
            append_bytes: 16 * 1024,
            seed: 3,
        },
        duet,
        victim_policy: VictimPolicy::Greedy,
        gc_window: 256,
        gc_interval: SimDuration::from_millis(100),
        policy: SchedulerPolicy::default_cfq(),
        duration: SimDuration::from_secs(30),
        seed: 3,
    }
}

#[test]
fn gc_experiment_duet_cleans_faster_or_equal() {
    let base = run_gc_experiment(&small_gc_cfg(false)).unwrap();
    let duet = run_gc_experiment(&small_gc_cfg(true)).unwrap();
    assert!(base.cleanings > 0, "baseline cleaned nothing");
    assert!(duet.cleanings > 0, "duet cleaned nothing");
    assert!(
        duet.mean_cleaning_ms <= base.mean_cleaning_ms * 1.25,
        "duet {:.2}ms vs base {:.2}ms",
        duet.mean_cleaning_ms,
        base.mean_cleaning_ms
    );
    assert!(duet.mean_cached >= 0.0);
}

/// Informed cache replacement is gone: a configuration that asks for it
/// fails, naming the field, instead of running without it.
#[test]
fn informed_replacement_is_rejected() {
    let mut cfg = small_cfg(vec![TaskKind::Backup], true, 0.5);
    cfg.informed_replacement = true;
    match run_experiment(&cfg) {
        Err(sim_core::SimError::InvalidArgument(why)) => {
            assert!(why.contains("informed_replacement"), "{why}")
        }
        other => panic!("expected a rejection, got {other:?}"),
    }
}

#[test]
fn skewed_distribution_reduces_savings() {
    // §6.2: "when the skewed file access distribution is used ...
    // savings are decreased" — most accesses hit few files, so fewer
    // distinct blocks get verified for free.
    let mut uni = small_cfg(vec![TaskKind::Scrub], true, 0.6);
    uni.scatter_layout = true;
    let mut skew = uni.clone();
    skew.workload.as_mut().unwrap().dist = DistKind::MsTrace(2);
    let a = run_experiment(&uni).unwrap();
    let b = run_experiment(&skew).unwrap();
    assert!(
        b.io_saved() <= a.io_saved() + 0.02,
        "skewed {:.3} should not beat uniform {:.3}",
        b.io_saved(),
        a.io_saved()
    );
}

#[test]
fn no_priority_policy_reduces_savings() {
    // §6.5: without I/O prioritization maintenance finishes faster but
    // the workload issues fewer requests, reducing I/O saved.
    let mut cfq = small_cfg(vec![TaskKind::Scrub], true, 0.6);
    cfq.policy = SchedulerPolicy::default_cfq();
    let mut noprio = cfq.clone();
    noprio.policy = SchedulerPolicy::NoPriority;
    let a = run_experiment(&cfq).unwrap();
    let b = run_experiment(&noprio).unwrap();
    // Deadline-style scheduling lets maintenance complete at least
    // about as fast (usually faster); small timing jitter is allowed.
    if a.all_completed() && b.all_completed() {
        let ma = a.makespan().unwrap();
        let mb = b.makespan().unwrap();
        assert!(
            mb.as_secs_f64() <= ma.as_secs_f64() * 1.10,
            "noprio {mb} much slower than cfq {ma}"
        );
    }
    // The workload must not get *more* device time without priorities.
    assert!(
        b.workload_ops as f64 <= a.workload_ops as f64 * 1.05,
        "noprio wl ops {} vs cfq {}",
        b.workload_ops,
        a.workload_ops
    );
}

/// The completion probe answers exactly what the full run would: over
/// table5's cell shapes, stopping when the tasks are done changes how
/// far the loop runs, never the completion bit.
#[test]
fn completion_probe_equals_the_full_run() {
    let opts = RunOptions {
        profiled: true,
        ..RunOptions::default()
    };
    let (mut completed, mut incomplete, mut stopped_early) = (0, 0, 0);
    for task in [TaskKind::Scrub, TaskKind::Backup, TaskKind::Defrag] {
        for util in [0.2, 0.5, 0.8] {
            for duet in [false, true] {
                let mut cfg = paper_scaled(
                    512,
                    Personality::WebServer,
                    DistKind::Uniform,
                    1.0,
                    util,
                    vec![task],
                    duet,
                );
                if task == TaskKind::Defrag {
                    cfg.fragmentation = Some((0.1, 5));
                }
                let whole = run_until(&cfg, &opts, false).unwrap();
                let probed = run_until(&cfg, &opts, true).unwrap();
                assert_eq!(
                    probed.all_completed(),
                    whole.all_completed(),
                    "{task:?} util {util} duet {duet}"
                );
                if whole.all_completed() {
                    completed += 1;
                } else {
                    incomplete += 1;
                }
                if probed.workload_ops < whole.workload_ops {
                    stopped_early += 1;
                }
            }
        }
    }
    // Non-vacuity: both answers occur, and the probe really truncates.
    assert!(completed > 0 && incomplete > 0, "{completed}/{incomplete}");
    assert!(stopped_early > 0, "no probe stopped before the window end");
}

/// Fork ≡ fresh, end to end. Every run the entry points make is on a
/// clone out of the snapshot store; the same run on the stack `prepare`
/// builds — never stored, never cloned — must serialize to the same
/// golden bytes. (The root golden table pins those bytes to the
/// committed fixtures; this is what re-running it with the store
/// switched off used to check.)
#[test]
fn a_never_cloned_stack_runs_to_the_forked_runs_golden_bytes() {
    use crate::golden::{baseline_preset, experiment_preset, golden_csv, traced_preset};
    for cfg in [experiment_preset(), baseline_preset(), traced_preset()] {
        let fresh = crate::snapshot::prepare(&cfg).unwrap();
        let fresh = run_prepared(&cfg, &RunOptions::default(), None, fresh, false).unwrap();
        let forked = run_experiment(&cfg).unwrap();
        assert_eq!(golden_csv(&fresh), golden_csv(&forked), "seed {}", cfg.seed);
    }
}

/// Every run ends in fsck when debug assertions are on: a stack whose
/// cache disagrees with its extent tree — on a page a run with no tasks
/// and no workload never evicts — comes back as fsck's error.
#[cfg(debug_assertions)]
#[test]
fn a_run_on_a_corrupted_stack_fails_its_fsck() {
    use sim_cache::PageKey;
    use sim_core::{PageIndex, SimInstant, PAGE_SIZE};
    use sim_disk::IoClass;
    let cfg = small_cfg(vec![], false, 0.0);
    let mut stack = crate::snapshot::prepare(&cfg).unwrap();
    let fs = &mut stack.fs;
    let ino = fs.inodes().files_by_inode()[0];
    fs.read(ino, 0, PAGE_SIZE, IoClass::Normal, SimInstant::EPOCH)
        .unwrap();
    let other = fs.inodes().get(ino).unwrap().extents.block_of(PageIndex(1));
    fs.cache_mut()
        .set_block(PageKey::new(ino, PageIndex(0)), other.unwrap());
    match run_prepared(&cfg, &RunOptions::default(), None, stack, false) {
        Err(SimError::InvalidArgument(why)) => assert!(why.starts_with("fsck:"), "{why}"),
        other => panic!("expected fsck to fail the run, got {other:?}"),
    }
}
