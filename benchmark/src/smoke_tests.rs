//! Scale-256 smoke of both traced drivers: the mirror reproduces the
//! entry point's simulated statistics exactly, and a mirror that is
//! deliberately wrong is caught by the same comparison — so the
//! equivalence check is not vacuous.

use crate::child::{experiment_stats, gc_stats};
use crate::mirror::{run_btrfs, run_gc, NAMES};
use crate::spans::Recorder;
use crate::workloads::{table6_duet, three_tasks};
use duet::Duet;
use duet_tasks::{pump_btrfs, pump_f2fs};
use experiments::{run_experiment, run_gc_experiment};
use sim_btrfs::BtrfsSim;
use sim_f2fs::F2fsSim;
use workloads::Personality;

const SCALE: u64 = 256;

fn recorder() -> Recorder {
    Recorder::new(NAMES, 1 << 16)
}

fn span_names(rec: &Recorder) -> Vec<&'static str> {
    rec.spans()
        .iter()
        .map(|s| NAMES[usize::from(s.name)])
        .collect()
}

#[test]
fn btrfs_mirror_reproduces_the_entry_point_on_all_three_shapes() {
    for (personality, util, duet) in [
        (Personality::WebServer, 0.5, true),
        (Personality::FileServer, 0.5, true),
        (Personality::WebServer, 0.0, false),
    ] {
        let cfg = three_tasks(SCALE, personality, util, duet, 42);
        let entry = run_experiment(&cfg).expect("entry point");
        let mut rec = recorder();
        let run = run_btrfs(&cfg, &mut rec, pump_btrfs).expect("mirror");
        assert_eq!(
            experiment_stats(&run.result),
            experiment_stats(&entry),
            "{personality:?} util {util} duet {duet}"
        );
        run.fs
            .check_consistency()
            .expect("fsck after the traced run");
        assert_eq!(run.foreground.stats.ops, entry.workload_ops);

        // Filesystem calls made by the workload nest under `run_op`;
        // everything else hangs off the root.
        let names = span_names(&rec);
        for (span, name) in rec.spans().iter().zip(&names) {
            let parent = span.parent().map(|p| names[p]);
            match *name {
                "run" => assert_eq!(parent, None),
                n if n.starts_with("wl_") => assert_eq!(parent, Some("run_op"), "{n}"),
                n => assert_eq!(parent, Some("run"), "{n}"),
            }
        }
        let ops = names.iter().filter(|n| **n == "run_op").count() as u64;
        assert_eq!(ops, entry.workload_ops, "one run_op span per workload op");
        assert_eq!(util > 0.0, names.contains(&"wl_read"));
    }
}

#[test]
fn btrfs_mirror_that_loses_page_events_is_caught() {
    let cfg = three_tasks(SCALE, Personality::WebServer, 0.5, true, 42);
    let entry = run_experiment(&cfg).expect("entry point");
    let lossy_pump = |fs: &mut BtrfsSim, _: &mut Duet| {
        fs.cache_mut().drain_events();
    };
    let run = run_btrfs(&cfg, &mut recorder(), lossy_pump).expect("mirror");
    assert_ne!(experiment_stats(&run.result), experiment_stats(&entry));
}

#[test]
fn gc_mirror_reproduces_the_entry_point_and_a_lossy_one_is_caught() {
    let cfg = table6_duet(SCALE, 42);
    let entry = run_gc_experiment(&cfg).expect("entry point");
    assert!(
        entry.cleanings > 0,
        "the smoke must clean something to compare"
    );
    let mut rec = recorder();
    let run = run_gc(&cfg, &mut rec, pump_f2fs).expect("mirror");
    assert_eq!(gc_stats(&run.result), gc_stats(&entry));
    run.fs
        .check_consistency()
        .expect("fsck after the traced run");
    assert!(run.duet_stats.events_processed > 0);
    let steps = span_names(&rec).iter().filter(|n| **n == "gc.step").count();
    assert!(
        steps >= entry.cleanings,
        "every cleaning is one gc.step span"
    );

    let lossy_pump = |fs: &mut F2fsSim, _: &mut Duet| {
        fs.cache_mut().drain_events();
    };
    let run = run_gc(&cfg, &mut recorder(), lossy_pump).expect("mirror");
    assert_ne!(gc_stats(&run.result), gc_stats(&entry));
}
