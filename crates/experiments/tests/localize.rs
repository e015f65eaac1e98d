//! Sabotage-localization smoke for the trace-armed oracle.
//!
//! [`localize_pair`] must not merely *detect* each task's silent defect
//! (the digest comparison already does that) — it must name the first
//! divergent effect, the entity it concerns, and the originating site
//! with its causal work-item chain. One pinned seed keeps the whole
//! suite bit-replayable; a failure here prints the replay line through
//! the oracle's error path.

use experiments::{localize_pair, OracleTask};
use sim_core::fault::FaultPlan;

const QUIET_SEED: u64 = 0x0DDB411;
const SABOTAGE_SEED: u64 = 0xBAD5EED;

#[test]
fn quiet_pairs_localize_to_nothing() {
    let plan = FaultPlan::quiet();
    for task in OracleTask::ALL {
        let d = localize_pair(task, QUIET_SEED, &plan, false)
            .unwrap_or_else(|e| panic!("{}: localize run failed:\n{e}", task.name()));
        assert!(
            d.is_none(),
            "{}: spurious divergence: {}",
            task.name(),
            d.unwrap().render()
        );
    }
}

#[test]
fn sabotage_is_localized_to_the_defective_site_for_every_task() {
    let plan = FaultPlan::quiet();
    for task in OracleTask::ALL {
        let d = localize_pair(task, SABOTAGE_SEED, &plan, true)
            .unwrap_or_else(|e| panic!("{}: localize run failed:\n{e}", task.name()))
            .unwrap_or_else(|| panic!("{}: sabotage went undetected", task.name()));
        let expected_kind = match task {
            OracleTask::Scrub => "scrub.verify",
            OracleTask::Backup => "backup.ship",
            OracleTask::Defrag => "defrag.reloc",
            OracleTask::Rsync => "rsync.send",
            OracleTask::Gc => "gc.final",
        };
        assert_eq!(d.kind, expected_kind, "{}: {}", task.name(), d.render());
        assert_ne!(d.duet, d.baseline, "{}: {}", task.name(), d.render());
        assert!(
            d.site.starts_with("task/"),
            "{}: site must name the task layer: {}",
            task.name(),
            d.render()
        );
        // GC's final-state events are synthetic (emitted at run end,
        // outside any work item); every other task's effect must be
        // chained to the work item that produced it.
        if task != OracleTask::Gc {
            assert!(
                !d.chain.is_empty(),
                "{}: no causal chain: {}",
                task.name(),
                d.render()
            );
        }
    }
}
