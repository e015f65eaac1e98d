//! The §6.1.2 profiling pass and its memo.
//!
//! The paper "profiled each Filebench personality with different levels
//! of throttling (and no maintenance load) to achieve a given device
//! utilization". This module reproduces that methodology explicitly: a
//! short, unthrottled, maintenance-free calibration run measures the
//! device busy time one workload operation costs, and the measurement
//! seeds the throttle's busy-per-op estimate before the real experiment
//! starts (see `Workload::seed_busy_per_op`).
//!
//! The calibration run is [`calibration_config`] of the experiment's
//! config, so its stack comes from [`crate::snapshot::prepare`] like
//! every other, and that config is the memo key: it does not depend on
//! the target utilization, the maintenance tasks, or Duet mode, so
//! every cell of a `utilization × overlap` sweep shares one profile.
//! The memo is per thread, like the snapshot store: no lock, and no
//! state shared between sweep workers. The pass is deterministic
//! (seeded RNG, virtual time), so a memo hit is bit-identical to a
//! fresh computation, on any worker. A `bench run` of all harnesses
//! meets 11 distinct calibration configs (Table 5 alone 6), at any
//! scale, so each worker keeps them all.

use crate::config::ExperimentConfig;
use crate::runner::{WB_BATCH, WB_HIGH_FRACTION};
use crate::snapshot::{prepare, setup_key};
use sim_btrfs::BtrfsSim;
use sim_core::{SimError, SimInstant, SimResult};
use sim_disk::IoClass;
use std::cell::RefCell;
use workloads::{FileSetConfig, WorkloadConfig, WorkloadFs};

/// Operations executed by the calibration run. Enough for the op mix
/// and cache behaviour to reach steady state; small enough that one
/// profile costs a fraction of one sweep cell.
const PROFILE_OPS: u64 = 384;
/// File-set cap for the calibration filesystem. The cache and device
/// are scaled down by the same factor so the paper's data : cache :
/// device ratios — which determine hit rates and seek distances —
/// carry over.
const PROFILE_MAX_FILES: usize = 96;

/// The calibration run `cfg` needs, or `None` when it needs no profile:
/// no foreground workload, or an unthrottled one (a `target_util` of
/// 0.999 or more issues operations back to back without consulting the
/// busy-per-op estimate). The run is `cfg`'s workload unthrottled over
/// the whole file set, with no maintenance load (§6.1.2) and an unaged
/// layout, on the file set capped at [`PROFILE_MAX_FILES`] with cache
/// and device capacity shrunk by the same factor; the fields no prefix
/// reads are the snapshot key's constants.
pub fn calibration_config(cfg: &ExperimentConfig) -> Option<ExperimentConfig> {
    let w = cfg.workload?;
    if w.target_util >= 0.999 {
        return None;
    }
    let files = cfg.fileset.num_files.clamp(1, PROFILE_MAX_FILES);
    let shrink = |n: u64| n * files as u64 / cfg.fileset.num_files.max(1) as u64;
    Some(ExperimentConfig {
        capacity_blocks: shrink(cfg.capacity_blocks).max(1 << 14),
        cache_pages: (shrink(cfg.cache_pages as u64) as usize).max(256),
        fileset: FileSetConfig {
            num_files: files,
            ..cfg.fileset
        },
        workload: Some(WorkloadConfig {
            coverage: 1.0,
            target_util: 1.0,
            ..w
        }),
        fragmentation: None,
        scatter_layout: false,
        // Unread: the workload's own seed populates the file set.
        seed: 0,
        ..setup_key(cfg)
    })
}

/// The calibration pass on the stack [`prepare`] builds for `ccfg` (a
/// [`calibration_config`]): the mean device busy time per operation in
/// nanoseconds, and the filesystem it ran on. Deterministic: same
/// configuration, same result, bit for bit.
fn calibrate(ccfg: &ExperimentConfig) -> SimResult<(f64, BtrfsSim)> {
    let stack = prepare(ccfg)?;
    let (mut fs, Some(mut wl)) = (stack.fs, stack.workload) else {
        return Err(SimError::Unsupported("profiling requires a workload"));
    };
    let mut now = SimInstant::EPOCH;
    for _ in 0..PROFILE_OPS {
        now = now.max(wl.next_op_time());
        now = wl.run_op(&mut fs, now)?;
        // The real run's writeback policy (its high-water mark, not
        // its timer): the cost is part of what the throttle must
        // account for.
        if fs.dirty_pages() > ccfg.cache_pages / WB_HIGH_FRACTION {
            fs.background_writeback(WB_BATCH, IoClass::Normal, now)?;
        }
        // No Duet listens here: discard the operation's page events
        // instead of buffering the whole pass's history (the queue's
        // buffer is recycled, so this allocates nothing).
        let events = fs.cache_mut().take_events();
        fs.cache_mut().put_back_events(events);
    }
    let busy_per_op = fs.foreground_busy().as_nanos() as f64 / PROFILE_OPS as f64;
    Ok((busy_per_op, fs))
}

thread_local! {
    /// One memo per sweep worker, like the snapshot store: profiles
    /// keyed by [`calibration_config`]. A worker calibrates each config
    /// it meets once; the pass is deterministic, so workers that each
    /// compute a profile compute the same bits.
    static MEMO: RefCell<Vec<(ExperimentConfig, f64)>> = const { RefCell::new(Vec::new()) };
}

/// The busy-per-op profile for `cfg`: this thread's memoized value if
/// present, computed and stored otherwise. `Ok(None)` when the
/// configuration needs no profile (no workload, or unthrottled).
pub(crate) fn profile(cfg: &ExperimentConfig) -> SimResult<Option<f64>> {
    let Some(ccfg) = calibration_config(cfg) else {
        return Ok(None);
    };
    let memoized = MEMO.with(|m| m.borrow().iter().find(|(k, _)| *k == ccfg).map(|&(_, v)| v));
    if let Some(value) = memoized {
        return Ok(Some(value));
    }
    let (value, _) = calibrate(&ccfg)?;
    MEMO.with(|m| m.borrow_mut().push((ccfg, value)));
    Ok(Some(value))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TaskKind;
    use crate::presets::paper_scaled;
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

    /// Profiles this (test) thread has memoized.
    fn memoized() -> usize {
        MEMO.with(|m| m.borrow().len())
    }

    #[test]
    fn memo_is_bit_identical_to_fresh_profile() {
        let first = profile(&cfg(0.5))
            .expect("profile")
            .expect("throttled workload profiles");
        let ccfg = calibration_config(&cfg(0.5)).expect("throttled");
        let (fresh, _) = calibrate(&ccfg).expect("fresh profile");
        let memoized_value = profile(&cfg(0.5)).expect("memo hit").expect("present");
        assert_eq!(first.to_bits(), fresh.to_bits());
        assert_eq!(first.to_bits(), memoized_value.to_bits());
        assert_eq!(memoized(), 1);
        assert!(first > 0.0, "busy per op {first}");
    }

    /// Nothing consumes the calibration's page events, so none may be
    /// left queued when it ends: buffering all of them was half of
    /// `sweep_table5`'s peak RSS.
    #[test]
    fn calibration_leaves_no_page_events_queued() {
        let ccfg = calibration_config(&cfg(0.5)).expect("throttled");
        let (_, mut fs) = calibrate(&ccfg).expect("calibration");
        assert_eq!(fs.cache_mut().drain_events().len(), 0, "events left queued");
    }

    #[test]
    fn utilization_cells_share_one_profile() {
        let a = calibration_config(&cfg(0.1)).expect("key");
        let b = calibration_config(&cfg(0.9)).expect("key");
        assert_eq!(a, b, "profile is utilization-independent");
        profile(&cfg(0.1)).expect("profile");
        profile(&cfg(0.9)).expect("profile");
        assert_eq!(memoized(), 1, "one calibration for the whole sweep");
    }

    #[test]
    fn unthrottled_and_workload_free_runs_need_no_profile() {
        assert!(calibration_config(&cfg(1.0)).is_none(), "unthrottled");
        assert!(calibration_config(&cfg(0.0)).is_none(), "no workload");
        assert_eq!(profile(&cfg(0.0)), Ok(None));
        assert_eq!(memoized(), 0);
    }

    #[test]
    fn personalities_profile_differently() {
        let web = calibration_config(&cfg(0.5));
        let mut fsv = cfg(0.5);
        if let Some(w) = fsv.workload.as_mut() {
            w.personality = Personality::FileServer;
        }
        assert_ne!(web, calibration_config(&fsv));
    }
}
