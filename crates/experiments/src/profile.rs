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
//! every cell of a `utilization × overlap` sweep shares one profile in
//! [`ProfileCache`]. The pass is deterministic (seeded RNG, virtual
//! time), so a cache hit is bit-identical to a fresh computation and
//! concurrent sweep workers may race to fill an entry without affecting
//! results.

use crate::config::ExperimentConfig;
use crate::runner::{WB_BATCH, WB_HIGH_FRACTION};
use crate::snapshot::{prepare, setup_key};
use sim_btrfs::BtrfsSim;
use sim_core::{SimError, SimInstant, SimResult};
use sim_disk::IoClass;
use std::sync::{Mutex, MutexGuard, OnceLock};
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

/// Memoized profiles, shared by reference across sweep workers, keyed
/// by [`calibration_config`].
///
/// Workers may race to fill the same key; both compute the same
/// (deterministic) value, so whichever insert wins is irrelevant to
/// results.
#[derive(Debug, Default)]
pub struct ProfileCache {
    memo: Mutex<Vec<(ExperimentConfig, f64)>>,
}

impl ProfileCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        ProfileCache::default()
    }

    /// The process-wide cache every profiled run
    /// ([`crate::RunOptions::profiled`]) reads. A profile depends only
    /// on its calibration config and is bit-identical however many
    /// times it is computed, so sharing entries across sweeps (e.g.
    /// every `table5_max_util` cell, or a figure harness re-run in the
    /// same process) is byte-safe and saves re-calibration. Tests that
    /// assert on `len` should use [`ProfileCache::new`] for an isolated
    /// instance instead.
    pub fn global() -> &'static ProfileCache {
        static GLOBAL: OnceLock<ProfileCache> = OnceLock::new();
        GLOBAL.get_or_init(ProfileCache::new)
    }

    fn guard(&self) -> MutexGuard<'_, Vec<(ExperimentConfig, f64)>> {
        match self.memo.lock() {
            Ok(g) => g,
            // A worker can only poison the lock by panicking between
            // lock and unlock; the memo holds plain data, so continue.
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// Number of memoized profiles.
    pub fn len(&self) -> usize {
        self.guard().len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.guard().is_empty()
    }

    /// The busy-per-op profile for `cfg`: memoized if present, computed
    /// and stored otherwise. `Ok(None)` when the configuration needs no
    /// profile (no workload, or unthrottled).
    pub fn get_or_profile(&self, cfg: &ExperimentConfig) -> SimResult<Option<f64>> {
        let Some(ccfg) = calibration_config(cfg) else {
            return Ok(None);
        };
        let memoized = |memo: &[(ExperimentConfig, f64)]| {
            memo.iter().find(|(k, _)| *k == ccfg).map(|&(_, v)| v)
        };
        if let Some(value) = memoized(&self.guard()) {
            return Ok(Some(value));
        }
        // Computed outside the lock: a long calibration must not
        // serialize other sweep workers.
        let (value, _) = calibrate(&ccfg)?;
        let mut memo = self.guard();
        if memoized(&memo).is_none() {
            memo.push((ccfg, value));
        }
        Ok(Some(value))
    }
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

    #[test]
    fn memo_is_bit_identical_to_fresh_profile() {
        let cache = ProfileCache::new();
        let first = cache
            .get_or_profile(&cfg(0.5))
            .expect("profile")
            .expect("throttled workload profiles");
        let ccfg = calibration_config(&cfg(0.5)).expect("throttled");
        let (fresh, _) = calibrate(&ccfg).expect("fresh profile");
        let memoized = cache
            .get_or_profile(&cfg(0.5))
            .expect("memo hit")
            .expect("present");
        assert_eq!(first.to_bits(), fresh.to_bits());
        assert_eq!(first.to_bits(), memoized.to_bits());
        assert_eq!(cache.len(), 1);
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
        let cache = ProfileCache::new();
        cache.get_or_profile(&cfg(0.1)).expect("profile");
        cache.get_or_profile(&cfg(0.9)).expect("profile");
        assert_eq!(cache.len(), 1, "one calibration for the whole sweep");
    }

    #[test]
    fn unthrottled_and_workload_free_runs_need_no_profile() {
        assert!(calibration_config(&cfg(1.0)).is_none(), "unthrottled");
        assert!(calibration_config(&cfg(0.0)).is_none(), "no workload");
        let cache = ProfileCache::new();
        assert_eq!(cache.get_or_profile(&cfg(0.0)), Ok(None));
        assert!(cache.is_empty());
    }

    #[test]
    fn global_cache_is_one_instance() {
        let a: *const ProfileCache = ProfileCache::global();
        let b: *const ProfileCache = ProfileCache::global();
        assert_eq!(a, b, "process-wide singleton");
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
