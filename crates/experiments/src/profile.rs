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
//! The profile depends only on the workload shape and the device — not
//! on the target utilization, the maintenance tasks, or Duet mode — so
//! every cell of a `utilization × overlap` sweep shares one profile.
//! [`ProfileCache`] memoizes it per [`ProfileKey`]; the pass itself is
//! deterministic (seeded RNG, virtual time), so a cache hit is
//! bit-identical to a fresh computation and concurrent sweep workers
//! may race to fill an entry without affecting results.

use crate::config::{DeviceKind, ExperimentConfig};
use crate::runner::{build_disk, WB_BATCH, WB_HIGH_FRACTION};
use sim_btrfs::BtrfsSim;
use sim_core::{SimError, SimInstant, SimResult};
use sim_disk::IoClass;
use std::collections::BTreeMap;
use std::sync::{Mutex, MutexGuard, OnceLock};
use workloads::{DistKind, Personality, Workload, WorkloadFs};

/// Operations executed by the calibration run. Enough for the op mix
/// and cache behaviour to reach steady state; small enough that one
/// profile costs a fraction of one sweep cell.
const PROFILE_OPS: u64 = 384;
/// File-set cap for the calibration filesystem. The cache and device
/// are scaled down by the same factor so the paper's data : cache :
/// device ratios — which determine hit rates and seek distances —
/// carry over.
const PROFILE_MAX_FILES: usize = 96;

/// Memo key: every configuration dimension the calibration run reads.
/// Deliberately excludes `target_util`, `coverage`, tasks, and Duet
/// mode — the profile measures unthrottled whole-set cost, which those
/// knobs do not affect.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct ProfileKey {
    personality: Personality,
    dist: DistKind,
    device: DeviceKind,
    num_files: u64,
    mean_file_bytes: u64,
    sigma_bits: u64,
    append_bytes: u64,
    burst: u32,
    cache_pages: u64,
    capacity_blocks: u64,
    seed: u64,
}

/// Calibration dimensions: the file set capped at [`PROFILE_MAX_FILES`]
/// with cache and device capacity shrunk by the same factor.
fn profile_dimensions(cfg: &ExperimentConfig) -> (usize, usize, u64) {
    let files = cfg.fileset.num_files.clamp(1, PROFILE_MAX_FILES);
    let shrink = |n: u64| n * files as u64 / cfg.fileset.num_files.max(1) as u64;
    let cache_pages = (shrink(cfg.cache_pages as u64) as usize).max(256);
    let capacity = shrink(cfg.capacity_blocks).max(1 << 14);
    (files, cache_pages, capacity)
}

/// The memo key for a configuration, or `None` when the run needs no
/// profile: no foreground workload, or an unthrottled one (a
/// `target_util` of 0.999 or more issues operations back to back
/// without consulting the busy-per-op estimate).
pub fn profile_key(cfg: &ExperimentConfig) -> Option<ProfileKey> {
    let w = cfg.workload?;
    if w.target_util >= 0.999 {
        return None;
    }
    let (files, cache_pages, capacity) = profile_dimensions(cfg);
    Some(ProfileKey {
        personality: w.personality,
        dist: w.dist,
        device: cfg.device,
        num_files: files as u64,
        mean_file_bytes: cfg.fileset.mean_file_bytes,
        sigma_bits: cfg.fileset.sigma.to_bits(),
        append_bytes: w.append_bytes,
        burst: w.burst,
        cache_pages: cache_pages as u64,
        capacity_blocks: capacity,
        seed: w.seed,
    })
}

/// Runs the unthrottled calibration pass and returns the mean device
/// busy time per operation in nanoseconds. Deterministic: same
/// configuration, same result, bit for bit.
///
/// # Errors
///
/// Returns [`SimError::Unsupported`] if the configuration has no
/// foreground workload, and propagates simulation errors.
pub fn profile_unthrottled(cfg: &ExperimentConfig) -> SimResult<f64> {
    calibrate(cfg).map(|(busy_per_op, _)| busy_per_op)
}

/// The calibration pass: its busy-per-op result and the filesystem it
/// ran on.
fn calibrate(cfg: &ExperimentConfig) -> SimResult<(f64, BtrfsSim)> {
    let Some(wcfg) = cfg.workload else {
        return Err(SimError::Unsupported("profiling requires a workload"));
    };
    let (files, cache_pages, capacity) = profile_dimensions(cfg);
    let disk = build_disk(cfg.device, capacity);
    let mut fs = BtrfsSim::new(sim_core::DeviceId(0), disk, cache_pages);
    // Unthrottled, whole file set, no maintenance load (§6.1.2).
    let pcfg = workloads::WorkloadConfig {
        coverage: 1.0,
        target_util: 1.0,
        ..wcfg
    };
    let fileset = workloads::FileSetConfig {
        num_files: files,
        ..cfg.fileset
    };
    let mut wl = Workload::setup(&mut fs, pcfg, fileset)?;
    fs.disk_mut().reset_metrics();
    let mut now = SimInstant::EPOCH;
    for _ in 0..PROFILE_OPS {
        now = now.max(wl.next_op_time());
        now = wl.run_op(&mut fs, now)?;
        // The real run's writeback policy (its high-water mark, not
        // its timer): the cost is part of what the throttle must
        // account for.
        if fs.dirty_pages() > cache_pages / WB_HIGH_FRACTION {
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

/// Memoized profiles, shared by reference across sweep workers.
///
/// The value is stored as raw `f64` bits so lookups reproduce the
/// computed value exactly. Workers may race to fill the same key; both
/// compute the same (deterministic) value, so whichever insert wins is
/// irrelevant to results.
#[derive(Debug, Default)]
pub struct ProfileCache {
    memo: Mutex<BTreeMap<ProfileKey, u64>>,
}

impl ProfileCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        ProfileCache::default()
    }

    /// The process-wide cache every profiled run
    /// ([`crate::RunOptions::profiled`]) reads. A profile depends only
    /// on its [`ProfileKey`] and is bit-identical however many times it
    /// is computed, so sharing entries across sweeps (e.g. every
    /// `table5_max_util` cell, or a figure harness re-run in the same
    /// process) is byte-safe and saves re-calibration. Tests that
    /// assert on `len` should use [`ProfileCache::new`] for an isolated
    /// instance instead.
    pub fn global() -> &'static ProfileCache {
        static GLOBAL: OnceLock<ProfileCache> = OnceLock::new();
        GLOBAL.get_or_init(ProfileCache::new)
    }

    fn guard(&self) -> MutexGuard<'_, BTreeMap<ProfileKey, u64>> {
        match self.memo.lock() {
            Ok(g) => g,
            // A worker can only poison the lock by panicking between
            // lock and unlock; the map holds plain data, so continue.
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
        let Some(key) = profile_key(cfg) else {
            return Ok(None);
        };
        if let Some(&bits) = self.guard().get(&key) {
            return Ok(Some(f64::from_bits(bits)));
        }
        // Computed outside the lock: a long calibration must not
        // serialize other sweep workers.
        let value = profile_unthrottled(cfg)?;
        self.guard().insert(key, value.to_bits());
        Ok(Some(value))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TaskKind;
    use crate::presets::paper_scaled;

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
        let fresh = profile_unthrottled(&cfg(0.5)).expect("fresh profile");
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
        let (_, mut fs) = calibrate(&cfg(0.5)).expect("calibration");
        assert_eq!(fs.cache_mut().drain_events().len(), 0, "events left queued");
    }

    #[test]
    fn utilization_cells_share_one_profile() {
        let a = profile_key(&cfg(0.1)).expect("key");
        let b = profile_key(&cfg(0.9)).expect("key");
        assert_eq!(a, b, "profile is utilization-independent");
        let cache = ProfileCache::new();
        cache.get_or_profile(&cfg(0.1)).expect("profile");
        cache.get_or_profile(&cfg(0.9)).expect("profile");
        assert_eq!(cache.len(), 1, "one calibration for the whole sweep");
    }

    #[test]
    fn unthrottled_and_workload_free_runs_need_no_profile() {
        assert!(profile_key(&cfg(1.0)).is_none(), "unthrottled");
        assert!(profile_key(&cfg(0.0)).is_none(), "no workload");
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
        let web = profile_key(&cfg(0.5));
        let mut fsv = cfg(0.5);
        if let Some(w) = fsv.workload.as_mut() {
            w.personality = Personality::FileServer;
        }
        assert_ne!(web, profile_key(&fsv));
    }
}
