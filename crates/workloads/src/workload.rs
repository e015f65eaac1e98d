//! The workload generator: file set population, operation execution and
//! utilization throttling.
//!
//! §6.1.2 of the paper: "We profiled each Filebench personality with
//! different levels of throttling (and no maintenance load) to achieve
//! a given device utilization, and report results for utilization
//! values ranging from 0-100%". Here the profiling is continuous: the
//! generator measures the device busy time each operation adds (an
//! exponential moving average) and spaces operations so that
//! `busy/elapsed` converges to the target utilization.

use crate::distribution::{DistKind, FileSelector};
use crate::fsops::WorkloadFs;
use crate::personality::{Personality, WorkloadOp};
use sim_core::stats::OnlineStats;
use sim_core::{InodeNr, SimDuration, SimError, SimInstant, SimResult, SimRng, PAGE_SIZE};

/// File-set shape (§6.1.3 uses 50 GB of data; scaled-down experiments
/// shrink `num_files`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FileSetConfig {
    /// Number of data files.
    pub num_files: usize,
    /// Mean file size in bytes (log-normal-ish distribution).
    pub mean_file_bytes: u64,
    /// Log-space standard deviation of file sizes.
    pub sigma: f64,
}

impl Default for FileSetConfig {
    fn default() -> Self {
        FileSetConfig {
            num_files: 1000,
            mean_file_bytes: 128 * 1024,
            sigma: 0.5,
        }
    }
}

/// Workload parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkloadConfig {
    /// Operation mix.
    pub personality: Personality,
    /// File-popularity distribution.
    pub dist: DistKind,
    /// Fraction of the file set the workload may touch (the paper's
    /// "data overlap" knob; 1.0 = whole filesystem).
    pub coverage: f64,
    /// Target foreground device utilization in `[0, 1]`; `>= 1.0` runs
    /// unthrottled.
    pub target_util: f64,
    /// Operations issued back to back before the throttle inserts an
    /// idle gap. Filebench worker threads run flowlets of operations
    /// and then sleep; bursty arrival is what leaves the idle windows
    /// that CFQ's idle class exploits. With per-op spacing instead, the
    /// gaps would shrink below the idle grace period at moderate
    /// utilization and maintenance would starve unrealistically.
    pub burst: u32,
    /// Append chunk size in bytes.
    pub append_bytes: u64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for WorkloadConfig {
    fn default() -> Self {
        WorkloadConfig {
            personality: Personality::WebServer,
            dist: DistKind::Uniform,
            coverage: 1.0,
            target_util: 0.5,
            burst: 8,
            append_bytes: 16 * 1024,
            seed: 42,
        }
    }
}

/// A populated file.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FileInfo {
    /// Current inode (changes when the file is replaced).
    pub ino: InodeNr,
    /// Size in bytes.
    pub size: u64,
}

/// Operation/byte counters.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct WorkloadStats {
    /// Operations executed.
    pub ops: u64,
    /// Bytes read.
    pub bytes_read: u64,
    /// Bytes written.
    pub bytes_written: u64,
    /// Files deleted and re-created.
    pub files_replaced: u64,
}

/// Populates the experimental file set (§6.1.3) without a workload:
/// log-normal file sizes around the configured mean, already on disk.
/// `seed` controls the sizes; using the same seed as a
/// [`WorkloadConfig`] reproduces the same layout. An empty file set, a
/// mean size whose 16-fold cap is under one page, or a `sigma` that is
/// not finite or is negative, is `InvalidArgument`.
pub fn populate_fileset(
    fs: &mut dyn WorkloadFs,
    fileset: FileSetConfig,
    seed: u64,
) -> SimResult<Vec<FileInfo>> {
    if fileset.num_files == 0 {
        return Err(invalid("empty file set"));
    }
    if fileset.mean_file_bytes.saturating_mul(16) < PAGE_SIZE {
        return Err(invalid("mean_file_bytes must be at least PAGE_SIZE / 16"));
    }
    if !(fileset.sigma.is_finite() && fileset.sigma >= 0.0) {
        return Err(invalid("sigma must be finite and not negative"));
    }
    let mut rng = SimRng::new(seed);
    let mu = (fileset.mean_file_bytes as f64).ln() - fileset.sigma * fileset.sigma / 2.0;
    let mut files = Vec::with_capacity(fileset.num_files);
    for i in 0..fileset.num_files {
        let size =
            rng.lognormal(mu, fileset.sigma)
                .clamp(PAGE_SIZE as f64, (fileset.mean_file_bytes * 16) as f64) as u64;
        let ino = fs.wl_populate(&format!("wl_file_{i:06}"), size)?;
        files.push(FileInfo { ino, size });
    }
    Ok(files)
}

fn invalid(why: &str) -> SimError {
    SimError::InvalidArgument(why.into())
}

/// The foreground workload driver.
#[derive(Clone, PartialEq)]
pub struct Workload {
    cfg: WorkloadConfig,
    /// Calibrated operation mix (byte ratios solved for this file set).
    mix: Vec<(WorkloadOp, f64)>,
    files: Vec<FileInfo>,
    /// Indices of files the workload may touch (coverage subset).
    accessible: Vec<usize>,
    selector: FileSelector,
    rng: SimRng,
    log_ino: InodeNr,
    next_issue: SimInstant,
    /// EMA of device busy nanoseconds added per operation.
    busy_per_op_ema: f64,
    /// Whether `busy_per_op_ema` was seeded from a profiling pass
    /// (§6.1.2) instead of the first operation's measurement.
    profiled: bool,
    prev_busy: SimDuration,
    /// Operations issued in the current burst.
    in_burst: u32,
    /// Issue time of the current burst's first operation (the schedule
    /// anchor: throttling is open-loop, like replaying the profiled
    /// Filebench schedule of §6.1.2, so background interference does
    /// not silently lower the achieved utilization).
    burst_start: SimInstant,
    /// Per-operation latency (issue → completion), in milliseconds —
    /// the quantity §6.1.3 reports to show maintenance has
    /// "insignificant impact on workload latency".
    latency_ms: OnlineStats,
    name_counter: u64,
    stats: WorkloadStats,
}

impl Workload {
    /// Populates the file set on `fs` and builds the workload. The
    /// coverage subset is chosen uniformly at random. A coverage outside
    /// (0, 1], no append bytes or a file set [`populate_fileset`]
    /// refuses is `InvalidArgument`.
    pub fn setup(
        fs: &mut dyn WorkloadFs,
        cfg: WorkloadConfig,
        fileset: FileSetConfig,
    ) -> SimResult<Workload> {
        if !(cfg.coverage > 0.0 && cfg.coverage <= 1.0) {
            return Err(invalid("coverage must be in (0, 1]"));
        }
        if cfg.append_bytes == 0 {
            return Err(invalid("append_bytes must be positive"));
        }
        let files = populate_fileset(fs, fileset, cfg.seed)?;
        let mut rng = SimRng::new(cfg.seed.wrapping_add(0x5EED));
        let log_ino = fs.wl_populate("wl_weblog", cfg.append_bytes)?;
        // Coverage subset.
        let mut order: Vec<usize> = (0..files.len()).collect();
        rng.shuffle(&mut order);
        let k = ((files.len() as f64 * cfg.coverage).round() as usize).clamp(1, files.len());
        let accessible: Vec<usize> = order[..k].to_vec();
        let selector = FileSelector::new(cfg.dist, accessible.len(), &mut rng);
        let mix = cfg
            .personality
            .mix_for(fileset.mean_file_bytes as f64, cfg.append_bytes as f64);
        Ok(Workload {
            cfg,
            mix,
            files,
            accessible,
            selector,
            rng,
            log_ino,
            next_issue: SimInstant::EPOCH,
            busy_per_op_ema: 0.0,
            profiled: false,
            prev_busy: SimDuration::ZERO,
            in_burst: 0,
            burst_start: SimInstant::EPOCH,
            latency_ms: OnlineStats::new(),
            name_counter: 0,
            stats: WorkloadStats::default(),
        })
    }

    /// Seeds the throttle's busy-per-op estimate from a profiling pass
    /// (§6.1.2: personalities are profiled without maintenance load and
    /// the measured schedule is replayed). A seeded estimate replaces
    /// the first operation's raw measurement as the EMA's initial
    /// condition; later operations blend into it as usual. Non-finite
    /// or non-positive values are ignored.
    pub fn seed_busy_per_op(&mut self, ns_per_op: f64) {
        if ns_per_op.is_finite() && ns_per_op > 0.0 {
            self.busy_per_op_ema = ns_per_op;
            self.profiled = true;
        }
    }

    /// Overrides the utilization target. The target is read only by the
    /// per-operation throttle — never during [`Workload::setup`] — so a
    /// workload forked from a shared setup snapshot can be retargeted
    /// per sweep cell without perturbing the setup-time RNG streams.
    pub fn set_target_util(&mut self, target_util: f64) {
        self.cfg.target_util = target_util;
    }

    /// The populated files (for overlap bookkeeping by experiments).
    pub fn files(&self) -> &[FileInfo] {
        &self.files
    }

    /// Indices of accessible (coverage-subset) files.
    pub fn accessible(&self) -> &[usize] {
        &self.accessible
    }

    /// Counters.
    pub fn stats(&self) -> WorkloadStats {
        self.stats
    }

    /// When the next operation is due.
    pub fn next_op_time(&self) -> SimInstant {
        self.next_issue
    }

    /// Executes one operation at `now` (must be `>= next_op_time()`),
    /// returning its completion time and scheduling the next operation
    /// according to the utilization target.
    pub fn run_op(&mut self, fs: &mut dyn WorkloadFs, now: SimInstant) -> SimResult<SimInstant> {
        if self.in_burst == 0 {
            self.burst_start = now;
        }
        let op = Personality::draw_from_mix(&self.mix, &mut self.rng);
        let slot = self.accessible[self.selector.pick(&mut self.rng)];
        let finish = self.execute(fs, op, slot, now)?;
        self.latency_ms
            .push(finish.saturating_duration_since(now).as_millis_f64());
        self.stats.ops += 1;
        // Measure the busy time this op added and update the EMA.
        let busy = fs.foreground_busy();
        let delta = busy.saturating_sub(self.prev_busy).as_nanos() as f64;
        self.prev_busy = busy;
        self.busy_per_op_ema = if self.stats.ops <= 1 && !self.profiled {
            delta
        } else {
            0.9 * self.busy_per_op_ema + 0.1 * delta
        };
        // Throttle at burst boundaries: `burst` operations run back to
        // back, then one idle gap. The next burst is anchored to this
        // burst's first *issue* time (open-loop schedule), and the gap
        // is jittered ±70 % — real inter-burst think times vary, which
        // is what leaves the occasional longer idle window that the CFQ
        // idle class can use even at high utilization.
        self.next_issue = if self.cfg.target_util >= 0.999 {
            finish
        } else {
            self.in_burst += 1;
            if self.in_burst < self.cfg.burst.max(1) {
                finish
            } else {
                self.in_burst = 0;
                let u = self.cfg.target_util.max(1e-3);
                let period_ns = self.cfg.burst.max(1) as f64 * self.busy_per_op_ema / u;
                let gap_ns = period_ns - self.cfg.burst.max(1) as f64 * self.busy_per_op_ema;
                let jitter = 0.3 + 1.4 * self.rng.gen_f64();
                let next = self.burst_start
                    + SimDuration::from_nanos(
                        (period_ns - gap_ns + gap_ns * jitter).max(0.0) as u64
                    );
                // If the schedule has slipped (overload), continue
                // immediately rather than accumulating debt.
                next.max(now)
            }
        };
        Ok(finish)
    }

    fn execute(
        &mut self,
        fs: &mut dyn WorkloadFs,
        op: WorkloadOp,
        slot: usize,
        now: SimInstant,
    ) -> SimResult<SimInstant> {
        let file = self.files[slot];
        match op {
            WorkloadOp::ReadWholeFile => {
                let f = fs.wl_read(file.ino, 0, file.size, now)?;
                self.stats.bytes_read += file.size;
                Ok(f)
            }
            WorkloadOp::AppendLog => {
                let f = fs.wl_append(self.log_ino, self.cfg.append_bytes, now)?;
                self.stats.bytes_written += self.cfg.append_bytes;
                Ok(f)
            }
            WorkloadOp::AppendFile => {
                let f = fs.wl_append(file.ino, self.cfg.append_bytes, now)?;
                self.stats.bytes_written += self.cfg.append_bytes;
                self.files[slot].size += self.cfg.append_bytes;
                Ok(f)
            }
            WorkloadOp::OverwriteWholeFile => {
                let f = fs.wl_write(file.ino, 0, file.size, now)?;
                self.stats.bytes_written += file.size;
                Ok(f)
            }
            WorkloadOp::OverwriteRegion => {
                // Half the file at a random page-aligned offset.
                let pages = sim_core::ids::pages_for_bytes(file.size).max(1);
                let region_pages = (pages / 2).max(1);
                let max_start = pages - region_pages;
                let start_page = if max_start == 0 {
                    0
                } else {
                    self.rng.gen_range(0, max_start + 1)
                };
                let len = region_pages * PAGE_SIZE;
                let f = fs.wl_write(file.ino, start_page * PAGE_SIZE, len, now)?;
                self.stats.bytes_written += len;
                Ok(f)
            }
            WorkloadOp::ReplaceFile => {
                fs.wl_delete(file.ino)?;
                self.name_counter += 1;
                let name = format!("wl_repl_{:06}", self.name_counter);
                let ino = fs.wl_create(&name)?;
                let f = fs.wl_write(ino, 0, file.size, now)?;
                self.files[slot].ino = ino;
                self.stats.bytes_written += file.size;
                self.stats.files_replaced += 1;
                Ok(f)
            }
        }
    }

    /// Per-operation latency statistics (milliseconds).
    pub fn latency_ms(&self) -> &OnlineStats {
        &self.latency_ms
    }

    /// Achieved foreground utilization since the epoch.
    pub fn achieved_util(&self, fs: &dyn WorkloadFs, now: SimInstant) -> f64 {
        let elapsed = now.saturating_duration_since(SimInstant::EPOCH);
        if elapsed.is_zero() {
            0.0
        } else {
            fs.foreground_busy().as_secs_f64() / elapsed.as_secs_f64()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_btrfs::BtrfsSim;
    use sim_core::DeviceId;
    use sim_disk::{Disk, HddModel};

    fn btrfs(cap: u64, cache: usize) -> BtrfsSim {
        BtrfsSim::new(
            DeviceId(0),
            Disk::new(Box::new(HddModel::sas_10k(cap))),
            cache,
        )
    }

    fn small_fileset() -> FileSetConfig {
        FileSetConfig {
            num_files: 50,
            mean_file_bytes: 64 * 1024,
            sigma: 0.4,
        }
    }

    #[test]
    fn setup_populates_files() {
        let mut fs = btrfs(1 << 16, 1024);
        let wl = Workload::setup(&mut fs, WorkloadConfig::default(), small_fileset()).unwrap();
        assert_eq!(wl.files().len(), 50);
        assert_eq!(wl.accessible().len(), 50, "full coverage");
        assert!(fs.allocated_blocks() > 0);
        // Sizes average near the configured mean.
        let mean: f64 =
            wl.files().iter().map(|f| f.size as f64).sum::<f64>() / wl.files().len() as f64;
        assert!((32_000.0..128_000.0).contains(&mean), "mean size {mean}");
    }

    #[test]
    fn coverage_limits_accessible_files() {
        let mut fs = btrfs(1 << 16, 1024);
        let cfg = WorkloadConfig {
            coverage: 0.25,
            ..Default::default()
        };
        let mut wl = Workload::setup(&mut fs, cfg, small_fileset()).unwrap();
        assert_eq!(wl.accessible().len(), 13); // round(50 * 0.25)
                                               // Ops only touch the accessible subset.
        let allowed: std::collections::BTreeSet<usize> = wl.accessible().iter().copied().collect();
        let before: Vec<InodeNr> = wl.files().iter().map(|f| f.ino).collect();
        let mut t = SimInstant::EPOCH;
        for _ in 0..200 {
            t = wl.run_op(&mut fs, t.max(wl.next_op_time())).unwrap();
        }
        for (i, f) in wl.files().iter().enumerate() {
            if !allowed.contains(&i) {
                assert_eq!(f.ino, before[i], "untouched file changed identity");
            }
        }
    }

    #[test]
    fn profiled_seed_replaces_first_op_measurement() {
        let mut fs = btrfs(1 << 16, 1024);
        let mut wl = Workload::setup(&mut fs, WorkloadConfig::default(), small_fileset()).unwrap();
        wl.seed_busy_per_op(f64::NAN);
        wl.seed_busy_per_op(-1.0);
        assert!(!wl.profiled, "invalid seeds ignored");
        let seed_ns = 1_000_000.0;
        wl.seed_busy_per_op(seed_ns);
        assert!(wl.profiled);
        assert_eq!(wl.busy_per_op_ema, seed_ns);
        wl.run_op(&mut fs, SimInstant::EPOCH).unwrap();
        // The first op blends into the seeded EMA (0.9 weight) instead
        // of overwriting it with its raw measurement.
        assert!(
            wl.busy_per_op_ema >= 0.9 * seed_ns,
            "ema {} lost the profile seed",
            wl.busy_per_op_ema
        );
    }

    #[test]
    fn throttle_converges_to_target_utilization() {
        let mut fs = btrfs(1 << 18, 512);
        let cfg = WorkloadConfig {
            target_util: 0.5,
            personality: Personality::WebServer,
            ..Default::default()
        };
        let mut wl = Workload::setup(
            &mut fs,
            cfg,
            FileSetConfig {
                num_files: 200,
                ..small_fileset()
            },
        )
        .unwrap();
        let mut now = SimInstant::EPOCH;
        for _ in 0..3000 {
            now = now.max(wl.next_op_time());
            let f = wl.run_op(&mut fs, now).unwrap();
            now = f.max(now);
            // Flush dirt so steady state includes writeback cost.
            if fs.dirty_pages() > 512 {
                fs.background_writeback(512, sim_disk::IoClass::Normal, now)
                    .unwrap();
            }
        }
        // Advance to the scheduled time of the next op to account for
        // trailing idle gap.
        now = now.max(wl.next_op_time());
        let util = wl.achieved_util(&fs, now);
        assert!(
            (0.40..0.60).contains(&util),
            "achieved utilization {util:.3} vs target 0.5"
        );
    }

    #[test]
    fn throttle_leaves_burst_gaps() {
        // Gaps must appear at burst boundaries and be long enough for a
        // CFQ grace period to elapse — the idle windows maintenance
        // lives on.
        let mut fs = btrfs(1 << 17, 1024);
        let cfg = WorkloadConfig {
            target_util: 0.5,
            burst: 8,
            ..Default::default()
        };
        let mut wl = Workload::setup(
            &mut fs,
            cfg,
            FileSetConfig {
                num_files: 100,
                mean_file_bytes: 256 * 1024,
                sigma: 0.3,
            },
        )
        .unwrap();
        let mut now = SimInstant::EPOCH;
        let mut gaps = Vec::new();
        let mut last_finish = now;
        for i in 0..400 {
            now = now.max(wl.next_op_time());
            let sched = wl.next_op_time();
            if i > 16 && sched > last_finish {
                gaps.push(sched.duration_since(last_finish));
            }
            last_finish = wl.run_op(&mut fs, now).unwrap();
        }
        assert!(!gaps.is_empty(), "no idle gaps at 50% utilization");
        let long_gaps = gaps
            .iter()
            .filter(|g| **g >= sim_core::SimDuration::from_millis(4))
            .count();
        assert!(
            long_gaps * 2 >= gaps.len(),
            "most burst gaps should exceed a CFQ grace period: {long_gaps}/{}",
            gaps.len()
        );
    }

    #[test]
    fn unthrottled_runs_back_to_back() {
        let mut fs = btrfs(1 << 16, 512);
        let cfg = WorkloadConfig {
            target_util: 1.0,
            ..Default::default()
        };
        let mut wl = Workload::setup(&mut fs, cfg, small_fileset()).unwrap();
        let mut now = SimInstant::EPOCH;
        for _ in 0..500 {
            now = now.max(wl.next_op_time());
            now = wl.run_op(&mut fs, now).unwrap();
        }
        let util = wl.achieved_util(&fs, now);
        assert!(util > 0.95, "unthrottled utilization {util:.3}");
    }

    #[test]
    fn webserver_is_read_mostly_and_appends_to_log() {
        let mut fs = btrfs(1 << 16, 1024);
        let mut wl = Workload::setup(&mut fs, WorkloadConfig::default(), small_fileset()).unwrap();
        let mut now = SimInstant::EPOCH;
        for _ in 0..2000 {
            now = now.max(wl.next_op_time());
            now = wl.run_op(&mut fs, now).unwrap();
        }
        let s = wl.stats();
        let ratio = s.bytes_read as f64 / s.bytes_written.max(1) as f64;
        assert!((5.0..20.0).contains(&ratio), "r:w byte ratio {ratio:.1}");
        assert_eq!(s.files_replaced, 0, "webserver never replaces files");
    }

    #[test]
    fn fileserver_is_write_heavy() {
        let mut fs = btrfs(1 << 17, 1024);
        let cfg = WorkloadConfig {
            personality: Personality::FileServer,
            ..Default::default()
        };
        let mut wl = Workload::setup(&mut fs, cfg, small_fileset()).unwrap();
        let mut now = SimInstant::EPOCH;
        for _ in 0..2000 {
            now = now.max(wl.next_op_time());
            now = wl.run_op(&mut fs, now).unwrap();
            if fs.dirty_pages() > 2048 {
                fs.background_writeback(2048, sim_disk::IoClass::Normal, now)
                    .unwrap();
            }
        }
        let s = wl.stats();
        let ratio = s.bytes_read as f64 / s.bytes_written.max(1) as f64;
        assert!(ratio < 1.0, "fileserver r:w byte ratio {ratio:.2}");
        assert!(s.files_replaced > 0);
    }

    #[test]
    fn webproxy_replaces_files() {
        let mut fs = btrfs(1 << 17, 1024);
        let cfg = WorkloadConfig {
            personality: Personality::WebProxy,
            ..Default::default()
        };
        let mut wl = Workload::setup(&mut fs, cfg, small_fileset()).unwrap();
        let mut now = SimInstant::EPOCH;
        for _ in 0..1000 {
            now = now.max(wl.next_op_time());
            now = wl.run_op(&mut fs, now).unwrap();
        }
        let s = wl.stats();
        assert!(s.files_replaced > 0, "webproxy deletes and re-creates");
        let ratio = s.bytes_read as f64 / s.bytes_written.max(1) as f64;
        assert!((2.0..8.0).contains(&ratio), "r:w {ratio:.2}");
    }

    #[test]
    fn works_on_f2fs_too() {
        let disk = Disk::new(Box::new(HddModel::sas_10k(1 << 16)));
        let mut fs = sim_f2fs::F2fsSim::new(DeviceId(1), disk, 1024, 512);
        let cfg = WorkloadConfig {
            personality: Personality::FileServer,
            ..Default::default()
        };
        let mut wl = Workload::setup(&mut fs, cfg, small_fileset()).unwrap();
        let mut now = SimInstant::EPOCH;
        for _ in 0..500 {
            now = now.max(wl.next_op_time());
            now = wl.run_op(&mut fs, now).unwrap();
            if fs.dirty_pages() > 1024 {
                fs.background_writeback(1024, sim_disk::IoClass::Normal, now)
                    .unwrap();
            }
        }
        assert!(wl.stats().bytes_written > 0);
        assert!(wl.stats().bytes_read > 0);
    }
}
