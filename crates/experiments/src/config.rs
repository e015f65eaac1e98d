//! Experiment configuration.

use sim_core::{SimDuration, SimInstant};
use sim_disk::SchedulerPolicy;
use workloads::{FileSetConfig, WorkloadConfig};

/// Which device model backs the filesystem (§6.1.3 vs §6.5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum DeviceKind {
    /// The 10K-RPM SAS drive of the main evaluation.
    Hdd,
    /// The consumer SSD of §6.5.
    Ssd,
}

/// Which maintenance tasks run, in registration order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TaskKind {
    /// Btrfs scrubbing (§5.1).
    Scrub,
    /// Snapshot backup (§5.2).
    Backup,
    /// File defragmentation (§5.3).
    Defrag,
}

/// Full configuration of one Btrfs-model experiment run.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentConfig {
    /// Device model.
    pub device: DeviceKind,
    /// Device capacity in blocks.
    pub capacity_blocks: u64,
    /// Page-cache size in pages. The paper boots with 2 GB of RAM
    /// against 50 GB of data (§6.1.3) — roughly 2–4 % of the data set.
    pub cache_pages: usize,
    /// File-set shape.
    pub fileset: FileSetConfig,
    /// Foreground workload; `None` runs maintenance alone (the 0 %
    /// utilization points).
    pub workload: Option<WorkloadConfig>,
    /// Maintenance tasks to run concurrently.
    pub tasks: Vec<TaskKind>,
    /// Run tasks with Duet (`true`) or as baselines.
    pub duet: bool,
    /// I/O scheduling policy for maintenance.
    pub policy: SchedulerPolicy,
    /// Virtual experiment length (the paper uses 30 minutes).
    pub duration: SimDuration,
    /// Fraction of files to pre-fragment, and into how many pieces
    /// (the defragmentation experiments use a "10 % fragmented file
    /// system", §6.2).
    pub fragmentation: Option<(f64, u64)>,
    /// How often tasks poll Duet for hints (CPU work; §6.4's fetch
    /// cadence). Longer periods let cached pages evict before their
    /// hints are consumed.
    pub poll_period: SimDuration,
    /// Degrade the defragmenter's hints to file granularity
    /// (inotify-style, §3.3): files are queued on any access, but
    /// without residency counts there is nothing to prioritize by.
    /// For the hint-granularity ablation.
    pub defrag_file_granularity: bool,
    /// Must be `false`: informed cache replacement was removed, and
    /// [`crate::run_experiment_with`] rejects `true`. The field is kept
    /// only because the frozen benchmark mirror asserts it is false.
    pub informed_replacement: bool,
    /// Age the layout: relocate files in random order so that inode
    /// order no longer matches physical order. On an aged filesystem
    /// the scrubber's physical-order scan stays sequential while the
    /// backup's inode-order pass becomes random I/O — the paper's
    /// premise for why "the backup requires almost twice the amount of
    /// time needed for scrubbing" (§6.2).
    pub scatter_layout: bool,
    /// RNG seed (population, fragmentation choice).
    pub seed: u64,
}

impl ExperimentConfig {
    /// End instant of the run.
    pub fn end(&self) -> SimInstant {
        SimInstant::EPOCH + self.duration
    }
}
