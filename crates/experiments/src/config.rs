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
#[derive(Debug, Clone)]
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
    /// Informed cache replacement (an extension beyond the paper, named
    /// as future work in its §2): eviction deprioritizes pages whose
    /// Duet notifications have not been consumed yet. Advisory only —
    /// never pins pages.
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

impl Default for ExperimentConfig {
    fn default() -> Self {
        ExperimentConfig {
            device: DeviceKind::Hdd,
            capacity_blocks: 1 << 19, // 2 GiB device
            cache_pages: 4096,        // 16 MiB cache
            fileset: FileSetConfig {
                num_files: 2000,
                mean_file_bytes: 128 * 1024,
                sigma: 0.5,
            },
            workload: None,
            tasks: vec![TaskKind::Scrub],
            duet: true,
            policy: SchedulerPolicy::default_cfq(),
            duration: SimDuration::from_mins(5),
            fragmentation: None,
            poll_period: SimDuration::from_millis(20),
            defrag_file_granularity: false,
            informed_replacement: false,
            scatter_layout: false,
            seed: 42,
        }
    }
}

impl ExperimentConfig {
    /// End instant of the run.
    pub fn end(&self) -> SimInstant {
        SimInstant::EPOCH + self.duration
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_coherent() {
        let cfg = ExperimentConfig::default();
        // The file set must fit the device with room for COW churn.
        let data_blocks =
            cfg.fileset.num_files as u64 * cfg.fileset.mean_file_bytes / sim_core::PAGE_SIZE;
        assert!(data_blocks * 2 < cfg.capacity_blocks);
        assert_eq!(cfg.end(), SimInstant::EPOCH + cfg.duration);
    }
}
