//! The I/O vocabulary both filesystems share: contiguous block runs,
//! per-operation accounting, and the coalesce-and-submit step.

use crate::{Disk, IoClass, IoKind, IoRequest, RetryPolicy};
use sim_core::{BlockNr, SimInstant, SimResult};

/// A contiguous run of blocks — the unit the allocators hand out, the
/// extent maps store and the device is charged for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Run {
    /// First block.
    pub start: BlockNr,
    /// Length in blocks.
    pub len: u64,
}

impl Run {
    /// The run's blocks, ascending.
    pub fn blocks(self) -> impl Iterator<Item = BlockNr> {
        (0..self.len).map(move |i| self.start.offset(i))
    }
}

/// Coalesces block numbers (any order, duplicates allowed) into maximal
/// contiguous ascending runs, written to `runs` (cleared first). Both
/// are the caller's buffers: `blocks` is left sorted and deduplicated,
/// and neither allocates once it has grown to the caller's sizes.
pub fn coalesce_into(blocks: &mut Vec<BlockNr>, runs: &mut Vec<Run>) {
    runs.clear();
    blocks.sort_unstable();
    blocks.dedup();
    for &b in blocks.iter() {
        match runs.last_mut() {
            Some(r) if r.start.raw() + r.len == b.raw() => r.len += 1,
            _ => runs.push(Run { start: b, len: 1 }),
        }
    }
}

/// I/O accounting for one filesystem operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct OpStats {
    /// Blocks read from the device.
    pub blocks_read: u64,
    /// Blocks written to the device.
    pub blocks_written: u64,
    /// Read requests issued.
    pub read_reqs: u64,
    /// Write requests issued.
    pub write_reqs: u64,
    /// Pages served from the cache without I/O.
    pub cache_hits: u64,
    /// Completion time of the last request (equals the submission time
    /// if no I/O was needed).
    pub finish: SimInstant,
}

impl OpStats {
    /// Stats for an operation that did no I/O, completing at `now`.
    pub fn none(now: SimInstant) -> Self {
        OpStats {
            finish: now,
            ..OpStats::default()
        }
    }

    /// Folds another operation's stats into this one.
    pub fn merge(&mut self, other: &OpStats) {
        self.blocks_read += other.blocks_read;
        self.blocks_written += other.blocks_written;
        self.read_reqs += other.read_reqs;
        self.write_reqs += other.write_reqs;
        self.cache_hits += other.cache_hits;
        self.finish = self.finish.max(other.finish);
    }

    /// Total blocks transferred.
    pub fn total_blocks(&self) -> u64 {
        self.blocks_read + self.blocks_written
    }
}

impl Disk {
    /// Submits one run as one request, with the bounded retry of
    /// [`Disk::submit_with_retry`], and charges it to `stats`.
    pub fn submit_run(
        &mut self,
        run: Run,
        kind: IoKind,
        class: IoClass,
        now: SimInstant,
        policy: RetryPolicy,
        stats: &mut OpStats,
    ) -> SimResult<()> {
        let req = IoRequest::new(kind, run.start, run.len, class);
        let (finish, _) = self.submit_with_retry(&req, now, policy)?;
        stats.finish = stats.finish.max(finish);
        match kind {
            IoKind::Read => {
                stats.blocks_read += run.len;
                stats.read_reqs += 1;
            }
            IoKind::Write => {
                stats.blocks_written += run.len;
                stats.write_reqs += 1;
            }
        }
        Ok(())
    }
}
