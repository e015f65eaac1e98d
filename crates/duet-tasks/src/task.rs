//! Common maintenance-task machinery.
//!
//! Every task is a resumable state machine: the experiment runner calls
//! [`BtrfsTask::step`] whenever the scheduling policy allows maintenance
//! I/O (idle-priority tasks only get the device's idle gaps, §6.1.3),
//! and each step performs one small chunk of work — mirroring how "the
//! maintenance work is usually partitioned in small chunks that can be
//! scheduled around workloads" (§5.6).

use duet::{Duet, EventMask, FsIntrospect, Item, ItemId, SessionId, TaskScope};
use sim_btrfs::BtrfsSim;
use sim_core::{SimError, SimInstant, SimResult};

/// Whether a task runs with or without the Duet framework.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TaskMode {
    /// The unmodified task: fixed processing order, no hints.
    Baseline,
    /// The opportunistic task: registered with Duet, processes cached
    /// data out of order.
    Duet,
}

impl TaskMode {
    /// The parenthesised part of a task's display name.
    pub(crate) fn label(self) -> &'static str {
        match self {
            TaskMode::Baseline => "baseline",
            TaskMode::Duet => "duet",
        }
    }
}

/// Items drained from Duet per fetch.
const FETCH_BATCH: usize = 256;

/// A task's Duet session — or its absence. Hints are advisory (§3.2):
/// a task that cannot get a session, or whose session vanishes under
/// it, carries on in its baseline order, so every task holds one of
/// these and asks it for work instead of matching on session errors.
#[derive(Default)]
pub(crate) enum HintSession {
    /// The task has not been started.
    #[default]
    Unopened,
    /// Started, working in baseline order.
    NoHints,
    /// Started, with hints flowing.
    Live(SessionId),
}

impl HintSession {
    /// Marks the task started and, in [`TaskMode::Duet`], registers
    /// with Duet; when every session slot is taken the task runs
    /// without hints.
    pub(crate) fn open(
        &mut self,
        mode: TaskMode,
        duet: &mut Duet,
        scope: TaskScope,
        mask: EventMask,
        fs: &dyn FsIntrospect,
    ) -> SimResult<()> {
        *self = match mode {
            TaskMode::Baseline => HintSession::NoHints,
            TaskMode::Duet => match duet.register(scope, mask, fs) {
                Ok(sid) => HintSession::Live(sid),
                Err(SimError::TooManySessions) => HintSession::NoHints,
                Err(e) => return Err(e),
            },
        };
        Ok(())
    }

    /// The live session, if hints are flowing.
    pub(crate) fn id(&self) -> Option<SessionId> {
        match *self {
            HintSession::Live(sid) => Some(sid),
            _ => None,
        }
    }

    /// The session vanished under the task (external deregistration):
    /// degrade to the baseline order.
    pub(crate) fn forget(&mut self) {
        *self = HintSession::NoHints;
    }

    /// Replaces `batch` with the next batch of pending hints; it is
    /// left empty once they are drained, and from then on if there is
    /// no session or it has vanished. The task owns `batch`, so every
    /// fetch reuses one allocation.
    ///
    /// # Panics
    ///
    /// Panics if the task was never started.
    pub(crate) fn next_batch(
        &mut self,
        duet: &mut Duet,
        fs: &dyn FsIntrospect,
        batch: &mut Vec<Item>,
    ) -> SimResult<()> {
        assert!(!matches!(self, HintSession::Unopened), "step before start");
        batch.clear();
        let Some(sid) = self.id() else {
            return Ok(());
        };
        match duet.fetch_into(sid, FETCH_BATCH, batch, fs) {
            Err(SimError::InvalidSession(_)) => {
                self.forget();
                Ok(())
            }
            fetched => fetched,
        }
    }

    /// Whether Duet has `item` marked done for this session.
    pub(crate) fn is_done(&self, duet: &Duet, item: ItemId) -> bool {
        self.id()
            .is_some_and(|sid| duet.check_done(sid, item).unwrap_or(false))
    }

    /// Ends the session (`duet_deregister`), if there is one.
    pub(crate) fn close(&mut self, duet: &mut Duet) -> SimResult<()> {
        match std::mem::replace(self, HintSession::NoHints) {
            HintSession::Live(sid) => duet.deregister(sid),
            _ => Ok(()),
        }
    }
}

/// Result of one task step.
#[derive(Debug, Clone, Copy)]
pub struct StepResult {
    /// Virtual time at which the step's I/O completed.
    pub finish: SimInstant,
    /// Whether the task has finished all of its work.
    pub complete: bool,
}

/// Progress and I/O accounting exposed by every task.
#[derive(Debug, Clone, Copy, Default)]
pub struct TaskMetrics {
    /// Total work units (task-specific: blocks, pages, or I/O units).
    pub total_units: u64,
    /// Work units completed so far.
    pub done_units: u64,
    /// Work units completed *without maintenance I/O* thanks to Duet
    /// hints or cache hits — the numerator of the paper's "I/O saved"
    /// metric (Table 4).
    pub saved_units: u64,
    /// Blocks actually read from the device by this task.
    pub blocks_read: u64,
    /// Blocks written to the device by this task.
    pub blocks_written: u64,
}

impl TaskMetrics {
    /// Fraction of work completed.
    pub fn work_fraction(&self) -> f64 {
        if self.total_units == 0 {
            1.0
        } else {
            (self.done_units as f64 / self.total_units as f64).min(1.0)
        }
    }

    /// The paper's "I/O saved" ratio: maintenance I/O avoided relative
    /// to the I/O the baseline task would perform.
    pub fn io_saved_fraction(&self) -> f64 {
        if self.total_units == 0 {
            0.0
        } else {
            self.saved_units as f64 / self.total_units as f64
        }
    }
}

/// Execution context handed to each Btrfs task step.
pub struct BtrfsCtx<'a> {
    /// The filesystem (and its disk + page cache).
    pub fs: &'a mut BtrfsSim,
    /// The Duet framework instance for this device.
    pub duet: &'a mut Duet,
    /// Current virtual time.
    pub now: SimInstant,
}

/// A maintenance task over the Btrfs-model filesystem (scrub, backup,
/// defragmentation).
pub trait BtrfsTask {
    /// Display name, e.g. `"scrub(duet)"`.
    fn name(&self) -> String;

    /// One-time setup: plan the work and register with Duet (Duet
    /// mode). Must be called before the first `step`.
    fn start(&mut self, ctx: BtrfsCtx<'_>) -> SimResult<()>;

    /// Performs one chunk of work.
    fn step(&mut self, ctx: BtrfsCtx<'_>) -> SimResult<StepResult>;

    /// Drains pending Duet notifications and performs any opportunistic
    /// work that needs *no device I/O* (e.g. marking workload-read
    /// blocks scrubbed, copying cached snapshot pages to the backup
    /// stream). The paper's tasks "invoke fetch calls many times per
    /// second" (§4.2) — polling is CPU work and is not gated on device
    /// idleness, so the runner calls this every few milliseconds of
    /// virtual time. Cached pages are only useful while they remain
    /// cached; without frequent polling, opportunities expire with
    /// eviction.
    fn poll(&mut self, ctx: BtrfsCtx<'_>) -> SimResult<()> {
        let _ = ctx;
        Ok(())
    }

    /// Final bookkeeping drain at window end; defaults to one last
    /// [`BtrfsTask::poll`].
    fn finalize(&mut self, ctx: BtrfsCtx<'_>) -> SimResult<()> {
        self.poll(ctx)
    }

    /// Ends the task's Duet session after its work completes — "the
    /// task ends the session when its work is complete by calling
    /// duet_deregister, which releases all Duet session state" (§3.2).
    /// Without this, events keep accumulating descriptors that no one
    /// will ever fetch.
    fn stop(&mut self, ctx: BtrfsCtx<'_>) -> SimResult<()> {
        let _ = ctx;
        Ok(())
    }

    /// Progress and I/O counters.
    fn metrics(&self) -> TaskMetrics;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metrics_fractions() {
        let m = TaskMetrics {
            total_units: 100,
            done_units: 50,
            saved_units: 20,
            blocks_read: 30,
            blocks_written: 0,
        };
        assert_eq!(m.work_fraction(), 0.5);
        assert_eq!(m.io_saved_fraction(), 0.2);
        let empty = TaskMetrics::default();
        assert_eq!(empty.work_fraction(), 1.0, "no work means done");
        assert_eq!(empty.io_saved_fraction(), 0.0);
    }
}
