//! Duet-vs-Baseline equivalence oracle under fault injection.
//!
//! The paper's framework is only allowed to change *when* maintenance
//! work happens, never *what* it produces (§3.2: hints are best-effort,
//! every action is validated against ground truth). This module turns
//! that contract into an executable check: each task runs twice —
//! opportunistic (Duet) and baseline — under the **same** workload
//! operation list and the **same** fault plan, and the final logical
//! states must be identical:
//!
//! - **scrub**: the set of verified blocks;
//! - **backup**: the set of blocks shipped to the backup stream and the
//!   bytes sent;
//! - **defragmentation**: per-file extent counts (layout invariant);
//! - **rsync**: the destination tree (path → size);
//! - **GC**: logical file state (name → size, every page mapped to a
//!   valid block) plus the filesystem's own consistency check.
//!
//! Both runs of a pair construct a fresh [`FaultHandle`] from the
//! same `(seed, plan)` pair, so each run is bit-replayable on its own;
//! every failure message embeds [`replay_line`] so a CI hit can be
//! reproduced locally with `DUET_FAULT_SEED`.

use duet::{Duet, EventMask, FsIntrospect, SessionId, TaskScope};
use duet_tasks::{
    pump_btrfs, pump_f2fs, Backup, BtrfsCtx, BtrfsTask, Defrag, GarbageCollector, GcCtx, Rsync,
    RsyncCtx, Scrubber, StepResult, TaskMode,
};
use sim_btrfs::BtrfsSim;
use sim_core::fault::{replay_line, FaultHandle, FaultPlan, FaultSite};
use sim_core::trace::{TraceEvent, TraceHandle, TraceKind};
use sim_core::{BlockNr, DeviceId, InodeNr, SimError, SimInstant, SimResult, SimRng, PAGE_SIZE};
use sim_disk::{Disk, HddModel, IoClass, IoKind, IoRequest, RetryPolicy};
use sim_f2fs::{F2fsSim, VictimPolicy};
use std::collections::{BTreeMap, BTreeSet};
use workloads::WorkloadFs;

const T0: SimInstant = SimInstant::EPOCH;
/// Workload operations interleaved with each run.
const WORKLOAD_OPS: usize = 48;
/// Hard step bound so a wedged run fails loudly instead of spinning.
const MAX_STEPS: u32 = 20_000;
/// Retry budget for the oracle runs: aggressive plans (8 % transient
/// EIO) would exhaust the default 4 attempts once in a few hundred
/// requests; 6 doublings make exhaustion astronomically unlikely while
/// still exercising the backoff path constantly.
fn oracle_retry() -> RetryPolicy {
    RetryPolicy {
        max_attempts: 6,
        ..RetryPolicy::default()
    }
}

/// The five maintenance tasks the oracle covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OracleTask {
    /// Checksum scrubber (§5.1).
    Scrub,
    /// Snapshot backup (§5.2).
    Backup,
    /// File defragmentation (§5.3).
    Defrag,
    /// Directory synchronization (§5.5).
    Rsync,
    /// F2fs segment cleaning (§5.4).
    Gc,
}

impl OracleTask {
    /// Every task, in a fixed order.
    pub const ALL: [OracleTask; 5] = [
        OracleTask::Scrub,
        OracleTask::Backup,
        OracleTask::Defrag,
        OracleTask::Rsync,
        OracleTask::Gc,
    ];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            OracleTask::Scrub => "scrub",
            OracleTask::Backup => "backup",
            OracleTask::Defrag => "defrag",
            OracleTask::Rsync => "rsync",
            OracleTask::Gc => "gc",
        }
    }
}

/// Outcome of one passing equivalence check.
#[derive(Debug)]
pub struct OracleReport {
    /// The task that was checked.
    pub task: OracleTask,
    /// The (identical) final-state digest of both runs.
    pub digest: String,
    /// Faults injected across both runs — lets callers assert that an
    /// adversarial plan actually exercised its fault paths rather than
    /// passing vacuously.
    pub faults_fired: u64,
}

/// Runs `task` twice — Duet then Baseline — under the same workload and
/// fault plan, and compares final-state digests. `Err` carries a
/// human-readable diagnosis ending in the replay line.
pub fn check_pair(task: OracleTask, seed: u64, plan: &FaultPlan) -> Result<OracleReport, String> {
    check_pair_with(task, seed, plan, Meddle::None)
}

/// What is done to the Duet run of a pair beyond the fault plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Meddle {
    /// Nothing.
    None,
    /// A deliberate defect — every task has a silent-failure switch
    /// (skipped repairs, dropped backup blocks, un-rewritten files,
    /// unsent files, a lost GC migration). Proves the oracle
    /// discriminates: a sabotaged pair must come back `Err`.
    Sabotage,
    /// Every session slot is taken before the task starts. Hints are
    /// advisory (§3.2): the pair must still match.
    SlotsFull,
    /// The task's session is deregistered behind its back after its
    /// first step; the pair must still match.
    SessionLost,
}

impl Meddle {
    /// [`Meddle::SlotsFull`], before the task starts: registers
    /// sessions until the framework has no slot left.
    fn before_start(self, duet: &mut Duet, fs: &dyn FsIntrospect) -> Result<(), String> {
        let scope = TaskScope::Block {
            device: fs.device(),
        };
        if self != Meddle::SlotsFull {
            return Ok(());
        }
        loop {
            match duet.register(scope, EventMask::ADDED, fs) {
                Ok(_) => {}
                Err(SimError::TooManySessions) => return Ok(()),
                Err(e) => return Err(e.to_string()),
            }
        }
    }

    /// [`Meddle::SessionLost`], after a step: deregisters the task's
    /// session — the first slot of the run's fresh framework — once.
    fn after_step(&mut self, duet: &mut Duet) -> Result<(), String> {
        if *self == Meddle::SessionLost {
            *self = Meddle::None;
            duet.deregister(SessionId(0))
                .map_err(|e| format!("the task held no session to lose: {e}"))?;
        }
        Ok(())
    }
}

/// [`check_pair`] with the Duet run meddled with.
pub fn check_pair_with(
    task: OracleTask,
    seed: u64,
    plan: &FaultPlan,
    meddle: Meddle,
) -> Result<OracleReport, String> {
    let fail = |phase: &str, msg: String| {
        format!(
            "oracle[{}/{phase}]: {msg}\n  {}",
            task.name(),
            replay_line(seed, plan)
        )
    };
    let (duet, duet_fired) =
        run_digest(task, TaskMode::Duet, seed, plan, meddle, None).map_err(|e| fail("duet", e))?;
    let (base, base_fired) = run_digest(task, TaskMode::Baseline, seed, plan, Meddle::None, None)
        .map_err(|e| fail("baseline", e))?;
    if duet != base {
        return Err(fail(
            "compare",
            format!("final states diverge\n  duet:     {duet}\n  baseline: {base}"),
        ));
    }
    Ok(OracleReport {
        task,
        digest: duet,
        faults_fired: duet_fired + base_fired,
    })
}

// ----- first-divergence localizer -------------------------------------

/// Ring capacity for localizer runs: big enough that no oracle
/// scenario rotates its earliest effect events out of the buffer.
const LOCALIZE_TRACE_CAPACITY: usize = 1 << 20;

/// The earliest point where the Duet run's observable effects differ
/// from the baseline's, with the causal context that produced it.
#[derive(Debug, Clone)]
pub struct Divergence {
    /// The task under check.
    pub task: OracleTask,
    /// Effect kind that diverged (e.g. `"scrub.verify"`), or
    /// `"digest"` when only the digest comparison caught it (a
    /// divergence outside the effect vocabulary).
    pub kind: String,
    /// Diverging entity: a block number for scrub/backup, an inode
    /// number for defrag/rsync/GC, 0 for a digest-only divergence.
    pub entity: u64,
    /// Final effect payload on the Duet side (`None`: effect absent).
    pub duet: Option<String>,
    /// Final effect payload on the baseline side (`None`: absent).
    pub baseline: Option<String>,
    /// Originating site of the differing event, `layer/kind`.
    pub site: String,
    /// Causal span chain of that event, innermost first (the task
    /// work item it happened under, then its enclosing spans).
    pub chain: Vec<String>,
}

impl Divergence {
    /// One-line rendering for logs and CI output.
    pub fn render(&self) -> String {
        let fmt_side = |s: &Option<String>| s.clone().unwrap_or_else(|| "<absent>".into());
        let chain = if self.chain.is_empty() {
            "<none>".to_string()
        } else {
            self.chain.join(" <- ")
        };
        format!(
            "first divergence[{}]: {} entity={} duet={} baseline={} site={} chain={}",
            self.task.name(),
            self.kind,
            self.entity,
            fmt_side(&self.duet),
            fmt_side(&self.baseline),
            self.site,
            chain,
        )
    }
}

/// Runs `task` twice like [`check_pair_with`], but with the trace plane
/// armed, and localizes the earliest divergent effect instead of just
/// comparing digests. Returns `Ok(None)` when the runs are equivalent.
///
/// Each side's event stream is projected onto the task's effect
/// vocabulary (per-entity final effects: blocks verified, blocks
/// shipped, files rewritten, files sent, final GC file state); the
/// streams are then replayed in lockstep over the ordered entity space
/// and the first differing entity is reported together with the causal
/// span chain of the event that produced (or should have produced) it.
/// When the projections agree but the digests differ, the check
/// degrades to the digest comparison (`kind == "digest"`).
pub fn localize_pair(
    task: OracleTask,
    seed: u64,
    plan: &FaultPlan,
    sabotage_duet: bool,
) -> Result<Option<Divergence>, String> {
    let fail = |phase: &str, msg: String| {
        format!(
            "oracle[{}/{phase}]: {msg}\n  {}",
            task.name(),
            replay_line(seed, plan)
        )
    };
    let meddle = if sabotage_duet {
        Meddle::Sabotage
    } else {
        Meddle::None
    };
    let duet_trace = TraceHandle::new(LOCALIZE_TRACE_CAPACITY);
    let base_trace = TraceHandle::new(LOCALIZE_TRACE_CAPACITY);
    let (duet_digest, _) = run_digest(task, TaskMode::Duet, seed, plan, meddle, Some(&duet_trace))
        .map_err(|e| fail("duet", e))?;
    let (base_digest, _) = run_digest(
        task,
        TaskMode::Baseline,
        seed,
        plan,
        Meddle::None,
        Some(&base_trace),
    )
    .map_err(|e| fail("baseline", e))?;
    let duet_events = duet_trace.events();
    let base_events = base_trace.events();
    let duet_proj = project_effects(task, &duet_events);
    let base_proj = project_effects(task, &base_events);
    // Lockstep replay over the ordered union of effect keys: the first
    // key where the two sides disagree is the divergence.
    let keys: BTreeSet<&(TraceKind, u64)> = duet_proj.keys().chain(base_proj.keys()).collect();
    for &&(kind, entity) in &keys {
        let d = duet_proj.get(&(kind, entity));
        let b = base_proj.get(&(kind, entity));
        if d == b {
            continue;
        }
        // The side that *has* the event carries the causal context; a
        // missing event on the other side is the defect.
        let field = entity_field(kind);
        let ev = last_effect(&base_events, kind, field, entity)
            .or_else(|| last_effect(&duet_events, kind, field, entity));
        let (site, chain) = match ev {
            Some((events, e)) => (site_of(e), span_chain(events, e)),
            None => (format!("task/{}", kind.name()), Vec::new()),
        };
        return Ok(Some(Divergence {
            task,
            kind: kind.name().to_string(),
            entity,
            duet: d.cloned(),
            baseline: b.cloned(),
            site,
            chain,
        }));
    }
    if duet_digest != base_digest {
        // Outside the effect vocabulary: still report the divergence,
        // just without localization.
        return Ok(Some(Divergence {
            task,
            kind: "digest".into(),
            entity: 0,
            duet: Some(duet_digest),
            baseline: Some(base_digest),
            site: "oracle/digest".into(),
            chain: Vec::new(),
        }));
    }
    Ok(None)
}

/// The entity field name of an effect kind.
fn entity_field(kind: TraceKind) -> &'static str {
    match kind {
        TraceKind::ScrubVerify | TraceKind::BackupShip => "block",
        _ => "ino",
    }
}

/// Projects a run's event stream onto the task's per-entity effect
/// vocabulary. The result maps `(effect kind, entity)` to the entity's
/// final effect payload.
fn project_effects(task: OracleTask, events: &[TraceEvent]) -> BTreeMap<(TraceKind, u64), String> {
    let mut m = BTreeMap::new();
    for ev in events {
        match (task, ev.kind) {
            (OracleTask::Scrub, TraceKind::ScrubVerify) => {
                if let Some(b) = ev.field_u64("block") {
                    m.insert((TraceKind::ScrubVerify, b), "verified".to_string());
                }
            }
            // A dirtied block's earlier verification is withdrawn: the
            // projection tracks the *final* verified set.
            (OracleTask::Scrub, TraceKind::ScrubUnverify) => {
                if let Some(b) = ev.field_u64("block") {
                    m.remove(&(TraceKind::ScrubVerify, b));
                }
            }
            (OracleTask::Backup, TraceKind::BackupShip) => {
                if let Some(b) = ev.field_u64("block") {
                    m.insert((TraceKind::BackupShip, b), "shipped".to_string());
                }
            }
            (OracleTask::Defrag, TraceKind::DefragReloc) => {
                if let Some(ino) = ev.field_u64("ino") {
                    m.insert((TraceKind::DefragReloc, ino), "rewritten".to_string());
                }
            }
            (OracleTask::Rsync, TraceKind::RsyncSend) => {
                if let Some(ino) = ev.field_u64("ino") {
                    m.insert((TraceKind::RsyncSend, ino), "sent".to_string());
                }
            }
            (OracleTask::Gc, TraceKind::GcFinal) => {
                if let (Some(ino), Some(size), Some(mapped)) = (
                    ev.field_u64("ino"),
                    ev.field_u64("size"),
                    ev.field_u64("mapped"),
                ) {
                    m.insert(
                        (TraceKind::GcFinal, ino),
                        format!("size={size} mapped={mapped}"),
                    );
                }
            }
            _ => {}
        }
    }
    m
}

/// The last effect event for `(kind, entity)` in a stream, paired with
/// the stream it came from (for span-chain resolution).
fn last_effect<'a>(
    events: &'a [TraceEvent],
    kind: TraceKind,
    field: &str,
    entity: u64,
) -> Option<(&'a [TraceEvent], &'a TraceEvent)> {
    events
        .iter()
        .rev()
        .find(|e| e.kind == kind && e.field_u64(field) == Some(entity))
        .map(|e| (events, e))
}

/// An event's originating site, `layer/kind`.
fn site_of(e: &TraceEvent) -> String {
    format!("{}/{}", e.kind.layer(), e.kind.name())
}

/// Walks an event's enclosing context spans, innermost first.
fn span_chain(events: &[TraceEvent], ev: &TraceEvent) -> Vec<String> {
    let by_span: BTreeMap<u64, &TraceEvent> = events
        .iter()
        .filter_map(|e| e.span.map(|s| (s.0, e)))
        .collect();
    let mut chain = Vec::new();
    let mut cur = ev.parent;
    while let Some(p) = cur {
        let Some(pe) = by_span.get(&p.0) else {
            break;
        };
        chain.push(site_of(pe));
        cur = pe.parent;
        if chain.len() >= 16 {
            break; // Defensive bound; context nesting is shallow.
        }
    }
    chain
}

// ----- workload -------------------------------------------------------

/// One deterministic foreground operation. The op list is generated
/// once per `(seed, task)` and applied identically to both runs of a
/// pair, so any state divergence is the task's fault, not the
/// workload's.
#[derive(Debug, Clone, Copy)]
enum WlOp {
    /// Read `pages` pages of file `file` starting at `page`.
    Read { file: usize, page: u64, pages: u64 },
    /// Overwrite `pages` pages of file `file` starting at `page`.
    Write { file: usize, page: u64, pages: u64 },
    /// Flush a batch of dirty pages.
    Writeback,
}

fn gen_ops(rng: &mut SimRng, nfiles: usize, pages_each: u64, writes: bool) -> Vec<WlOp> {
    (0..WORKLOAD_OPS)
        .map(|_| {
            let file = rng.gen_range(0, nfiles as u64) as usize;
            let pages = rng.gen_range(1, 5).min(pages_each);
            let page = rng.gen_range(0, pages_each - pages + 1);
            if writes && rng.gen_range(0, 4) == 0 {
                if rng.gen_range(0, 8) == 0 {
                    WlOp::Writeback
                } else {
                    WlOp::Write { file, page, pages }
                }
            } else {
                WlOp::Read { file, page, pages }
            }
        })
        .collect()
}

/// Issues one workload op at foreground priority on either filesystem;
/// `wb_batch` is the page budget of a [`WlOp::Writeback`].
fn issue_op(
    fs: &mut impl WorkloadFs,
    files: &[InodeNr],
    op: WlOp,
    wb_batch: usize,
) -> SimResult<()> {
    let bytes = |pages: u64| pages * PAGE_SIZE;
    match op {
        WlOp::Read { file, page, pages } => fs.wl_read(files[file], bytes(page), bytes(pages), T0),
        WlOp::Write { file, page, pages } => {
            fs.wl_write(files[file], bytes(page), bytes(pages), T0)
        }
        WlOp::Writeback => fs.wl_writeback(wb_batch, T0),
    }
    .map(|_| ())
}

/// Applies one workload op to a Btrfs filesystem, recovering from the
/// two injectable failures a foreground application would survive:
/// checksum mismatches (repair-and-retry, as Btrfs does from a good
/// mirror) and exhausted transient-EIO retries (give up on the op).
fn apply_btrfs_op(fs: &mut BtrfsSim, files: &[InodeNr], op: WlOp) -> Result<(), String> {
    let mut attempts = 0;
    loop {
        match issue_op(fs, files, op, 32) {
            Ok(()) => return Ok(()),
            Err(SimError::ChecksumMismatch(b)) if attempts < 16 => {
                attempts += 1;
                fs.verify_and_repair(b).map_err(|e| e.to_string())?;
            }
            Err(SimError::TransientIo(_)) => return Ok(()),
            Err(e) => return Err(format!("workload op {op:?} failed: {e}")),
        }
    }
}

// ----- per-task runs --------------------------------------------------

fn hdd(capacity: u64) -> Disk {
    Disk::new(Box::new(HddModel::sas_10k(capacity)))
}

fn run_digest(
    task: OracleTask,
    mode: TaskMode,
    seed: u64,
    plan: &FaultPlan,
    meddle: Meddle,
    trace: Option<&TraceHandle>,
) -> Result<(String, u64), String> {
    match task {
        OracleTask::Scrub => run_btrfs(&SCRUB_RUN, mode, seed, plan, meddle, trace),
        OracleTask::Backup => run_btrfs(&BACKUP_RUN, mode, seed, plan, meddle, trace),
        OracleTask::Defrag => run_btrfs(&DEFRAG_RUN, mode, seed, plan, meddle, trace),
        OracleTask::Rsync => run_rsync(mode, seed, plan, meddle, trace),
        OracleTask::Gc => run_gc(mode, seed, plan, meddle, trace),
    }
}

/// Drives a task over a Btrfs filesystem to completion — `step` is its
/// step function — interleaving workload ops and retrying steps that
/// die on exhausted transient-I/O budgets.
fn drive_btrfs(
    step: &mut dyn FnMut(&mut BtrfsSim, &mut Duet) -> SimResult<StepResult>,
    fs: &mut BtrfsSim,
    duet: &mut Duet,
    files: &[InodeNr],
    ops: &[WlOp],
    mut meddle: Meddle,
) -> Result<(), String> {
    let mut steps = 0u32;
    let mut op_idx = 0usize;
    let mut retries = 0u32;
    loop {
        if op_idx < ops.len() {
            apply_btrfs_op(fs, files, ops[op_idx])?;
            op_idx += 1;
            pump_btrfs(fs, duet);
        }
        match step(fs, duet) {
            Ok(r) => {
                retries = 0;
                pump_btrfs(fs, duet);
                meddle.after_step(duet)?;
                if r.complete && op_idx >= ops.len() {
                    return Ok(());
                }
            }
            Err(SimError::TransientIo(_)) if retries < 16 => retries += 1,
            Err(SimError::ChecksumMismatch(b)) if retries < 16 => {
                retries += 1;
                fs.verify_and_repair(b).map_err(|e| e.to_string())?;
            }
            Err(e) => return Err(format!("task step failed: {e}")),
        }
        steps += 1;
        if steps > MAX_STEPS {
            return Err("task did not terminate".into());
        }
    }
}

/// What differs between the oracle runs of the three [`BtrfsTask`]
/// tasks; [`run_btrfs`] is everything they share.
struct BtrfsRun<T> {
    /// Pages in each of the four populated files.
    file_pages: u64,
    /// Pre-step on the populated, still unfaulted filesystem.
    age: fn(&mut BtrfsSim, &[InodeNr]) -> SimResult<()>,
    /// Salt of the op-mix seed.
    op_salt: u64,
    /// Whether the op mix writes. Defrag's must not: writes would
    /// re-fragment files concurrently with the rewrite, making the
    /// final layout timing-dependent.
    writes: bool,
    /// The task's constructor, and its silent-failure switch.
    task: fn(TaskMode) -> T,
    sabotage: fn(&mut T),
    /// The final logical state the two runs of a pair must agree on.
    digest: fn(&T, &BtrfsSim, &[InodeNr]) -> Result<String, String>,
}

const SCRUB_RUN: BtrfsRun<Scrubber> = BtrfsRun {
    file_pages: 64,
    // Latent corruption for the scrubber to find (and the workload to
    // trip over — its repair-and-retry path is part of the check).
    age: |fs, _| {
        [BlockNr(3), BlockNr(70), BlockNr(155)]
            .into_iter()
            .try_for_each(|b| fs.inject_corruption(b))
    },
    op_salt: 0x5C0B,
    writes: true,
    task: Scrubber::new,
    sabotage: Scrubber::sabotage_skip_repair,
    // The verified-block set alone: latent-error faults can corrupt
    // freshly-written blocks at times that differ between the two
    // runs, so the residual corruption count is not part of the task's
    // contract — full scrub coverage is.
    digest: |task, _, _| Ok(format!("verified={:?}", task.verified_blocks())),
};

const BACKUP_RUN: BtrfsRun<Backup> = BtrfsRun {
    file_pages: 32,
    age: |_, _| Ok(()),
    op_salt: 0xBAC0,
    writes: true,
    task: Backup::new,
    sabotage: Backup::sabotage_skip_ship,
    digest: |task, _, _| {
        Ok(format!(
            "backed={:?} sent={}",
            task.backed_blocks(),
            task.sent_bytes
        ))
    },
};

const DEFRAG_RUN: BtrfsRun<Defrag> = BtrfsRun {
    file_pages: 32,
    age: |fs, files| {
        files[..3]
            .iter()
            .try_for_each(|&ino| fs.fragment_file(ino, 4))
    },
    op_salt: 0xDEF4,
    writes: false,
    task: Defrag::new,
    sabotage: Defrag::sabotage_skip_files,
    digest: |task, fs, files| {
        let mut layout = Vec::new();
        for &ino in files {
            layout.push((
                ino.raw(),
                fs.file_extent_count(ino).map_err(|e| e.to_string())?,
            ));
        }
        Ok(format!(
            "extents={layout:?} defragged={}",
            task.files_defragged
        ))
    },
};

/// One oracle run of a [`BtrfsTask`] task: populate, age, arm faults,
/// drive the task to completion under the op mix, fsck, digest.
fn run_btrfs<T: BtrfsTask>(
    run: &BtrfsRun<T>,
    mode: TaskMode,
    seed: u64,
    plan: &FaultPlan,
    meddle: Meddle,
    trace: Option<&TraceHandle>,
) -> Result<(String, u64), String> {
    let mut fs = BtrfsSim::new(DeviceId(0), hdd(1 << 14), 128);
    let mut duet = Duet::with_defaults();
    if let Some(t) = trace {
        fs.set_trace(Some(t.clone()));
        duet.set_trace(Some(t.clone()));
    }
    let mut files = Vec::new();
    for i in 0..4u64 {
        files.push(
            fs.populate_file(fs.root(), &format!("f{i}"), run.file_pages * PAGE_SIZE)
                .map_err(|e| e.to_string())?,
        );
    }
    (run.age)(&mut fs, &files).map_err(|e| e.to_string())?;
    let ops = gen_ops(
        &mut SimRng::new(seed ^ run.op_salt),
        4,
        run.file_pages,
        run.writes,
    );
    let mut task = (run.task)(mode);
    if meddle == Meddle::Sabotage {
        (run.sabotage)(&mut task);
    }
    let handle = FaultHandle::new(seed, plan.clone());
    fs.set_faults(Some(handle.clone()));
    fs.set_retry_policy(oracle_retry());
    meddle.before_start(&mut duet, &fs)?;
    duet.set_faults(Some(handle.clone()));
    task.start(BtrfsCtx {
        fs: &mut fs,
        duet: &mut duet,
        now: T0,
    })
    .map_err(|e| e.to_string())?;
    pump_btrfs(&mut fs, &mut duet);
    let mut step = |fs: &mut BtrfsSim, duet: &mut Duet| task.step(BtrfsCtx { fs, duet, now: T0 });
    drive_btrfs(&mut step, &mut fs, &mut duet, &files, &ops, meddle)?;
    task.stop(BtrfsCtx {
        fs: &mut fs,
        duet: &mut duet,
        now: T0,
    })
    .map_err(|e| e.to_string())?;
    fs.check_consistency()
        .map_err(|e| format!("consistency check failed: {e}"))?;
    Ok(((run.digest)(&task, &fs, &files)?, handle.total_fired()))
}

fn run_rsync(
    mode: TaskMode,
    seed: u64,
    plan: &FaultPlan,
    meddle: Meddle,
    trace: Option<&TraceHandle>,
) -> Result<(String, u64), String> {
    let mut src = BtrfsSim::new(DeviceId(0), hdd(1 << 14), 128);
    let mut dst = BtrfsSim::new(DeviceId(1), hdd(1 << 14), 128);
    let mut duet = Duet::with_defaults();
    if let Some(t) = trace {
        src.set_trace(Some(t.clone()));
        duet.set_trace(Some(t.clone()));
    }
    let docs = src.mkdir(src.root(), "docs").map_err(|e| e.to_string())?;
    let mut files = Vec::new();
    for (i, (parent, pages)) in [(docs, 8u64), (docs, 8), (src.root(), 16), (src.root(), 8)]
        .into_iter()
        .enumerate()
    {
        files.push(
            src.populate_file(parent, &format!("f{i}"), pages * PAGE_SIZE)
                .map_err(|e| e.to_string())?,
        );
    }
    // Read-only workload: concurrent writes would race the sender and
    // make the captured image size timing-dependent.
    let ops = gen_ops(&mut SimRng::new(seed ^ 0x55C1), 4, 8, false);
    let mut task = Rsync::new(mode, src.root());
    if meddle == Meddle::Sabotage {
        task.sabotage_skip_files();
    }
    let handle = FaultHandle::new(seed, plan.clone());
    src.set_faults(Some(handle.clone()));
    src.set_retry_policy(oracle_retry());
    dst.set_retry_policy(oracle_retry());
    meddle.before_start(&mut duet, &src)?;
    duet.set_faults(Some(handle.clone()));
    task.start(RsyncCtx {
        src: &mut src,
        dst: &mut dst,
        duet: &mut duet,
        now: T0,
    })
    .map_err(|e| e.to_string())?;
    pump_btrfs(&mut src, &mut duet);
    let mut step = |src: &mut BtrfsSim, duet: &mut Duet| {
        let (dst, now) = (&mut dst, T0);
        task.step(RsyncCtx {
            src,
            dst,
            duet,
            now,
        })
    };
    drive_btrfs(&mut step, &mut src, &mut duet, &files, &ops, meddle)?;
    dst.check_consistency()
        .map_err(|e| format!("dst consistency check failed: {e}"))?;
    let mut image = Vec::new();
    for ino in dst.inodes().files_by_inode() {
        let path = dst.path_of(ino).map_err(|e| e.to_string())?;
        let pages = dst
            .inodes()
            .get(ino)
            .map_err(|e| e.to_string())?
            .size_pages();
        image.push((path, pages));
    }
    image.sort();
    Ok((format!("image={image:?}"), handle.total_fired()))
}

fn run_gc(
    mode: TaskMode,
    seed: u64,
    plan: &FaultPlan,
    mut meddle: Meddle,
    trace: Option<&TraceHandle>,
) -> Result<(String, u64), String> {
    let mut fs = F2fsSim::new(DeviceId(1), hdd(256), 64, 8);
    let mut duet = Duet::with_defaults();
    if let Some(t) = trace {
        fs.set_trace(Some(t.clone()));
        duet.set_trace(Some(t.clone()));
    }
    let mut files = Vec::new();
    for i in 0..4u64 {
        files.push(
            fs.populate_file(&format!("f{i}"), 8 * PAGE_SIZE)
                .map_err(|e| e.to_string())?,
        );
    }
    let mut rng = SimRng::new(seed ^ 0x6C6C);
    let ops = gen_ops(&mut rng, 4, 8, true);
    let mut task = GarbageCollector::new(mode, VictimPolicy::Greedy).with_window(32);
    if meddle == Meddle::Sabotage {
        task.sabotage_lose_block();
    }
    let handle = FaultHandle::new(seed, plan.clone());
    fs.set_faults(Some(handle.clone()));
    fs.set_retry_policy(oracle_retry());
    meddle.before_start(&mut duet, &fs)?;
    duet.set_faults(Some(handle.clone()));
    task.start(GcCtx {
        fs: &mut fs,
        duet: &mut duet,
        now: T0,
    })
    .map_err(|e| e.to_string())?;
    pump_f2fs(&mut fs, &mut duet);
    for &op in &ops {
        // The F2fs workload: writes invalidate log blocks, periodic
        // writeback retires dirty pages, cleaning runs every few ops.
        let mut attempts = 0;
        loop {
            match issue_op(&mut fs, &files, op, 16) {
                Ok(()) => break,
                Err(SimError::TransientIo(_)) if attempts < 16 => attempts += 1,
                Err(e) => return Err(format!("workload op {op:?} failed: {e}")),
            }
        }
        pump_f2fs(&mut fs, &mut duet);
        let mut retries = 0;
        loop {
            match task.step(GcCtx {
                fs: &mut fs,
                duet: &mut duet,
                now: T0,
            }) {
                Ok(_) => break,
                Err(SimError::TransientIo(_)) if retries < 16 => retries += 1,
                Err(e) => return Err(format!("gc step failed: {e}")),
            }
        }
        pump_f2fs(&mut fs, &mut duet);
        meddle.after_step(&mut duet)?;
    }
    fs.check_consistency()
        .map_err(|e| format!("consistency check failed: {e}"))?;
    let mut state = Vec::new();
    for ino in fs.files() {
        let size = fs.size_of(ino).map_err(|e| e.to_string())?;
        let pages = size.div_ceil(PAGE_SIZE);
        let mapped = (0..pages).all(|p| {
            fs.mapping_of(ino, sim_core::PageIndex(p))
                .map(|b| fs.is_valid(b))
                .unwrap_or(false)
        });
        state.push((ino.raw(), size, mapped));
    }
    // "The notion of completed work does not apply to the garbage
    // collector" (§5.4): there is no per-item effect to trace during
    // the run, so the localizer's effect vocabulary for GC is the
    // final logical file state, emitted here as synthetic events.
    if let Some(t) = fs.trace() {
        for &(ino, size, mapped) in &state {
            t.event(TraceKind::GcFinal, T0, || {
                vec![
                    ("ino", ino.into()),
                    ("size", size.into()),
                    ("mapped", u64::from(mapped).into()),
                ]
            });
        }
    }
    Ok((format!("files={state:?}"), handle.total_fired()))
}

// ----- error-vocabulary exerciser ------------------------------------

/// Drives deliberate API misuse and forced faults against small
/// fixtures, returning the set of [`SimError`] labels observed. The
/// probes run once each, in a fixed order (a set has no order to
/// observe), and the fault matrix asserts the result covers
/// [`SimError::ALL_LABELS`] — i.e. every error variant in the
/// vocabulary is constructible and observable.
pub fn exercise_error_vocabulary(seed: u64) -> BTreeSet<&'static str> {
    (0..13)
        .filter_map(|probe| run_probe(probe, seed))
        .map(|err| err.label())
        .collect()
}

/// Runs one misuse probe and returns the error it produced.
fn run_probe(probe: u64, seed: u64) -> Option<SimError> {
    match probe {
        0 => {
            // NoSuchInode: read a file that was never created.
            let mut fs = BtrfsSim::new(DeviceId(0), hdd(64), 16);
            fs.read(InodeNr(4242), 0, PAGE_SIZE, IoClass::Normal, T0)
                .err()
        }
        1 => {
            // NoSuchPath: resolve a missing path.
            let fs = BtrfsSim::new(DeviceId(0), hdd(64), 16);
            fs.resolve("/missing").err()
        }
        2 => {
            // NotADirectory: create a child under a regular file.
            let mut fs = BtrfsSim::new(DeviceId(0), hdd(64), 16);
            let f = fs.create_file(fs.root(), "plain").ok()?;
            fs.create_file(f, "child").err()
        }
        3 => {
            // AlreadyExists: duplicate name in one directory.
            let mut fs = BtrfsSim::new(DeviceId(0), hdd(64), 16);
            fs.create_file(fs.root(), "dup").ok()?;
            fs.create_file(fs.root(), "dup").err()
        }
        4 => {
            // BlockOutOfRange: submit I/O past the end of the device.
            let mut disk = hdd(64);
            let req = IoRequest::new(IoKind::Read, BlockNr(60), 8, IoClass::Normal);
            disk.try_submit(&req, T0).err()
        }
        5 => {
            // NoSpace: populate more data than the device holds.
            let mut fs = BtrfsSim::new(DeviceId(0), hdd(16), 16);
            fs.populate_file(fs.root(), "big", 32 * PAGE_SIZE).err()
        }
        6 => {
            // ChecksumMismatch: verify an injected corruption.
            let mut fs = BtrfsSim::new(DeviceId(0), hdd(64), 16);
            fs.populate_file(fs.root(), "f", 4 * PAGE_SIZE).ok()?;
            fs.inject_corruption(BlockNr(1)).ok()?;
            fs.blocks().verify_checksum(BlockNr(1)).err()
        }
        7 => {
            // TransientIo: certain EIO with a single-attempt budget.
            let mut disk = hdd(64);
            disk.set_faults(Some(FaultHandle::new(
                seed,
                FaultPlan::quiet().with_ppm(FaultSite::DiskTransientIo, 1_000_000),
            )));
            let req = IoRequest::new(IoKind::Read, BlockNr(0), 1, IoClass::Normal);
            disk.try_submit(&req, T0).err()
        }
        8 => {
            // InvalidSession: fetch on a never-registered session.
            let mut duet = Duet::with_defaults();
            let fs = BtrfsSim::new(DeviceId(0), hdd(64), 16);
            duet.fetch(SessionId(13), 8, &fs).err()
        }
        9 => {
            // TooManySessions: forced slot exhaustion on register.
            let mut duet = Duet::with_defaults();
            duet.set_faults(Some(FaultHandle::new(
                seed,
                FaultPlan::quiet().with_ppm(FaultSite::DuetSessionExhaustion, 1_000_000),
            )));
            let fs = BtrfsSim::new(DeviceId(0), hdd(64), 16);
            duet.register(
                TaskScope::Block {
                    device: fs.device(),
                },
                EventMask::ADDED,
                &fs,
            )
            .err()
        }
        10 => {
            // PathNotAvailable: forced stale-hint failure on get_path.
            let mut duet = Duet::with_defaults();
            let mut fs = BtrfsSim::new(DeviceId(0), hdd(64), 16);
            let f = fs.create_file(fs.root(), "f").ok()?;
            let sid = duet
                .register(
                    TaskScope::File {
                        registered_dir: fs.root(),
                    },
                    EventMask::EXISTS,
                    &fs,
                )
                .ok()?;
            duet.set_faults(Some(FaultHandle::new(
                seed,
                FaultPlan::quiet().with_ppm(FaultSite::DuetPathUnavailable, 1_000_000),
            )));
            duet.get_path(sid, f, &fs).err()
        }
        11 => {
            // Unsupported: get_path on a block-scope session.
            let mut duet = Duet::with_defaults();
            let mut fs = BtrfsSim::new(DeviceId(0), hdd(64), 16);
            let f = fs.create_file(fs.root(), "f").ok()?;
            let sid = duet
                .register(
                    TaskScope::Block {
                        device: fs.device(),
                    },
                    EventMask::ADDED,
                    &fs,
                )
                .ok()?;
            duet.get_path(sid, f, &fs).err()
        }
        12 => {
            // InvalidArgument: malformed fault-plan spec.
            FaultPlan::parse("definitely-not-a-site=1").err()
        }
        _ => None,
    }
}
