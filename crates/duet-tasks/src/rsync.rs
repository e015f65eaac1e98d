//! The rsync application (§5.5 of the paper).
//!
//! Rsync synchronizes a source directory to a destination. With an
//! empty destination (the paper's Figure 4 setup) every file is read at
//! the source and written at the destination, so "the I/O operations
//! required per file are twice the number of data blocks of the file".
//! The baseline traverses the hierarchy depth-first; the opportunistic
//! version registers for `Exists` notifications and prioritizes "files
//! with the highest number of pages in memory" (Algorithm 1), using
//! `duet_get_path` as the truth check before committing to a file, and
//! sending each file's metadata exactly once.
//!
//! Unlike the in-kernel tasks, rsync runs at *normal* I/O priority
//! (§6.2), competing with the foreground workload; the paper therefore
//! reports its benefit as runtime speedup rather than maximum
//! utilization.

use crate::task::{HintSession, StepResult, TaskMetrics, TaskMode};
use duet::{Duet, EventMask, Item, ItemId, Priority, ResidencyTracker, TaskScope};
use sim_btrfs::BtrfsSim;
use sim_core::trace::TraceKind;
use sim_core::{InodeNr, SimError, SimInstant, SimResult, PAGE_SIZE};
use sim_disk::IoClass;
use std::collections::{BTreeMap, BTreeSet};

/// Pages per step: rsync "processes files in 32KB chunks" (§5.6).
const CHUNK_PAGES: u64 = 8;

/// Execution context: source and destination filesystems. Duet watches
/// the source.
pub struct RsyncCtx<'a> {
    /// Source filesystem (the workload also runs here).
    pub src: &'a mut BtrfsSim,
    /// Destination filesystem (initially empty).
    pub dst: &'a mut BtrfsSim,
    /// The Duet framework instance on the source device.
    pub duet: &'a mut Duet,
    /// Current virtual time.
    pub now: SimInstant,
}

struct ActiveFile {
    ino: InodeNr,
    dst_ino: InodeNr,
    next_page: u64,
    total_pages: u64,
    /// How this file was picked: "hint" (priority queue) or "scan"
    /// (depth-first plan order).
    src: &'static str,
}

/// The rsync transfer task.
pub struct Rsync {
    mode: TaskMode,
    class: IoClass,
    hints: HintSession,
    /// The last batch of hints fetched, kept for its allocation.
    batch: Vec<Item>,
    src_dir: InodeNr,
    /// Files in depth-first traversal order (the sender's order).
    plan: Vec<InodeNr>,
    plan_set: BTreeSet<InodeNr>,
    /// Size (pages) each file was planned at; reconciled at activation
    /// because files may grow or shrink before the sender reaches them.
    planned_pages: BTreeMap<InodeNr, u64>,
    plan_idx: usize,
    active: Option<ActiveFile>,
    /// Residency tracking + priority queue (Algorithm 1; priority is
    /// the number of resident pages, Table 3).
    tracker: ResidencyTracker,
    /// Files whose metadata has been sent (exactly once each, §5.5).
    meta_sent: BTreeSet<InodeNr>,
    total_pages: u64,
    pages_done: u64,
    src_read: u64,
    dst_written: u64,
    read_saved: u64,
    /// Test-only defect switch: silently skip sending a deterministic
    /// subset of files (oracle self-test).
    skip_some: bool,
}

impl Rsync {
    /// Creates an rsync task copying the subtree at `src_dir`.
    pub fn new(mode: TaskMode, src_dir: InodeNr) -> Self {
        Rsync {
            mode,
            class: IoClass::Normal,
            hints: HintSession::default(),
            batch: Vec::new(),
            src_dir,
            plan: Vec::new(),
            plan_set: BTreeSet::new(),
            planned_pages: BTreeMap::new(),
            plan_idx: 0,
            active: None,
            tracker: ResidencyTracker::new(Priority::ResidentPages),
            meta_sent: BTreeSet::new(),
            total_pages: 0,
            pages_done: 0,
            src_read: 0,
            dst_written: 0,
            read_saved: 0,
            skip_some: false,
        }
    }

    /// Sabotage switch for oracle self-tests: even-numbered inodes are
    /// silently marked transferred without being copied — the run still
    /// completes without any error.
    #[doc(hidden)]
    pub fn sabotage_skip_files(&mut self) {
        self.skip_some = true;
    }

    /// Display name.
    pub fn name(&self) -> String {
        format!("rsync({})", self.mode.label())
    }

    /// One-time setup: traverse the source, replicate the directory
    /// structure (the sender's metadata pass) and register with Duet.
    pub fn start(&mut self, ctx: RsyncCtx<'_>) -> SimResult<()> {
        let walk = ctx.src.inodes().walk_depth_first(self.src_dir)?;
        for (ino, is_dir) in walk {
            if is_dir {
                // Replicate the directory eagerly (metadata only).
                let rel = self.rel_path(ctx.src, ino)?;
                ensure_dir(ctx.dst, &rel)?;
            } else {
                let pages = ctx.src.inodes().get(ino)?.size_pages();
                self.plan.push(ino);
                self.plan_set.insert(ino);
                self.planned_pages.insert(ino, pages);
                self.total_pages += pages;
            }
        }
        let scope = TaskScope::File {
            registered_dir: self.src_dir,
        };
        self.hints
            .open(self.mode, ctx.duet, scope, EventMask::EXISTS, ctx.src)?;
        Ok(())
    }

    fn rel_path(&self, src: &BtrfsSim, ino: InodeNr) -> SimResult<String> {
        let full = src.path_of(ino)?;
        let base = src.path_of(self.src_dir)?;
        Ok(if base == "/" {
            full.trim_start_matches('/').to_string()
        } else {
            full.strip_prefix(&base)
                .map(|s| s.trim_start_matches('/').to_string())
                .unwrap_or(full)
        })
    }

    fn update_queue(&mut self, ctx: &mut RsyncCtx<'_>) -> SimResult<()> {
        loop {
            self.hints.next_batch(ctx.duet, ctx.src, &mut self.batch)?;
            if self.batch.is_empty() {
                return Ok(());
            }
            let plan = &self.plan_set;
            self.tracker.update(&self.batch, |ino| plan.contains(&ino));
        }
    }

    /// Baseline mode tracks completion via `transferred` instead.
    fn is_done(&self, ctx: &RsyncCtx<'_>, ino: InodeNr) -> bool {
        self.hints.is_done(ctx.duet, ItemId::Inode(ino))
    }

    /// Opens the destination file for a source file, sending metadata
    /// once.
    fn activate(
        &mut self,
        ctx: &mut RsyncCtx<'_>,
        ino: InodeNr,
        src: &'static str,
    ) -> SimResult<()> {
        let rel = self.rel_path(ctx.src, ino)?;
        let total_pages = ctx.src.inodes().get(ino)?.size_pages();
        // Reconcile the plan with the file's current size.
        if let Some(planned) = self.planned_pages.insert(ino, total_pages) {
            self.total_pages = self.total_pages + total_pages - planned;
        }
        let dst_ino = ensure_file(ctx.dst, &rel)?;
        self.meta_sent.insert(ino);
        self.active = Some(ActiveFile {
            ino,
            dst_ino,
            next_page: 0,
            total_pages,
            src,
        });
        Ok(())
    }

    /// Picks the next file: opportunistic queue first, then plan order.
    fn pick_next(&mut self, ctx: &mut RsyncCtx<'_>) -> SimResult<bool> {
        // Opportunistic choice, validated through duet_get_path.
        let mut backed_out: Vec<InodeNr> = Vec::new();
        let mut picked = None;
        let mut failure = None;
        while let Some(ino) = self.tracker.pop_best() {
            if self.is_done(ctx, ino) || self.transferred(ino) || !ctx.src.inodes().exists(ino) {
                continue;
            }
            if self.skip_some && ino.raw().is_multiple_of(2) {
                // Sabotage mode: pretend the file was sent.
                self.meta_sent.insert(ino);
                continue;
            }
            if let Some(sid) = self.hints.id() {
                match ctx.duet.get_path(sid, ino, ctx.src) {
                    Ok(_) => {}
                    Err(SimError::PathNotAvailable(_)) => {
                        // The hint went stale — or the failure is
                        // transient. Back out (§3.2) and re-enqueue:
                        // a later pick retries it, and the file stays
                        // covered by normal order either way.
                        backed_out.push(ino);
                        continue;
                    }
                    Err(SimError::InvalidSession(_)) => {
                        // Session gone: degrade to the baseline
                        // traversal. The hint itself is still good.
                        self.hints.forget();
                    }
                    Err(e) => {
                        backed_out.push(ino);
                        failure = Some(e);
                        break;
                    }
                }
            }
            picked = Some(ino);
            break;
        }
        // Backed-out hints return to the queue at their recorded
        // priority so a later pick can retry them.
        for ino in backed_out {
            self.tracker.requeue(ino);
        }
        if let Some(e) = failure {
            return Err(e);
        }
        if let Some(ino) = picked {
            self.activate(ctx, ino, "hint")?;
            return Ok(true);
        }
        // Normal depth-first order. Files deleted since the traversal
        // are skipped (rsync would notice the vanished file and move
        // on), and their planned work is retired.
        while let Some(&ino) = self.plan.get(self.plan_idx) {
            self.plan_idx += 1;
            if !ctx.src.inodes().exists(ino) {
                if let Some(p) = self.planned_pages.remove(&ino) {
                    self.total_pages -= p;
                }
                continue;
            }
            if self.is_done(ctx, ino) || self.transferred(ino) {
                continue;
            }
            if self.skip_some && ino.raw().is_multiple_of(2) {
                // Sabotage mode: pretend the file was sent.
                self.meta_sent.insert(ino);
                continue;
            }
            self.activate(ctx, ino, "scan")?;
            return Ok(true);
        }
        Ok(false)
    }

    /// Whether a file was fully transferred (baseline-mode bookkeeping;
    /// Duet mode uses the framework's done bitmap).
    fn transferred(&self, ino: InodeNr) -> bool {
        self.meta_sent.contains(&ino) && self.active.as_ref().map(|a| a.ino != ino).unwrap_or(true)
    }

    /// Transfers one chunk of the active file.
    pub fn step(&mut self, mut ctx: RsyncCtx<'_>) -> SimResult<StepResult> {
        self.update_queue(&mut ctx)?;
        if self.active.is_none() && !self.pick_next(&mut ctx)? {
            return Ok(StepResult {
                finish: ctx.now,
                complete: true,
            });
        }
        let mut finish = ctx.now;
        let (ino, dst_ino, page, pages_now, file_done, item_src) = {
            let Some(a) = self.active.as_mut() else {
                // pick_next found nothing activatable after all.
                return Ok(StepResult {
                    finish: ctx.now,
                    complete: true,
                });
            };
            let pages_now = CHUNK_PAGES.min(a.total_pages - a.next_page);
            let page = a.next_page;
            a.next_page += pages_now;
            (
                a.ino,
                a.dst_ino,
                page,
                pages_now,
                a.next_page >= a.total_pages,
                a.src,
            )
        };
        let span = ctx
            .src
            .trace()
            .map(|t| t.ctx_begin(TraceKind::RsyncStep, ctx.now, Vec::new));
        if pages_now > 0 {
            // Sender: read the chunk at the source.
            let r = ctx.src.read(
                ino,
                page * PAGE_SIZE,
                pages_now * PAGE_SIZE,
                self.class,
                ctx.now,
            )?;
            self.src_read += r.blocks_read;
            self.read_saved += r.cache_hits;
            finish = finish.max(r.finish);
            // Receiver: write it at the destination.
            let w = ctx.dst.write(
                dst_ino,
                page * PAGE_SIZE,
                pages_now * PAGE_SIZE,
                self.class,
                ctx.now,
            )?;
            self.dst_written += w.blocks_written;
            finish = finish.max(w.finish);
            self.pages_done += pages_now;
        }
        if file_done {
            // Commit the destination file and mark the source done.
            let f = ctx.dst.fsync(dst_ino, self.class, finish)?;
            self.dst_written += f.blocks_written;
            finish = finish.max(f.finish);
            if let Some(sid) = self.hints.id() {
                ctx.duet.set_done(sid, ItemId::Inode(ino))?;
            }
            self.tracker.forget(ino);
            self.active = None;
            if let Some(t) = ctx.src.trace() {
                t.event(TraceKind::RsyncSend, ctx.now, || {
                    vec![("ino", ino.raw().into()), ("src", item_src.into())]
                });
            }
        }
        if let (Some(t), Some(id)) = (ctx.src.trace(), span) {
            t.ctx_end(id, finish);
        }
        let complete = self.active.is_none() && self.remaining(&ctx) == 0;
        Ok(StepResult { finish, complete })
    }

    fn remaining(&self, ctx: &RsyncCtx<'_>) -> usize {
        self.plan[self.plan_idx.min(self.plan.len())..]
            .iter()
            .filter(|&&ino| {
                !self.is_done(ctx, ino) && !self.transferred(ino) && ctx.src.inodes().exists(ino)
            })
            .count()
    }

    /// Progress and I/O accounting. Work units are I/O units: each page
    /// costs a source read plus a destination write; savings are source
    /// reads served from the page cache (at 100 % overlap that is half
    /// of the total, matching §6.2).
    pub fn metrics(&self) -> TaskMetrics {
        TaskMetrics {
            total_units: self.total_pages * 2,
            done_units: self.pages_done * 2,
            saved_units: self.read_saved,
            blocks_read: self.src_read,
            blocks_written: self.dst_written,
        }
    }
}

/// Creates a directory path (mkdir -p) under the destination root.
fn ensure_dir(dst: &mut BtrfsSim, rel: &str) -> SimResult<InodeNr> {
    let mut cur = dst.root();
    for comp in rel.split('/').filter(|c| !c.is_empty()) {
        cur = match dst.inodes().get(cur)?.children.get(comp) {
            Some(&c) => c,
            None => dst.mkdir(cur, comp)?,
        };
    }
    Ok(cur)
}

/// Creates a file (and its parents) under the destination root.
fn ensure_file(dst: &mut BtrfsSim, rel: &str) -> SimResult<InodeNr> {
    let (dir_part, name) = match rel.rfind('/') {
        Some(i) => (&rel[..i], &rel[i + 1..]),
        None => ("", rel),
    };
    let parent = ensure_dir(dst, dir_part)?;
    match dst.inodes().get(parent)?.children.get(name) {
        Some(&c) => Ok(c),
        None => dst.create_file(parent, name),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bridge::pump_btrfs;
    use sim_core::DeviceId;
    use sim_disk::{Disk, HddModel};

    const T0: SimInstant = SimInstant::EPOCH;

    fn two_fs() -> (BtrfsSim, BtrfsSim, Duet) {
        let src_disk = Disk::new(Box::new(HddModel::sas_10k(1 << 16)));
        let dst_disk = Disk::new(Box::new(HddModel::sas_10k(1 << 16)));
        (
            BtrfsSim::new(DeviceId(0), src_disk, 512),
            BtrfsSim::new(DeviceId(1), dst_disk, 512),
            Duet::with_defaults(),
        )
    }

    fn populate_tree(src: &mut BtrfsSim) -> Vec<InodeNr> {
        let docs = src.mkdir(src.root(), "docs").unwrap();
        let inos = vec![
            src.populate_file(src.root(), "top.bin", 16 * PAGE_SIZE)
                .unwrap(),
            src.populate_file(docs, "a.txt", 8 * PAGE_SIZE).unwrap(),
            src.populate_file(docs, "b.txt", 8 * PAGE_SIZE).unwrap(),
        ];
        inos
    }

    fn drive(task: &mut Rsync, src: &mut BtrfsSim, dst: &mut BtrfsSim, duet: &mut Duet) -> u32 {
        let mut steps = 0;
        loop {
            let r = task
                .step(RsyncCtx {
                    src,
                    dst,
                    duet,
                    now: T0,
                })
                .unwrap();
            pump_btrfs(src, duet);
            steps += 1;
            if r.complete {
                return steps;
            }
            assert!(steps < 10_000);
        }
    }

    #[test]
    fn baseline_copies_full_tree() {
        let (mut src, mut dst, mut duet) = two_fs();
        populate_tree(&mut src);
        let mut task = Rsync::new(TaskMode::Baseline, src.root());
        task.start(RsyncCtx {
            src: &mut src,
            dst: &mut dst,
            duet: &mut duet,
            now: T0,
        })
        .unwrap();
        drive(&mut task, &mut src, &mut dst, &mut duet);
        let m = task.metrics();
        assert_eq!(m.total_units, 64, "32 pages x (read + write)");
        assert_eq!(m.done_units, 64);
        assert_eq!(m.blocks_read, 32);
        assert_eq!(m.saved_units, 0);
        // Destination mirrors the source structure and sizes.
        let d = dst.resolve("/docs/a.txt").unwrap();
        assert_eq!(dst.inodes().get(d).unwrap().size_pages(), 8);
        assert_eq!(
            dst.inodes()
                .get(dst.resolve("/top.bin").unwrap())
                .unwrap()
                .size_pages(),
            16
        );
    }

    #[test]
    fn duet_rsync_prioritizes_and_saves_cached_reads() {
        let (mut src, mut dst, mut duet) = two_fs();
        let inos = populate_tree(&mut src);
        let mut task = Rsync::new(TaskMode::Duet, src.root());
        task.start(RsyncCtx {
            src: &mut src,
            dst: &mut dst,
            duet: &mut duet,
            now: T0,
        })
        .unwrap();
        // Workload reads /docs/b.txt (plan-last) into memory.
        src.read(inos[2], 0, 8 * PAGE_SIZE, IoClass::Normal, T0)
            .unwrap();
        pump_btrfs(&mut src, &mut duet);
        // The first step must pick the cached file out of order.
        let r = task
            .step(RsyncCtx {
                src: &mut src,
                dst: &mut dst,
                duet: &mut duet,
                now: T0,
            })
            .unwrap();
        assert!(!r.complete);
        // The cached file (8 pages = exactly one chunk) was transferred
        // first, out of depth-first order.
        assert!(task.meta_sent.contains(&inos[2]));
        assert!(!task.meta_sent.contains(&inos[0]));
        assert!(dst.resolve("/docs/b.txt").is_ok());
        assert!(dst.resolve("/top.bin").is_err());
        drive(&mut task, &mut src, &mut dst, &mut duet);
        let m = task.metrics();
        assert_eq!(m.done_units, m.total_units);
        assert!(m.saved_units >= 8, "cached reads saved: {}", m.saved_units);
        assert_eq!(m.blocks_read, 24, "only cold files read from disk");
    }

    #[test]
    fn stale_hints_backed_out_via_get_path() {
        let (mut src, mut dst, mut duet) = two_fs();
        let inos = populate_tree(&mut src);
        let mut task = Rsync::new(TaskMode::Duet, src.root());
        task.start(RsyncCtx {
            src: &mut src,
            dst: &mut dst,
            duet: &mut duet,
            now: T0,
        })
        .unwrap();
        src.read(inos[2], 0, 8 * PAGE_SIZE, IoClass::Normal, T0)
            .unwrap();
        pump_btrfs(&mut src, &mut duet);
        // Evict by reading a large cold range... simplest: delete the
        // cached pages by deleting and recreating pressure; here we
        // invalidate via file deletion.
        src.delete_file(inos[2]).unwrap();
        pump_btrfs(&mut src, &mut duet);
        // The queue still names the file; get_path must fail and the
        // task must fall back to normal order without crashing.
        drive(&mut task, &mut src, &mut dst, &mut duet);
        let m = task.metrics();
        // Two files remain (the third was deleted): 24 pages copied.
        assert_eq!(m.blocks_read, 24);
        assert!(dst.resolve("/docs/a.txt").is_ok());
    }

    #[test]
    fn transient_path_failure_requeues_hint() {
        use sim_core::fault::{FaultHandle, FaultPlan, FaultSite};
        let (mut src, mut dst, mut duet) = two_fs();
        let inos = populate_tree(&mut src);
        let mut task = Rsync::new(TaskMode::Duet, src.root());
        task.start(RsyncCtx {
            src: &mut src,
            dst: &mut dst,
            duet: &mut duet,
            now: T0,
        })
        .unwrap();
        // Workload reads /top.bin (plan-LAST: depth-first order visits
        // docs/ before it) into memory — 16 resident pages.
        src.read(inos[0], 0, 16 * PAGE_SIZE, IoClass::Normal, T0)
            .unwrap();
        pump_btrfs(&mut src, &mut duet);
        // While armed, every duet_get_path call fails transiently.
        let plan = FaultPlan::quiet().with_ppm(FaultSite::DuetPathUnavailable, 1_000_000);
        duet.set_faults(Some(FaultHandle::new(0xBAD, plan)));
        // Step 1: the top.bin hint is popped, the truth check fails,
        // and the task falls back to plan order (a.txt, one chunk).
        let r = task
            .step(RsyncCtx {
                src: &mut src,
                dst: &mut dst,
                duet: &mut duet,
                now: T0,
            })
            .unwrap();
        pump_btrfs(&mut src, &mut duet);
        assert!(!r.complete);
        assert!(!task.meta_sent.contains(&inos[0]), "hint backed out");
        assert!(task.meta_sent.contains(&inos[1]), "fell back to plan order");
        // The fault clears. The backed-out hint was only transiently
        // unavailable: it must have been re-enqueued, so the next pick
        // takes cached top.bin (16 resident pages) ahead of plan-next
        // b.txt.
        duet.set_faults(None);
        task.step(RsyncCtx {
            src: &mut src,
            dst: &mut dst,
            duet: &mut duet,
            now: T0,
        })
        .unwrap();
        pump_btrfs(&mut src, &mut duet);
        assert!(task.meta_sent.contains(&inos[0]), "requeued hint retried");
        assert!(!task.meta_sent.contains(&inos[2]), "b.txt still pending");
        drive(&mut task, &mut src, &mut dst, &mut duet);
        let m = task.metrics();
        assert_eq!(m.done_units, m.total_units);
        assert!(m.saved_units >= 16, "cached reads saved: {}", m.saved_units);
    }

    #[test]
    fn lost_session_degrades_to_baseline_copy() {
        let (mut src, mut dst, mut duet) = two_fs();
        let inos = populate_tree(&mut src);
        let mut task = Rsync::new(TaskMode::Duet, src.root());
        task.start(RsyncCtx {
            src: &mut src,
            dst: &mut dst,
            duet: &mut duet,
            now: T0,
        })
        .unwrap();
        src.read(inos[2], 0, 8 * PAGE_SIZE, IoClass::Normal, T0)
            .unwrap();
        pump_btrfs(&mut src, &mut duet);
        // The session disappears out from under the task (external
        // deregistration). The task must degrade to the baseline
        // traversal instead of failing the whole transfer.
        duet.deregister(duet::SessionId(0)).unwrap();
        drive(&mut task, &mut src, &mut dst, &mut duet);
        let m = task.metrics();
        assert_eq!(m.done_units, m.total_units);
        assert!(dst.resolve("/top.bin").is_ok());
        assert!(dst.resolve("/docs/a.txt").is_ok());
        assert!(dst.resolve("/docs/b.txt").is_ok());
    }

    #[test]
    fn metadata_sent_once_per_file() {
        let (mut src, mut dst, mut duet) = two_fs();
        let inos = populate_tree(&mut src);
        let mut task = Rsync::new(TaskMode::Duet, src.root());
        task.start(RsyncCtx {
            src: &mut src,
            dst: &mut dst,
            duet: &mut duet,
            now: T0,
        })
        .unwrap();
        src.read(inos[1], 0, 8 * PAGE_SIZE, IoClass::Normal, T0)
            .unwrap();
        pump_btrfs(&mut src, &mut duet);
        drive(&mut task, &mut src, &mut dst, &mut duet);
        assert_eq!(task.meta_sent.len(), 3, "each file's metadata exactly once");
        // Every file transferred exactly once: totals match.
        assert_eq!(task.metrics().done_units, task.metrics().total_units);
    }

    #[test]
    fn subdirectory_scope() {
        let (mut src, mut dst, mut duet) = two_fs();
        populate_tree(&mut src);
        let docs = src.resolve("/docs").unwrap();
        let mut task = Rsync::new(TaskMode::Baseline, docs);
        task.start(RsyncCtx {
            src: &mut src,
            dst: &mut dst,
            duet: &mut duet,
            now: T0,
        })
        .unwrap();
        drive(&mut task, &mut src, &mut dst, &mut duet);
        // Only the subtree is copied, relative to the registered dir.
        assert!(dst.resolve("/a.txt").is_ok());
        assert!(dst.resolve("/b.txt").is_ok());
        assert!(dst.resolve("/top.bin").is_err());
        assert_eq!(task.metrics().blocks_read, 16);
    }
}
