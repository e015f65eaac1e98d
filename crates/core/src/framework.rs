//! The Duet framework core: registration, event handling, fetch, done
//! tracking and namespace-change handling (§4 of the paper).

use crate::descriptor::{Descriptor, DescriptorTable, SlotMasks, MAX_SESSIONS};
use crate::events::{transition, EventMask, ItemFlags};
use crate::session::{Item, ItemId, Session, SessionId, TaskScope};
use sim_cache::FsIntrospect;
use sim_cache::{PageEvent, PageKey, PageMeta};
use sim_core::fault::{FaultHandle, FaultSite};
use sim_core::trace::{TraceHandle, TraceKind};
use sim_core::{InodeNr, SimError, SimResult, PAGE_SIZE};

/// Framework configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DuetConfig {
    /// Maximum concurrent sessions (the `N` of the merged descriptor's
    /// flag array; configured "at module load time", §4.2). At most 16,
    /// the paper's N: descriptors carry that many flag bytes inline.
    pub max_sessions: usize,
    /// Per-session cap on queued pending descriptors; beyond it, new
    /// events for event-only sessions are dropped (DoS bound, §4.2).
    /// State sessions are never dropped — their descriptors are bounded
    /// by twice the page-cache size because opposing events cancel.
    pub descriptor_limit: usize,
}

impl Default for DuetConfig {
    fn default() -> Self {
        DuetConfig {
            max_sessions: 16,
            descriptor_limit: 1 << 20,
        }
    }
}

/// Operational statistics (used by the §6.4 overhead evaluation).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DuetStats {
    /// Page events processed.
    pub events_processed: u64,
    /// Events dropped by the per-session descriptor limit.
    pub events_dropped: u64,
    /// `fetch` calls served.
    pub fetch_calls: u64,
    /// Items returned across all fetches.
    pub items_fetched: u64,
    /// High-water mark of allocated descriptors.
    pub peak_descriptors: usize,
}

/// The Duet framework instance for one device's storage stack.
#[derive(Clone, PartialEq)]
pub struct Duet {
    cfg: DuetConfig,
    sessions: Vec<Option<Session>>,
    /// The occupied slots and their masks, kept in lockstep with
    /// `sessions`. Derived state: the event intake and descriptor
    /// freeing consult it on every page event, and walking `sessions`
    /// there (sixteen mostly empty, cache-line-sized slots) was a
    /// measurable share of those paths.
    slots: SlotMasks,
    /// Merged descriptors, one per page with anything pending.
    descs: DescriptorTable,
    /// Counters; `peak_descriptors` is kept by `descs` and filled in by
    /// [`Duet::stats`].
    stats: DuetStats,
    /// Fault-injection handle; `None` (or a quiet plan) behaves
    /// byte-identically to an unfaulted framework.
    faults: Option<FaultHandle>,
    /// Trace handle. The framework has no clock of its own, so its
    /// hooks are counter ticks: `duet.register` / `duet.deregister` /
    /// `duet.churn` / `duet.event` / `duet.merge` / `duet.fetch` /
    /// `duet.hint`.
    trace: Option<TraceHandle>,
}

impl Duet {
    /// Creates a framework instance.
    ///
    /// # Panics
    ///
    /// If `cfg.max_sessions` is 0 or exceeds 16.
    pub fn new(cfg: DuetConfig) -> Self {
        assert!(cfg.max_sessions > 0, "need at least one session slot");
        assert!(
            cfg.max_sessions <= MAX_SESSIONS,
            "max_sessions = {} exceeds the cap of {MAX_SESSIONS} sessions \
             (the descriptor's inline flag array, the paper's N)",
            cfg.max_sessions
        );
        Duet {
            sessions: (0..cfg.max_sessions).map(|_| None).collect(),
            slots: SlotMasks::default(),
            cfg,
            descs: DescriptorTable::default(),
            stats: DuetStats::default(),
            faults: None,
            trace: None,
        }
    }

    /// Arms (or disarms, with `None`) fault injection: forced session
    /// exhaustion in [`Duet::register`], forced path failures in
    /// [`Duet::get_path`], and session churn on page events.
    pub fn set_faults(&mut self, faults: Option<FaultHandle>) {
        self.faults = faults;
    }

    /// Arms (or disarms, with `None`) tracing. Pure observation:
    /// sessions, descriptors and statistics are unaffected.
    pub fn set_trace(&mut self, trace: Option<TraceHandle>) {
        self.trace = trace;
    }

    /// Creates a framework with default configuration.
    pub fn with_defaults() -> Self {
        Duet::new(DuetConfig::default())
    }

    /// Current statistics.
    pub fn stats(&self) -> DuetStats {
        DuetStats {
            peak_descriptors: self.descs.peak(),
            ..self.stats
        }
    }

    /// Number of live item descriptors.
    pub fn descriptor_count(&self) -> usize {
        self.descs.len()
    }

    /// Number of active sessions.
    pub fn session_count(&self) -> usize {
        self.slots.len()
    }

    /// Memory footprint in the paper's §6.4 accounting model:
    /// descriptors (id + offset + N-byte flag array + hash node) plus
    /// the sessions' sparse bitmaps.
    pub fn memory_bytes(&self) -> u64 {
        let desc = self.descs.len() as u64 * Descriptor::memory_bytes(self.cfg.max_sessions);
        let bitmaps: u64 = self
            .sessions
            .iter()
            .flatten()
            .map(|s| s.bitmap_bytes())
            .sum();
        desc + bitmaps
    }

    fn session_ref(&self, sid: SessionId) -> SimResult<&Session> {
        self.sessions
            .get(sid.0 as usize)
            .and_then(|s| s.as_ref())
            .ok_or(SimError::InvalidSession(sid.0))
    }

    fn session_mut(&mut self, sid: SessionId) -> SimResult<&mut Session> {
        self.sessions
            .get_mut(sid.0 as usize)
            .and_then(|s| s.as_mut())
            .ok_or(SimError::InvalidSession(sid.0))
    }

    // ----- registration ----------------------------------------------------

    /// `duet_register`: starts a session and scans the page cache so the
    /// task can immediately exploit already-cached data (§4.1).
    pub fn register(
        &mut self,
        scope: TaskScope,
        mask: EventMask,
        fs: &dyn FsIntrospect,
    ) -> SimResult<SessionId> {
        if mask.is_empty() {
            return Err(SimError::InvalidArgument("empty notification mask".into()));
        }
        if let TaskScope::Block { device } = scope {
            if device != fs.device() {
                return Err(SimError::InvalidArgument(format!(
                    "device mismatch: registered {device}, filesystem on {}",
                    fs.device()
                )));
            }
        }
        // Injected session-slot exhaustion: the table reports itself
        // full even though a slot may be free; a well-behaved task
        // degrades to its unassisted (baseline) path, §3.2.
        if let Some(faults) = &self.faults {
            if faults.fire(FaultSite::DuetSessionExhaustion) {
                return Err(SimError::TooManySessions);
            }
        }
        let slot = self
            .sessions
            .iter()
            .position(|s| s.is_none())
            .ok_or(SimError::TooManySessions)?;
        let sid = SessionId(slot as u32);
        self.sessions[slot] = Some(Session::new(scope, mask));
        self.slots.set(slot, Some(mask));
        if let Some(trace) = &self.trace {
            trace.tick(TraceKind::DuetRegister);
        }
        // Registration scan: initialize a descriptor for each relevant
        // cached page, flagged present (and possibly dirty).
        for meta in fs.cached_pages() {
            self.scan_page(slot, meta, fs);
        }
        Ok(sid)
    }

    /// Seeds one cached page into a session, as the registration scan
    /// and move-into-directory handling do.
    fn scan_page(&mut self, slot: usize, meta: PageMeta, fs: &dyn FsIntrospect) {
        let Some(sess) = self.sessions[slot].as_mut() else {
            return;
        };
        if !Self::session_accepts(sess, meta, fs) {
            return;
        }
        let mask = sess.mask;
        let (d, _) = self
            .descs
            .get_or_insert_with(meta.key, || Descriptor::new(true, meta.dirty, meta.block));
        let was_pending = d.pending_for(slot, mask);
        if !d.sess[slot].state_init() {
            d.sess[slot].set_reported(false, false);
        }
        if mask.contains(EventMask::ADDED) {
            d.sess[slot].set_evt(ItemFlags::ADDED);
        }
        if meta.dirty && mask.contains(EventMask::DIRTIED) {
            d.sess[slot].set_evt(ItemFlags::DIRTIED);
        }
        if !was_pending && d.pending_for(slot, mask) {
            sess.queue.push_back(meta.key);
        }
        if !d.pending_any(&self.slots) {
            self.descs.remove(&meta.key);
        }
    }

    /// `duet_deregister`: releases all session state (§3.2).
    pub fn deregister(&mut self, sid: SessionId) -> SimResult<()> {
        let slot = sid.0 as usize;
        self.session_ref(sid)?;
        self.sessions[slot] = None;
        self.slots.set(slot, None);
        if let Some(trace) = &self.trace {
            trace.tick(TraceKind::DuetDeregister);
        }
        // Strip the session's flags from every descriptor; free those
        // left with nothing pending.
        let slots = &self.slots;
        self.descs.retain(|d| {
            d.sess[slot].clear_all();
            d.pending_any(slots)
        });
        Ok(())
    }

    /// Deregisters and immediately re-registers a session into the same
    /// slot (same id, scope and mask), re-running the registration
    /// scan. Models mid-run session churn: all framework-side state —
    /// queued events, `done` and `relevant` bitmaps, pending
    /// descriptors — is lost, exactly as if the task had called
    /// `duet_deregister` + `duet_register`; only the task's own
    /// progress survives (§3.2's crash-tolerance argument).
    pub fn churn_session(&mut self, sid: SessionId, fs: &dyn FsIntrospect) -> SimResult<()> {
        let (scope, mask) = {
            let sess = self.session_ref(sid)?;
            (sess.scope, sess.mask)
        };
        self.deregister(sid)?;
        let slot = sid.0 as usize;
        self.sessions[slot] = Some(Session::new(scope, mask));
        self.slots.set(slot, Some(mask));
        if let Some(trace) = &self.trace {
            trace.tick(TraceKind::DuetChurn);
        }
        for meta in fs.cached_pages() {
            self.scan_page(slot, meta, fs);
        }
        Ok(())
    }

    /// Injected session churn: on a deterministic subset of page events
    /// an active session (chosen from the fault stream) is torn down
    /// and re-registered before the event is processed.
    fn maybe_churn(&mut self, fs: &dyn FsIntrospect) {
        let Some(faults) = &self.faults else {
            return;
        };
        if !faults.fire(FaultSite::DuetSessionChurn) {
            return;
        }
        let active: Vec<u32> = (0..self.cfg.max_sessions as u32)
            .filter(|&s| self.sessions[s as usize].is_some())
            .collect();
        if active.is_empty() {
            return;
        }
        let pick = faults.amplitude(FaultSite::DuetSessionChurn, 0, active.len() as u64);
        let sid = SessionId(active[pick as usize]);
        // The session exists (picked from the active set), so the only
        // failure mode is a poisoned scan; churn is best-effort.
        #[expect(
            clippy::let_underscore_must_use,
            reason = "fault-driven churn must not fail the caller"
        )]
        let _ = self.churn_session(sid, fs);
    }

    // ----- event intake ----------------------------------------------------

    /// Whether a session is interested in pages of this file at all
    /// (scope + relevance + done filtering, §4.1). May update the
    /// session's `relevant`/`done` bitmaps as a side effect of the
    /// first-access path walk.
    fn session_accepts(sess: &mut Session, meta: PageMeta, fs: &dyn FsIntrospect) -> bool {
        let ino = meta.key.ino;
        match sess.scope {
            TaskScope::Block { .. } => {
                // Deferred when the block is not yet allocated (§4.2).
                let Some(block) = meta.block else {
                    return false;
                };
                !sess.done.test(block.raw())
            }
            TaskScope::File { registered_dir } => {
                if sess.done.test(ino.raw()) {
                    return false;
                }
                if sess.relevant.test(ino.raw()) {
                    return true;
                }
                // First access: backwards path walk.
                if fs.is_under(ino, registered_dir) {
                    sess.relevant.set(ino.raw());
                    true
                } else {
                    // Mark irrelevant files done so future events cost
                    // one bitmap test (§4.1).
                    sess.done.set(ino.raw());
                    false
                }
            }
        }
    }

    /// Which subscription bits an event can feed.
    fn interest_of(ev: PageEvent) -> EventMask {
        match ev {
            PageEvent::Added => EventMask::ADDED | EventMask::EXISTS,
            PageEvent::Removed => EventMask::REMOVED | EventMask::EXISTS,
            PageEvent::Dirtied => EventMask::DIRTIED | EventMask::MODIFIED,
            PageEvent::Flushed => EventMask::FLUSHED | EventMask::MODIFIED,
        }
    }

    fn enqueue(sessions: &mut [Option<Session>], slot: usize, key: PageKey) {
        if let Some(sess) = sessions[slot].as_mut() {
            sess.queue.push_back(key);
        }
    }

    /// The page-cache hook (§4.1): called for every page event, in
    /// order. `meta` is the page's state as of the event.
    pub fn handle_page_event(&mut self, meta: PageMeta, ev: PageEvent, fs: &dyn FsIntrospect) {
        // Fast path: with no registered session, no live descriptor and
        // no fault stream to advance, the full intake below can only
        // bump the event counter and tick the trace — do exactly that.
        // Baseline (non-Duet) experiment cells still pump every cache
        // event through here, so this is their per-event cost.
        if self.descs.is_empty() && self.faults.is_none() && self.slots.is_empty() {
            self.stats.events_processed += 1;
            if let Some(trace) = &self.trace {
                trace.tick(TraceKind::DuetEvent);
            }
            return;
        }
        self.maybe_churn(fs);
        self.stats.events_processed += 1;
        if let Some(trace) = &self.trace {
            trace.tick(TraceKind::DuetEvent);
        }
        let ((pre_e, pre_m), (post_e, post_m)) = transition(ev, meta.dirty);
        let interest = Self::interest_of(ev);
        // Pass 1: which sessions want this event? (A bit per slot.)
        let mut interested = 0u16;
        for (slot, mask) in self.slots.iter() {
            if !mask.intersects(interest) {
                continue;
            }
            let Some(sess) = self.sessions[slot].as_mut() else {
                continue;
            };
            // DoS bound: drop events for event-only sessions over limit.
            if !mask.has_state() && sess.queue.len() >= self.cfg.descriptor_limit {
                self.stats.events_dropped += 1;
                sess.dropped += 1;
                continue;
            }
            if Self::session_accepts(sess, meta, fs) {
                interested |= 1 << slot;
            }
        }
        // Pass 2: one walk to the page's slot finds its descriptor, or
        // allocates it if some session wants the event.
        let key = meta.key;
        let (d, existed) = if interested == 0 {
            match self.descs.get_mut(&key) {
                Some(d) => (d, true),
                None => return,
            }
        } else {
            self.descs
                .get_or_insert_with(key, || Descriptor::new(post_e, post_m, meta.block))
        };
        if existed {
            // The event folds into an existing descriptor: the state
            // merge of §4.2 (one descriptor accumulates many events).
            if let Some(trace) = &self.trace {
                trace.tick(TraceKind::DuetMerge);
            }
            d.cur_exists = post_e;
            d.cur_modified = post_m;
            if meta.block.is_some() {
                d.block = meta.block;
            }
        }
        let (evt_mask, evt_flag) = match ev {
            PageEvent::Added => (EventMask::ADDED, ItemFlags::ADDED),
            PageEvent::Removed => (EventMask::REMOVED, ItemFlags::REMOVED),
            PageEvent::Dirtied => (EventMask::DIRTIED, ItemFlags::DIRTIED),
            PageEvent::Flushed => (EventMask::FLUSHED, ItemFlags::FLUSHED),
        };
        for (slot, mask) in self.slots.iter() {
            if interested & (1 << slot) == 0 {
                continue;
            }
            let was = d.pending_for(slot, mask);
            if !d.sess[slot].state_init() {
                d.sess[slot].set_reported(pre_e, pre_m);
            }
            if mask.contains(evt_mask) {
                d.sess[slot].set_evt(evt_flag);
            }
            if !was && d.pending_for(slot, mask) {
                Self::enqueue(&mut self.sessions, slot, key);
            }
        }
        // Cancellation: opposing events may have reverted the page to
        // its reported state for every session.
        if !d.pending_any(&self.slots) {
            self.descs.remove(&key);
        }
    }

    // ----- fetch -------------------------------------------------------------

    /// `duet_fetch`: returns up to `max` items with pending
    /// notifications, marking them up-to-date (§3.2).
    pub fn fetch(
        &mut self,
        sid: SessionId,
        max: usize,
        fs: &dyn FsIntrospect,
    ) -> SimResult<Vec<Item>> {
        let mut out = Vec::new();
        self.fetch_into(sid, max, &mut out, fs)?;
        Ok(out)
    }

    /// [`Duet::fetch`] into a buffer the caller owns: appends up to
    /// `max` items to `out`, so a task that fetches many times a second
    /// (§4.2) reuses one allocation. On an error `out` is left as it
    /// was.
    pub fn fetch_into(
        &mut self,
        sid: SessionId,
        max: usize,
        out: &mut Vec<Item>,
        fs: &dyn FsIntrospect,
    ) -> SimResult<()> {
        let slot = sid.0 as usize;
        let sess = self
            .sessions
            .get_mut(slot)
            .and_then(|s| s.as_mut())
            .ok_or(SimError::InvalidSession(sid.0))?;
        let (scope, mask) = (sess.scope, sess.mask);
        // Bound the walk by the current queue length so deferred items
        // (e.g. blockless pages re-queued) cannot spin the loop.
        let mut budget = sess.queue.len();
        self.stats.fetch_calls += 1;
        let start = out.len();
        out.reserve(max.min(budget));
        while out.len() - start < max && budget > 0 {
            budget -= 1;
            let Some(key) = sess.queue.pop_front() else {
                break;
            };
            // One lookup per queued page; a stale entry (already
            // delivered, cancelled or freed) just falls through.
            let Some(d) = self.descs.get_mut(&key) else {
                continue;
            };
            if d.pending_for(slot, mask) {
                match scope {
                    TaskScope::File { .. } => out.push(Item {
                        id: ItemId::Inode(key.ino),
                        offset: key.index.raw() * PAGE_SIZE,
                        flags: d.deliver(slot, mask),
                        moved_to: None,
                    }),
                    TaskScope::Block { .. } => {
                        // Resolve the block (FIBMAP bridging, §4.2).
                        if d.block.is_none() {
                            d.block = fs.fibmap(key.ino, key.index);
                        }
                        let Some(b) = d.block else {
                            // Still unallocated: defer to a later fetch.
                            sess.queue.push_back(key);
                            continue;
                        };
                        // Done filtering at delivery time. File tasks
                        // need no check here: `set_done` already marked
                        // their descriptors up-to-date. Block tasks have
                        // no per-block descriptor index, so "marked
                        // up-to-date" is applied lazily now.
                        if sess.done.test(b.raw()) {
                            d.mark_reported(slot);
                        } else {
                            let flags = d.deliver(slot, mask);
                            // Surface a flush's migration (log-structured
                            // writeback) for the GC's segment counters;
                            // no other item has one to report.
                            let moved_to = if flags.contains(ItemFlags::FLUSHED) {
                                fs.fibmap(key.ino, key.index).filter(|&cur| cur != b)
                            } else {
                                None
                            };
                            out.push(Item {
                                id: ItemId::Block(b),
                                offset: 0,
                                flags,
                                moved_to,
                            });
                        }
                    }
                }
            }
            if !d.pending_any(&self.slots) {
                self.descs.remove(&key);
            }
        }
        let fetched = out.len() - start;
        self.stats.items_fetched += fetched as u64;
        if let Some(trace) = &self.trace {
            trace.tick(TraceKind::DuetFetch);
            trace.tick_n(TraceKind::DuetHint, fetched as u64);
        }
        Ok(())
    }

    // ----- done tracking -------------------------------------------------------

    /// `duet_check_done`.
    pub fn check_done(&self, sid: SessionId, item: ItemId) -> SimResult<bool> {
        let sess = self.session_ref(sid)?;
        Ok(match item {
            ItemId::Block(b) => sess.done.test(b.raw()),
            ItemId::Inode(i) => sess.done.test(i.raw()),
        })
    }

    /// `duet_set_done`: marks work complete. For file tasks, all the
    /// file's pending descriptors are marked up-to-date ("the item
    /// descriptors for all the associated pages of the file are marked
    /// up-to-date and future events on the file are no longer tracked",
    /// §4.1).
    pub fn set_done(&mut self, sid: SessionId, item: ItemId) -> SimResult<()> {
        let slot = sid.0 as usize;
        {
            let sess = self.session_mut(sid)?;
            match item {
                ItemId::Block(b) => {
                    sess.done.set(b.raw());
                }
                ItemId::Inode(i) => {
                    sess.done.set(i.raw());
                }
            }
        }
        if let ItemId::Inode(ino) = item {
            let slots = &self.slots;
            self.descs.retain_file(ino, |d| {
                d.mark_reported(slot);
                d.pending_any(slots)
            });
        }
        Ok(())
    }

    /// `duet_unset_done`: reopens an item for tracking (the scrubber's
    /// re-verify path uses this when a done block is overwritten).
    pub fn unset_done(&mut self, sid: SessionId, item: ItemId) -> SimResult<()> {
        let sess = self.session_mut(sid)?;
        match item {
            ItemId::Block(b) => {
                sess.done.clear(b.raw());
            }
            ItemId::Inode(i) => {
                sess.done.clear(i.raw());
            }
        }
        Ok(())
    }

    // ----- path resolution -------------------------------------------------------

    /// `duet_get_path`: translates an inode to a path relative to the
    /// registered directory. Fails with
    /// [`SimError::PathNotAvailable`] when the file has no cached pages
    /// (the hint's truth check, §3.2) or has left the registered tree.
    pub fn get_path(
        &self,
        sid: SessionId,
        ino: InodeNr,
        fs: &dyn FsIntrospect,
    ) -> SimResult<String> {
        let sess = self.session_ref(sid)?;
        let TaskScope::File { registered_dir } = sess.scope else {
            return Err(SimError::Unsupported("get_path on a block task"));
        };
        // Injected path failure: a deterministic subset of calls fail
        // as if the pages were reclaimed between the hint and the
        // lookup; the caller must back out and re-enqueue (§3.2).
        if let Some(faults) = &self.faults {
            if faults.fire(FaultSite::DuetPathUnavailable) {
                return Err(SimError::PathNotAvailable(ino));
            }
        }
        if !fs.has_cached_pages(ino) {
            return Err(SimError::PathNotAvailable(ino));
        }
        if !fs.is_under(ino, registered_dir) {
            return Err(SimError::PathNotAvailable(ino));
        }
        let full = fs.path_of(ino).ok_or(SimError::PathNotAvailable(ino))?;
        let base = fs
            .path_of(registered_dir)
            .ok_or(SimError::PathNotAvailable(registered_dir))?;
        let rel = if base == "/" {
            full.trim_start_matches('/').to_string()
        } else {
            match full.strip_prefix(&base) {
                Some(s) => s.trim_start_matches('/').to_string(),
                None => full,
            }
        };
        Ok(rel)
    }

    // ----- namespace events -------------------------------------------------------

    /// VFS hook: a file or directory moved. Handles moves into and out
    /// of registered directories, and directory renames (§4.1).
    pub fn handle_rename(
        &mut self,
        ino: InodeNr,
        old_parent: InodeNr,
        is_dir: bool,
        fs: &dyn FsIntrospect,
    ) {
        for slot in 0..self.cfg.max_sessions {
            let Some(sess) = self.sessions[slot].as_ref() else {
                continue;
            };
            let TaskScope::File { registered_dir } = sess.scope else {
                continue;
            };
            let was_rel = fs.is_under(old_parent, registered_dir) || ino == registered_dir;
            let now_rel = fs.is_under(ino, registered_dir);
            if is_dir {
                if was_rel == now_rel {
                    continue;
                }
                // Directory rename: reset relevant and done for all
                // files except those fully processed (both bits set).
                let Some(sess) = self.sessions[slot].as_mut() else {
                    continue;
                };
                let keep: Vec<u64> = sess
                    .relevant
                    .iter()
                    .filter(|&i| sess.done.test(i))
                    .collect();
                sess.relevant.clear_all();
                sess.done.clear_all();
                for i in keep {
                    sess.relevant.set(i);
                    sess.done.set(i);
                }
            } else if !was_rel && now_rel {
                // Moved in: start tracking; seed descriptors for pages
                // already cached.
                if let Some(sess) = self.sessions[slot].as_mut() {
                    sess.done.clear(ino.raw());
                    sess.relevant.set(ino.raw());
                }
                for meta in fs.cached_pages_of(ino) {
                    self.scan_page(slot, meta, fs);
                }
            } else if was_rel && !now_rel {
                // Moved out: report the pages gone, then ignore the file.
                let Some(mask) = self.sessions[slot].as_ref().map(|s| s.mask) else {
                    continue;
                };
                for meta in fs.cached_pages_of(ino) {
                    let (d, _) = self.descs.get_or_insert_with(meta.key, || {
                        Descriptor::new(true, meta.dirty, meta.block)
                    });
                    let was = d.pending_for(slot, mask);
                    if mask.contains(EventMask::REMOVED) {
                        d.sess[slot].set_evt(ItemFlags::REMOVED);
                    }
                    if mask.contains(EventMask::EXISTS) {
                        d.sess[slot].set_force_not_exists();
                    }
                    if !was && d.pending_for(slot, mask) {
                        Self::enqueue(&mut self.sessions, slot, meta.key);
                    }
                    if !d.pending_any(&self.slots) {
                        self.descs.remove(&meta.key);
                    }
                }
                // Mark the file done while keeping the farewell
                // notifications pending: future events are filtered at
                // intake, but the pending `Removed`/`¬Exists` items are
                // still delivered — "after the next fetch, Duet will
                // ignore the file" (§4.1).
                if let Some(sess) = self.sessions[slot].as_mut() {
                    sess.relevant.clear(ino.raw());
                    sess.done.set(ino.raw());
                }
            }
        }
    }

    /// VFS hook: a file was deleted. The page cache already emitted
    /// `Removed` events for its pages; this only releases the
    /// relevance/done bits so bitmap memory stays bounded.
    pub fn handle_delete(&mut self, ino: InodeNr) {
        for slot in 0..self.cfg.max_sessions {
            if let Some(sess) = self.sessions[slot].as_mut() {
                if matches!(sess.scope, TaskScope::File { .. }) {
                    sess.relevant.clear(ino.raw());
                    sess.done.clear(ino.raw());
                }
            }
        }
    }

    /// Human-readable framework status — sessions, masks, descriptor
    /// and memory counters — analogous to the kernel module's debugfs
    /// interface.
    pub fn status(&self) -> String {
        let mut out = format!(
            "duet: {} session(s), {} descriptor(s), {} B tracked memory\n",
            self.session_count(),
            self.descs.len(),
            self.memory_bytes()
        );
        for (slot, sess) in self.sessions.iter().enumerate() {
            let Some(s) = sess else {
                continue;
            };
            let scope = match s.scope {
                TaskScope::Block { device } => format!("block task on {device}"),
                TaskScope::File { registered_dir } => {
                    format!("file task under {registered_dir}")
                }
            };
            out += &format!(
                "  sid#{slot}: {scope}, mask {}, queue {}, done bits {}, relevant bits {}, dropped {}\n",
                s.mask,
                s.queue.len(),
                s.done.count(),
                s.relevant.count(),
                s.dropped
            );
        }
        out += &format!(
            "  totals: {} events processed, {} dropped, {} fetches, {} items, peak {} descriptors\n",
            self.stats.events_processed,
            self.stats.events_dropped,
            self.stats.fetch_calls,
            self.stats.items_fetched,
            self.descs.peak()
        );
        out
    }

    /// Panics unless the descriptor table and its per-file index agree.
    #[cfg(test)]
    pub(crate) fn assert_index_consistent(&self) {
        self.descs.assert_consistent();
    }

    /// The pages with a descriptor and the slab slots they occupy.
    #[cfg(test)]
    pub(crate) fn layout(&self) -> Vec<(PageKey, u32)> {
        self.descs.layout()
    }

    /// Events dropped for a session (DoS-bound accounting).
    pub fn dropped_events(&self, sid: SessionId) -> SimResult<u64> {
        Ok(self.session_ref(sid)?.dropped)
    }

    /// The session's pending-queue length (diagnostics).
    pub fn queue_len(&self, sid: SessionId) -> SimResult<usize> {
        Ok(self.session_ref(sid)?.queue.len())
    }
}

impl ItemFlags {
    /// Builds flags from raw pending-event bits (bits 0–3 map 1:1).
    pub(crate) fn from_evt_bits(bits: u8) -> ItemFlags {
        debug_assert!(bits & 0xF0 == 0);
        let mut f = ItemFlags::empty();
        if bits & ItemFlags::ADDED.bits() != 0 {
            f |= ItemFlags::ADDED;
        }
        if bits & ItemFlags::REMOVED.bits() != 0 {
            f |= ItemFlags::REMOVED;
        }
        if bits & ItemFlags::DIRTIED.bits() != 0 {
            f |= ItemFlags::DIRTIED;
        }
        if bits & ItemFlags::FLUSHED.bits() != 0 {
            f |= ItemFlags::FLUSHED;
        }
        f
    }
}
