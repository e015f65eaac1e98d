//! Contract test: [`Duet`] against a naive model of the paper's §3.
//!
//! The model ([`Model`]) shares no code with the framework. It keeps a
//! plain record per page — the page's `(exists, modified)` state and
//! block, and for each session the state it was last handed, the
//! subscribed events since, and a forced ¬Exists — and walks everything
//! by scanning. What a session is owed is computed afresh from that
//! record on every question (Tables 1–2): its subscribed events, each
//! subscribed state axis that differs from what it was last handed
//! (cancel-on-revert is that comparison), and the ¬Exists of a file that
//! left the registered directory. A page keeps its record while some
//! live session is owed anything on it: the framework's descriptor
//! (§4.2), so the record count is `descriptor_count`.
//!
//! Driven by `sim_core::check::differential`: seeded op logs replayed
//! against both, every observable compared after every op — each op's
//! result, `descriptor_count`, `stats()`, `memory_bytes`, each slot's
//! queue and drop counts, and what every slot would be handed now (a
//! `fetch` of everything on a clone of each side) — failing logs
//! shrunk. `DUET_CHECK_SEED` overrides the base seed (unset, the default
//! is the pinned seed; CI rotates it). [`Sabotage`] breaks the model one
//! contract row at a time, to show the replay catches each.

use crate::{
    Duet, DuetConfig, DuetStats, EventMask, Item, ItemFlags, ItemId, SessionId, TaskScope,
};
use sim_cache::{FsIntrospect, PageEvent, PageKey, PageMeta};
use sim_core::check::{differential, DiffConfig};
use sim_core::knobs::Knob;
use sim_core::{
    BlockNr, DeviceId, InodeNr, PageIndex, SimError, SimResult, SimRng, SparseBitmap, PAGE_SIZE,
};
use std::collections::{BTreeMap, VecDeque};

// ----- the model ------------------------------------------------------------------

/// One way to break one row of the contract in the model.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Sabotage {
    /// `duet_register` does not scan the cached pages.
    RegisterSkipsScan,
    /// `duet_deregister` leaves what its session was owed in place.
    DeregisterKeepsOwed,
    /// `duet_fetch` hands out every owed page, whatever `max` says.
    FetchIgnoresMax,
    /// `duet_set_done` on a file leaves its pages owed.
    SetDoneLeavesPagesOwed,
    /// `duet_unset_done` does nothing.
    UnsetDoneDoesNothing,
    /// The event notification is lost.
    DropsEvent(PageEvent),
    /// `Added` then `Removed` still owes an existence change.
    ExistsNotCancelledOnRevert,
    /// `Dirtied` then `Flushed` still owes a modification change.
    ModifiedNotCancelledOnRevert,
    /// Done items are not filtered at intake.
    NoDoneFilter,
    /// Files outside the registered directory are not filtered.
    NoRelevanceFilter,
    /// A file moved into the registered directory is not scanned.
    NoScanOnMoveIn,
    /// A moved-out file's ¬Exists stays owed after it is handed out.
    NotExistsOwedAfterDelivery,
    /// Event-only sessions never drop events (§4.2's bound).
    NoDosDrop,
    /// Registration never runs out of session slots.
    NoSessionExhaustion,
}

/// What one session knows of one page.
#[derive(Clone, Debug, Default)]
struct View {
    /// The `(exists, modified)` state the session was last handed (or
    /// taken to have seen); `None` until it first hears of the page.
    reported: Option<(bool, bool)>,
    /// Subscribed events since the last fetch, in arrival order.
    events: Vec<PageEvent>,
    /// A ¬Exists is owed: the file left the registered directory.
    gone: bool,
}

/// A page some session is owed something on.
#[derive(Clone, Debug)]
struct Page {
    exists: bool,
    modified: bool,
    block: Option<BlockNr>,
    /// Per session slot.
    views: BTreeMap<usize, View>,
}

impl Page {
    /// What the session in `slot`, subscribed to `mask`, would be
    /// handed for this page now.
    fn owed(&self, slot: usize, mask: EventMask) -> ItemFlags {
        let Some(view) = self.views.get(&slot) else {
            return ItemFlags::empty();
        };
        let mut flags = ItemFlags::empty();
        for &ev in &view.events {
            flags |= match ev {
                PageEvent::Added => ItemFlags::ADDED,
                PageEvent::Removed => ItemFlags::REMOVED,
                PageEvent::Dirtied => ItemFlags::DIRTIED,
                PageEvent::Flushed => ItemFlags::FLUSHED,
            };
        }
        if view.gone {
            // Duet's rule: the farewell ¬Exists replaces both state axes.
            return flags | ItemFlags::NOT_EXISTS;
        }
        let Some((exists, modified)) = view.reported else {
            return flags;
        };
        if mask.contains(EventMask::EXISTS) && exists != self.exists {
            flags |= if self.exists {
                ItemFlags::EXISTS
            } else {
                ItemFlags::NOT_EXISTS
            };
        }
        if mask.contains(EventMask::MODIFIED) && modified != self.modified {
            flags |= if self.modified {
                ItemFlags::MODIFIED
            } else {
                ItemFlags::NOT_MODIFIED
            };
        }
        flags
    }
}

/// A registered task.
#[derive(Clone, Debug)]
struct Sess {
    scope: TaskScope,
    mask: EventMask,
    /// Pages in the order they became owed; stale entries stay.
    queue: VecDeque<PageKey>,
    dropped: u64,
    /// Blocks or inodes whose work is done, and (file tasks) inodes
    /// found outside the registered directory.
    done: SparseBitmap,
    /// Inodes found under the registered directory (file tasks).
    relevant: SparseBitmap,
}

/// The page's `(exists, modified)` state before and after `ev`; `dirty`
/// is the dirty bit the cache reports with the event. Duet's rule: a
/// session that first hears of a page by an event is taken to have seen
/// the state before it that the event implies, even where the op log's
/// order (an `Added` on a cached page) says otherwise.
fn before_and_after(ev: PageEvent, dirty: bool) -> ((bool, bool), (bool, bool)) {
    match ev {
        PageEvent::Added => ((false, false), (true, dirty)),
        PageEvent::Removed => ((true, dirty), (false, false)),
        PageEvent::Dirtied => ((true, false), (true, true)),
        PageEvent::Flushed => ((true, true), (true, false)),
    }
}

fn item_bit(item: ItemId) -> u64 {
    match item {
        ItemId::Block(b) => b.raw(),
        ItemId::Inode(i) => i.raw(),
    }
}

/// The framework as §3 states it.
#[derive(Clone)]
struct Model {
    cfg: DuetConfig,
    sessions: Vec<Option<Sess>>,
    pages: BTreeMap<PageKey, Page>,
    stats: DuetStats,
    sabotage: Option<Sabotage>,
}

impl Model {
    fn new(cfg: DuetConfig, sabotage: Option<Sabotage>) -> Self {
        Model {
            cfg,
            sessions: vec![None; cfg.max_sessions],
            pages: BTreeMap::new(),
            stats: DuetStats::default(),
            sabotage,
        }
    }

    fn sabotaged(&self, s: Sabotage) -> bool {
        self.sabotage == Some(s)
    }

    fn session(&self, sid: SessionId) -> SimResult<&Sess> {
        self.sessions
            .get(sid.0 as usize)
            .and_then(Option::as_ref)
            .ok_or(SimError::InvalidSession(sid.0))
    }

    fn session_mut(&mut self, sid: SessionId) -> SimResult<&mut Sess> {
        self.sessions
            .get_mut(sid.0 as usize)
            .and_then(Option::as_mut)
            .ok_or(SimError::InvalidSession(sid.0))
    }

    /// The page's record, made with the given state if it has none.
    fn record(
        &mut self,
        key: PageKey,
        exists: bool,
        modified: bool,
        block: Option<BlockNr>,
    ) -> &mut Page {
        let live = self.pages.len();
        let peak = &mut self.stats.peak_descriptors;
        self.pages.entry(key).or_insert_with(|| {
            *peak = (*peak).max(live + 1);
            Page {
                exists,
                modified,
                block,
                views: BTreeMap::new(),
            }
        })
    }

    /// Drops the page's record unless some live session is owed
    /// something on it.
    fn settle(&mut self, key: PageKey) {
        let Some(page) = self.pages.get(&key) else {
            return;
        };
        let owed = self.sessions.iter().enumerate().any(|(slot, sess)| {
            sess.as_ref()
                .is_some_and(|s| !page.owed(slot, s.mask).is_empty())
        });
        if !owed {
            self.pages.remove(&key);
        }
    }

    /// Applies `change` to the session's view of the recorded page, and
    /// queues the page if that makes it newly owed to the session.
    fn touch(&mut self, key: PageKey, slot: usize, change: impl FnOnce(&mut View)) {
        let (Some(sess), Some(page)) = (self.sessions[slot].as_mut(), self.pages.get_mut(&key))
        else {
            return;
        };
        let was = !page.owed(slot, sess.mask).is_empty();
        change(page.views.entry(slot).or_default());
        if !was && !page.owed(slot, sess.mask).is_empty() {
            sess.queue.push_back(key);
        }
    }

    /// Marks the session up to date on the recorded page.
    fn report(&mut self, key: PageKey, slot: usize) {
        let keep_gone = self.sabotaged(Sabotage::NotExistsOwedAfterDelivery);
        let Some(page) = self.pages.get_mut(&key) else {
            return;
        };
        let now = (page.exists, page.modified);
        let view = page.views.entry(slot).or_default();
        view.events.clear();
        view.gone &= keep_gone;
        view.reported = Some(now);
    }

    /// Scope, relevance and done filtering (§4.1); the first look at a
    /// file records whether it is under the registered directory.
    fn accepts(&mut self, slot: usize, meta: PageMeta, fs: &dyn FsIntrospect) -> bool {
        let check_done = !self.sabotaged(Sabotage::NoDoneFilter);
        let check_relevance = !self.sabotaged(Sabotage::NoRelevanceFilter);
        let Some(sess) = self.sessions[slot].as_mut() else {
            return false;
        };
        let ino = meta.key.ino.raw();
        match sess.scope {
            TaskScope::Block { .. } => meta
                .block
                .is_some_and(|b| !(check_done && sess.done.test(b.raw()))),
            TaskScope::File { registered_dir } => {
                if check_done && sess.done.test(ino) {
                    false
                } else if !check_relevance || sess.relevant.test(ino) {
                    true
                } else if fs.is_under(meta.key.ino, registered_dir) {
                    sess.relevant.set(ino);
                    true
                } else {
                    sess.done.set(ino);
                    false
                }
            }
        }
    }

    /// The registration scan, also run for a file moved in: each
    /// accepted cached page is owed an `Added` (and a `Dirtied` if
    /// dirty), and a session new to the page is taken to have seen it
    /// absent.
    fn scan(&mut self, slot: usize, pages: Vec<PageMeta>, fs: &dyn FsIntrospect) {
        for meta in pages {
            if !self.accepts(slot, meta, fs) {
                continue;
            }
            let Some(mask) = self.sessions[slot].as_ref().map(|s| s.mask) else {
                return;
            };
            // Duet's rule: a page already recorded keeps its state.
            self.record(meta.key, true, meta.dirty, meta.block);
            self.touch(meta.key, slot, |view| {
                view.reported.get_or_insert((false, false));
                if mask.contains(EventMask::ADDED) {
                    view.events.push(PageEvent::Added);
                }
                if meta.dirty && mask.contains(EventMask::DIRTIED) {
                    view.events.push(PageEvent::Dirtied);
                }
            });
            self.settle(meta.key);
        }
    }

    fn register(
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
        let slot = match self.sessions.iter().position(Option::is_none) {
            Some(slot) => slot,
            None if self.sabotaged(Sabotage::NoSessionExhaustion) => {
                self.sessions.push(None);
                self.sessions.len() - 1
            }
            None => return Err(SimError::TooManySessions),
        };
        self.install(slot, scope, mask);
        if !self.sabotaged(Sabotage::RegisterSkipsScan) {
            self.scan(slot, fs.cached_pages(), fs);
        }
        Ok(SessionId(slot as u32))
    }

    fn install(&mut self, slot: usize, scope: TaskScope, mask: EventMask) {
        self.sessions[slot] = Some(Sess {
            scope,
            mask,
            queue: VecDeque::new(),
            dropped: 0,
            done: SparseBitmap::new(),
            relevant: SparseBitmap::new(),
        });
    }

    fn deregister(&mut self, sid: SessionId) -> SimResult<()> {
        self.session(sid)?;
        let slot = sid.0 as usize;
        self.sessions[slot] = None;
        if self.sabotaged(Sabotage::DeregisterKeepsOwed) {
            return Ok(());
        }
        let keys: Vec<PageKey> = self.pages.keys().copied().collect();
        for key in keys {
            if let Some(page) = self.pages.get_mut(&key) {
                page.views.remove(&slot);
            }
            self.settle(key);
        }
        Ok(())
    }

    fn churn_session(&mut self, sid: SessionId, fs: &dyn FsIntrospect) -> SimResult<()> {
        let (scope, mask) = {
            let sess = self.session(sid)?;
            (sess.scope, sess.mask)
        };
        self.deregister(sid)?;
        let slot = sid.0 as usize;
        self.install(slot, scope, mask);
        self.scan(slot, fs.cached_pages(), fs);
        Ok(())
    }

    fn handle_page_event(&mut self, meta: PageMeta, ev: PageEvent, fs: &dyn FsIntrospect) {
        self.stats.events_processed += 1;
        let (event_bit, state_bit) = match ev {
            PageEvent::Added => (EventMask::ADDED, EventMask::EXISTS),
            PageEvent::Removed => (EventMask::REMOVED, EventMask::EXISTS),
            PageEvent::Dirtied => (EventMask::DIRTIED, EventMask::MODIFIED),
            PageEvent::Flushed => (EventMask::FLUSHED, EventMask::MODIFIED),
        };
        let dos_bound = !self.sabotaged(Sabotage::NoDosDrop);
        let mut takers = Vec::new();
        for slot in 0..self.sessions.len() {
            let Some(sess) = self.sessions[slot].as_mut() else {
                continue;
            };
            if !sess.mask.intersects(event_bit | state_bit) {
                continue;
            }
            // §4.2: an event-only session whose queue is full loses the
            // event. Duet's rule: the queue, stale entries included,
            // stands in for the session's descriptor count.
            let state_session = sess
                .mask
                .intersects(EventMask::EXISTS | EventMask::MODIFIED);
            if dos_bound && !state_session && sess.queue.len() >= self.cfg.descriptor_limit {
                sess.dropped += 1;
                self.stats.events_dropped += 1;
                continue;
            }
            if self.accepts(slot, meta, fs) {
                takers.push(slot);
            }
        }
        let key = meta.key;
        if takers.is_empty() && !self.pages.contains_key(&key) {
            return;
        }
        let (before, after) = before_and_after(ev, meta.dirty);
        let page = self.record(key, after.0, after.1, meta.block);
        (page.exists, page.modified) = after;
        if meta.block.is_some() {
            page.block = meta.block;
        }
        let dropped = self.sabotaged(Sabotage::DropsEvent(ev));
        let keep_axis = self.sabotaged(match ev {
            PageEvent::Added | PageEvent::Removed => Sabotage::ExistsNotCancelledOnRevert,
            PageEvent::Dirtied | PageEvent::Flushed => Sabotage::ModifiedNotCancelledOnRevert,
        });
        for slot in takers {
            let Some(mask) = self.sessions[slot].as_ref().map(|s| s.mask) else {
                continue;
            };
            // Duet's rule, which can leave an owed page unqueued: whether
            // the page was already owed is asked after its new state.
            self.touch(key, slot, |view| {
                let reported = view.reported.get_or_insert(before);
                if keep_axis {
                    // A revert leaves the axis owed, as if the session
                    // had last seen the opposite state.
                    match ev {
                        PageEvent::Added | PageEvent::Removed => reported.0 = !after.0,
                        PageEvent::Dirtied | PageEvent::Flushed => reported.1 = !after.1,
                    }
                }
                if mask.contains(event_bit) && !dropped {
                    view.events.push(ev);
                }
            });
        }
        self.settle(key);
    }

    fn fetch(&mut self, sid: SessionId, max: usize, fs: &dyn FsIntrospect) -> SimResult<Vec<Item>> {
        let slot = sid.0 as usize;
        let (scope, mask, queued) = {
            let sess = self.session(sid)?;
            (sess.scope, sess.mask, sess.queue.len())
        };
        let max = if self.sabotaged(Sabotage::FetchIgnoresMax) {
            usize::MAX
        } else {
            max
        };
        self.stats.fetch_calls += 1;
        let mut out = Vec::new();
        // Each page queued at the call is looked at once at most.
        for _ in 0..queued {
            if out.len() >= max {
                break;
            }
            let Some(key) = self.session_mut(sid)?.queue.pop_front() else {
                break;
            };
            let Some(page) = self.pages.get_mut(&key) else {
                continue;
            };
            let flags = page.owed(slot, mask);
            if flags.is_empty() {
                self.settle(key);
                continue;
            }
            let item = match scope {
                TaskScope::File { .. } => Some(Item {
                    id: ItemId::Inode(key.ino),
                    offset: key.index.raw() * PAGE_SIZE,
                    flags,
                    moved_to: None,
                }),
                TaskScope::Block { .. } => {
                    // Block tasks learn a delayed allocation's block
                    // by FIBMAP; a page with none yet waits its turn.
                    if page.block.is_none() {
                        page.block = fs.fibmap(key.ino, key.index);
                    }
                    let Some(b) = page.block else {
                        self.session_mut(sid)?.queue.push_back(key);
                        continue;
                    };
                    // Block tasks' done filtering happens here.
                    let done = self.session(sid)?.done.test(b.raw());
                    (!done).then(|| Item {
                        id: ItemId::Block(b),
                        offset: 0,
                        flags,
                        moved_to: if flags.contains(ItemFlags::FLUSHED) {
                            fs.fibmap(key.ino, key.index).filter(|&now| now != b)
                        } else {
                            None
                        },
                    })
                }
            };
            out.extend(item);
            self.report(key, slot);
            self.settle(key);
        }
        self.stats.items_fetched += out.len() as u64;
        Ok(out)
    }

    fn check_done(&self, sid: SessionId, item: ItemId) -> SimResult<bool> {
        Ok(self.session(sid)?.done.test(item_bit(item)))
    }

    fn set_done(&mut self, sid: SessionId, item: ItemId) -> SimResult<()> {
        self.session_mut(sid)?.done.set(item_bit(item));
        let ItemId::Inode(ino) = item else {
            return Ok(());
        };
        if self.sabotaged(Sabotage::SetDoneLeavesPagesOwed) {
            return Ok(());
        }
        let keys: Vec<PageKey> = self
            .pages
            .keys()
            .filter(|k| k.ino == ino)
            .copied()
            .collect();
        for key in keys {
            self.report(key, sid.0 as usize);
            self.settle(key);
        }
        Ok(())
    }

    fn unset_done(&mut self, sid: SessionId, item: ItemId) -> SimResult<()> {
        let noop = self.sabotaged(Sabotage::UnsetDoneDoesNothing);
        let sess = self.session_mut(sid)?;
        if !noop {
            sess.done.clear(item_bit(item));
        }
        Ok(())
    }

    fn handle_rename(
        &mut self,
        ino: InodeNr,
        old_parent: InodeNr,
        is_dir: bool,
        fs: &dyn FsIntrospect,
    ) {
        for slot in 0..self.sessions.len() {
            let Some(sess) = self.sessions[slot].as_mut() else {
                continue;
            };
            let TaskScope::File { registered_dir } = sess.scope else {
                continue;
            };
            let was_in = fs.is_under(old_parent, registered_dir) || ino == registered_dir;
            let now_in = fs.is_under(ino, registered_dir);
            if is_dir {
                if was_in != now_in {
                    // Only files both relevant and done stay known.
                    let kept: Vec<u64> = sess
                        .relevant
                        .iter()
                        .filter(|&i| sess.done.test(i))
                        .collect();
                    sess.relevant.clear_all();
                    sess.done.clear_all();
                    for i in kept {
                        sess.relevant.set(i);
                        sess.done.set(i);
                    }
                }
            } else if !was_in && now_in {
                sess.done.clear(ino.raw());
                sess.relevant.set(ino.raw());
                if !self.sabotaged(Sabotage::NoScanOnMoveIn) {
                    self.scan(slot, fs.cached_pages_of(ino), fs);
                }
            } else if was_in && !now_in {
                // The file is done from now on, but each cached page is
                // owed a farewell (§4.1), done or not.
                let mask = sess.mask;
                sess.relevant.clear(ino.raw());
                sess.done.set(ino.raw());
                for meta in fs.cached_pages_of(ino) {
                    self.record(meta.key, true, meta.dirty, meta.block);
                    self.touch(meta.key, slot, |view| {
                        if mask.contains(EventMask::REMOVED) {
                            view.events.push(PageEvent::Removed);
                        }
                        view.gone |= mask.contains(EventMask::EXISTS);
                    });
                    self.settle(meta.key);
                }
            }
        }
    }

    fn handle_delete(&mut self, ino: InodeNr) {
        for sess in self.sessions.iter_mut().flatten() {
            if matches!(sess.scope, TaskScope::File { .. }) {
                sess.relevant.clear(ino.raw());
                sess.done.clear(ino.raw());
            }
        }
    }

    /// §6.4's accounting: per recorded page, item id (8) + offset (8) +
    /// one flag byte per session slot (N) + hash node (8); plus the
    /// sessions' bitmaps.
    fn memory_bytes(&self) -> u64 {
        let per_page = 8 + 8 + self.cfg.max_sessions as u64 + 8;
        let bitmaps: u64 = self
            .sessions
            .iter()
            .flatten()
            .map(|s| s.done.memory_bytes() + s.relevant.memory_bytes())
            .sum();
        self.pages.len() as u64 * per_page + bitmaps
    }
}

// ----- the filesystem both sides see ----------------------------------------

const ROOT: InodeNr = InodeNr(1);
/// Directories: `ROOT`, two fixed children of it, and one that moves.
const DIRS: [InodeNr; 4] = [ROOT, InodeNr(2), InodeNr(3), InodeNr(4)];
const MOVING_DIR: InodeNr = DIRS[3];
const FILES: u64 = 6;
const FILE_PAGES: u64 = 5;

fn file(n: u8) -> InodeNr {
    InodeNr(10 + n as u64 % FILES)
}

/// The block a page gets when first allocated.
fn home_block(key: PageKey) -> BlockNr {
    BlockNr(key.ino.raw() * 64 + key.index.raw())
}

/// An ordered, fully deterministic stand-in for the filesystem and its
/// page cache.
struct TreeFs {
    parents: BTreeMap<InodeNr, InodeNr>,
    cache: BTreeMap<PageKey, PageMeta>,
    blocks: BTreeMap<PageKey, BlockNr>,
    next_block: u64,
}

impl TreeFs {
    fn new() -> Self {
        let mut parents = BTreeMap::new();
        parents.insert(DIRS[1], ROOT);
        parents.insert(DIRS[2], ROOT);
        parents.insert(MOVING_DIR, DIRS[1]);
        for n in 0..FILES {
            parents.insert(file(n as u8), DIRS[n as usize % DIRS.len()]);
        }
        TreeFs {
            parents,
            cache: BTreeMap::new(),
            blocks: BTreeMap::new(),
            next_block: 10_000,
        }
    }

    /// Applies a page event to the cache image and returns the meta
    /// the cache would hand to Duet with it.
    fn page_event(&mut self, key: PageKey, ev: PageEvent, with_block: bool) -> PageMeta {
        let was_dirty = self.cache.get(&key).is_some_and(|m| m.dirty);
        let dirty = match ev {
            PageEvent::Added | PageEvent::Flushed => false,
            PageEvent::Dirtied => true,
            PageEvent::Removed => was_dirty,
        };
        let block = with_block.then(|| *self.blocks.entry(key).or_insert(home_block(key)));
        let meta = PageMeta { key, block, dirty };
        if ev == PageEvent::Removed {
            self.cache.remove(&key);
        } else {
            self.cache.insert(key, meta);
        }
        meta
    }
}

impl FsIntrospect for TreeFs {
    fn device(&self) -> DeviceId {
        DeviceId(0)
    }

    fn is_under(&self, ino: InodeNr, dir: InodeNr) -> bool {
        let mut cur = ino;
        loop {
            if cur == dir {
                return true;
            }
            match self.parents.get(&cur) {
                Some(&p) => cur = p,
                None => return false,
            }
        }
    }

    fn path_of(&self, ino: InodeNr) -> Option<String> {
        Some(format!("/{}", ino.raw()))
    }

    fn fibmap(&self, ino: InodeNr, index: PageIndex) -> Option<BlockNr> {
        self.blocks.get(&PageKey::new(ino, index)).copied()
    }

    fn has_cached_pages(&self, ino: InodeNr) -> bool {
        !self.cached_pages_of(ino).is_empty()
    }

    fn cached_pages(&self) -> Vec<PageMeta> {
        self.cache.values().copied().collect()
    }

    fn cached_pages_of(&self, ino: InodeNr) -> Vec<PageMeta> {
        self.cache
            .values()
            .filter(|m| m.key.ino == ino)
            .copied()
            .collect()
    }
}

// ----- op log ---------------------------------------------------------------------

/// One operation. Every operand is in the op, so a shrunk log replays
/// standalone.
#[derive(Clone, Debug)]
enum Op {
    Event {
        file: u8,
        page: u8,
        ev: PageEvent,
        with_block: bool,
    },
    Register {
        block_scope: bool,
        dir: u8,
        mask: u8,
    },
    Deregister(u8),
    Churn(u8),
    Fetch {
        slot: u8,
        max: usize,
    },
    SetDone(u8, ItemId),
    UnsetDone(u8, ItemId),
    /// A log-structured flush: the page's block changes under Duet.
    Migrate {
        file: u8,
        page: u8,
    },
    MoveFile {
        file: u8,
        dir: u8,
    },
    MoveDir {
        to: u8,
    },
    Delete(u8),
}

const SLOTS: usize = 3;

fn gen_item(rng: &mut SimRng) -> ItemId {
    let f = file(rng.gen_range(0, FILES) as u8);
    if rng.gen_range(0, 2) == 0 {
        ItemId::Inode(f)
    } else {
        ItemId::Block(home_block(PageKey::new(
            f,
            PageIndex(rng.gen_range(0, FILE_PAGES)),
        )))
    }
}

fn gen_op(rng: &mut SimRng, _i: u64) -> Op {
    let file = rng.gen_range(0, FILES) as u8;
    let page = rng.gen_range(0, FILE_PAGES) as u8;
    // One more than there are slots, so invalid sessions are hit too.
    let slot = rng.gen_range(0, SLOTS as u64 + 1) as u8;
    match rng.gen_range(0, 40) {
        0..=19 => Op::Event {
            file,
            page,
            ev: [
                PageEvent::Added,
                PageEvent::Removed,
                PageEvent::Dirtied,
                PageEvent::Flushed,
            ][rng.gen_range(0, 4) as usize],
            with_block: rng.gen_range(0, 4) != 0,
        },
        20..=22 => Op::Register {
            block_scope: rng.gen_range(0, 3) == 0,
            dir: rng.gen_range(0, DIRS.len() as u64) as u8,
            // Bits 0–5 are the six subscriptions; 0 (empty) is rejected.
            mask: rng.gen_range(0, 64) as u8,
        },
        23 => Op::Deregister(slot),
        24 => Op::Churn(slot),
        25..=29 => Op::Fetch {
            slot,
            max: if rng.gen_range(0, 3) == 0 {
                1 << 20
            } else {
                rng.gen_range(0, 4) as usize
            },
        },
        30..=32 => Op::SetDone(slot, gen_item(rng)),
        33 => Op::UnsetDone(slot, gen_item(rng)),
        34..=35 => Op::Migrate { file, page },
        36..=37 => Op::MoveFile {
            file,
            dir: rng.gen_range(0, DIRS.len() as u64) as u8,
        },
        38 => Op::MoveDir {
            to: rng.gen_range(0, 3) as u8,
        },
        _ => Op::Delete(file),
    }
}

fn mask_from_bits(bits: u8) -> EventMask {
    [
        EventMask::ADDED,
        EventMask::REMOVED,
        EventMask::DIRTIED,
        EventMask::FLUSHED,
        EventMask::EXISTS,
        EventMask::MODIFIED,
    ]
    .into_iter()
    .enumerate()
    .filter(|(i, _)| bits & (1 << i) != 0)
    .fold(EventMask::empty(), |acc, (_, m)| acc | m)
}

/// Applies one op to the filesystem image and to both frameworks;
/// returns what each side answered, rendered for comparison.
fn apply(op: &Op, fs: &mut TreeFs, duet: &mut Duet, model: &mut Model) -> (String, String) {
    let sid = |slot: u8| SessionId(slot as u32);
    match *op {
        Op::Event {
            file: f,
            page,
            ev,
            with_block,
        } => {
            let key = PageKey::new(file(f), PageIndex(page as u64));
            let meta = fs.page_event(key, ev, with_block);
            duet.handle_page_event(meta, ev, fs);
            model.handle_page_event(meta, ev, fs);
            Default::default()
        }
        Op::Register {
            block_scope,
            dir,
            mask,
        } => {
            let scope = if block_scope {
                TaskScope::Block {
                    // Device 1 is not the filesystem's: a rejected call.
                    device: DeviceId((dir == 3) as u32),
                }
            } else {
                TaskScope::File {
                    registered_dir: DIRS[dir as usize],
                }
            };
            let mask = mask_from_bits(mask);
            (
                format!("{:?}", duet.register(scope, mask, fs)),
                format!("{:?}", model.register(scope, mask, fs)),
            )
        }
        Op::Deregister(slot) => (
            format!("{:?}", duet.deregister(sid(slot))),
            format!("{:?}", model.deregister(sid(slot))),
        ),
        Op::Churn(slot) => (
            format!("{:?}", duet.churn_session(sid(slot), fs)),
            format!("{:?}", model.churn_session(sid(slot), fs)),
        ),
        Op::Fetch { slot, max } => (
            format!("{:?}", duet.fetch(sid(slot), max, fs)),
            format!("{:?}", model.fetch(sid(slot), max, fs)),
        ),
        Op::SetDone(slot, item) => (
            format!(
                "{:?} {:?}",
                duet.set_done(sid(slot), item),
                duet.check_done(sid(slot), item)
            ),
            format!(
                "{:?} {:?}",
                model.set_done(sid(slot), item),
                model.check_done(sid(slot), item)
            ),
        ),
        Op::UnsetDone(slot, item) => (
            format!(
                "{:?} {:?}",
                duet.unset_done(sid(slot), item),
                duet.check_done(sid(slot), item)
            ),
            format!(
                "{:?} {:?}",
                model.unset_done(sid(slot), item),
                model.check_done(sid(slot), item)
            ),
        ),
        Op::Migrate { file: f, page } => {
            let key = PageKey::new(file(f), PageIndex(page as u64));
            fs.blocks.insert(key, BlockNr(fs.next_block));
            fs.next_block += 1;
            Default::default()
        }
        Op::MoveFile { file: f, dir } => {
            let ino = file(f);
            let old_parent = fs
                .parents
                .insert(ino, DIRS[dir as usize])
                .expect("files have a parent");
            duet.handle_rename(ino, old_parent, false, fs);
            model.handle_rename(ino, old_parent, false, fs);
            Default::default()
        }
        Op::MoveDir { to } => {
            let old_parent = fs
                .parents
                .insert(MOVING_DIR, DIRS[to as usize])
                .expect("the moving directory has a parent");
            duet.handle_rename(MOVING_DIR, old_parent, true, fs);
            model.handle_rename(MOVING_DIR, old_parent, true, fs);
            Default::default()
        }
        Op::Delete(f) => {
            let ino = file(f);
            for meta in fs.cached_pages_of(ino) {
                let meta = fs.page_event(meta.key, PageEvent::Removed, meta.block.is_some());
                duet.handle_page_event(meta, PageEvent::Removed, fs);
                model.handle_page_event(meta, PageEvent::Removed, fs);
            }
            fs.blocks.retain(|key, _| key.ino != ino);
            duet.handle_delete(ino);
            model.handle_delete(ino);
            Default::default()
        }
    }
}

/// Replays a log against a fresh framework and a fresh model,
/// comparing every observable after every op.
fn replay(log: &[Op], sabotage: Option<Sabotage>) -> Result<(), String> {
    let cfg = DuetConfig {
        max_sessions: SLOTS,
        // Low enough that event-only sessions hit the DoS bound.
        descriptor_limit: 6,
    };
    let mut fs = TreeFs::new();
    let mut duet = Duet::new(cfg);
    let mut model = Model::new(cfg, sabotage);
    for (i, op) in log.iter().enumerate() {
        let (got, want) = apply(op, &mut fs, &mut duet, &mut model);
        let check = |what: &str, got: String, want: String| {
            if got == want {
                Ok(())
            } else {
                Err(format!(
                    "op {i} {op:?}: {what} diverged\n   duet: {got}\n  model: {want}"
                ))
            }
        };
        check("result", got, want)?;
        check(
            "descriptor_count",
            duet.descriptor_count().to_string(),
            model.pages.len().to_string(),
        )?;
        check(
            "stats",
            format!("{:?}", duet.stats()),
            format!("{:?}", model.stats),
        )?;
        check(
            "memory_bytes",
            duet.memory_bytes().to_string(),
            model.memory_bytes().to_string(),
        )?;
        // What every slot would be handed now, asked of a clone of each.
        let (mut duet_now, mut model_now) = (duet.clone(), model.clone());
        for slot in 0..=SLOTS as u32 {
            let sid = SessionId(slot);
            check(
                "queue_len",
                format!("{:?}", duet.queue_len(sid)),
                format!("{:?}", model.session(sid).map(|s| s.queue.len())),
            )?;
            check(
                "dropped_events",
                format!("{:?}", duet.dropped_events(sid)),
                format!("{:?}", model.session(sid).map(|s| s.dropped)),
            )?;
            check(
                "owed items",
                format!("{:?}", duet_now.fetch(sid, usize::MAX, &fs)),
                format!("{:?}", model_now.fetch(sid, usize::MAX, &fs)),
            )?;
        }
        duet.assert_index_consistent();
    }
    Ok(())
}

const SEED: u64 = 0xD1FF_BA5E;

fn config(name: &'static str, seed: u64) -> DiffConfig {
    DiffConfig::new(name, seed).cases(24).ops(1500)
}

#[test]
fn duet_matches_the_contract_model() {
    let seed = Knob::CheckSeed
        .read()
        .unwrap_or_else(|e| panic!("{e}"))
        .unwrap_or(SEED);
    differential(&config("duet-vs-contract", seed), gen_op, |log| {
        replay(log, None)
    })
    .unwrap();
}

/// The replay can fail on every row of the contract: a model broken on
/// that row alone is caught at the in-code seed.
#[test]
fn every_sabotaged_row_is_caught() {
    use PageEvent::{Added, Dirtied, Flushed, Removed};
    use Sabotage::*;
    let rows = [
        // Table 1. Its get_path is outside the op log:
        // framework_tests::get_path_relative_and_truth_check checks it.
        RegisterSkipsScan,
        DeregisterKeepsOwed,
        FetchIgnoresMax,
        SetDoneLeavesPagesOwed,
        UnsetDoneDoesNothing,
        // Table 2.
        DropsEvent(Added),
        DropsEvent(Removed),
        DropsEvent(Dirtied),
        DropsEvent(Flushed),
        ExistsNotCancelledOnRevert,
        ModifiedNotCancelledOnRevert,
        // §§3–4.
        NoDoneFilter,
        NoRelevanceFilter,
        NoScanOnMoveIn,
        NotExistsOwedAfterDelivery,
        NoDosDrop,
        NoSessionExhaustion,
    ];
    for sabotage in rows {
        let caught = differential(&config("duet-vs-sabotaged-contract", SEED), gen_op, |log| {
            replay(log, Some(sabotage))
        });
        assert!(caught.is_err(), "{sabotage:?} is not caught");
    }
}
