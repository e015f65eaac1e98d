//! Differential test: [`Duet`] against a naive reference framework.
//!
//! The reference ([`Model`]) is the two-level ordered table PR 12's
//! flat descriptor table replaced, kept deliberately simple: one
//! ordered map walked as often as is convenient (an existence
//! pre-lookup, an entry lookup and a separate free pass per event),
//! `set_done` on a file by scanning everything, no per-file index, no
//! cached masks. It shares the per-page flag arithmetic
//! ([`Descriptor`]) and the session record with the real framework —
//! what it checks is everything the table rebuild touched: which
//! descriptors exist, when they are freed, what each fetch returns and
//! in which order, the counters, and the order-independent snapshots.
//!
//! Driven by `sim_core::check::differential`: seeded op logs replayed
//! against both, every observable compared after every op, failing
//! logs shrunk. `DUET_CHECK_SEED` overrides the base seed
//! (unset, the default is the pinned seed; CI rotates it).

use crate::descriptor::{Descriptor, SlotMasks};
use crate::events::{transition, EventMask, ItemFlags};
use crate::framework::{Duet, DuetConfig, DuetStats};
use crate::session::{Item, ItemId, Session, SessionId, TaskScope};
use sim_cache::{FsIntrospect, PageEvent, PageKey, PageMeta};
use sim_core::check::{differential, DiffConfig};
use sim_core::knobs::Knob;
use sim_core::{BlockNr, DeviceId, InodeNr, PageIndex, SimError, SimResult, SimRng, PAGE_SIZE};
use std::collections::BTreeMap;

// ----- the reference framework ---------------------------------------------

/// What [`Duet`] and the differently-built [`Model`] are both projected
/// onto, to be compared with `==`: descriptors in key order.
#[derive(Debug, PartialEq)]
pub(crate) struct Canonical<'a> {
    pub cfg: DuetConfig,
    pub sessions: &'a [Option<Session>],
    pub descs: Vec<(PageKey, &'a Descriptor)>,
    pub stats: DuetStats,
}

struct Model {
    cfg: DuetConfig,
    sessions: Vec<Option<Session>>,
    descs: BTreeMap<PageKey, Descriptor>,
    stats: DuetStats,
    /// Sabotage, for the test that the harness can fail: page events
    /// that cancel leave their descriptor allocated.
    skip_cancellation: bool,
}

impl Model {
    fn new(cfg: DuetConfig) -> Self {
        Model {
            sessions: (0..cfg.max_sessions).map(|_| None).collect(),
            cfg,
            descs: BTreeMap::new(),
            stats: DuetStats::default(),
            skip_cancellation: false,
        }
    }

    fn masks(&self) -> SlotMasks {
        let mut masks = SlotMasks::default();
        for (slot, sess) in self.sessions.iter().enumerate() {
            masks.set(slot, sess.as_ref().map(|s| s.mask));
        }
        masks
    }

    fn session(&self, sid: SessionId) -> SimResult<&Session> {
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

    fn entry(&mut self, meta: PageMeta, exists: bool, modified: bool) -> &mut Descriptor {
        let live = self.descs.len();
        let peak = &mut self.stats.peak_descriptors;
        self.descs.entry(meta.key).or_insert_with(|| {
            *peak = (*peak).max(live + 1);
            Descriptor::new(exists, modified, meta.block)
        })
    }

    /// Frees the descriptor if no session has anything pending on it.
    fn gc(&mut self, key: PageKey) {
        let masks = self.masks();
        if self.descs.get(&key).is_some_and(|d| !d.pending_any(&masks)) {
            self.descs.remove(&key);
        }
    }

    fn enqueue(&mut self, slot: usize, key: PageKey) {
        if let Some(sess) = self.sessions[slot].as_mut() {
            sess.queue.push_back(key);
        }
    }

    fn accepts(&mut self, slot: usize, meta: PageMeta, fs: &dyn FsIntrospect) -> bool {
        let Some(sess) = self.sessions[slot].as_mut() else {
            return false;
        };
        let ino = meta.key.ino.raw();
        match sess.scope {
            TaskScope::Block { .. } => meta.block.is_some_and(|b| !sess.done.test(b.raw())),
            TaskScope::File { registered_dir } => {
                if sess.done.test(ino) {
                    false
                } else if sess.relevant.test(ino) {
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

    fn scan_page(&mut self, slot: usize, meta: PageMeta, fs: &dyn FsIntrospect) {
        if !self.accepts(slot, meta, fs) {
            return;
        }
        let Some(mask) = self.sessions[slot].as_ref().map(|s| s.mask) else {
            return;
        };
        let d = self.entry(meta, true, meta.dirty);
        let was = d.pending_for(slot, mask);
        if !d.sess[slot].state_init() {
            d.sess[slot].set_reported(false, false);
        }
        if mask.contains(EventMask::ADDED) {
            d.sess[slot].set_evt(ItemFlags::ADDED);
        }
        if meta.dirty && mask.contains(EventMask::DIRTIED) {
            d.sess[slot].set_evt(ItemFlags::DIRTIED);
        }
        if d.pending_for(slot, mask) && !was {
            self.enqueue(slot, meta.key);
        }
        self.gc(meta.key);
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
        let slot = self
            .sessions
            .iter()
            .position(|s| s.is_none())
            .ok_or(SimError::TooManySessions)?;
        self.sessions[slot] = Some(Session::new(scope, mask));
        for meta in fs.cached_pages() {
            self.scan_page(slot, meta, fs);
        }
        Ok(SessionId(slot as u32))
    }

    fn deregister(&mut self, sid: SessionId) -> SimResult<()> {
        self.session(sid)?;
        let slot = sid.0 as usize;
        self.sessions[slot] = None;
        let masks = self.masks();
        self.descs.retain(|_, d| {
            d.sess[slot].clear_all();
            d.pending_any(&masks)
        });
        Ok(())
    }

    fn churn_session(&mut self, sid: SessionId, fs: &dyn FsIntrospect) -> SimResult<()> {
        let (scope, mask) = {
            let sess = self.session(sid)?;
            (sess.scope, sess.mask)
        };
        self.deregister(sid)?;
        let slot = sid.0 as usize;
        self.sessions[slot] = Some(Session::new(scope, mask));
        for meta in fs.cached_pages() {
            self.scan_page(slot, meta, fs);
        }
        Ok(())
    }

    fn handle_page_event(&mut self, meta: PageMeta, ev: PageEvent, fs: &dyn FsIntrospect) {
        self.stats.events_processed += 1;
        let ((pre_e, pre_m), (post_e, post_m)) = transition(ev, meta.dirty);
        let (interest, evt_mask, evt_flag) = match ev {
            PageEvent::Added => (EventMask::EXISTS, EventMask::ADDED, ItemFlags::ADDED),
            PageEvent::Removed => (EventMask::EXISTS, EventMask::REMOVED, ItemFlags::REMOVED),
            PageEvent::Dirtied => (EventMask::MODIFIED, EventMask::DIRTIED, ItemFlags::DIRTIED),
            PageEvent::Flushed => (EventMask::MODIFIED, EventMask::FLUSHED, ItemFlags::FLUSHED),
        };
        let mut interested = Vec::new();
        for slot in 0..self.cfg.max_sessions {
            let Some(sess) = self.sessions[slot].as_mut() else {
                continue;
            };
            if !sess.mask.intersects(interest | evt_mask) {
                continue;
            }
            if !sess.mask.has_state() && sess.queue.len() >= self.cfg.descriptor_limit {
                sess.dropped += 1;
                self.stats.events_dropped += 1;
                continue;
            }
            if self.accepts(slot, meta, fs) {
                interested.push(slot);
            }
        }
        let key = meta.key;
        let exists_already = self.descs.contains_key(&key);
        if !exists_already && interested.is_empty() {
            return;
        }
        let session_masks: Vec<Option<EventMask>> = self
            .sessions
            .iter()
            .map(|s| s.as_ref().map(|s| s.mask))
            .collect();
        let d = self.entry(meta, post_e, post_m);
        if exists_already {
            d.cur_exists = post_e;
            d.cur_modified = post_m;
            if meta.block.is_some() {
                d.block = meta.block;
            }
        }
        let mut newly_pending = Vec::new();
        for slot in interested {
            let Some(mask) = session_masks[slot] else {
                continue;
            };
            let was = d.pending_for(slot, mask);
            if !d.sess[slot].state_init() {
                d.sess[slot].set_reported(pre_e, pre_m);
            }
            if mask.contains(evt_mask) {
                d.sess[slot].set_evt(evt_flag);
            }
            if d.pending_for(slot, mask) && !was {
                newly_pending.push(slot);
            }
        }
        for slot in newly_pending {
            self.enqueue(slot, key);
        }
        if !self.skip_cancellation {
            self.gc(key);
        }
    }

    fn fetch(&mut self, sid: SessionId, max: usize, fs: &dyn FsIntrospect) -> SimResult<Vec<Item>> {
        let slot = sid.0 as usize;
        let (scope, mask) = {
            let sess = self.session(sid)?;
            (sess.scope, sess.mask)
        };
        let mut budget = self.session(sid)?.queue.len();
        self.stats.fetch_calls += 1;
        let mut out = Vec::new();
        while out.len() < max && budget > 0 {
            budget -= 1;
            let Some(key) = self.session_mut(sid)?.queue.pop_front() else {
                break;
            };
            if !self
                .descs
                .get(&key)
                .is_some_and(|d| d.pending_for(slot, mask))
            {
                self.gc(key);
                continue;
            }
            let is_block = matches!(scope, TaskScope::Block { .. });
            let mut block = None;
            if is_block {
                let d = self.descs.get_mut(&key).expect("checked above");
                if d.block.is_none() {
                    d.block = fs.fibmap(key.ino, key.index);
                }
                block = d.block;
                if block.is_none() {
                    self.enqueue(slot, key);
                    continue;
                }
            }
            let done = block.is_some_and(|b| {
                self.sessions[slot]
                    .as_ref()
                    .is_some_and(|s| s.done.test(b.raw()))
            });
            let d = self.descs.get_mut(&key).expect("checked above");
            if done {
                d.mark_reported(slot);
            } else {
                let flags = d.deliver(slot, mask);
                out.push(match block {
                    None => Item {
                        id: ItemId::Inode(key.ino),
                        offset: key.index.raw() * PAGE_SIZE,
                        flags,
                        moved_to: None,
                    },
                    Some(b) => Item {
                        id: ItemId::Block(b),
                        offset: 0,
                        flags,
                        moved_to: fs.fibmap(key.ino, key.index).filter(|&cur| cur != b),
                    },
                });
            }
            self.gc(key);
        }
        self.stats.items_fetched += out.len() as u64;
        Ok(out)
    }

    fn item_bit(item: ItemId) -> u64 {
        match item {
            ItemId::Block(b) => b.raw(),
            ItemId::Inode(i) => i.raw(),
        }
    }

    fn check_done(&self, sid: SessionId, item: ItemId) -> SimResult<bool> {
        Ok(self.session(sid)?.done.test(Self::item_bit(item)))
    }

    fn set_done(&mut self, sid: SessionId, item: ItemId) -> SimResult<()> {
        self.session_mut(sid)?.done.set(Self::item_bit(item));
        if let ItemId::Inode(ino) = item {
            let slot = sid.0 as usize;
            let masks = self.masks();
            self.descs.retain(|key, d| {
                if key.ino != ino {
                    return true;
                }
                d.mark_reported(slot);
                d.pending_any(&masks)
            });
        }
        Ok(())
    }

    fn unset_done(&mut self, sid: SessionId, item: ItemId) -> SimResult<()> {
        self.session_mut(sid)?.done.clear(Self::item_bit(item));
        Ok(())
    }

    fn handle_rename(
        &mut self,
        ino: InodeNr,
        old_parent: InodeNr,
        is_dir: bool,
        fs: &dyn FsIntrospect,
    ) {
        for slot in 0..self.cfg.max_sessions {
            let Some(sess) = self.sessions[slot].as_mut() else {
                continue;
            };
            let TaskScope::File { registered_dir } = sess.scope else {
                continue;
            };
            let mask = sess.mask;
            let was_rel = fs.is_under(old_parent, registered_dir) || ino == registered_dir;
            let now_rel = fs.is_under(ino, registered_dir);
            if is_dir {
                if was_rel != now_rel {
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
                }
            } else if !was_rel && now_rel {
                sess.done.clear(ino.raw());
                sess.relevant.set(ino.raw());
                for meta in fs.cached_pages_of(ino) {
                    self.scan_page(slot, meta, fs);
                }
            } else if was_rel && !now_rel {
                for meta in fs.cached_pages_of(ino) {
                    let d = self.entry(meta, true, meta.dirty);
                    let was = d.pending_for(slot, mask);
                    if mask.contains(EventMask::REMOVED) {
                        d.sess[slot].set_evt(ItemFlags::REMOVED);
                    }
                    if mask.contains(EventMask::EXISTS) {
                        d.sess[slot].set_force_not_exists();
                    }
                    if d.pending_for(slot, mask) && !was {
                        self.enqueue(slot, meta.key);
                    }
                    self.gc(meta.key);
                }
                if let Some(sess) = self.sessions[slot].as_mut() {
                    sess.relevant.clear(ino.raw());
                    sess.done.set(ino.raw());
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

    fn memory_bytes(&self) -> u64 {
        let bitmaps: u64 = self
            .sessions
            .iter()
            .flatten()
            .map(|s| s.bitmap_bytes())
            .sum();
        self.descs.len() as u64 * Descriptor::memory_bytes(self.cfg.max_sessions) + bitmaps
    }

    /// What [`Duet::canonical`] builds, from the ordered map.
    fn canonical(&self) -> Canonical<'_> {
        Canonical {
            cfg: self.cfg,
            sessions: &self.sessions,
            descs: self.descs.iter().map(|(key, d)| (*key, d)).collect(),
            stats: self.stats,
        }
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
fn replay(log: &[Op], skip_cancellation: bool) -> Result<(), String> {
    let cfg = DuetConfig {
        max_sessions: SLOTS,
        // Low enough that event-only sessions hit the DoS bound.
        descriptor_limit: 6,
    };
    let mut fs = TreeFs::new();
    let mut duet = Duet::new(cfg);
    let mut model = Model::new(cfg);
    model.skip_cancellation = skip_cancellation;
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
            model.descs.len().to_string(),
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
        }
        let (got, want) = (duet.canonical(), model.canonical());
        if got != want {
            return Err(format!(
                "op {i} {op:?}: state diverged\n   duet: {got:?}\n  model: {want:?}"
            ));
        }
        duet.assert_index_consistent();
    }
    Ok(())
}

#[test]
fn duet_matches_the_naive_reference() {
    let seed = Knob::CheckSeed
        .read()
        .unwrap_or_else(|e| panic!("{e}"))
        .unwrap_or(0xD1FF_BA5E);
    differential(
        &DiffConfig::new("duet-vs-reference", seed)
            .cases(24)
            .ops(1500),
        gen_op,
        |log| replay(log, false),
    )
    .unwrap();
}

/// The harness can fail: a reference that does not free cancelled
/// descriptors is caught, and the log shrinks to the three ops that
/// show it (a state session, an event, the opposing event).
#[test]
fn a_reference_that_skips_cancellation_is_caught() {
    let failure = differential(
        &DiffConfig::new("duet-vs-leaky-reference", 0x1EAC)
            .cases(4)
            .ops(400),
        gen_op,
        |log| replay(log, true),
    )
    .unwrap_err();
    assert_eq!(failure.ops.len(), 3, "{failure}");
    assert!(failure.message.contains("descriptor_count"), "{failure}");
}
