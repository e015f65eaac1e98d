//! Property tests of the notification state machine.
//!
//! The reference model: a page carries an `(exists, modified)` state; a
//! state session is owed a notification whenever the current state
//! differs from the state it last fetched; an event session is owed the
//! exact multiset of subscribed events since its last fetch, merged
//! into flag bits. The framework must agree with this model for every
//! legal event interleaving, including the cancellation behaviour
//! ("reverted back to the same state ... an event is not generated",
//! §3.2).
//!
//! Cases are driven by the `sim_core::check` helper: each case gets a
//! deterministic per-case RNG, and a failing case reports the exact
//! seed that replays it.

use crate::events::{EventMask, ItemFlags};
use crate::framework::Duet;
use crate::session::TaskScope;
use sim_cache::FsIntrospect;
use sim_cache::{PageEvent, PageKey, PageMeta};
use sim_core::check::{forall, CheckConfig};
use sim_core::{BlockNr, DeviceId, InodeNr, PageIndex, SimRng};

/// Trivial filesystem: one file, everything relevant.
struct FlatFs;

impl FsIntrospect for FlatFs {
    fn device(&self) -> DeviceId {
        DeviceId(0)
    }
    fn is_under(&self, _: InodeNr, _: InodeNr) -> bool {
        true
    }
    fn path_of(&self, _: InodeNr) -> Option<String> {
        Some("/f".into())
    }
    fn fibmap(&self, _: InodeNr, index: PageIndex) -> Option<BlockNr> {
        Some(BlockNr(index.raw()))
    }
    fn has_cached_pages(&self, _: InodeNr) -> bool {
        true
    }
    fn cached_pages(&self) -> Vec<PageMeta> {
        Vec::new()
    }
    fn cached_pages_of(&self, _: InodeNr) -> Vec<PageMeta> {
        Vec::new()
    }
}

const FILE: InodeNr = InodeNr(7);
const ROOT: InodeNr = InodeNr(1);

#[derive(Debug, Clone, Copy)]
enum Action {
    /// Apply the next legal event to page `p` (cycled deterministically
    /// from this tag).
    Event { page: u64, tag: u8 },
    /// Fetch everything pending.
    Fetch,
}

/// Weighted action pick mirroring the original generator's 4:1
/// event-to-fetch mix. Randomized cases are driven by the deterministic
/// `SimRng` (the workspace builds offline, with no proptest dep).
fn action_pick(rng: &mut SimRng) -> Action {
    if rng.gen_range(0, 5) < 4 {
        Action::Event {
            page: rng.gen_range(0, 4),
            tag: rng.gen_range(0, 256) as u8,
        }
    } else {
        Action::Fetch
    }
}

/// Reference per-page state.
#[derive(Debug, Clone, Copy, Default)]
struct RefPage {
    exists: bool,
    modified: bool,
    reported_exists: bool,
    reported_modified: bool,
}

/// Picks a legal event for the current page state.
fn legal_event(p: &RefPage, tag: u8) -> PageEvent {
    if !p.exists {
        return PageEvent::Added;
    }
    match tag % 3 {
        0 => PageEvent::Removed,
        1 => {
            if p.modified {
                PageEvent::Flushed
            } else {
                PageEvent::Dirtied
            }
        }
        _ => {
            if p.modified {
                PageEvent::Flushed
            } else {
                PageEvent::Removed
            }
        }
    }
}

fn apply(p: &mut RefPage, ev: PageEvent) {
    match ev {
        PageEvent::Added => {
            p.exists = true;
            p.modified = false;
        }
        PageEvent::Removed => {
            p.exists = false;
            p.modified = false;
        }
        PageEvent::Dirtied => p.modified = true,
        PageEvent::Flushed => p.modified = false,
    }
}

/// State sessions: fetched notifications are exactly the state
/// diffs against the last report, for every interleaving.
#[test]
fn state_session_matches_reference() {
    let cfg = CheckConfig::new("state-session-matches-reference", 0x57A7E).cases(128);
    forall(&cfg, |_case, rng| {
        let actions: Vec<Action> = (0..rng.gen_range(1, 120))
            .map(|_| action_pick(rng))
            .collect();
        let fs = FlatFs;
        let mut duet = Duet::with_defaults();
        let sid = duet
            .register(
                TaskScope::File {
                    registered_dir: ROOT,
                },
                EventMask::EXISTS | EventMask::MODIFIED,
                &fs,
            )
            .expect("register");
        let mut reference = [RefPage::default(); 4];
        for action in actions {
            match action {
                Action::Event { page, tag } => {
                    let p = &mut reference[page as usize];
                    let ev = legal_event(p, tag);
                    // Meta reflects the page's dirty state as the cache
                    // would report it at event time.
                    let meta_dirty = match ev {
                        PageEvent::Added => false,
                        PageEvent::Removed => p.modified,
                        PageEvent::Dirtied => true,
                        PageEvent::Flushed => false,
                    };
                    apply(p, ev);
                    duet.handle_page_event(
                        PageMeta {
                            key: PageKey::new(FILE, PageIndex(page)),
                            block: Some(BlockNr(page)),
                            dirty: meta_dirty,
                        },
                        ev,
                        &fs,
                    );
                }
                Action::Fetch => {
                    let items = duet.fetch(sid, 64, &fs).expect("fetch");
                    let mut got: Vec<(u64, ItemFlags)> = items
                        .iter()
                        .map(|i| (i.offset / sim_core::PAGE_SIZE, i.flags))
                        .collect();
                    got.sort_by_key(|(o, _)| *o);
                    // Build the expected diffs.
                    let mut expected: Vec<(u64, ItemFlags)> = Vec::new();
                    for (pg, p) in reference.iter_mut().enumerate() {
                        let mut fl = ItemFlags::empty();
                        if p.exists != p.reported_exists {
                            fl |= if p.exists {
                                ItemFlags::EXISTS
                            } else {
                                ItemFlags::NOT_EXISTS
                            };
                        }
                        if p.modified != p.reported_modified {
                            fl |= if p.modified {
                                ItemFlags::MODIFIED
                            } else {
                                ItemFlags::NOT_MODIFIED
                            };
                        }
                        if !fl.is_empty() {
                            expected.push((pg as u64, fl));
                        }
                        p.reported_exists = p.exists;
                        p.reported_modified = p.modified;
                    }
                    assert_eq!(got, expected);
                }
            }
            duet.assert_index_consistent();
        }
        // Final fetch must also agree, and leave nothing allocated.
        let final_items = duet.fetch(sid, 64, &fs).expect("fetch");
        let mut owed = 0;
        for p in &reference {
            if p.exists != p.reported_exists || p.modified != p.reported_modified {
                owed += 1;
            }
        }
        assert_eq!(final_items.len(), owed);
        let empty = duet.fetch(sid, 64, &fs).expect("fetch");
        assert!(empty.is_empty());
        assert_eq!(duet.descriptor_count(), 0);
        Ok(())
    })
    .unwrap();
}

/// Event sessions: fetched flag bits are exactly the union of
/// subscribed events since the last fetch.
#[test]
fn event_session_matches_reference() {
    let cfg = CheckConfig::new("event-session-matches-reference", 0xE4E47).cases(128);
    forall(&cfg, |_case, rng| {
        let actions: Vec<Action> = (0..rng.gen_range(1, 120))
            .map(|_| action_pick(rng))
            .collect();
        let fs = FlatFs;
        let mut duet = Duet::with_defaults();
        let mask = EventMask::ADDED | EventMask::REMOVED | EventMask::DIRTIED | EventMask::FLUSHED;
        let sid = duet
            .register(
                TaskScope::File {
                    registered_dir: ROOT,
                },
                mask,
                &fs,
            )
            .expect("register");
        let mut reference = [RefPage::default(); 4];
        let mut pending: [u8; 4] = [0; 4];
        for action in actions {
            match action {
                Action::Event { page, tag } => {
                    let p = &mut reference[page as usize];
                    let ev = legal_event(p, tag);
                    let meta_dirty = match ev {
                        PageEvent::Added => false,
                        PageEvent::Removed => p.modified,
                        PageEvent::Dirtied => true,
                        PageEvent::Flushed => false,
                    };
                    apply(p, ev);
                    pending[page as usize] |= match ev {
                        PageEvent::Added => ItemFlags::ADDED.bits(),
                        PageEvent::Removed => ItemFlags::REMOVED.bits(),
                        PageEvent::Dirtied => ItemFlags::DIRTIED.bits(),
                        PageEvent::Flushed => ItemFlags::FLUSHED.bits(),
                    };
                    duet.handle_page_event(
                        PageMeta {
                            key: PageKey::new(FILE, PageIndex(page)),
                            block: Some(BlockNr(page)),
                            dirty: meta_dirty,
                        },
                        ev,
                        &fs,
                    );
                }
                Action::Fetch => {
                    let items = duet.fetch(sid, 64, &fs).expect("fetch");
                    let mut got: Vec<(u64, u8)> = items
                        .iter()
                        .map(|i| (i.offset / sim_core::PAGE_SIZE, i.flags.bits()))
                        .collect();
                    got.sort_by_key(|(o, _)| *o);
                    let mut expected: Vec<(u64, u8)> = Vec::new();
                    for (pg, bits) in pending.iter_mut().enumerate() {
                        if *bits != 0 {
                            expected.push((pg as u64, *bits));
                            *bits = 0;
                        }
                    }
                    assert_eq!(got, expected);
                }
            }
            duet.assert_index_consistent();
        }
        Ok(())
    })
    .unwrap();
}
