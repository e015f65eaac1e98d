//! Duet: a framework for opportunistic storage maintenance.
//!
//! This crate is the primary contribution of *Opportunistic Storage
//! Maintenance* (Amvrosiadis, Demke Brown, Goel — SOSP 2015),
//! reimplemented against a simulated storage stack. Duet hooks into the
//! page cache and provides maintenance tasks with notifications about
//! page-level events — a page being added, removed, dirtied or flushed
//! — which tasks use as *hints* to process cached data out of order,
//! reducing the I/O they need to meet their goals.
//!
//! # The API (Table 1 of the paper)
//!
//! | Paper call | Here |
//! |---|---|
//! | `duet_register(path, mask)` | [`Duet::register`] |
//! | `duet_deregister(sid)` | [`Duet::deregister`] |
//! | `duet_fetch(sid, items, count)` | [`Duet::fetch`] |
//! | `duet_check_done(sid, item)` | [`Duet::check_done`] |
//! | `duet_set_done(sid, item)` | [`Duet::set_done`] |
//! | `duet_unset_done(sid, item)` | [`Duet::unset_done`] |
//! | `duet_get_path(sid, ino, path)` | [`Duet::get_path`] |
//!
//! Block tasks register a device and receive block-granularity items;
//! file tasks register a directory and receive (inode, offset) items
//! for everything under it. Page events from file accesses are bridged
//! to block tasks through the filesystem's FIBMAP translation (§4.2).
//!
//! # Example
//!
//! A file task that processes whatever is in memory first (the shape of
//! Algorithm 1) looks like:
//!
//! ```no_run
//! use duet::{Duet, EventMask, PrioQueue, SessionId, TaskScope};
//! use duet::FsIntrospect;
//!
//! fn drain(duet: &mut Duet, sid: SessionId, fs: &dyn FsIntrospect,
//!          pqueue: &mut PrioQueue<u64, u64>) {
//!     loop {
//!         let items = duet.fetch(sid, 256, fs).expect("fetch");
//!         if items.is_empty() {
//!             break;
//!         }
//!         for item in items {
//!             if let Some(ino) = item.id.as_inode() {
//!                 let pages = pqueue.priority_of(ino.raw()).unwrap_or(0);
//!                 pqueue.upsert(ino.raw(), pages + 1);
//!             }
//!         }
//!     }
//! }
//! ```
//!
//! The simulation wiring delivers page-cache and namespace events into
//! the framework via [`Duet::handle_page_event`], [`Duet::handle_rename`]
//! and [`Duet::handle_delete`]; see the `experiments` crate.

pub mod descriptor;
pub mod events;
pub mod framework;
pub mod hints;
pub mod prioqueue;
pub mod session;

pub use events::{EventMask, ItemFlags};
pub use framework::{Duet, DuetConfig, DuetStats};
// The trait lives in `sim_cache::introspect` (below the filesystems
// that implement it — see lint L1); the framework-facing name stays
// `duet::FsIntrospect`.
pub use hints::{Priority, ResidencyTracker};
pub use prioqueue::PrioQueue;
pub use session::{Item, ItemId, SessionId, TaskScope};
pub use sim_cache::FsIntrospect;

#[cfg(test)]
mod contract_tests;
#[cfg(test)]
mod framework_tests;
