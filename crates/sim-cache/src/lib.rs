//! A simulated Linux-style page cache with Duet event hooks.
//!
//! Duet "hooks into the page cache modification routines and gets
//! control when a page is added or removed from the page cache, or when
//! a page is marked dirty or flushed" (§4.1 of the paper). This crate is
//! that page cache: an LRU cache of 4 KiB file pages with dirty
//! tracking, whose every mutation emits a [`PageEvent`] into a queue the
//! simulation drains into the Duet framework.
//!
//! Division of labour with the filesystem layer:
//!
//! - the cache tracks residency, dirtiness and LRU order;
//! - the *filesystem* performs all device I/O. Cache operations that
//!   imply writes (dirty eviction, writeback batches) return the pages
//!   involved so the filesystem can charge the corresponding requests.

pub mod cache;
#[cfg(test)]
mod differential_tests;
pub mod introspect;
pub mod page;

pub use cache::{CacheStats, PageCache};
pub use introspect::FsIntrospect;
pub use page::{PageEvent, PageKey, PageMeta};
