//! Simulation substrate shared by every crate in the Duet reproduction.
//!
//! This crate provides the building blocks of the discrete-event storage
//! simulation used to reproduce *Opportunistic Storage Maintenance*
//! (SOSP 2015):
//!
//! - [`clock`]: a virtual nanosecond clock. All experiment durations are
//!   expressed in virtual time, so a "30-minute" run completes in
//!   milliseconds of wall-clock time.
//! - [`ids`]: strongly-typed identifiers for blocks, inodes, pages,
//!   devices and segments. Newtypes prevent the classic simulator bug of
//!   mixing up block numbers and page indices.
//! - [`rng`]: a deterministic random-number generator plus the sampling
//!   distributions used by the workload generator (uniform, Zipf-like,
//!   log-normal file sizes).
//! - [`bitmap`]: a sparse chunked bitmap, our analogue of the red-black
//!   tree of bitmap ranges that the Duet kernel implementation uses for
//!   its `done` and `relevant` bitmaps (§4.2 of the paper), its chunks
//!   in a directory indexed by chunk number. It reports
//!   its own memory footprint so the §6.4 memory-overhead experiment can
//!   be reproduced.
//! - [`stats`]: mean / standard deviation / confidence intervals and
//!   simple counters used by the evaluation harness.
//! - [`error`]: the shared error type.
//! - [`fault`]: the deterministic fault-injection plane — a
//!   `(seed, plan)` pair drives replayable fault decisions at named
//!   sites throughout the stack.
//! - [`check`]: a zero-dependency property-test helper with
//!   deterministic case generation and seed-reporting failures.
//! - [`trace`]: the virtual-time structured tracing plane — ring-buffered
//!   events and spans from every layer, with a JSONL dump and whole-run
//!   counters.
//! - [`dmap`]: deterministic O(1) hash containers ([`dmap::DMap`],
//!   [`dmap::DSet`]) with seeded hashing and insertion-order iteration,
//!   plus a slab arena ([`dmap::Slab`]) with stable `u32` handles — the
//!   hot-path replacements for the B-tree maps that PR 1's determinism
//!   pass left on the page-cache inner loops.
//! - [`inomap`]: [`InoMap`], a map keyed by inode number that indexes a
//!   `Vec` directly — the inode tables, a snapshot's file table and the
//!   page table's file directory.
//! - [`pagetable`]: the per-file page table ([`pagetable::PageTable`],
//!   `(inode, page index)` → `u32` handle in per-file 64-slot chunks)
//!   that the page cache and Duet's descriptor table are both built on.
//! - [`snapshot`]: the snapshot/fork warm-start plane — a bounded
//!   memo of pristine simulated-stack states
//!   ([`snapshot::SnapshotStore`]); fork ≡ fresh is checked with the
//!   `==` every type of the forked stack derives.
//! - [`knobs`]: the strict parser behind the `DUET_SCALE`, `DUET_JOBS`
//!   and `DUET_TRACE` environment knobs.
//!
//! State keyed by a small dense id is a `Vec` indexed by it; ordered
//! state is a sorted `Vec` when per-file small (the Btrfs extent maps)
//! and std's `BTreeMap` otherwise (the free-space map); [`dmap`] is
//! only for unordered point-lookup tables on a measured hot path
//! (DESIGN.md §12.1).

pub mod bitmap;
pub mod check;
pub mod clock;
pub mod dmap;
pub mod error;
pub mod fault;
pub mod ids;
pub mod inomap;
pub mod knobs;
pub mod pagetable;
pub mod rng;
pub mod snapshot;
pub mod stats;
pub mod trace;

pub use bitmap::SparseBitmap;
pub use clock::{SimDuration, SimInstant};
pub use dmap::{DMap, DSet, DetHash, Slab};
pub use error::{SimError, SimResult};
pub use fault::{FaultHandle, FaultPlan, FaultSite};
pub use ids::{
    BlockNr,
    DeviceId,
    InodeNr,
    PageIndex,
    SegmentNr, //
};
pub use inomap::InoMap;
pub use pagetable::PageTable;
pub use rng::SimRng;
pub use trace::{SpanId, TraceEvent, TraceHandle, TraceLayer};

/// Kept only because the frozen `benchmark/src/kernels.rs` imports this
/// name for its `k_omap_ns` kernel; the next `[benchmark]` PR deletes
/// kernel and alias together. No other code may name it.
pub type DOrdMap<K, V> = std::collections::BTreeMap<K, V>;

/// Size of a page (and of a filesystem block) in bytes.
///
/// The paper's evaluation uses Linux's 4 KiB pages and configures both
/// Btrfs and F2fs with 4 KiB blocks, so a page maps 1:1 onto a block.
pub const PAGE_SIZE: u64 = 4096;
