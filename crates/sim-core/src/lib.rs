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
//! - [`inomap`]: [`InoMap`], a map keyed by inode number that indexes a
//!   `Vec` directly — the inode tables, a snapshot's file table and the
//!   page table's file directory.
//! - [`slab`]: a slab arena ([`Slab`]) with stable `u32` handles, the
//!   backing store of the page cache's LRU chains and the page table.
//! - [`pagetable`]: the per-file page table ([`pagetable::PageTable`],
//!   `(inode, page index)` → `u32` handle in per-file 64-slot chunks)
//!   that the page cache and Duet's descriptor table are both built on.
//! - [`owner`]: the (inode, page) a block backs packed into one `u64`
//!   — Btrfs's back-references and F2fs's per-block owners.
//! - [`knobs`]: the strict parser behind all five environment knobs:
//!   `DUET_SCALE`, `DUET_JOBS`, `DUET_TRACE` and the two replay seeds
//!   `DUET_FAULT_SEED` and `DUET_CHECK_SEED`.
//!
//! State keyed by a small dense id is a `Vec` indexed by it; ordered
//! or name-keyed state is a sorted `Vec` when per-file small (the Btrfs
//! extent maps) and std's `BTreeMap`/`BTreeSet` otherwise (the
//! free-space map, directory name tables, the corrupted-block set)
//! (DESIGN.md §12.1).

pub mod bitmap;
pub mod check;
pub mod clock;
pub mod error;
pub mod fault;
pub mod ids;
pub mod inomap;
pub mod knobs;
pub mod owner;
pub mod pagetable;
pub mod rng;
pub mod slab;
pub mod stats;
pub mod trace;

pub use bitmap::SparseBitmap;
pub use clock::{SimDuration, SimInstant};
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
pub use slab::Slab;
pub use trace::{SpanId, TraceEvent, TraceHandle, TraceLayer};

/// Kept only because the frozen `benchmark/src/kernels.rs` imports this
/// name for its `k_dmap_ns` kernel; the next `[benchmark]` PR deletes
/// kernel and alias together. No other code may name it.
pub type DMap<K, V> = std::collections::BTreeMap<K, V>;

/// Kept only because the frozen `benchmark/src/kernels.rs` imports this
/// name for its `k_dset_ns` kernel; the next `[benchmark]` PR deletes
/// kernel and alias together. No other code may name it.
pub type DSet<K> = std::collections::BTreeSet<K>;

/// Kept only because the frozen `benchmark/src/kernels.rs` imports this
/// name for its `k_omap_ns` kernel; the next `[benchmark]` PR deletes
/// kernel and alias together. No other code may name it.
pub type DOrdMap<K, V> = std::collections::BTreeMap<K, V>;

/// Size of a page (and of a filesystem block) in bytes.
///
/// The paper's evaluation uses Linux's 4 KiB pages and configures both
/// Btrfs and F2fs with 4 KiB blocks, so a page maps 1:1 onto a block.
pub const PAGE_SIZE: u64 = 4096;
