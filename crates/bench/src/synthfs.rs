//! A minimal synthetic filesystem view for overhead microbenchmarks.
//!
//! The §6.4 CPU-overhead experiment only needs Duet's bookkeeping paths
//! (descriptor updates, relevance bitmap tests, fetch); the stub keeps
//! everything trivially relevant and maps page *n* of file *i* to block
//! `i · 2^20 + n`.

use duet::FsIntrospect;
use sim_cache::{PageEvent, PageKey, PageMeta};
use sim_core::{BlockNr, DeviceId, InodeNr, PageIndex};

/// Stub filesystem: flat namespace, identity-ish fibmap.
pub struct SynthFs;

impl FsIntrospect for SynthFs {
    fn device(&self) -> DeviceId {
        DeviceId(0)
    }

    fn is_under(&self, _ino: InodeNr, _dir: InodeNr) -> bool {
        true
    }

    fn path_of(&self, ino: InodeNr) -> Option<String> {
        Some(format!("/f{}", ino.raw()))
    }

    fn fibmap(&self, ino: InodeNr, index: PageIndex) -> Option<BlockNr> {
        Some(BlockNr((ino.raw() << 20) + index.raw()))
    }

    fn has_cached_pages(&self, _ino: InodeNr) -> bool {
        true
    }

    fn cached_pages(&self) -> Vec<PageMeta> {
        Vec::new()
    }

    fn cached_pages_of(&self, _ino: InodeNr) -> Vec<PageMeta> {
        Vec::new()
    }
}

/// Root directory used by synthetic sessions.
pub const SYNTH_ROOT: InodeNr = InodeNr(1);

/// The §6.4 page-event stream: an endless LCG walk over 512 files ×
/// 64 pages — half adds, a quarter dirties, a quarter removes (removes
/// let state notifications cancel).
#[derive(Debug, Default)]
pub struct SynthEvents {
    cursor: u64,
}

impl Iterator for SynthEvents {
    type Item = (PageMeta, PageEvent);

    fn next(&mut self) -> Option<Self::Item> {
        const FILES: u64 = 512;
        const PAGES: u64 = 64;
        self.cursor = self
            .cursor
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let ino = InodeNr(2 + (self.cursor >> 33) % FILES);
        let idx = PageIndex((self.cursor >> 20) % PAGES);
        let meta = PageMeta {
            key: PageKey::new(ino, idx),
            block: Some(BlockNr((ino.raw() << 20) + idx.raw())),
            dirty: false,
        };
        let ev = match self.cursor % 4 {
            0 | 1 => PageEvent::Added,
            2 => PageEvent::Dirtied,
            _ => PageEvent::Removed,
        };
        Some((meta, ev))
    }
}

/// Fetches 256 items a call until the session has nothing pending, as
/// the §6.4 task does; returns the number of items fetched.
pub fn drain(duet: &mut duet::Duet, sid: duet::SessionId) -> sim_core::SimResult<usize> {
    let mut fetched = 0;
    loop {
        let n = duet.fetch(sid, 256, &SynthFs)?.len();
        fetched += n;
        if n < 256 {
            return Ok(fetched);
        }
    }
}
