//! The per-file page table: `(InodeNr, PageIndex)` → a `u32` handle.
//!
//! State keyed by (file, page) whose accesses run along a file is
//! indexed the way the kernel indexes its page cache — per inode
//! (`address_space → i_pages`), not by one global hash of `(ino, index)`
//! (DESIGN.md §12.1). Two users keep their payloads in their own
//! [`Slab`]s and index them here: the page cache (resident pages) and
//! Duet's descriptor table (merged descriptors).
//!
//! Files are found by inode number in an [`InoMap`], the way the kernel
//! reaches an `address_space` by pointer. A file's handles sit in
//! 64-slot chunks keyed by `index >> 6` in a `Vec` sorted by chunk
//! number, so chunk order is page order: every walk is ascending with
//! no sort, and memory follows the entries, not the span of their
//! indices. An emptied chunk and an emptied file are dropped at once.

use crate::slab::{Slab, NIL};
use crate::{InoMap, InodeNr, PageIndex};

/// A file's table covers its index space in chunks of this many
/// consecutive pages.
const CHUNK_SHIFT: u32 = 6;
const CHUNK_SLOTS: usize = 1 << CHUNK_SHIFT;

/// One chunk of a file's table: the handles among 64 consecutive page
/// indices ([`NIL`] = no entry).
#[derive(Debug, Clone, PartialEq)]
struct Chunk {
    slots: [u32; CHUNK_SLOTS],
    used: u32,
}

/// One file's entries.
#[derive(Debug, Clone, Default, PartialEq)]
struct FilePages {
    /// `(chunk number, handle into [`PageTable::chunks`])`, sorted by
    /// chunk number. A file holds a few chunks, so a binary search over
    /// one allocation beats a tree.
    chunks: Vec<(u64, u32)>,
    /// Entries across all chunks.
    count: usize,
}

impl FilePages {
    /// Where chunk `nr` sits in [`FilePages::chunks`], or where it
    /// would go.
    #[inline]
    fn find(&self, nr: u64) -> Result<usize, usize> {
        self.chunks.binary_search_by_key(&nr, |&(n, _)| n)
    }

    /// The handle of chunk `nr`, if the file has it.
    #[inline]
    fn chunk(&self, nr: u64) -> Option<u32> {
        self.find(nr).ok().map(|at| self.chunks[at].1)
    }
}

/// Splits a page index into its chunk number and the slot within it.
#[inline]
fn chunk_of(index: PageIndex) -> (u64, usize) {
    let i = index.raw();
    (i >> CHUNK_SHIFT, (i as usize) & (CHUNK_SLOTS - 1))
}

/// The page index of a chunk's slot.
fn index_at(chunk: u64, slot: usize) -> PageIndex {
    PageIndex((chunk << CHUNK_SHIFT) | slot as u64)
}

/// Clears the slots of `file` that `keep` rejects, in page order;
/// frees the chunks this empties.
fn retain_in(
    chunks: &mut Slab<Chunk>,
    file: &mut FilePages,
    mut keep: impl FnMut(PageIndex, u32) -> bool,
) {
    let mut dropped = 0;
    file.chunks.retain(|&(nr, c)| {
        let ch = &mut chunks[c];
        for slot in 0..CHUNK_SLOTS {
            let h = ch.slots[slot];
            if h != NIL && !keep(index_at(nr, slot), h) {
                ch.slots[slot] = NIL;
                ch.used -= 1;
                dropped += 1;
            }
        }
        if ch.used > 0 {
            return true;
        }
        chunks.remove(c);
        false
    });
    file.count -= dropped;
}

/// A map from `(InodeNr, PageIndex)` to a caller's `u32` handle, stored
/// per file.
///
/// # Examples
///
/// ```
/// use sim_core::pagetable::PageTable;
/// use sim_core::{InodeNr, PageIndex};
///
/// let mut t = PageTable::new();
/// let (h, existed) = t.get_or_insert_with(InodeNr(1), PageIndex(64), || 7);
/// assert_eq!((h, existed), (7, false));
/// assert_eq!(t.get(InodeNr(1), PageIndex(64)), Some(7));
/// assert_eq!(t.remove(InodeNr(1), PageIndex(64)), Some(7));
/// assert_eq!(t.get(InodeNr(1), PageIndex(64)), None);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PageTable {
    /// Inode → that file's chunks.
    files: InoMap<FilePages>,
    /// Backing store for the files' chunks.
    chunks: Slab<Chunk>,
}

impl PageTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        PageTable::default()
    }

    /// The handle stored for a page, if any.
    #[inline]
    pub fn get(&self, ino: InodeNr, index: PageIndex) -> Option<u32> {
        let (chunk, slot) = chunk_of(index);
        let c = self.files.get(ino)?.chunk(chunk)?;
        let h = self.chunks[c].slots[slot];
        (h != NIL).then_some(h)
    }

    /// The handle stored for a page, or the one `make` returns, stored
    /// first. One walk to the page's slot serves both outcomes; the flag
    /// says whether the entry already existed. `make` must not return
    /// [`NIL`].
    #[inline]
    pub fn get_or_insert_with(
        &mut self,
        ino: InodeNr,
        index: PageIndex,
        make: impl FnOnce() -> u32,
    ) -> (u32, bool) {
        // A chunk or file created here is filled below, so none lingers
        // empty.
        let (chunk, slot) = chunk_of(index);
        let file = self.files.get_or_insert_with(ino, FilePages::default);
        let c = match file.find(chunk) {
            Ok(at) => file.chunks[at].1,
            Err(at) => {
                let c = self.chunks.insert(Chunk {
                    slots: [NIL; CHUNK_SLOTS],
                    used: 0,
                });
                file.chunks.insert(at, (chunk, c));
                c
            }
        };
        let ch = &mut self.chunks[c];
        let h = ch.slots[slot];
        if h != NIL {
            return (h, true);
        }
        let h = make();
        debug_assert_ne!(h, NIL, "NIL is not a handle");
        ch.slots[slot] = h;
        ch.used += 1;
        file.count += 1;
        (h, false)
    }

    /// Clears a page's entry and returns the handle it held; drops the
    /// chunk and the file entry this empties.
    #[inline]
    pub fn remove(&mut self, ino: InodeNr, index: PageIndex) -> Option<u32> {
        let (chunk, slot) = chunk_of(index);
        let file = self.files.get_mut(ino)?;
        let at = file.find(chunk).ok()?;
        let c = file.chunks[at].1;
        let ch = &mut self.chunks[c];
        let h = std::mem::replace(&mut ch.slots[slot], NIL);
        if h == NIL {
            return None;
        }
        ch.used -= 1;
        if ch.used == 0 {
            self.chunks.remove(c);
            file.chunks.remove(at);
        }
        file.count -= 1;
        if file.count == 0 {
            self.files.remove(ino);
        }
        Some(h)
    }

    /// Number of entries of one file (O(1)).
    pub fn len_of(&self, ino: InodeNr) -> usize {
        self.files.get(ino).map_or(0, |file| file.count)
    }

    /// One file's entries, in page order.
    pub fn file(&self, ino: InodeNr) -> impl Iterator<Item = (PageIndex, u32)> + '_ {
        self.files
            .get(ino)
            .into_iter()
            .flat_map(|file| self.entries_of(file))
    }

    fn entries_of<'a>(
        &'a self,
        file: &'a FilePages,
    ) -> impl Iterator<Item = (PageIndex, u32)> + 'a {
        file.chunks.iter().flat_map(|&(nr, c)| {
            self.chunks[c]
                .slots
                .iter()
                .enumerate()
                .filter(|&(_, &h)| h != NIL)
                .map(move |(slot, &h)| (index_at(nr, slot), h))
        })
    }

    /// Every entry in `(inode, index)` order, as stored.
    pub fn iter(&self) -> impl Iterator<Item = (InodeNr, PageIndex, u32)> + '_ {
        self.files
            .iter()
            .flat_map(|(ino, file)| self.entries_of(file).map(move |(index, h)| (ino, index, h)))
    }

    /// Shows `keep` one file's entries in page order and clears those it
    /// rejects. Cost is proportional to that file's chunks, not to the
    /// table.
    pub fn retain_file(&mut self, ino: InodeNr, keep: impl FnMut(PageIndex, u32) -> bool) {
        let Some(file) = self.files.get_mut(ino) else {
            return;
        };
        retain_in(&mut self.chunks, file, keep);
        if file.count == 0 {
            self.files.remove(ino);
        }
    }

    /// Shows `keep` every entry in `(inode, index)` order and clears
    /// those it rejects.
    pub fn retain(&mut self, mut keep: impl FnMut(InodeNr, PageIndex, u32) -> bool) {
        let chunks = &mut self.chunks;
        self.files.retain(|ino, file| {
            retain_in(chunks, file, |index, h| keep(ino, index, h));
            file.count > 0
        });
    }

    /// Panics unless every counter matches a scan, no empty chunk or
    /// file lingers and every chunk belongs to a file. For the users'
    /// tests, which check their payloads against [`PageTable::iter`].
    pub fn assert_consistent(&self) {
        let mut chunks = 0;
        for (ino, file) in self.files.iter() {
            assert!(file.count > 0, "empty page table kept for {ino}");
            assert!(
                file.chunks.windows(2).all(|w| w[0].0 < w[1].0),
                "chunks of {ino} out of order"
            );
            let mut in_file = 0;
            for &(nr, c) in &file.chunks {
                let chunk = &self.chunks[c];
                let used = chunk.slots.iter().filter(|&&h| h != NIL).count();
                assert!(used > 0, "empty chunk {nr} kept for {ino}");
                assert_eq!(chunk.used as usize, used, "chunk {nr} of {ino}");
                in_file += used;
            }
            assert_eq!(file.count, in_file, "entry count of {ino}");
            chunks += file.chunks.len();
        }
        assert_eq!(chunks, self.chunks.len(), "orphaned chunk");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::{differential, DiffConfig};
    use crate::SimRng;
    use std::collections::BTreeMap;

    /// Memory follows the entries, not the span of their indices: a
    /// table dense in the page index would need 2²⁴ slots here.
    #[test]
    fn sparse_file_costs_chunks_not_span() {
        let mut t = PageTable::new();
        let ino = InodeNr(1);
        let sparse = [0, 63, 64, 1 << 24];
        for (h, idx) in sparse.into_iter().enumerate() {
            t.get_or_insert_with(ino, PageIndex(idx), || h as u32);
        }
        assert_eq!(t.len_of(ino), 4);
        assert_eq!(t.chunks.len(), 3, "0 and 63 share a chunk");
        let in_order: Vec<u64> = t.file(ino).map(|(index, _)| index.raw()).collect();
        assert_eq!(in_order, sparse);
        t.assert_consistent();
        for idx in sparse {
            assert!(t.remove(ino, PageIndex(idx)).is_some());
        }
        assert!(t.files.is_empty(), "no file entry left");
        assert!(t.chunks.is_empty(), "no chunk left");
    }

    // ----- differential suite (DESIGN.md §13) --------------------------

    #[derive(Debug, Clone, Copy)]
    enum Op {
        Insert(InodeNr, PageIndex),
        Get(InodeNr, PageIndex),
        Remove(InodeNr, PageIndex),
        /// Keep the file's handles that are not multiples of the operand.
        RetainFile(InodeNr, u32),
        /// Keep every handle that is not a multiple of the operand.
        Retain(u32),
        File(InodeNr),
    }

    /// Page indices: a chunk's first slots, the 63 | 64 chunk boundary
    /// and 2⁴⁰, beyond any table dense in the page index.
    const INDICES: [u64; 9] = [0, 1, 62, 63, 64, 65, 127, 1 << 40, (1 << 40) + 1];

    fn gen_op(rng: &mut SimRng, _i: u64) -> Op {
        let ino = InodeNr(rng.gen_range(0, 5));
        let index = PageIndex(INDICES[rng.gen_range(0, INDICES.len() as u64) as usize]);
        match rng.gen_range(0, 20) {
            0..=8 => Op::Insert(ino, index),
            9..=10 => Op::Get(ino, index),
            11..=15 => Op::Remove(ino, index),
            16 => Op::RetainFile(ino, rng.gen_range(2, 5) as u32),
            17 => Op::Retain(rng.gen_range(3, 9) as u32),
            _ => Op::File(ino),
        }
    }

    type Model = BTreeMap<(InodeNr, PageIndex), u32>;

    fn model_file(model: &Model, ino: InodeNr) -> Vec<(PageIndex, u32)> {
        model
            .range((ino, PageIndex(0))..=(ino, PageIndex(u64::MAX)))
            .map(|(&(_, index), &h)| (index, h))
            .collect()
    }

    /// Replays a log against a `PageTable` and a `BTreeMap` model, every
    /// result compared. Handles come from a counter, as from a slab.
    /// `skip_one_remove` is the sabotage: the first `remove` that hits
    /// is withheld from the model.
    fn replay(log: &[Op], mut skip_one_remove: bool) -> Result<(), String> {
        let mut t = PageTable::new();
        let mut model = Model::new();
        let mut next = 0u32;
        for (i, &op) in log.iter().enumerate() {
            let agree = |what: &str, got: String, want: String| {
                if got == want {
                    Ok(())
                } else {
                    Err(format!(
                        "op {i} {op:?}: {what} diverged\n  table: {got}\n  model: {want}"
                    ))
                }
            };
            match op {
                Op::Insert(ino, index) => {
                    let got = t.get_or_insert_with(ino, index, || next);
                    let want = match model.get(&(ino, index)) {
                        Some(&h) => (h, true),
                        None => {
                            model.insert((ino, index), next);
                            (next, false)
                        }
                    };
                    if !want.1 {
                        next += 1;
                    }
                    agree("insert", format!("{got:?}"), format!("{want:?}"))?;
                }
                Op::Get(ino, index) => agree(
                    "get",
                    format!("{:?}", t.get(ino, index)),
                    format!("{:?}", model.get(&(ino, index))),
                )?,
                Op::Remove(ino, index) => {
                    let got = t.remove(ino, index);
                    let want = if skip_one_remove && model.contains_key(&(ino, index)) {
                        skip_one_remove = false;
                        model.get(&(ino, index)).copied()
                    } else {
                        model.remove(&(ino, index))
                    };
                    agree("remove", format!("{got:?}"), format!("{want:?}"))?;
                }
                Op::RetainFile(ino, m) => {
                    let mut got = Vec::new();
                    t.retain_file(ino, |index, h| {
                        got.push((index, h));
                        h % m != 0
                    });
                    let want = model_file(&model, ino);
                    model.retain(|&(i, _), h| i != ino || *h % m != 0);
                    agree(
                        "retain_file visits",
                        format!("{got:?}"),
                        format!("{want:?}"),
                    )?;
                }
                Op::Retain(m) => {
                    let mut got = Vec::new();
                    t.retain(|ino, index, h| {
                        got.push((ino, index, h));
                        h % m != 0
                    });
                    let want: Vec<(InodeNr, PageIndex, u32)> = model
                        .iter()
                        .map(|(&(ino, index), &h)| (ino, index, h))
                        .collect();
                    model.retain(|_, h| *h % m != 0);
                    agree("retain visits", format!("{got:?}"), format!("{want:?}"))?;
                }
                Op::File(ino) => {
                    let got: Vec<(PageIndex, u32)> = t.file(ino).collect();
                    let want = model_file(&model, ino);
                    agree("len_of", t.len_of(ino).to_string(), want.len().to_string())?;
                    agree("file", format!("{got:?}"), format!("{want:?}"))?;
                }
            }
            let got: Vec<(InodeNr, PageIndex, u32)> = t.iter().collect();
            let want: Vec<(InodeNr, PageIndex, u32)> = model
                .iter()
                .map(|(&(ino, index), &h)| (ino, index, h))
                .collect();
            agree("len", got.len().to_string(), want.len().to_string())?;
            agree("iter", format!("{got:?}"), format!("{want:?}"))?;
            t.assert_consistent();
        }
        Ok(())
    }

    fn diff_config(name: &'static str) -> DiffConfig {
        let seed = crate::knobs::Knob::CheckSeed
            .read()
            .unwrap_or_else(|e| panic!("{e}"))
            .unwrap_or(0x9A6E_7AB1);
        DiffConfig::new(name, seed)
    }

    #[test]
    fn page_table_matches_the_ordered_model() {
        let cfg = diff_config("pagetable-vs-btreemap").cases(16).ops(1500);
        differential(&cfg, gen_op, |log| replay(log, false)).unwrap();
    }

    /// The can-fail proof: one withheld `remove` must be caught, and the
    /// failing log shrunk to the insert and the remove that expose it.
    #[test]
    fn differential_suite_detects_a_skipped_remove() {
        let cfg = diff_config("pagetable-sabotage").cases(4).ops(400);
        let failure = differential(&cfg, gen_op, |log| replay(log, true)).unwrap_err();
        assert_eq!(failure.ops.len(), 2, "insert + remove: {failure}");
        assert!(failure.message.contains("len diverged"), "{failure}");
    }
}
