//! Inodes and the directory tree.
//!
//! A single namespace of files and directories, addressed by inode
//! number or by slash-separated path. The tree supports the operations
//! Duet's relevance machinery depends on (§4.1): resolving an inode to
//! its path (the dcache-style backwards walk), testing whether an inode
//! lies under a registered directory, and rename/move with the
//! associated bookkeeping.

use crate::extent::ExtentMap;
use sim_core::{InoMap, InodeNr, SimError, SimResult};
use std::collections::BTreeMap;

/// Whether an inode is a regular file or a directory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InodeKind {
    /// Regular file with data extents.
    File,
    /// Directory with named children.
    Dir,
}

/// One file or directory.
#[derive(Debug, Clone, PartialEq)]
pub struct Inode {
    /// Inode number.
    pub ino: InodeNr,
    /// File or directory.
    pub kind: InodeKind,
    /// File size in bytes (0 for directories).
    pub size_bytes: u64,
    /// Data layout (files only; empty for directories).
    pub extents: ExtentMap,
    /// Children by name (directories only), iterated in name order —
    /// rsync's traversal order (Table 3).
    pub children: BTreeMap<String, InodeNr>,
    /// Parent directory (the root is its own parent).
    pub parent: InodeNr,
    /// Name within the parent (empty for the root).
    pub name: String,
}

impl Inode {
    /// File size in whole pages (rounding up).
    pub fn size_pages(&self) -> u64 {
        sim_core::ids::pages_for_bytes(self.size_bytes)
    }

    /// Returns `true` for directories.
    pub fn is_dir(&self) -> bool {
        self.kind == InodeKind::Dir
    }
}

/// The inode table and namespace of one filesystem.
///
/// The table is indexed by inode number ([`InoMap`]): numbers are
/// handed out densely and never reused, so a lookup is one load and
/// every walk is in ascending inode order. Directory children are a
/// name-keyed `BTreeMap`, so they iterate in name order.
#[derive(Debug, Clone, PartialEq)]
pub struct InodeTable {
    inodes: InoMap<Inode>,
    next: u64,
    root: InodeNr,
}

impl InodeTable {
    /// Creates a table containing only the root directory.
    pub fn new() -> Self {
        let root = InodeNr(1);
        let mut inodes = InoMap::new();
        inodes.insert(
            root,
            Inode {
                ino: root,
                kind: InodeKind::Dir,
                size_bytes: 0,
                extents: ExtentMap::new(),
                children: BTreeMap::new(),
                parent: root,
                name: String::new(),
            },
        );
        InodeTable {
            inodes,
            next: 2,
            root,
        }
    }

    /// The root directory's inode.
    pub fn root(&self) -> InodeNr {
        self.root
    }

    /// Number of inodes (including the root).
    pub fn len(&self) -> usize {
        self.inodes.len()
    }

    /// Returns `true` if only the root exists.
    pub fn is_empty(&self) -> bool {
        self.inodes.len() == 1
    }

    /// Looks up an inode.
    pub fn get(&self, ino: InodeNr) -> SimResult<&Inode> {
        self.inodes.get(ino).ok_or(SimError::NoSuchInode(ino))
    }

    /// Looks up an inode mutably.
    pub fn get_mut(&mut self, ino: InodeNr) -> SimResult<&mut Inode> {
        self.inodes.get_mut(ino).ok_or(SimError::NoSuchInode(ino))
    }

    /// Returns `true` if the inode exists.
    pub fn exists(&self, ino: InodeNr) -> bool {
        self.inodes.contains_key(ino)
    }

    fn validate_name(name: &str) -> SimResult<()> {
        if name.is_empty() || name.contains('/') {
            return Err(SimError::InvalidArgument(format!("bad name: {name:?}")));
        }
        Ok(())
    }

    /// Creates a child of `parent`, returning the new inode number.
    pub fn create(&mut self, parent: InodeNr, name: &str, kind: InodeKind) -> SimResult<InodeNr> {
        Self::validate_name(name)?;
        let p = self.get(parent)?;
        if !p.is_dir() {
            return Err(SimError::NotADirectory(name.to_string()));
        }
        if p.children.contains_key(name) {
            return Err(SimError::AlreadyExists(name.to_string()));
        }
        let ino = InodeNr(self.next);
        self.next += 1;
        self.inodes.insert(
            ino,
            Inode {
                ino,
                kind,
                size_bytes: 0,
                extents: ExtentMap::new(),
                children: BTreeMap::new(),
                parent,
                name: name.to_string(),
            },
        );
        self.get_mut(parent)?.children.insert(name.to_string(), ino);
        Ok(ino)
    }

    /// Removes an inode from the namespace. Directories must be empty.
    /// The inode's extents are returned by value so the filesystem can
    /// release its blocks.
    pub fn remove(&mut self, ino: InodeNr) -> SimResult<Inode> {
        if ino == self.root {
            return Err(SimError::InvalidArgument("cannot remove root".into()));
        }
        let node = self.get(ino)?;
        if node.is_dir() && !node.children.is_empty() {
            return Err(SimError::InvalidArgument(format!(
                "directory {ino} not empty"
            )));
        }
        let parent = node.parent;
        let name = node.name.clone();
        self.get_mut(parent)?.children.remove(&name);
        self.inodes.remove(ino).ok_or(SimError::NoSuchInode(ino))
    }

    /// Moves `ino` under `new_parent` as `new_name`.
    pub fn rename(&mut self, ino: InodeNr, new_parent: InodeNr, new_name: &str) -> SimResult<()> {
        Self::validate_name(new_name)?;
        if ino == self.root {
            return Err(SimError::InvalidArgument("cannot rename root".into()));
        }
        let np = self.get(new_parent)?;
        if !np.is_dir() {
            return Err(SimError::NotADirectory(new_name.to_string()));
        }
        if np.children.contains_key(new_name) {
            return Err(SimError::AlreadyExists(new_name.to_string()));
        }
        // A directory must not be moved under its own subtree.
        if self.get(ino)?.is_dir() && self.is_under(new_parent, ino)? {
            return Err(SimError::InvalidArgument(
                "cannot move directory under itself".into(),
            ));
        }
        let (old_parent, old_name) = {
            let n = self.get(ino)?;
            (n.parent, n.name.clone())
        };
        self.get_mut(old_parent)?.children.remove(&old_name);
        self.get_mut(new_parent)?
            .children
            .insert(new_name.to_string(), ino);
        let n = self.get_mut(ino)?;
        n.parent = new_parent;
        n.name = new_name.to_string();
        Ok(())
    }

    /// Resolves a slash-separated absolute path to an inode.
    pub fn resolve(&self, path: &str) -> SimResult<InodeNr> {
        let mut cur = self.root;
        for comp in path.split('/').filter(|c| !c.is_empty()) {
            let node = self.get(cur)?;
            if !node.is_dir() {
                return Err(SimError::NotADirectory(path.to_string()));
            }
            cur = *node
                .children
                .get(comp)
                .ok_or_else(|| SimError::NoSuchPath(path.to_string()))?;
        }
        Ok(cur)
    }

    /// Returns the absolute path of an inode by walking parents
    /// backwards (the directory-entry-cache walk of §4.1).
    pub fn path_of(&self, ino: InodeNr) -> SimResult<String> {
        let mut parts: Vec<&str> = Vec::new();
        let mut cur = ino;
        while cur != self.root {
            let node = self.get(cur)?;
            parts.push(&node.name);
            cur = node.parent;
        }
        let mut out = String::new();
        for p in parts.iter().rev() {
            out.push('/');
            out.push_str(p);
        }
        if out.is_empty() {
            out.push('/');
        }
        Ok(out)
    }

    /// Returns `true` if `ino` equals `ancestor` or lies in its subtree.
    pub fn is_under(&self, ino: InodeNr, ancestor: InodeNr) -> SimResult<bool> {
        let mut cur = ino;
        loop {
            if cur == ancestor {
                return Ok(true);
            }
            if cur == self.root {
                return Ok(false);
            }
            cur = self.get(cur)?.parent;
        }
    }

    /// All file inodes in ascending inode order — the processing order
    /// of the Btrfs backup tool ("processes files by inode number",
    /// Table 3).
    pub fn files_by_inode(&self) -> Vec<InodeNr> {
        self.files().map(|n| n.ino).collect()
    }

    /// Every file inode, in ascending inode order.
    pub fn files(&self) -> impl Iterator<Item = &Inode> + '_ {
        self.inodes.values().filter(|n| n.kind == InodeKind::File)
    }

    /// Depth-first pre-order walk of the subtree at `dir`, visiting
    /// children in name order — rsync's traversal order (Table 3).
    /// Returns (inode, is_dir) pairs, excluding `dir` itself.
    pub fn walk_depth_first(&self, dir: InodeNr) -> SimResult<Vec<(InodeNr, bool)>> {
        let node = self.get(dir)?;
        if !node.is_dir() {
            return Err(SimError::NotADirectory(format!("{dir}")));
        }
        let mut out = Vec::new();
        let push_children = |stack: &mut Vec<InodeNr>, n: &Inode| {
            stack.extend(n.children.values().rev());
        };
        let mut stack: Vec<InodeNr> = Vec::new();
        push_children(&mut stack, node);
        while let Some(ino) = stack.pop() {
            let n = self.get(ino)?;
            out.push((ino, n.is_dir()));
            if n.is_dir() {
                push_children(&mut stack, n);
            }
        }
        Ok(out)
    }

    /// Iterates over all inodes in ascending inode order.
    pub fn iter(&self) -> impl Iterator<Item = &Inode> + '_ {
        self.inodes.values()
    }
}

impl Default for InodeTable {
    fn default() -> Self {
        InodeTable::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (InodeTable, InodeNr, InodeNr, InodeNr) {
        let mut t = InodeTable::new();
        let dir = t.create(t.root(), "docs", InodeKind::Dir).unwrap();
        let f1 = t.create(dir, "a.txt", InodeKind::File).unwrap();
        let f2 = t.create(t.root(), "b.txt", InodeKind::File).unwrap();
        (t, dir, f1, f2)
    }

    #[test]
    fn create_and_resolve() {
        let (t, dir, f1, _f2) = setup();
        assert_eq!(t.resolve("/docs").unwrap(), dir);
        assert_eq!(t.resolve("/docs/a.txt").unwrap(), f1);
        assert_eq!(t.resolve("/").unwrap(), t.root());
        assert!(matches!(t.resolve("/nope"), Err(SimError::NoSuchPath(_))));
    }

    #[test]
    fn path_of_walks_backwards() {
        let (t, dir, f1, _) = setup();
        assert_eq!(t.path_of(f1).unwrap(), "/docs/a.txt");
        assert_eq!(t.path_of(dir).unwrap(), "/docs");
        assert_eq!(t.path_of(t.root()).unwrap(), "/");
    }

    #[test]
    fn duplicate_names_rejected() {
        let (mut t, dir, _, _) = setup();
        assert!(matches!(
            t.create(dir, "a.txt", InodeKind::File),
            Err(SimError::AlreadyExists(_))
        ));
    }

    #[test]
    fn bad_names_rejected() {
        let (mut t, dir, _, _) = setup();
        assert!(t.create(dir, "", InodeKind::File).is_err());
        assert!(t.create(dir, "x/y", InodeKind::File).is_err());
    }

    #[test]
    fn is_under() {
        let (t, dir, f1, f2) = setup();
        assert!(t.is_under(f1, dir).unwrap());
        assert!(t.is_under(f1, t.root()).unwrap());
        assert!(!t.is_under(f2, dir).unwrap());
        assert!(t.is_under(dir, dir).unwrap());
    }

    #[test]
    fn rename_moves_subtree() {
        let (mut t, dir, f1, _) = setup();
        let other = t.create(t.root(), "other", InodeKind::Dir).unwrap();
        t.rename(dir, other, "moved").unwrap();
        assert_eq!(t.path_of(f1).unwrap(), "/other/moved/a.txt");
        assert!(t.is_under(f1, other).unwrap());
        assert!(matches!(t.resolve("/docs"), Err(SimError::NoSuchPath(_))));
    }

    #[test]
    fn rename_into_own_subtree_rejected() {
        let (mut t, dir, _, _) = setup();
        let sub = t.create(dir, "sub", InodeKind::Dir).unwrap();
        assert!(t.rename(dir, sub, "oops").is_err());
    }

    #[test]
    fn remove_file_and_nonempty_dir() {
        let (mut t, dir, f1, _) = setup();
        assert!(t.remove(dir).is_err(), "non-empty dir");
        t.remove(f1).unwrap();
        t.remove(dir).unwrap();
        assert!(!t.exists(f1));
        assert!(matches!(t.get(dir), Err(SimError::NoSuchInode(_))));
    }

    #[test]
    fn files_by_inode_sorted() {
        let (mut t, dir, f1, f2) = setup();
        assert_eq!(t.files_by_inode(), vec![f1, f2]);
        // A hole below and above: the walks stay ascending.
        t.remove(f1).unwrap();
        let f3 = t.create(dir, "c.txt", InodeKind::File).unwrap();
        assert_eq!(t.files_by_inode(), vec![f2, f3]);
        let all: Vec<InodeNr> = t.iter().map(|n| n.ino).collect();
        assert_eq!(all, vec![t.root(), dir, f2, f3]);
    }

    #[test]
    fn depth_first_walk_order() {
        let mut t = InodeTable::new();
        let a = t.create(t.root(), "a", InodeKind::Dir).unwrap();
        let a1 = t.create(a, "1.txt", InodeKind::File).unwrap();
        let a2 = t.create(a, "2.txt", InodeKind::File).unwrap();
        let b = t.create(t.root(), "b.txt", InodeKind::File).unwrap();
        let walk = t.walk_depth_first(t.root()).unwrap();
        let inos: Vec<InodeNr> = walk.iter().map(|(i, _)| *i).collect();
        assert_eq!(
            inos,
            vec![a, a1, a2, b],
            "pre-order, children before siblings"
        );
    }

    #[test]
    fn walk_on_file_is_error() {
        let (t, _, f1, _) = setup();
        assert!(t.walk_depth_first(f1).is_err());
    }

    /// rsync walks a directory in name order (Table 3): creation
    /// order, rename and unlink history must be unobservable — only the
    /// current names matter.
    #[test]
    fn walk_is_name_ordered_whatever_the_history() {
        let mut t = InodeTable::new();
        let dir = t.create(t.root(), "d", InodeKind::Dir).unwrap();
        // Created deliberately out of name order.
        let z = t.create(dir, "zeta", InodeKind::File).unwrap();
        let a = t.create(dir, "alpha", InodeKind::File).unwrap();
        let m = t.create(dir, "mid", InodeKind::File).unwrap();
        let walk = |t: &InodeTable| -> Vec<InodeNr> {
            let w = t.walk_depth_first(dir).unwrap();
            w.into_iter().map(|(i, _)| i).collect()
        };
        assert_eq!(walk(&t), vec![a, m, z]);
        // A rename re-slots the entry under its new name.
        t.rename(z, dir, "beta").unwrap();
        assert_eq!(walk(&t), vec![a, z, m]);
        // An unlink leaves no trace, and a later create lands at its
        // name slot, not at the end.
        t.remove(a).unwrap();
        assert_eq!(walk(&t), vec![z, m]);
        let k = t.create(dir, "kappa", InodeKind::File).unwrap();
        assert_eq!(walk(&t), vec![z, k, m]);
    }

    /// Rename across directories: the entry leaves the old parent's
    /// sorted view and appears in the new parent's at its name slot.
    #[test]
    fn rename_across_dirs_updates_both_sorted_views() {
        let (mut t, dir, f1, _) = setup();
        let other = t.create(t.root(), "other", InodeKind::Dir).unwrap();
        t.rename(f1, other, "zz.txt").unwrap();
        assert!(t.get(dir).unwrap().children.is_empty());
        let got = &t.get(other).unwrap().children;
        assert_eq!(*got, BTreeMap::from([("zz.txt".to_string(), f1)]));
    }
}
