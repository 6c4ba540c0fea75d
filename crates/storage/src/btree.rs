//! A disk-resident B+tree with variable-length byte keys and values.
//!
//! This is the ordered access path of the repository: the paper builds "a B+
//! search tree on top of the sequence of node records" (§2.2) and describes
//! containers as "closely resembl[ing] B+trees on values". Nodes are
//! (de)serialized whole from pages through the buffer pool. Leaves are
//! chained for range scans.
//!
//! A repository's tree is written once, by [`BTree::bulk_load`]: ascending
//! entries stream into leaves packed up to a full page, and the internal
//! levels are built bottom-up over the leaves' first keys, so every page is
//! written exactly once. [`BTree::insert`] and [`BTree::delete`] serve point
//! updates; each rewrites the whole target node, and a split leaves both
//! halves half full. Deletion removes from the leaf without rebalancing
//! (underfull leaves are tolerated), which is sufficient for a load-once
//! repository.

use crate::buffer::BufferPool;
use crate::error::{Result, StorageError};
use crate::page::{PageId, PAGE_SIZE};
use std::sync::Arc;

/// Maximum key length in bytes.
pub const MAX_KEY: usize = 1024;
/// Maximum value length in bytes.
pub const MAX_VALUE: usize = 2048;

const LEAF_TAG: u8 = 1;
const INTERNAL_TAG: u8 = 2;
/// Leaf page header: tag, entry count (u16), next-leaf page (u64).
const LEAF_HEADER: usize = 11;
/// Internal page header: tag, key count (u16).
const INTERNAL_HEADER: usize = 3;

/// Hard bound on root-to-leaf path length. A healthy tree over this page
/// size is a handful of levels deep; hitting this bound means the child
/// pointers of a corrupt file form a cycle.
const MAX_DEPTH: usize = 64;

/// Separator key and right sibling produced when an insert splits a node.
type Split = (Vec<u8>, PageId);

#[derive(Debug, Clone)]
enum Node {
    Leaf { entries: Vec<(Vec<u8>, Vec<u8>)>, next: Option<PageId> },
    Internal { keys: Vec<Vec<u8>>, children: Vec<PageId> },
}

impl Node {
    fn serialized_size(&self) -> usize {
        match self {
            Node::Leaf { entries, .. } => {
                LEAF_HEADER + entries.iter().map(|(k, v)| 4 + k.len() + v.len()).sum::<usize>()
            }
            Node::Internal { keys, children } => {
                INTERNAL_HEADER
                    + 8 * children.len()
                    + keys.iter().map(|k| 2 + k.len()).sum::<usize>()
            }
        }
    }
}

/// A B+tree rooted at a page.
pub struct BTree {
    pool: Arc<BufferPool>,
    root: PageId,
}

impl BTree {
    /// Create an empty tree, allocating its root leaf.
    pub fn create(pool: Arc<BufferPool>) -> Result<Self> {
        let root = pool.allocate()?;
        let tree = BTree { pool, root };
        tree.write_node(root, &Node::Leaf { entries: Vec::new(), next: None })?;
        Ok(tree)
    }

    /// Open an existing tree by its root page.
    pub fn open(pool: Arc<BufferPool>, root: PageId) -> Self {
        BTree { pool, root }
    }

    /// The current root page id (persist this in a catalog).
    pub fn root(&self) -> PageId {
        self.root
    }

    /// Build a tree from `entries` in one pass. Keys must strictly ascend;
    /// the first one that does not returns
    /// [`StorageError::KeysNotAscending`].
    ///
    /// Leaves are filled in key order up to a full page and chained with
    /// `next`. Each internal level is then packed the same way over the
    /// first keys of the level below, until one node, the root, remains.
    /// Every page is written once, in the formats [`BTree::open`] reads. No
    /// input yields one empty root leaf, as [`BTree::create`] does.
    pub fn bulk_load<K: AsRef<[u8]>, V: AsRef<[u8]>>(
        pool: Arc<BufferPool>,
        entries: impl IntoIterator<Item = (K, V)>,
    ) -> Result<Self> {
        let mut tree = BTree { root: pool.allocate()?, pool };
        // First key and page of every node on the level being built.
        let mut level: Vec<(Vec<u8>, PageId)> = Vec::new();
        let mut page = tree.root;
        let mut leaf: Vec<(Vec<u8>, Vec<u8>)> = Vec::new();
        let mut size = LEAF_HEADER;
        for (index, (key, value)) in entries.into_iter().enumerate() {
            let (key, value) = (key.as_ref(), value.as_ref());
            check_entry(key, value)?;
            if leaf.last().is_some_and(|(last, _)| key <= last.as_slice()) {
                return Err(StorageError::KeysNotAscending { index });
            }
            let need = 4 + key.len() + value.len();
            if !leaf.is_empty() && size + need > PAGE_SIZE {
                let next = tree.pool.allocate()?;
                level.push((leaf[0].0.clone(), page));
                let entries = std::mem::take(&mut leaf);
                tree.write_node(page, &Node::Leaf { entries, next: Some(next) })?;
                page = next;
                size = LEAF_HEADER;
            }
            leaf.push((key.to_vec(), value.to_vec()));
            size += need;
        }
        level.push((leaf.first().map(|(k, _)| k.clone()).unwrap_or_default(), page));
        tree.write_node(page, &Node::Leaf { entries: leaf, next: None })?;

        while level.len() > 1 {
            let mut upper = Vec::new();
            let mut nodes = std::mem::take(&mut level).into_iter();
            let Some((mut low, first)) = nodes.next() else { break };
            let mut keys: Vec<Vec<u8>> = Vec::new();
            let mut children = vec![first];
            let mut size = INTERNAL_HEADER + 8;
            for (key, child) in nodes {
                let need = 8 + 2 + key.len();
                if size + need > PAGE_SIZE {
                    let page = tree.pool.allocate()?;
                    let node = Node::Internal {
                        keys: std::mem::take(&mut keys),
                        children: std::mem::replace(&mut children, vec![child]),
                    };
                    tree.write_node(page, &node)?;
                    upper.push((std::mem::replace(&mut low, key), page));
                    size = INTERNAL_HEADER + 8;
                } else {
                    keys.push(key);
                    children.push(child);
                    size += need;
                }
            }
            let page = tree.pool.allocate()?;
            tree.write_node(page, &Node::Internal { keys, children })?;
            upper.push((low, page));
            level = upper;
        }
        if let Some(&(_, root)) = level.first() {
            tree.root = root;
        }
        Ok(tree)
    }

    /// Insert or replace; returns the previous value if the key existed.
    pub fn insert(&mut self, key: &[u8], value: &[u8]) -> Result<Option<Vec<u8>>> {
        check_entry(key, value)?;
        let (old, split) = self.insert_rec(self.root, key, value, 0)?;
        if let Some((sep, right)) = split {
            // Grow a new root.
            let new_root = self.pool.allocate()?;
            let node = Node::Internal { keys: vec![sep], children: vec![self.root, right] };
            self.write_node(new_root, &node)?;
            self.root = new_root;
        }
        Ok(old)
    }

    /// Point lookup.
    pub fn get(&self, key: &[u8]) -> Result<Option<Vec<u8>>> {
        let mut page = self.root;
        for _ in 0..MAX_DEPTH {
            match self.read_node(page)? {
                Node::Internal { keys, children } => {
                    let idx = keys.partition_point(|k| k.as_slice() <= key);
                    page = children[idx];
                }
                Node::Leaf { entries, .. } => {
                    return Ok(entries
                        .iter()
                        .find(|(k, _)| k.as_slice() == key)
                        .map(|(_, v)| v.clone()));
                }
            }
        }
        Err(self.cycle_error())
    }

    fn cycle_error(&self) -> StorageError {
        StorageError::corrupt_at(
            self.root.0,
            format!("no leaf within {MAX_DEPTH} levels of the root (child-pointer cycle)"),
        )
    }

    /// Remove a key; returns the removed value. Leaves may become underfull.
    pub fn delete(&mut self, key: &[u8]) -> Result<Option<Vec<u8>>> {
        let mut page = self.root;
        for _ in 0..MAX_DEPTH {
            match self.read_node(page)? {
                Node::Internal { keys, children } => {
                    let idx = keys.partition_point(|k| k.as_slice() <= key);
                    page = children[idx];
                }
                Node::Leaf { mut entries, next } => {
                    let pos = entries.iter().position(|(k, _)| k.as_slice() == key);
                    return match pos {
                        Some(i) => {
                            let (_, v) = entries.remove(i);
                            self.write_node(page, &Node::Leaf { entries, next })?;
                            Ok(Some(v))
                        }
                        None => Ok(None),
                    };
                }
            }
        }
        Err(self.cycle_error())
    }

    /// Iterate entries with `key >= start` in ascending key order.
    pub fn range_from(&self, start: &[u8]) -> Result<BTreeIter<'_>> {
        let mut page = self.root;
        for _ in 0..MAX_DEPTH {
            match self.read_node(page)? {
                Node::Internal { keys, children } => {
                    let idx = keys.partition_point(|k| k.as_slice() <= start);
                    page = children[idx];
                }
                Node::Leaf { entries, next } => {
                    let pos = entries.partition_point(|(k, _)| k.as_slice() < start);
                    return Ok(BTreeIter {
                        tree: self,
                        entries,
                        pos,
                        next,
                        budget: self.pool.page_count(),
                        error: None,
                    });
                }
            }
        }
        Err(self.cycle_error())
    }

    /// Iterate all entries in key order.
    pub fn iter(&self) -> Result<BTreeIter<'_>> {
        self.range_from(&[])
    }

    /// Number of entries (walks the leaf chain).
    pub fn len(&self) -> Result<usize> {
        let mut n = 0usize;
        for e in self.iter()? {
            e?;
            n += 1;
        }
        Ok(n)
    }

    /// True when the tree holds no entries.
    pub fn is_empty(&self) -> Result<bool> {
        Ok(self.iter()?.next().is_none())
    }

    fn insert_rec(
        &self,
        page: PageId,
        key: &[u8],
        value: &[u8],
        depth: usize,
    ) -> Result<(Option<Vec<u8>>, Option<Split>)> {
        if depth >= MAX_DEPTH {
            return Err(self.cycle_error());
        }
        match self.read_node(page)? {
            Node::Leaf { mut entries, next } => {
                let pos = entries.partition_point(|(k, _)| k.as_slice() < key);
                let old = if entries.get(pos).is_some_and(|(k, _)| k.as_slice() == key) {
                    Some(std::mem::replace(&mut entries[pos].1, value.to_vec()))
                } else {
                    entries.insert(pos, (key.to_vec(), value.to_vec()));
                    None
                };
                let node = Node::Leaf { entries, next };
                if node.serialized_size() <= PAGE_SIZE {
                    self.write_node(page, &node)?;
                    return Ok((old, None));
                }
                // Split the leaf.
                let Node::Leaf { mut entries, next } = node else { unreachable!() };
                let mid = entries.len() / 2;
                let right_entries = entries.split_off(mid);
                let sep = right_entries[0].0.clone();
                let right = self.pool.allocate()?;
                self.write_node(right, &Node::Leaf { entries: right_entries, next })?;
                self.write_node(page, &Node::Leaf { entries, next: Some(right) })?;
                Ok((old, Some((sep, right))))
            }
            Node::Internal { mut keys, mut children } => {
                let idx = keys.partition_point(|k| k.as_slice() <= key);
                let (old, split) = self.insert_rec(children[idx], key, value, depth + 1)?;
                if let Some((sep, new_child)) = split {
                    keys.insert(idx, sep);
                    children.insert(idx + 1, new_child);
                }
                let node = Node::Internal { keys, children };
                if node.serialized_size() <= PAGE_SIZE {
                    self.write_node(page, &node)?;
                    return Ok((old, None));
                }
                let Node::Internal { mut keys, mut children } = node else { unreachable!() };
                let mid = keys.len() / 2;
                let sep = keys[mid].clone();
                let right_keys = keys.split_off(mid + 1);
                keys.pop(); // the separator moves up
                let right_children = children.split_off(mid + 1);
                let right = self.pool.allocate()?;
                self.write_node(right, &Node::Internal { keys: right_keys, children: right_children })?;
                self.write_node(page, &Node::Internal { keys, children })?;
                Ok((old, Some((sep, right))))
            }
        }
    }

    fn read_node(&self, id: PageId) -> Result<Node> {
        let corrupt = |detail: String| StorageError::corrupt_at(id.0, detail);
        self.pool.with_page(id, |p| -> Result<Node> {
            match p.bytes()[0] {
                LEAF_TAG => {
                    let n = p.get_u16(1) as usize;
                    // Each entry needs at least its 4-byte header.
                    if LEAF_HEADER + n * 4 > PAGE_SIZE {
                        return Err(corrupt(format!("leaf claims {n} entries")));
                    }
                    let next_raw = p.get_u64(3);
                    let next = if next_raw == u64::MAX { None } else { Some(PageId(next_raw)) };
                    let mut off = LEAF_HEADER;
                    let mut entries = Vec::with_capacity(n);
                    for i in 0..n {
                        let klen = p
                            .try_get_u16(off)
                            .ok_or_else(|| corrupt(format!("leaf entry {i} header truncated")))?
                            as usize;
                        let vlen = p
                            .try_get_u16(off + 2)
                            .ok_or_else(|| corrupt(format!("leaf entry {i} header truncated")))?
                            as usize;
                        off += 4;
                        let k = p
                            .try_slice(off, klen)
                            .ok_or_else(|| corrupt(format!("leaf entry {i} key leaves the page")))?
                            .to_vec();
                        off += klen;
                        let v = p
                            .try_slice(off, vlen)
                            .ok_or_else(|| {
                                corrupt(format!("leaf entry {i} value leaves the page"))
                            })?
                            .to_vec();
                        off += vlen;
                        entries.push((k, v));
                    }
                    Ok(Node::Leaf { entries, next })
                }
                INTERNAL_TAG => {
                    let n = p.get_u16(1) as usize;
                    // n keys (2-byte headers) plus n+1 children must fit.
                    if INTERNAL_HEADER + (n + 1) * 8 + n * 2 > PAGE_SIZE {
                        return Err(corrupt(format!("internal node claims {n} keys")));
                    }
                    let mut off = INTERNAL_HEADER;
                    let mut children = Vec::with_capacity(n + 1);
                    for _ in 0..=n {
                        children.push(PageId(p.get_u64(off)));
                        off += 8;
                    }
                    let mut keys = Vec::with_capacity(n);
                    for i in 0..n {
                        let klen = p
                            .try_get_u16(off)
                            .ok_or_else(|| corrupt(format!("separator {i} header truncated")))?
                            as usize;
                        off += 2;
                        keys.push(
                            p.try_slice(off, klen)
                                .ok_or_else(|| {
                                    corrupt(format!("separator {i} leaves the page"))
                                })?
                                .to_vec(),
                        );
                        off += klen;
                    }
                    Ok(Node::Internal { keys, children })
                }
                // A freshly allocated zero page reads as an empty leaf.
                0 => Ok(Node::Leaf { entries: Vec::new(), next: None }),
                tag => Err(corrupt(format!("unknown node tag {tag}"))),
            }
        })?
    }

    fn write_node(&self, id: PageId, node: &Node) -> Result<()> {
        debug_assert!(node.serialized_size() <= PAGE_SIZE, "node overflows page");
        self.pool.with_page_mut(id, |p| {
            match node {
                Node::Leaf { entries, next } => {
                    p.bytes_mut()[0] = LEAF_TAG;
                    p.put_u16(1, entries.len() as u16);
                    p.put_u64(3, next.map_or(u64::MAX, |n| n.0));
                    let mut off = LEAF_HEADER;
                    for (k, v) in entries {
                        p.put_u16(off, k.len() as u16);
                        p.put_u16(off + 2, v.len() as u16);
                        off += 4;
                        p.write_at(off, k);
                        off += k.len();
                        p.write_at(off, v);
                        off += v.len();
                    }
                }
                Node::Internal { keys, children } => {
                    p.bytes_mut()[0] = INTERNAL_TAG;
                    p.put_u16(1, keys.len() as u16);
                    let mut off = INTERNAL_HEADER;
                    for c in children {
                        p.put_u64(off, c.0);
                        off += 8;
                    }
                    for k in keys {
                        p.put_u16(off, k.len() as u16);
                        off += 2;
                        p.write_at(off, k);
                        off += k.len();
                    }
                }
            }
        })
    }
}

/// Reject a key or value larger than a node may hold.
fn check_entry(key: &[u8], value: &[u8]) -> Result<()> {
    if key.len() > MAX_KEY {
        return Err(StorageError::RecordTooLarge { size: key.len(), max: MAX_KEY });
    }
    if value.len() > MAX_VALUE {
        return Err(StorageError::RecordTooLarge { size: value.len(), max: MAX_VALUE });
    }
    Ok(())
}

/// Ascending iterator over `(key, value)` pairs.
pub struct BTreeIter<'a> {
    tree: &'a BTree,
    entries: Vec<(Vec<u8>, Vec<u8>)>,
    pos: usize,
    next: Option<PageId>,
    budget: u64,
    error: Option<StorageError>,
}

impl Iterator for BTreeIter<'_> {
    type Item = Result<(Vec<u8>, Vec<u8>)>;

    fn next(&mut self) -> Option<Self::Item> {
        if let Some(e) = self.error.take() {
            return Some(Err(e));
        }
        loop {
            if self.pos < self.entries.len() {
                let item = self.entries[self.pos].clone();
                self.pos += 1;
                return Some(Ok(item));
            }
            let next = self.next?;
            if self.budget == 0 {
                self.next = None;
                return Some(Err(StorageError::corrupt_at(next.0, "leaf chain has a cycle")));
            }
            self.budget -= 1;
            match self.tree.read_node(next) {
                Ok(Node::Leaf { entries, next }) => {
                    self.entries = entries;
                    self.pos = 0;
                    self.next = next;
                }
                Ok(_) => {
                    self.next = None;
                    return Some(Err(StorageError::corrupt_at(
                        next.0,
                        "leaf chain points at an internal node",
                    )));
                }
                Err(e) => {
                    self.next = None;
                    return Some(Err(e));
                }
            }
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::pager::MemPager;

    fn tree() -> BTree {
        let pool = Arc::new(BufferPool::new(Arc::new(MemPager::new()), 64));
        BTree::create(pool).unwrap()
    }

    #[test]
    fn insert_get_small() {
        let mut t = tree();
        assert_eq!(t.insert(b"b", b"2").unwrap(), None);
        assert_eq!(t.insert(b"a", b"1").unwrap(), None);
        assert_eq!(t.insert(b"c", b"3").unwrap(), None);
        assert_eq!(t.get(b"a").unwrap().as_deref(), Some(&b"1"[..]));
        assert_eq!(t.get(b"b").unwrap().as_deref(), Some(&b"2"[..]));
        assert_eq!(t.get(b"z").unwrap(), None);
        assert_eq!(t.insert(b"b", b"22").unwrap().as_deref(), Some(&b"2"[..]));
        assert_eq!(t.get(b"b").unwrap().as_deref(), Some(&b"22"[..]));
    }

    #[test]
    fn many_inserts_with_splits() {
        let mut t = tree();
        let n = 5_000u32;
        // Insert in a scrambled order.
        for i in 0..n {
            let k = ((i as u64 * 2_654_435_761) % n as u64) as u32;
            t.insert(format!("key{k:08}").as_bytes(), format!("val{k}").as_bytes()).unwrap();
        }
        assert_eq!(t.len().unwrap(), n as usize);
        for k in [0u32, 1, n / 2, n - 1] {
            assert_eq!(
                t.get(format!("key{k:08}").as_bytes()).unwrap(),
                Some(format!("val{k}").into_bytes())
            );
        }
        // Full scan is sorted.
        let keys: Vec<Vec<u8>> = t.iter().unwrap().map(|e| e.unwrap().0).collect();
        assert_eq!(keys.len(), n as usize);
        assert!(keys.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn range_scan_from() {
        let mut t = tree();
        for i in 0..100u32 {
            t.insert(format!("{i:04}").as_bytes(), b"v").unwrap();
        }
        let got: Vec<Vec<u8>> =
            t.range_from(b"0090").unwrap().map(|e| e.unwrap().0).collect();
        assert_eq!(got.len(), 10);
        assert_eq!(got[0], b"0090");
        // Start key between entries.
        let got: Vec<Vec<u8>> =
            t.range_from(b"0089x").unwrap().map(|e| e.unwrap().0).collect();
        assert_eq!(got[0], b"0090");
    }

    #[test]
    fn delete_removes() {
        let mut t = tree();
        for i in 0..500u32 {
            t.insert(format!("{i:04}").as_bytes(), format!("{i}").as_bytes()).unwrap();
        }
        assert_eq!(t.delete(b"0250").unwrap(), Some(b"250".to_vec()));
        assert_eq!(t.delete(b"0250").unwrap(), None);
        assert_eq!(t.get(b"0250").unwrap(), None);
        assert_eq!(t.len().unwrap(), 499);
    }

    #[test]
    fn large_values_split_correctly() {
        let mut t = tree();
        let v = vec![7u8; 2000];
        for i in 0..50u32 {
            t.insert(format!("{i:03}").as_bytes(), &v).unwrap();
        }
        assert_eq!(t.len().unwrap(), 50);
        assert_eq!(t.get(b"025").unwrap().unwrap().len(), 2000);
    }

    #[test]
    fn oversized_rejected() {
        let mut t = tree();
        assert!(t.insert(&vec![0u8; MAX_KEY + 1], b"v").is_err());
        assert!(t.insert(b"k", &vec![0u8; MAX_VALUE + 1]).is_err());
    }

    #[test]
    fn duplicate_heavy_workload() {
        let mut t = tree();
        for round in 0..10u32 {
            for i in 0..200u32 {
                t.insert(format!("{i:04}").as_bytes(), format!("r{round}").as_bytes()).unwrap();
            }
        }
        assert_eq!(t.len().unwrap(), 200);
        assert_eq!(t.get(b"0100").unwrap(), Some(b"r9".to_vec()));
    }

    fn pool() -> Arc<BufferPool> {
        Arc::new(BufferPool::new(Arc::new(MemPager::new()), 64))
    }

    /// Levels from the root down to the leftmost leaf.
    fn depth(t: &BTree) -> usize {
        let mut page = t.root();
        let mut levels = 1;
        while let Node::Internal { children, .. } = t.read_node(page).unwrap() {
            page = children[0];
            levels += 1;
        }
        levels
    }

    fn entries(t: &BTree) -> Vec<(Vec<u8>, Vec<u8>)> {
        t.iter().unwrap().map(|e| e.unwrap()).collect()
    }

    #[test]
    fn bulk_load_empty() {
        let t = BTree::bulk_load(pool(), std::iter::empty::<(&[u8], &[u8])>()).unwrap();
        assert!(t.is_empty().unwrap());
        assert_eq!(t.get(b"a").unwrap(), None);
        assert_eq!(depth(&t), 1);
        assert_eq!(t.pool.page_count(), 1);
    }

    #[test]
    fn bulk_load_one_entry() {
        let t = BTree::bulk_load(pool(), [(b"k", b"v")]).unwrap();
        assert_eq!(entries(&t), vec![(b"k".to_vec(), b"v".to_vec())]);
        assert_eq!(t.get(b"k").unwrap(), Some(b"v".to_vec()));
        assert_eq!(depth(&t), 1);
    }

    #[test]
    fn bulk_load_fills_a_page_exactly() {
        // Four entries of 4 + 2 + 2039 (the last 2040) bytes make
        // 11 + 8181 = 8192.
        let full: Vec<(Vec<u8>, Vec<u8>)> =
            (0..4u8).map(|i| (vec![b'k', i], vec![i; 2039 + usize::from(i == 3)])).collect();
        let node = Node::Leaf { entries: full.clone(), next: None };
        assert_eq!(node.serialized_size(), PAGE_SIZE);
        let t = BTree::bulk_load(pool(), full.clone()).unwrap();
        assert_eq!((depth(&t), t.pool.page_count()), (1, 1));
        assert_eq!(entries(&t), full);

        // One more byte anywhere starts a second leaf under a root.
        let mut over = full.clone();
        over.push((vec![b'k', 9], Vec::new()));
        let t = BTree::bulk_load(pool(), over.clone()).unwrap();
        assert_eq!((depth(&t), t.pool.page_count()), (2, 3));
        assert_eq!(entries(&t), over);
        assert_eq!(t.get(&[b'k', 9]).unwrap(), Some(Vec::new()));
        assert_eq!(t.get(&[b'k', 3]).unwrap().map(|v| v.len()), Some(2040));
    }

    #[test]
    fn bulk_load_builds_three_levels_with_large_keys() {
        // 1 KiB keys: 7 entries per leaf and 7 children per internal node,
        // so 1,000 entries need three levels.
        let key = |i: u32| {
            let mut k = vec![b'x'; MAX_KEY];
            k[MAX_KEY - 4..].copy_from_slice(&i.to_be_bytes());
            k
        };
        let n = 1_000u32;
        let t = BTree::bulk_load(pool(), (0..n).map(|i| (key(i), i.to_le_bytes()))).unwrap();
        assert!(depth(&t) >= 3, "depth {}", depth(&t));
        assert_eq!(t.len().unwrap(), n as usize);
        for i in [0, 1, 6, 7, 48, 49, 500, n - 1] {
            assert_eq!(t.get(&key(i)).unwrap(), Some(i.to_le_bytes().to_vec()), "key {i}");
        }
        assert_eq!(t.get(&key(n)).unwrap(), None);
        let from: Vec<Vec<u8>> = t.range_from(&key(990)).unwrap().map(|e| e.unwrap().0).collect();
        assert_eq!(from, (990..n).map(key).collect::<Vec<_>>());
    }

    #[test]
    fn bulk_load_packs_leaves_fuller_than_inserts() {
        let rows = |i: u32| (i.to_be_bytes(), format!("value{i}").into_bytes());
        let bulk = BTree::bulk_load(pool(), (0..10_000).map(rows)).unwrap();
        let mut grown = tree();
        for (k, v) in (0..10_000).map(rows) {
            grown.insert(&k, &v).unwrap();
        }
        assert_eq!(entries(&bulk), entries(&grown));
        assert!(bulk.pool.page_count() * 3 < grown.pool.page_count() * 2);
    }

    #[test]
    fn bulk_load_rejects_keys_that_do_not_ascend() {
        let err = |rows: &[&[u8]]| {
            match BTree::bulk_load(pool(), rows.iter().map(|k| (*k, b"v"))) {
                Err(StorageError::KeysNotAscending { index }) => index,
                other => panic!("expected KeysNotAscending, got {:?}", other.map(|t| t.root())),
            }
        };
        assert_eq!(err(&[b"a", b"c", b"b"]), 2);
        assert_eq!(err(&[b"a", b"a"]), 1);
        assert!(BTree::bulk_load(pool(), [(&[0u8; MAX_KEY + 1][..], &b"v"[..])]).is_err());
    }
}
