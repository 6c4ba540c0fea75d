//! Durable storage of a compressed repository.
//!
//! The paper runs on Berkeley DB (§5); our stand-in is `xquec-storage`. The
//! on-disk layout mirrors §2.2: node records live under a B+tree keyed by
//! element id ("we construct and store a B+ search tree on top of the
//! sequence of node records"), the dictionary / summary / containers live in
//! record heaps, and source models are stored once per partition set and
//! shared by reference.
//!
//! Loading treats the file as hostile: every field is bounds-checked, every
//! cross-reference (tree parents, summary parents, extent element ids,
//! container pointers, value refs) is validated, and every decode failure
//! surfaces as a typed [`PersistError`] — never a panic. [`save_to_pager`]
//! and [`load_from_pager`] expose the pager seam so tests can drive the
//! whole path through an in-memory or fault-injecting pager.
//!
//! [`save`] is crash-atomic: the new image is staged into a sidecar journal
//! (`<path>.wal`), committed with a checksummed record, and only then
//! applied to the main file (see [`xquec_storage::wal`]). A crash or I/O
//! failure at any write/sync boundary leaves the store recoverable to
//! exactly the pre-save or post-save bytes; [`load`] (via
//! `FilePager::open`) runs that recovery automatically.

#![deny(clippy::unwrap_used)]

use crate::container::{Container, ContainerError, ContainerLeaf, ValueType};
use crate::dictionary::NameDictionary;
use crate::ids::{ContainerId, ElemId, PathId, TagCode};
use crate::repo::Repository;
use crate::structure::{StructureTree, ValueRef};
use crate::summary::{PathKind, StructureSummary};
use std::path::Path;
use std::sync::Arc;
use xquec_compress::bitio::{read_varint, write_varint};
use xquec_compress::ValueCodec;
use xquec_storage::wal::{self, PagerWrap};
use xquec_storage::{BTree, BufferPool, FilePager, Heap, Journal, PageId, Pager, StorageError};

/// Catalog magic; the trailing version digit pairs with the storage-layer
/// format version (checksummed pages arrived with `XQUEC02`).
const MAGIC: &[u8; 8] = b"XQUEC02\0";
/// Container records per heap chunk.
const CHUNK: usize = 512;

/// Errors from saving/loading a repository.
#[derive(Debug)]
pub enum PersistError {
    /// Underlying storage failure (I/O, checksum mismatch, bad page).
    Storage(StorageError),
    /// Structural corruption in the file.
    Corrupt(String),
}

impl std::fmt::Display for PersistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PersistError::Storage(e) => write!(f, "persist: {e}"),
            PersistError::Corrupt(m) => write!(f, "persist: corrupt repository file: {m}"),
        }
    }
}

impl std::error::Error for PersistError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PersistError::Storage(e) => Some(e),
            PersistError::Corrupt(_) => None,
        }
    }
}

impl From<StorageError> for PersistError {
    fn from(e: StorageError) -> Self {
        PersistError::Storage(e)
    }
}

impl From<ContainerError> for PersistError {
    fn from(e: ContainerError) -> Self {
        PersistError::Corrupt(e.to_string())
    }
}

fn corrupt<T>(msg: impl Into<String>) -> Result<T, PersistError> {
    Err(PersistError::Corrupt(msg.into()))
}

/// Bounds-checked cursor over one persisted record.
struct Reader<'a> {
    data: &'a [u8],
    pos: usize,
    what: &'static str,
}

impl<'a> Reader<'a> {
    fn new(data: &'a [u8], what: &'static str) -> Self {
        Reader { data, pos: 0, what }
    }

    fn truncated<T>(&self) -> Result<T, PersistError> {
        corrupt(format!("{} record truncated at byte {}", self.what, self.pos))
    }

    fn bytes(&mut self, len: usize) -> Result<&'a [u8], PersistError> {
        let end = match self.pos.checked_add(len) {
            Some(e) if e <= self.data.len() => e,
            _ => return self.truncated(),
        };
        let out = &self.data[self.pos..end];
        self.pos = end;
        Ok(out)
    }

    fn u8(&mut self) -> Result<u8, PersistError> {
        Ok(self.bytes(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, PersistError> {
        let b = self.bytes(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    fn u32(&mut self) -> Result<u32, PersistError> {
        let b = self.bytes(4)?;
        Ok(u32::from_le_bytes(b.try_into().expect("4 bytes")))
    }

    fn varint(&mut self) -> Result<usize, PersistError> {
        let (v, used) = match read_varint(&self.data[self.pos.min(self.data.len())..]) {
            Some(x) => x,
            None => return self.truncated(),
        };
        self.pos += used;
        Ok(v)
    }

    fn at_end(&self) -> bool {
        self.pos >= self.data.len()
    }
}

/// Save a repository to a single file, crash-atomically.
///
/// The image is staged into the sidecar journal `<path>.wal`, synced,
/// committed with a checksummed record, synced again, and only then applied
/// to `path` — so a crash at any point leaves the old or the new repository
/// on disk (recovered by the next [`load`]), never a torn mix.
pub fn save(repo: &Repository, path: impl AsRef<Path>) -> Result<(), PersistError> {
    save_with(repo, path.as_ref(), &|p| p)
}

/// [`save`], with every pager the commit protocol opens passed through
/// `wrap` first. This is the fault-injection seam: the crash-recovery suite
/// wraps both the journal and the main store in `FaultPager`s sharing one
/// `CrashPoint` budget to sweep simulated power loss across every durable
/// operation of the save.
pub fn save_with(repo: &Repository, path: &Path, wrap: &PagerWrap) -> Result<(), PersistError> {
    // First finish (or discard) whatever journal a previously crashed save
    // left behind, so its sidecar path can be reused. A committed journal
    // is applied — its save happened — and an uncommitted one is dropped.
    wal::recover_with(path, wrap)?;
    let wp = wal::wal_path(path);

    // Stage the complete new image into the journal. The main store is not
    // touched by anything below until the commit record is durable.
    let wal_pager = wrap(Arc::new(FilePager::create(&wp)?));
    let journal = Journal::begin(wal_pager.clone())?;
    save_to_pager(repo, journal.staging())?;
    let rec = journal.commit()?;
    wal::sync_parent_dir(path);

    // Commit point passed: truncate the main file and redo from the
    // journal. A crash from here on replays the same apply on recovery.
    let main = wrap(Arc::new(FilePager::create(path)?));
    wal::apply(&*wal_pager, &rec, &*main)?;
    drop(main);
    drop(wal_pager);
    std::fs::remove_file(&wp).map_err(StorageError::from)?;
    wal::sync_parent_dir(path);
    Ok(())
}

/// Save a repository through an arbitrary pager (the file-format writer;
/// [`save`] is the thin file-backed wrapper).
pub fn save_to_pager(repo: &Repository, pager: Arc<dyn Pager>) -> Result<(), PersistError> {
    let pool = Arc::new(BufferPool::new(pager, 256));

    // Page 0 is the catalog, filled in at the end.
    let catalog = pool.allocate()?;
    debug_assert_eq!(catalog, PageId(0));

    // Dictionary.
    let mut dict_heap = Heap::create(pool.clone())?;
    for (_, name) in repo.dict.iter() {
        dict_heap.append(name.as_bytes())?;
    }

    // Node records under a B+tree keyed by big-endian element id, bulk-built
    // in id order.
    let records = (0..repo.tree.len() as u32).map(|i| {
        let n = repo.tree.node(ElemId(i));
        let mut buf = Vec::with_capacity(11 + 8 * n.values.len());
        buf.extend_from_slice(&n.tag.0.to_le_bytes());
        buf.extend_from_slice(&n.parent.map_or(u32::MAX, |p| p.0).to_le_bytes());
        buf.extend_from_slice(&n.path.0.to_le_bytes());
        write_varint(&mut buf, n.values.len());
        for v in &n.values {
            buf.extend_from_slice(&v.container.0.to_le_bytes());
            buf.extend_from_slice(&v.index.to_le_bytes());
        }
        (i.to_be_bytes(), buf)
    });
    let nodes = BTree::bulk_load(pool.clone(), records)?;
    let mut buf = Vec::new();

    // Summary nodes in id order (children recoverable from parents).
    let mut summary_heap = Heap::create(pool.clone())?;
    for p in repo.summary.ids() {
        let node = repo.summary.node(p);
        buf.clear();
        let (kind, tag) = match node.kind {
            PathKind::Root => (0u8, 0u16),
            PathKind::Element(t) => (1, t.0),
            PathKind::Attribute(t) => (2, t.0),
            PathKind::Text => (3, 0),
        };
        buf.push(kind);
        buf.extend_from_slice(&tag.to_le_bytes());
        buf.extend_from_slice(&node.parent.map_or(u32::MAX, |x| x.0).to_le_bytes());
        buf.extend_from_slice(&node.container.map_or(u32::MAX, |c| c.0).to_le_bytes());
        write_varint(&mut buf, node.extent.len());
        let mut prev = 0u32;
        for &e in &node.extent {
            write_varint(&mut buf, (e.0 - prev) as usize);
            prev = e.0;
        }
        summary_heap.append(&buf)?;
    }

    // Source models, deduplicated by Arc identity.
    let mut models_heap = Heap::create(pool.clone())?;
    let mut model_ids: Vec<(*const ValueCodec, usize)> = Vec::new();
    let mut model_of = |c: &Container, heap: &mut Heap| -> Result<usize, PersistError> {
        let ptr = Arc::as_ptr(c.codec());
        if let Some(&(_, id)) = model_ids.iter().find(|(p, _)| *p == ptr) {
            return Ok(id);
        }
        let id = model_ids.len();
        heap.append(&c.codec().serialize())?;
        model_ids.push((ptr, id));
        Ok(id)
    };

    // Containers.
    let mut containers_heap = Heap::create(pool.clone())?;
    for c in &repo.containers {
        buf.clear();
        buf.extend_from_slice(&c.path.0.to_le_bytes());
        match c.leaf {
            ContainerLeaf::Text => {
                buf.push(0);
                buf.extend_from_slice(&0u16.to_le_bytes());
            }
            ContainerLeaf::Attribute(t) => {
                buf.push(1);
                buf.extend_from_slice(&t.0.to_le_bytes());
            }
        }
        match c.vtype {
            ValueType::Str => buf.push(0),
            ValueType::Int => buf.push(1),
            ValueType::Decimal(s) => {
                buf.push(2);
                buf.push(s);
            }
        }
        if c.is_individual() {
            buf.push(0);
            let mid = model_of(c, &mut models_heap)?;
            write_varint(&mut buf, mid);
        } else {
            buf.push(1);
        }
        write_varint(&mut buf, c.len());
        containers_heap.append(&buf)?;

        if let Some(blob) = c.block_blob() {
            // Block storage: the parents chunk, then the container's own blz
            // blob, verbatim.
            let mut chunk = Vec::new();
            for idx in 0..c.len() as u32 {
                chunk.extend_from_slice(&c.parent_of(idx).0.to_le_bytes());
            }
            containers_heap.append(&chunk)?;
            containers_heap.append(blob)?;
        } else {
            // Chunked records: (parent u32, varint len, compressed bytes)*.
            let mut chunk = Vec::new();
            let mut in_chunk = 0usize;
            for idx in 0..c.len() as u32 {
                chunk.extend_from_slice(&c.parent_of(idx).0.to_le_bytes());
                let comp = c.compressed(idx)?;
                write_varint(&mut chunk, comp.len());
                chunk.extend_from_slice(comp);
                in_chunk += 1;
                if in_chunk == CHUNK {
                    containers_heap.append(&chunk)?;
                    chunk.clear();
                    in_chunk = 0;
                }
            }
            if in_chunk > 0 {
                containers_heap.append(&chunk)?;
            }
        }
    }

    // Catalog.
    pool.with_page_mut(catalog, |p| {
        p.write_at(0, MAGIC);
        p.put_u64(8, repo.original_bytes as u64);
        p.put_u64(16, repo.tree.len() as u64);
        p.put_u64(24, repo.summary.len() as u64);
        p.put_u64(32, repo.containers.len() as u64);
        p.put_u64(40, dict_heap.first_page().0);
        p.put_u64(48, nodes.root().0);
        p.put_u64(56, summary_heap.first_page().0);
        p.put_u64(64, models_heap.first_page().0);
        p.put_u64(72, containers_heap.first_page().0);
        p.put_u64(80, repo.dict.len() as u64);
    })?;
    pool.flush()?;
    Ok(())
}

/// Load a repository saved by [`save`].
pub fn load(path: impl AsRef<Path>) -> Result<Repository, PersistError> {
    let pager = Arc::new(FilePager::open(path.as_ref())?);
    load_from_pager(pager)
}

/// Load a repository through an arbitrary pager. Corrupt input of any shape
/// yields `Err`, never a panic: all counts, offsets and cross-references are
/// validated before use.
pub fn load_from_pager(pager: Arc<dyn Pager>) -> Result<Repository, PersistError> {
    let pool = Arc::new(BufferPool::new(pager, 256));
    if pool.page_count() == 0 {
        return corrupt("empty store has no catalog page");
    }

    let (original_bytes, n_nodes, n_paths, n_containers, pages, n_names) =
        pool.with_page(PageId(0), |p| {
            if p.slice(0, 8) != MAGIC {
                return None;
            }
            Some((
                p.get_u64(8) as usize,
                p.get_u64(16) as usize,
                p.get_u64(24) as usize,
                p.get_u64(32) as usize,
                [p.get_u64(40), p.get_u64(48), p.get_u64(56), p.get_u64(64), p.get_u64(72)],
                p.get_u64(80) as usize,
            ))
        })?
        .map_or_else(|| corrupt("bad catalog magic"), Ok)?;

    let page_count = pool.page_count();
    for (i, &pg) in pages.iter().enumerate() {
        if pg >= page_count {
            return corrupt(format!("catalog root {i} points at page {pg} of {page_count}"));
        }
    }
    // Sanity-cap the claimed object counts: every node costs at least one
    // byte somewhere, so counts beyond the store size are corrupt (and would
    // otherwise drive huge preallocations).
    let store_bytes = page_count.saturating_mul(xquec_storage::PAGE_SIZE as u64) as usize;
    for (what, n) in
        [("node", n_nodes), ("summary-node", n_paths), ("container", n_containers), ("name", n_names)]
    {
        if n > store_bytes {
            return corrupt(format!("{what} count {n} exceeds store size"));
        }
    }

    // Dictionary.
    let dict_heap = Heap::open(pool.clone(), PageId(pages[0]))?;
    let mut dict = NameDictionary::new();
    for rec in dict_heap.scan() {
        let (_, data) = rec?;
        dict.intern(std::str::from_utf8(&data).map_err(|_| {
            PersistError::Corrupt("dictionary name is not valid utf8".into())
        })?);
        if dict.len() > n_names {
            return corrupt(format!("more names than the {n_names} declared"));
        }
    }
    if dict.len() != n_names {
        return corrupt(format!("expected {n_names} names, found {}", dict.len()));
    }

    // Node records (B+tree iteration yields ascending element ids).
    let nodes_tree = BTree::open(pool.clone(), PageId(pages[1]));
    let mut tree = StructureTree::new();
    let mut value_refs: Vec<(ElemId, Vec<ValueRef>)> = Vec::new();
    for entry in nodes_tree.iter()? {
        let (key, data) = entry?;
        let id = u32::from_be_bytes(
            key.as_slice()
                .try_into()
                .map_err(|_| PersistError::Corrupt("node key is not 4 bytes".into()))?,
        );
        let mut r = Reader::new(&data, "node");
        let tag = TagCode(r.u16()?);
        let parent_raw = r.u32()?;
        let parent = (parent_raw != u32::MAX).then_some(ElemId(parent_raw));
        let path = PathId(r.u32()?);
        if tree.len() >= n_nodes {
            return corrupt(format!("more node records than the {n_nodes} declared"));
        }
        if let Some(p) = parent {
            // push() indexes the parent's child list; ids are pre-order, so
            // a parent at or beyond this node is corrupt.
            if p.0 as usize >= tree.len() {
                return corrupt(format!("node {id} claims parent {} (not yet seen)", p.0));
            }
        }
        let got = tree.push(tag, parent, path);
        if got.0 != id {
            return corrupt("node ids not dense");
        }
        let nvals = r.varint()?;
        let mut refs = Vec::with_capacity(nvals.min(1024));
        for _ in 0..nvals {
            let container = ContainerId(r.u32()?);
            let index = r.u32()?;
            refs.push(ValueRef { container, index });
        }
        if !refs.is_empty() {
            value_refs.push((got, refs));
        }
    }
    if tree.len() != n_nodes {
        return corrupt(format!("expected {n_nodes} nodes, found {}", tree.len()));
    }

    // Summary.
    let summary_heap = Heap::open(pool.clone(), PageId(pages[2]))?;
    let mut summary = StructureSummary::new();
    for (i, rec) in summary_heap.scan().enumerate() {
        let (_, data) = rec?;
        if i >= n_paths {
            return corrupt(format!("more summary nodes than the {n_paths} declared"));
        }
        let mut r = Reader::new(&data, "summary");
        let kind = r.u8()?;
        let tag = TagCode(r.u16()?);
        let parent_raw = r.u32()?;
        let container_raw = r.u32()?;
        let pk = match kind {
            0 => PathKind::Root,
            1 => PathKind::Element(tag),
            2 => PathKind::Attribute(tag),
            3 => PathKind::Text,
            k => return corrupt(format!("summary kind {k}")),
        };
        let pid = if kind == 0 {
            summary.root()
        } else {
            if parent_raw as usize >= summary.len() {
                return corrupt(format!("summary node {i} claims parent {parent_raw}"));
            }
            summary.intern_child(PathId(parent_raw), pk)
        };
        if pid.0 as usize != i {
            return corrupt("summary ids not dense");
        }
        if container_raw != u32::MAX {
            if container_raw as usize >= n_containers {
                return corrupt(format!(
                    "summary node {i} points at container {container_raw} of {n_containers}"
                ));
            }
            summary.set_container(pid, ContainerId(container_raw));
        }
        let n_ext = r.varint()?;
        let mut prev = 0u64;
        for _ in 0..n_ext {
            let delta = r.varint()? as u64;
            let next = prev.checked_add(delta).filter(|&e| e < n_nodes as u64);
            match next {
                Some(e) => {
                    summary.record(pid, ElemId(e as u32));
                    prev = e;
                }
                None => {
                    return corrupt(format!("summary node {i} extent leaves the {n_nodes} nodes"))
                }
            }
        }
    }
    if summary.len() != n_paths {
        return corrupt(format!("expected {n_paths} summary nodes, found {}", summary.len()));
    }
    // Every structure-tree node must point at a real summary path.
    for i in 0..tree.len() as u32 {
        let p = tree.node(ElemId(i)).path;
        if p.0 as usize >= summary.len() {
            return corrupt(format!("node {i} points at summary path {} of {}", p.0, summary.len()));
        }
    }

    // Models.
    let models_heap = Heap::open(pool.clone(), PageId(pages[3]))?;
    let mut models: Vec<Arc<ValueCodec>> = Vec::new();
    for rec in models_heap.scan() {
        let (_, data) = rec?;
        let codec = ValueCodec::deserialize(&data)
            .ok_or_else(|| PersistError::Corrupt("source model blob does not parse".into()))?;
        models.push(Arc::new(codec));
        if models.len() > store_bytes {
            return corrupt("model count exceeds store size");
        }
    }

    // Containers.
    let containers_heap = Heap::open(pool.clone(), PageId(pages[4]))?;
    let mut containers: Vec<Container> = Vec::with_capacity(n_containers.min(4096));
    let mut stats = Vec::with_capacity(n_containers.min(4096));
    let mut scan = containers_heap.scan();
    for ci in 0..n_containers {
        let (_, header) = scan
            .next()
            .ok_or_else(|| PersistError::Corrupt("missing container header".into()))??;
        let mut r = Reader::new(&header, "container header");
        let path = PathId(r.u32()?);
        if path.0 as usize >= summary.len() {
            return corrupt(format!("container {ci} names summary path {}", path.0));
        }
        let leaf = match r.u8()? {
            0 => {
                r.u16()?;
                ContainerLeaf::Text
            }
            1 => ContainerLeaf::Attribute(TagCode(r.u16()?)),
            k => return corrupt(format!("leaf kind {k}")),
        };
        let vtype = match r.u8()? {
            0 => ValueType::Str,
            1 => ValueType::Int,
            2 => ValueType::Decimal(r.u8()?),
            k => return corrupt(format!("vtype {k}")),
        };
        let mode = r.u8()?;
        let model_id = if mode == 0 { Some(r.varint()?) } else { None };
        let count = r.varint()?;
        if count > store_bytes {
            return corrupt(format!("container {ci} claims {count} records"));
        }

        let cid = ContainerId(ci as u32);
        let (c, st) = if mode == 0 {
            let codec = model_id
                .and_then(|m| models.get(m))
                .cloned()
                .ok_or_else(|| PersistError::Corrupt("model id out of range".into()))?;
            // Read chunks and rebuild via the raw constructor.
            let mut comps: Vec<Box<[u8]>> = Vec::with_capacity(count.min(CHUNK));
            let mut parents: Vec<ElemId> = Vec::with_capacity(count.min(CHUNK));
            while comps.len() < count {
                let (_, chunk) = scan
                    .next()
                    .ok_or_else(|| PersistError::Corrupt("missing container chunk".into()))??;
                let mut cr = Reader::new(&chunk, "container chunk");
                while !cr.at_end() {
                    let parent = ElemId(cr.u32()?);
                    if parent.0 as u64 >= n_nodes as u64 {
                        return corrupt(format!(
                            "container {ci} record parent {} of {n_nodes} nodes",
                            parent.0
                        ));
                    }
                    let len = cr.varint()?;
                    comps.push(cr.bytes(len)?.to_vec().into_boxed_slice());
                    parents.push(parent);
                }
            }
            if comps.len() != count {
                return corrupt(format!(
                    "container {ci} holds {} records, header says {count}",
                    comps.len()
                ));
            }
            Container::from_parts(cid, path, leaf, vtype, codec, comps, parents)?
        } else {
            let (_, pchunk) = scan
                .next()
                .ok_or_else(|| PersistError::Corrupt("missing parents chunk".into()))??;
            if pchunk.len() % 4 != 0 {
                return corrupt(format!("container {ci} parents chunk length {}", pchunk.len()));
            }
            let parents: Vec<ElemId> = pchunk
                .chunks_exact(4)
                .map(|b| ElemId(u32::from_le_bytes(b.try_into().expect("fixed"))))
                .collect();
            if parents.len() != count {
                return corrupt("parents count mismatch");
            }
            if let Some(bad) = parents.iter().find(|p| p.0 as u64 >= n_nodes as u64) {
                return corrupt(format!("container {ci} record parent {} out of range", bad.0));
            }
            let (_, blob) = scan
                .next()
                .ok_or_else(|| PersistError::Corrupt("missing block blob".into()))??;
            Container::from_block_parts(cid, path, leaf, vtype, blob, parents)?
        };
        stats.push(st);
        containers.push(c);
    }

    // Value refs are only attached once the containers they point into are
    // known to exist and hold the referenced record.
    for (elem, refs) in value_refs {
        for vref in refs {
            let c = containers.get(vref.container.0 as usize).ok_or_else(|| {
                PersistError::Corrupt(format!(
                    "node {} points at container {} of {}",
                    elem.0,
                    vref.container.0,
                    containers.len()
                ))
            })?;
            if vref.index as usize >= c.len() {
                return corrupt(format!(
                    "node {} points at record {} of container {} ({} records)",
                    elem.0,
                    vref.index,
                    vref.container.0,
                    c.len()
                ));
            }
            tree.add_value(elem, vref);
        }
    }

    Ok(Repository { dict, tree, summary, containers, stats, original_bytes })
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::loader::{load_with, LoaderOptions, WorkloadSpec};
    use crate::query::Engine;
    use crate::stats::ContainerStats;
    use crate::workload::PredOp;
    use xquec_storage::MemPager;

    #[test]
    fn save_load_roundtrip() {
        let xml = xquec_xml::gen::Dataset::Xmark.generate(120_000);
        let spec = WorkloadSpec::new()
            .join("//buyer/@person", "//person/@id", PredOp::Eq)
            .constant("//price/text()", PredOp::Ineq)
            .project("//person/name/text()");
        let opts = LoaderOptions { workload: Some(spec), ..Default::default() };
        let repo = load_with(&xml, &opts).unwrap();

        let dir = std::env::temp_dir().join(format!("xquec-persist-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let file = dir.join("repo.xqc");
        save(&repo, &file).unwrap();
        let revived = super::load(&file).unwrap();

        assert_eq!(revived.tree.len(), repo.tree.len());
        assert_eq!(revived.summary.len(), repo.summary.len());
        assert_eq!(revived.containers.len(), repo.containers.len());
        assert_eq!(revived.original_bytes, repo.original_bytes);

        // Queries give identical results on the revived repository.
        let e1 = Engine::new(&repo);
        let e2 = Engine::new(&revived);
        for q in [
            "count(//person)",
            "sum(//closed_auction/price/text())",
            r#"for $p in /site/people/person where $p/@id = "person3" return $p/name/text()"#,
            "count(for $t in //closed_auction where $t/price/text() >= 100 return $t)",
        ] {
            assert_eq!(e1.run(q).unwrap(), e2.run(q).unwrap(), "query {q}");
        }
        std::fs::remove_file(&file).unwrap();
    }

    #[test]
    fn roundtrip_through_mem_pager() {
        let xml = xquec_xml::gen::Dataset::Xmark.generate(40_000);
        let repo = load_with(&xml, &LoaderOptions::default()).unwrap();
        let pager = Arc::new(MemPager::new());
        save_to_pager(&repo, pager.clone()).unwrap();
        let revived = load_from_pager(pager).unwrap();
        assert_eq!(revived.tree.len(), repo.tree.len());
        let e1 = Engine::new(&repo);
        let e2 = Engine::new(&revived);
        assert_eq!(e1.run("count(//person)").unwrap(), e2.run("count(//person)").unwrap());
    }

    #[test]
    fn load_rejects_garbage() {
        let dir = std::env::temp_dir().join(format!("xquec-persist-bad-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let file = dir.join("bad.xqc");
        std::fs::write(&file, vec![0u8; 8192]).unwrap();
        assert!(super::load(&file).is_err());
        std::fs::remove_file(&file).unwrap();
    }

    fn xmark_200k_seed_1() -> Repository {
        let xml = xquec_xml::gen::XmarkGen::with_target_size(200_000).seed(1).generate();
        let opts = LoaderOptions {
            workload: Some(crate::queries::xmark_workload()),
            threads: 1,
            ..Default::default()
        };
        load_with(&xml, &opts).unwrap()
    }

    /// Bytes on disk are a machine-independent counter: the saved page count
    /// of a fixed document is pinned exactly. Inserting node records one at
    /// a time and re-encoding every block blob gave 43 pages here; the
    /// bulk-built node tree packs its leaves full.
    #[test]
    fn saved_page_count_is_pinned() {
        let pager = Arc::new(MemPager::new());
        save_to_pager(&xmark_200k_seed_1(), pager.clone()).unwrap();
        assert_eq!(pager.page_count(), 32);
    }

    /// Save writes each block container's blob verbatim. That blob must be
    /// what re-encoding its decoded values gives, and a reopened repository
    /// must account, and gather statistics, exactly as the original does.
    #[test]
    fn block_blobs_are_saved_verbatim_and_reopen_exactly() {
        let repo = xmark_200k_seed_1();
        let mut blocks = 0;
        for c in repo.containers.iter().filter(|c| !c.is_individual()) {
            let mut concat = Vec::new();
            for v in c.decompress_all().unwrap() {
                write_varint(&mut concat, v.len());
                concat.extend_from_slice(v.as_bytes());
            }
            assert_eq!(c.block_blob(), Some(&xquec_compress::blz::compress(&concat)[..]));
            blocks += 1;
        }
        assert!(blocks > 0);

        let pager = Arc::new(MemPager::new());
        save_to_pager(&repo, pager.clone()).unwrap();
        let revived = load_from_pager(pager).unwrap();
        assert_eq!(revived.size_report(), repo.size_report());
        for (a, b) in repo.containers.iter().zip(&revived.containers) {
            assert_eq!(a.block_blob(), b.block_blob(), "container {}", a.id.0);
            let fresh =
                ContainerStats::from_values(b.decompress_all().unwrap().iter().map(String::as_str));
            let kept = &revived.stats[b.id.0 as usize];
            assert_eq!(
                (kept.count, kept.plain_bytes, kept.distinct, kept.char_freq, &kept.sample),
                (fresh.count, fresh.plain_bytes, fresh.distinct, fresh.char_freq, &fresh.sample),
                "container {}",
                b.id.0
            );
        }
    }

    #[test]
    fn load_rejects_empty_store() {
        let pager = Arc::new(MemPager::new());
        assert!(matches!(load_from_pager(pager), Err(PersistError::Corrupt(_))));
    }
}
