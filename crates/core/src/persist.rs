//! Durable storage of a compressed repository.
//!
//! The paper runs on Berkeley DB (§5) and keeps a B+ search tree over the
//! node records (§2.2). Here no query reads storage: [`load`] materializes
//! the whole repository, and element ids are dense pre-order, so nothing
//! needs keyed access on disk. A repository is saved as consecutive page
//! runs starting at page 0 (see [`xquec_storage::stream`]): a fixed
//! catalog, then five sections, each starting on a fresh page. The catalog
//! holds each section's length, so the page run of every section follows.
//!
//! ```text
//! image      := catalog dictionary nodes summary models containers
//! catalog    := magic b"XQUEC03\0", original bytes u64,
//!               object counts u64 x5, section lengths u64 x5
//!               (both in section order; all little-endian)
//! dictionary := (varint len, utf-8 name)*
//! nodes      := (varint tag, varint id-parent (0: no parent), varint path,
//!                varint n, (varint container, varint index) x n)*
//! summary    := (u8 kind, varint tag, varint parent,
//!                varint container+1 (0: none), varint n, varint id delta x n)*
//! models     := (varint len, serialized source model)*
//! containers := (header, varint parent x count, body)*
//! header     := varint path, u8 leaf (0 text | 1 attribute, varint tag),
//!               u8 type (0 str | 1 int | 2 decimal, u8 scale),
//!               u8 mode (0 individual, varint model | 1 block), varint count
//! body       := (varint len, compressed bytes) x count   (individual)
//!             | varint len, blz blob                      (block)
//! ```
//!
//! Source models are stored once per partition set and shared by
//! reference; block containers' blz blobs are written verbatim.
//!
//! Loading treats the file as hostile: every field is bounds-checked, every
//! count is capped by the bytes of its section and reserves at most
//! `PREALLOC_BYTES` (64 KiB) up front, every cross-reference (tree
//! parents, which must keep the nodes in pre-order, summary parents, extent
//! element ids, container pointers, value refs) is validated, and every decode failure surfaces as a typed
//! [`PersistError`] — never a panic. [`save_to_pager`] and
//! [`load_from_pager`] expose the pager seam so tests can drive the whole
//! path through an in-memory or fault-injecting pager.
//!
//! [`save`] is crash-atomic: the new image is staged into a sidecar journal
//! (`<path>.wal`), committed with a checksummed record, and only then
//! applied to the main file (see [`xquec_storage::wal`]). A crash or I/O
//! failure at any write/sync boundary leaves the store recoverable to
//! exactly the pre-save or post-save bytes; [`load`] (via
//! `FilePager::open`) runs that recovery automatically.

#![deny(clippy::unwrap_used)]

use crate::container::{Container, ContainerError, ContainerLeaf, RecordArena, ValueType};
use crate::dictionary::NameDictionary;
use crate::ids::{ContainerId, ElemId, PathId, TagCode};
use crate::repo::Repository;
use crate::structure::{TreeBuilder, ValueRef};
use crate::summary::{PathKind, StructureSummary};
use std::path::Path;
use std::sync::Arc;
use xquec_compress::bitio::{read_varint, write_varint};
use xquec_compress::ValueCodec;
use xquec_storage::wal::{self, PagerWrap};
use xquec_storage::{
    read_stream, write_stream, BufferPool, FilePager, Journal, PageId, Pager, StorageError,
    PAGE_SIZE,
};

/// Catalog magic; the trailing digit is the image layout's version. Files
/// of an older layout are rejected as corrupt, not read.
const MAGIC: &[u8; 8] = b"XQUEC03\0";
/// The image's sections, in page order.
const SECTIONS: [&str; 5] = ["dictionary", "node", "summary", "model", "container"];
/// Catalog bytes: magic, original size, then a count and a length per section.
const CATALOG_LEN: usize = 16 + 16 * SECTIONS.len();
/// Pages the catalog fills; the first section starts right after them.
const CATALOG_PAGES: u64 = CATALOG_LEN.div_ceil(PAGE_SIZE) as u64;
/// Most bytes a count read from the file may reserve up front. A count is
/// only capped by its section's bytes, and one byte can claim an object far
/// larger than itself, so longer vectors grow as their objects parse.
const PREALLOC_BYTES: usize = 64 << 10;

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

/// An empty vector for `count` objects read from the file, reserving at
/// most `PREALLOC_BYTES`.
fn prealloc<T>(count: usize) -> Vec<T> {
    Vec::with_capacity(count.min(PREALLOC_BYTES / std::mem::size_of::<T>().max(1)))
}

fn corrupt<T>(msg: impl Into<String>) -> Result<T, PersistError> {
    Err(PersistError::Corrupt(msg.into()))
}

/// Bounds-checked cursor over one section of the image.
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
        corrupt(format!("{} section truncated at byte {}", self.what, self.pos))
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

    fn u64(&mut self) -> Result<u64, PersistError> {
        let b = self.bytes(8)?;
        Ok(u64::from_le_bytes(b.try_into().expect("8 bytes")))
    }

    fn varint(&mut self) -> Result<usize, PersistError> {
        let (v, used) = match read_varint(&self.data[self.pos.min(self.data.len())..]) {
            Some(x) => x,
            None => return self.truncated(),
        };
        self.pos += used;
        Ok(v)
    }

    /// A varint that must fit a narrower id type.
    fn varint_as<T: TryFrom<usize>>(&mut self) -> Result<T, PersistError> {
        let v = self.varint()?;
        T::try_from(v).or_else(|_| corrupt(format!("{} field {v} out of range", self.what)))
    }

    fn remaining(&self) -> usize {
        self.data.len().saturating_sub(self.pos)
    }

    /// A section must be consumed exactly.
    fn finish(&self) -> Result<(), PersistError> {
        match self.remaining() {
            0 => Ok(()),
            n => corrupt(format!("{} section has {n} trailing bytes", self.what)),
        }
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
/// [`save`] is the thin file-backed wrapper). The pager must be empty: the
/// image starts at page 0.
pub fn save_to_pager(repo: &Repository, pager: Arc<dyn Pager>) -> Result<(), PersistError> {
    let mut sections: [Vec<u8>; 5] = Default::default();
    let [dict, nodes, summary, models, containers] = &mut sections;

    for (_, name) in repo.dict.iter() {
        write_varint(dict, name.len());
        dict.extend_from_slice(name.as_bytes());
    }

    // Node records in id order; the parent is a backward delta.
    let tree = &repo.tree;
    for i in 0..tree.len() as u32 {
        let id = ElemId(i);
        write_varint(nodes, tree.tag(id).0 as usize);
        write_varint(nodes, tree.parent(id).map_or(0, |p| (i - p.0) as usize));
        write_varint(nodes, tree.path(id).0 as usize);
        let values = tree.values(id);
        write_varint(nodes, values.len());
        for v in values {
            write_varint(nodes, v.container.0 as usize);
            write_varint(nodes, v.index as usize);
        }
    }

    // Summary nodes in id order (children recoverable from parents).
    for p in repo.summary.ids() {
        let node = repo.summary.node(p);
        let (kind, tag) = match node.kind {
            PathKind::Root => (0u8, 0u16),
            PathKind::Element(t) => (1, t.0),
            PathKind::Attribute(t) => (2, t.0),
            PathKind::Text => (3, 0),
        };
        summary.push(kind);
        write_varint(summary, tag as usize);
        write_varint(summary, node.parent.map_or(0, |x| x.0 as usize));
        write_varint(summary, node.container.map_or(0, |c| c.0 as usize + 1));
        write_varint(summary, node.extent.len());
        let mut prev = 0u32;
        for &e in &node.extent {
            write_varint(summary, (e.0 - prev) as usize);
            prev = e.0;
        }
    }

    // Containers, each followed by its parents and its records or blob;
    // source models are written once, deduplicated by Arc identity.
    let mut model_ids: Vec<*const ValueCodec> = Vec::new();
    for c in &repo.containers {
        write_varint(containers, c.path.0 as usize);
        match c.leaf {
            ContainerLeaf::Text => containers.push(0),
            ContainerLeaf::Attribute(t) => {
                containers.push(1);
                write_varint(containers, t.0 as usize);
            }
        }
        match c.vtype {
            ValueType::Str => containers.push(0),
            ValueType::Int => containers.push(1),
            ValueType::Decimal(s) => containers.extend_from_slice(&[2, s]),
        }
        if c.is_individual() {
            let ptr = Arc::as_ptr(c.codec());
            let mid = model_ids.iter().position(|&p| p == ptr).unwrap_or_else(|| {
                let blob = c.codec().serialize();
                write_varint(models, blob.len());
                models.extend_from_slice(&blob);
                model_ids.push(ptr);
                model_ids.len() - 1
            });
            containers.push(0);
            write_varint(containers, mid);
        } else {
            containers.push(1);
        }
        write_varint(containers, c.len());
        for idx in 0..c.len() as u32 {
            write_varint(containers, c.parent_of(idx).0 as usize);
        }
        if let Some(blob) = c.block_blob() {
            write_varint(containers, blob.len());
            containers.extend_from_slice(blob);
        } else {
            for idx in 0..c.len() as u32 {
                let comp = c.compressed(idx)?;
                write_varint(containers, comp.len());
                containers.extend_from_slice(comp);
            }
        }
    }

    let counts = [
        repo.dict.len(),
        repo.tree.len(),
        repo.summary.len(),
        model_ids.len(),
        repo.containers.len(),
    ];
    let mut catalog = Vec::with_capacity(CATALOG_LEN);
    catalog.extend_from_slice(MAGIC);
    catalog.extend_from_slice(&(repo.original_bytes as u64).to_le_bytes());
    for n in counts.into_iter().chain(sections.iter().map(Vec::len)) {
        catalog.extend_from_slice(&(n as u64).to_le_bytes());
    }

    let pool = BufferPool::new(pager, 256);
    let first = write_stream(&pool, &catalog)?;
    debug_assert_eq!(first, PageId(0));
    for s in &sections {
        write_stream(&pool, s)?;
    }
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
    let pool = BufferPool::new(pager, 256);
    let page_count = pool.page_count();
    if page_count == 0 {
        return corrupt("empty store has no catalog page");
    }

    let head = read_stream(&pool, PageId(0), CATALOG_LEN as u64)?;
    let mut r = Reader::new(&head, "catalog");
    if r.bytes(MAGIC.len())? != MAGIC {
        return corrupt("bad catalog magic");
    }
    let original_bytes = r.u64()? as usize;
    let mut counts = [0u64; SECTIONS.len()];
    let mut lens = [0u64; SECTIONS.len()];
    for n in counts.iter_mut().chain(lens.iter_mut()) {
        *n = r.u64()?;
    }
    // Every object takes at least one byte of its section, so a larger
    // count is corrupt (and would otherwise drive long parse loops).
    for ((what, &n), &len) in SECTIONS.iter().zip(&counts).zip(&lens) {
        if n > len {
            return corrupt(format!("{what} count {n} exceeds the section's {len} bytes"));
        }
    }
    let [n_names, n_nodes, n_paths, n_models, n_containers] = counts.map(|n| n as usize);
    // Each section is a page run right after the one before; all of them
    // must lie inside the store before any is read.
    let mut runs = [(PageId(0), 0u64); SECTIONS.len()];
    let mut next = CATALOG_PAGES;
    for (run, &len) in runs.iter_mut().zip(&lens) {
        *run = (PageId(next), len);
        next = next
            .checked_add(len.div_ceil(PAGE_SIZE as u64))
            .filter(|&end| end <= page_count)
            .map_or_else(|| corrupt("section lengths run past the end of the image"), Ok)?;
    }
    let section = |i: usize| read_stream(&pool, runs[i].0, runs[i].1);

    // Dictionary.
    let data = section(0)?;
    let r = &mut Reader::new(&data, SECTIONS[0]);
    let mut dict = NameDictionary::new();
    for _ in 0..n_names {
        let len = r.varint()?;
        dict.intern(
            std::str::from_utf8(r.bytes(len)?)
                .map_err(|_| PersistError::Corrupt("dictionary name is not valid utf8".into()))?,
        );
    }
    if dict.len() != n_names {
        return corrupt(format!("expected {n_names} names, found {}", dict.len()));
    }
    r.finish()?;

    // Node records: ids are dense pre-order, so each node's parent is the
    // node before it or one of that node's ancestors. The builder checks
    // this, since subtree ranges are only right for a pre-order sequence.
    let data = section(1)?;
    let r = &mut Reader::new(&data, SECTIONS[1]);
    if n_nodes > u32::MAX as usize {
        return corrupt(format!("{n_nodes} nodes exceed the id space"));
    }
    let mut tree = TreeBuilder::new();
    tree.reserve(n_nodes.min(PREALLOC_BYTES / 4));
    let mut n_values = 0usize;
    for id in 0..n_nodes {
        let tag = TagCode(r.varint_as()?);
        let parent = match r.varint()? {
            0 => None,
            d if d <= id => Some(ElemId((id - d) as u32)),
            d => return corrupt(format!("node {id} claims a parent {d} ids back")),
        };
        let path = PathId(r.varint_as()?);
        if tree.push(tag, parent, path).is_none() {
            return corrupt(format!(
                "node {id} hangs off node {}, which is not an ancestor of node {}",
                parent.map_or(0, |p| p.0),
                id - 1
            ));
        }
        let n = r.varint()?;
        n_values = n_values.saturating_add(n);
        if n_values > u32::MAX as usize {
            return corrupt(format!("node {id} has more value refs than a tree can hold"));
        }
        for _ in 0..n {
            let container = ContainerId(r.varint_as()?);
            let index = r.varint_as()?;
            tree.push_value(ValueRef { container, index });
        }
    }
    r.finish()?;
    let tree = tree.finish();

    // Summary.
    let data = section(2)?;
    let r = &mut Reader::new(&data, SECTIONS[2]);
    let mut summary = StructureSummary::new();
    for i in 0..n_paths {
        let kind = r.u8()?;
        let tag = TagCode(r.varint_as()?);
        let parent_raw: u32 = r.varint_as()?;
        let container_raw: u32 = r.varint_as()?;
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
        if let Some(c) = container_raw.checked_sub(1) {
            if c as usize >= n_containers {
                return corrupt(format!(
                    "summary node {i} points at container {c} of {n_containers}"
                ));
            }
            summary.set_container(pid, ContainerId(c));
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
    r.finish()?;
    // Every structure-tree node must point at a real summary path.
    for i in 0..tree.len() as u32 {
        let p = tree.path(ElemId(i));
        if p.0 as usize >= summary.len() {
            return corrupt(format!("node {i} points at summary path {} of {}", p.0, summary.len()));
        }
    }

    // Models.
    let data = section(3)?;
    let r = &mut Reader::new(&data, SECTIONS[3]);
    let mut models: Vec<Arc<ValueCodec>> = prealloc(n_models);
    for _ in 0..n_models {
        let len = r.varint()?;
        let codec = ValueCodec::deserialize(r.bytes(len)?)
            .ok_or_else(|| PersistError::Corrupt("source model blob does not parse".into()))?;
        models.push(Arc::new(codec));
    }
    r.finish()?;

    // Containers.
    let data = section(4)?;
    let r = &mut Reader::new(&data, SECTIONS[4]);
    let mut containers: Vec<Container> = prealloc(n_containers);
    for ci in 0..n_containers {
        let path = PathId(r.varint_as()?);
        if path.0 as usize >= summary.len() {
            return corrupt(format!("container {ci} names summary path {}", path.0));
        }
        let leaf = match r.u8()? {
            0 => ContainerLeaf::Text,
            1 => ContainerLeaf::Attribute(TagCode(r.varint_as()?)),
            k => return corrupt(format!("leaf kind {k}")),
        };
        let vtype = match r.u8()? {
            0 => ValueType::Str,
            1 => ValueType::Int,
            2 => ValueType::Decimal(r.u8()?),
            k => return corrupt(format!("vtype {k}")),
        };
        let codec = match r.u8()? {
            0 => Some(
                models
                    .get(r.varint()?)
                    .cloned()
                    .ok_or_else(|| PersistError::Corrupt("model id out of range".into()))?,
            ),
            1 => None,
            k => return corrupt(format!("container {ci} storage mode {k}")),
        };
        // Each record's parent takes at least one byte.
        let count = r.varint()?;
        if count > r.remaining() {
            return corrupt(format!("container {ci} claims {count} records"));
        }
        let mut parents = prealloc(count);
        for _ in 0..count {
            let parent: u32 = r.varint_as()?;
            if parent as usize >= n_nodes {
                return corrupt(format!(
                    "container {ci} record parent {parent} of {n_nodes} nodes"
                ));
            }
            parents.push(ElemId(parent));
        }

        let cid = ContainerId(ci as u32);
        let c = match codec {
            Some(codec) => {
                // A first pass over the length-prefixed records checks them
                // and sums their bytes, so the arena is sized exactly.
                let start = r.pos;
                let mut total = 0usize;
                for _ in 0..count {
                    let len = r.varint()?;
                    total += r.bytes(len)?.len();
                }
                if total > u32::MAX as usize {
                    return corrupt(format!("container {ci} records hold {total} bytes"));
                }
                let mut records = RecordArena::with_capacity(count, total);
                let mut again = Reader { pos: start, ..*r };
                for _ in 0..count {
                    let len = again.varint()?;
                    records.push(again.bytes(len)?);
                }
                Container::from_parts(cid, path, leaf, vtype, codec, records, parents)?
            }
            None => {
                let len = r.varint()?;
                let blob = r.bytes(len)?.to_vec();
                Container::from_block_parts(cid, path, leaf, vtype, blob, parents)?
            }
        };
        containers.push(c);
    }
    r.finish()?;

    // Every value ref must point at a record of an existing container.
    for i in 0..tree.len() as u32 {
        for vref in tree.values(ElemId(i)) {
            let c = containers.get(vref.container.0 as usize).ok_or_else(|| {
                PersistError::Corrupt(format!(
                    "node {i} points at container {} of {}",
                    vref.container.0,
                    containers.len()
                ))
            })?;
            if vref.index as usize >= c.len() {
                return corrupt(format!(
                    "node {i} points at record {} of container {} ({} records)",
                    vref.index,
                    vref.container.0,
                    c.len()
                ));
            }
        }
    }

    Ok(Repository { dict, tree, summary, containers, original_bytes })
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::loader::{load_with, LoaderOptions, WorkloadSpec};
    use crate::query::Engine;
    use crate::workload::PredOp;
    use xquec_storage::{FaultPager, FaultPlan, MemPager, Page};

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
    /// of a fixed document is pinned exactly. A layout change that moves it
    /// updates the count and says why in CHANGES.md.
    #[test]
    fn saved_page_count_is_pinned() {
        let pager = Arc::new(MemPager::new());
        save_to_pager(&xmark_200k_seed_1(), pager.clone()).unwrap();
        assert_eq!(pager.page_count(), 17);
    }

    /// Save writes each block container's blob verbatim. That blob must be
    /// what re-encoding its decoded values gives, and a reopened repository
    /// must account exactly as the original does.
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
        }
    }

    /// Save writes each page once into a freshly allocated frame: it never
    /// reads a page back from the pager.
    #[test]
    fn save_reads_no_page_back() {
        let xml = xquec_xml::gen::XmarkGen::with_target_size(1_000_000).seed(1).generate();
        let opts = LoaderOptions {
            workload: Some(crate::queries::xmark_workload()),
            threads: 1,
            ..Default::default()
        };
        let repo = load_with(&xml, &opts).unwrap();
        let pager = Arc::new(FaultPager::new(MemPager::new(), FaultPlan::none()));
        save_to_pager(&repo, pager.clone()).unwrap();
        let pages = pager.page_count();
        assert!(pages > 50, "{pages} pages");
        assert_eq!(pager.op_counts(), (0, pages, pages), "(reads, writes, allocations)");
        assert_eq!(pager.sync_count(), 1);
        // Open reads every page once.
        let reads_before = pager.op_counts().0;
        load_from_pager(pager.clone()).unwrap();
        assert_eq!(pager.op_counts().0 - reads_before, pages);
    }

    #[test]
    fn load_rejects_empty_store() {
        let pager = Arc::new(MemPager::new());
        assert!(matches!(load_from_pager(pager), Err(PersistError::Corrupt(_))));
    }

    /// A small saved store whose page `page` is then changed by `patch`.
    fn patched_store(page: u64, patch: impl FnOnce(&mut Page)) -> Arc<MemPager> {
        let xml = xquec_xml::gen::Dataset::Xmark.generate(20_000);
        let pager = Arc::new(MemPager::new());
        save_to_pager(&load_with(&xml, &LoaderOptions::default()).unwrap(), pager.clone()).unwrap();
        let mut p = Page::new();
        pager.read_page(PageId(page), &mut p).unwrap();
        patch(&mut p);
        pager.write_page(PageId(page), &p).unwrap();
        pager
    }

    /// Catalog offsets of section `i`'s object count and byte length.
    fn count_at(i: usize) -> usize {
        16 + 8 * i
    }
    fn len_at(i: usize) -> usize {
        16 + 8 * (SECTIONS.len() + i)
    }

    fn assert_corrupt(pager: Arc<MemPager>, why: &str) {
        match load_from_pager(pager) {
            Err(PersistError::Corrupt(_)) => {}
            other => panic!("{why}: expected Corrupt, got {:?}", other.map(|r| r.tree.len())),
        }
    }

    #[test]
    fn previous_layout_magic_is_corrupt() {
        let pager = patched_store(0, |p| p.write_at(0, b"XQUEC02\0"));
        assert_corrupt(pager, "XQUEC02 image");
    }

    #[test]
    fn section_length_past_the_image_is_corrupt() {
        for len in [1 << 32, u64::MAX / 2, u64::MAX] {
            for (i, what) in SECTIONS.iter().enumerate() {
                let pager = patched_store(0, |p| p.put_u64(len_at(i), len));
                assert_corrupt(pager, &format!("{what} section of {len} bytes"));
            }
        }
    }

    #[test]
    fn count_beyond_its_section_bytes_is_corrupt() {
        for (i, what) in SECTIONS.iter().enumerate() {
            let pager = patched_store(0, |p| p.put_u64(count_at(i), p.get_u64(len_at(i)) + 1));
            assert_corrupt(pager, &format!("{what} count past its bytes"));
            // A count equal to its bytes passes the catalog check; every
            // object of a non-empty section takes more than one byte.
            let mut empty = false;
            let pager = patched_store(0, |p| {
                let len = p.get_u64(len_at(i));
                empty = len == 0;
                p.put_u64(count_at(i), len);
            });
            if !empty {
                assert_corrupt(pager, &format!("{what} count equal to its bytes"));
            }
            let pager = patched_store(0, |p| p.put_u64(count_at(i), u64::MAX));
            assert_corrupt(pager, &format!("{what} count u64::MAX"));
        }
    }

    /// 200 KB XMark saved with the blz blob of its first block container
    /// replaced by `edit(blob)`. The image is laid out anew around the new
    /// blob, so every page and section length stays valid: only the blob
    /// itself is damaged.
    fn store_with_edited_block_blob(edit: impl FnOnce(&[u8]) -> Vec<u8>) -> Arc<MemPager> {
        let repo = xmark_200k_seed_1();
        let pager = Arc::new(MemPager::new());
        save_to_pager(&repo, pager.clone()).unwrap();
        let blob = repo.containers.iter().find_map(|c| c.block_blob()).unwrap();
        let pool = BufferPool::new(pager, 16);
        let mut catalog = read_stream(&pool, PageId(0), CATALOG_LEN as u64).unwrap();
        let mut sections = Vec::new();
        let mut next = CATALOG_PAGES;
        for i in 0..SECTIONS.len() {
            let len = u64::from_le_bytes(catalog[len_at(i)..len_at(i) + 8].try_into().unwrap());
            sections.push(read_stream(&pool, PageId(next), len).unwrap());
            next += len.div_ceil(PAGE_SIZE as u64);
        }
        let containers = &mut sections[4];
        let at = containers.windows(blob.len()).position(|w| w == blob).unwrap();
        let mut framed = Vec::new();
        write_varint(&mut framed, blob.len());
        let start = at - framed.len();
        assert_eq!(containers[start..at], framed[..], "the blob's length prefix");
        let edited = edit(blob);
        framed.clear();
        write_varint(&mut framed, edited.len());
        framed.extend_from_slice(&edited);
        containers.splice(start..at + blob.len(), framed);
        let len = (containers.len() as u64).to_le_bytes();
        catalog[len_at(4)..len_at(4) + 8].copy_from_slice(&len);
        let out = Arc::new(MemPager::new());
        let pool = BufferPool::new(out.clone(), 16);
        for s in std::iter::once(&catalog).chain(&sections) {
            write_stream(&pool, s).unwrap();
        }
        pool.flush().unwrap();
        out
    }

    /// The blob's header varints (total, then the first block's length,
    /// primary index and RLE length), and the offset just past them.
    fn blob_header(blob: &[u8]) -> ([usize; 4], usize) {
        let mut fields = [0usize; 4];
        let mut pos = 0;
        for f in &mut fields {
            let (v, used) = read_varint(&blob[pos..]).unwrap();
            *f = v;
            pos += used;
        }
        (fields, pos)
    }

    /// The blob with its first block's primary index and RLE length set by
    /// `f(block length, primary, rle length)`.
    fn with_header(blob: &[u8], f: impl Fn(usize, usize, usize) -> (usize, usize)) -> Vec<u8> {
        let ([total, block_len, primary, rle_len], end) = blob_header(blob);
        let (primary, rle_len) = f(block_len, primary, rle_len);
        let mut out = Vec::new();
        for v in [total, block_len, primary, rle_len] {
            write_varint(&mut out, v);
        }
        out.extend_from_slice(&blob[end..]);
        out
    }

    #[test]
    fn relaid_image_with_the_blob_unchanged_reopens() {
        let pager = store_with_edited_block_blob(|b| with_header(b, |_, p, r| (p, r)));
        let revived = load_from_pager(pager).unwrap();
        assert_eq!(revived.size_report(), xmark_200k_seed_1().size_report());
    }

    /// A change to a blz blob.
    type BlobEdit = fn(&[u8]) -> Vec<u8>;

    /// Open decodes every block blob, so damage inside one is caught at
    /// open, not at the first query that reads the container.
    #[test]
    fn damaged_block_blob_is_corrupt_at_open() {
        let cases: [(&str, BlobEdit); 7] = [
            ("primary 0", |b| with_header(b, |_, _, r| (0, r))),
            ("primary past the block", |b| with_header(b, |n, _, r| (n + 1, r))),
            ("rle length one over", |b| with_header(b, |_, p, r| (p, r + 1))),
            ("rle length one under", |b| with_header(b, |_, p, r| (p, r - 1))),
            ("rle length at its bound over a small payload", |b| {
                with_header(b, |_, p, _| (p, 2 * xquec_compress::blz::BLOCK_SIZE))
            }),
            (
                "first payload bit flipped",
                |b| {
                    // Past the header: the 256 code lengths, the payload's
                    // length, then the Huffman stream's own bit count.
                    let (_, mut pos) = blob_header(b);
                    pos += 256;
                    pos += read_varint(&b[pos..]).unwrap().1;
                    pos += read_varint(&b[pos..]).unwrap().1;
                    let mut out = b.to_vec();
                    out[pos] ^= 0x80;
                    out
                },
            ),
            (
                "one value fewer than parents",
                |b| {
                    let plain = xquec_compress::blz::decompress(b).unwrap();
                    let (mut pos, mut last) = (0, 0);
                    while pos < plain.len() {
                        let (len, used) = read_varint(&plain[pos..]).unwrap();
                        last = pos;
                        pos += used + len;
                    }
                    xquec_compress::blz::compress(&plain[..last])
                },
            ),
        ];
        for (why, edit) in cases {
            assert_corrupt(store_with_edited_block_blob(edit), why);
        }
    }

    /// The first page of the node section of `patched_store`'s image.
    fn node_section_page() -> u64 {
        let catalog = patched_store(0, |_| {});
        let mut p = Page::new();
        catalog.read_page(PageId(0), &mut p).unwrap();
        CATALOG_PAGES + p.get_u64(len_at(0)).div_ceil(PAGE_SIZE as u64)
    }

    #[test]
    fn parent_delta_before_the_first_node_is_corrupt() {
        // The root is the first node record: one-byte tag, then delta 0.
        let pager = patched_store(node_section_page(), |p| {
            assert_eq!((p.bytes()[0] & 0x80, p.bytes()[1]), (0, 0), "root record");
            p.bytes_mut()[1] = 1;
        });
        assert_corrupt(pager, "root parent one id back");
    }

    /// `(byte offset, value)` of the parent delta of each of the first `k`
    /// node records in `bytes`, the start of the node section.
    fn parent_deltas(bytes: &[u8], k: usize) -> Vec<(usize, usize)> {
        let mut pos = 0;
        let mut varint = || {
            let (v, used) = read_varint(&bytes[pos..]).unwrap();
            pos += used;
            (pos - used, v)
        };
        (0..k)
            .map(|_| {
                varint(); // tag
                let delta = varint();
                varint(); // path
                let values = varint().1;
                for _ in 0..2 * values {
                    varint();
                }
                delta
            })
            .collect()
    }

    /// Subtree ranges are only right for nodes in pre-order: each node's
    /// parent must be the node before it or one of that node's ancestors.
    /// Only the parent deltas are edited, and each still points backwards.
    #[test]
    fn nodes_out_of_pre_order_are_corrupt() {
        let page = node_section_page();
        // Control: the page rewritten unchanged reopens.
        let pager = patched_store(page, |p| {
            let deltas: Vec<usize> = parent_deltas(p.bytes(), 4).iter().map(|d| d.1).collect();
            assert_eq!(deltas, [0, 1, 1, 1], "a chain of four nodes");
        });
        load_from_pager(pager).unwrap();
        // Node 2 now hangs off node 0, which closes node 1's subtree, and
        // node 3 then claims node 1 as its parent.
        let pager = patched_store(page, |p| {
            let deltas = parent_deltas(p.bytes(), 4);
            p.bytes_mut()[deltas[2].0] = 2;
            p.bytes_mut()[deltas[3].0] = 2;
        });
        match load_from_pager(pager) {
            Err(PersistError::Corrupt(m)) => assert!(m.contains("node 3 hangs off node 1"), "{m}"),
            other => panic!("expected Corrupt, got {:?}", other.map(|r| r.tree.len())),
        }
    }
}
