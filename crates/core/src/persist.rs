//! Durable storage of a compressed repository.
//!
//! The paper runs on Berkeley DB (§5) and keeps a B+ search tree over the
//! node records (§2.2). Here no query reads storage: [`load`] materializes
//! the whole repository, and element ids are dense pre-order, so nothing
//! needs keyed access on disk. A repository is saved as one byte stream
//! over consecutive pages from page 0 (see [`xquec_storage::stream`]): a
//! fixed catalog, then five sections back to back. The catalog holds each
//! section's length, so every section's place in the stream follows.
//!
//! ```text
//! image      := catalog dictionary summary nodes models containers
//! catalog    := magic b"XQUEC06\0", original bytes u64,
//!               object counts u64 x5, section lengths u64 x5
//!               (both in section order; all little-endian)
//! dictionary := (varint len, utf-8 name)*
//! summary    := (u8 kind, varint tag, varint parent)*
//! nodes      := (varint tag, varint id-parent (0: no parent))*
//! models     := (varint len, serialized source model)*
//! containers := (header, varint parent x count, body)*
//! header     := varint path, u8 type (0 str | 1 int | 2 decimal, u8 scale),
//!               u8 mode (0 individual, varint model
//!                       | 1 block, varint plain bytes), varint count
//! body       := (varint len, compressed bytes) x count   (individual)
//!             | varint len, blz blob                      (block)
//! ```
//!
//! Each fact is stored once. Open derives the rest, as the loader does: a
//! node's path is the child element path of its parent's path (the root
//! path for a root) with the node's tag, each node joins its path's
//! extent, a container's leaf kind is its path's kind, and the value refs
//! are the inverse of the containers' parent lists
//! (`StructureTree::attach_values`, which the loader calls too).
//! Source models are stored once per partition set and shared by
//! reference; block containers' blz blobs are written verbatim, each with
//! its values' plain byte total, so open inflates no blob.
//!
//! Loading treats the file as hostile: every field is bounds-checked, every
//! count is capped by the bytes of its section and reserves at most
//! `PREALLOC_BYTES` (32 KiB) up front, and every fact that others are
//! derived from is validated: tree parents must keep the nodes in
//! pre-order, summary parents must precede their children, each node's
//! (parent path, tag) must be a summary element path, container paths must
//! be value leaves in strictly ascending order, and each record's parent
//! must lie on its container's parent path. Individual records are decoded
//! at open; a block blob is first inflated when a read needs its values,
//! and a blob whose frames do not match its parent list or plain total
//! fails that read with a typed `ContainerError`. Every decode failure at
//! open surfaces as a typed [`PersistError`] — never a panic.
//! [`save_to_pager`] and [`load_from_pager`] expose the pager seam so tests
//! can drive the whole path through an in-memory or fault-injecting pager.
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
use crate::structure::TreeBuilder;
use crate::summary::{PathKind, StructureSummary};
use std::path::Path;
use std::sync::Arc;
use xquec_compress::bitio::{read_varint, write_varint};
use xquec_compress::{ValueCodec, MAX_DECODE_OUTPUT};
use xquec_storage::wal::{self, PagerWrap};
use xquec_storage::{
    read_stream, write_stream, BufferPool, FilePager, Journal, PageId, Pager, StorageError,
    PAGE_SIZE,
};

/// Catalog magic; the trailing digit is the image layout's version. Files
/// of an older layout are rejected as corrupt, not read.
const MAGIC: &[u8; 8] = b"XQUEC06\0";
/// The image's sections, in stream order.
const SECTIONS: [&str; 5] = ["dictionary", "summary", "node", "model", "container"];
/// Catalog bytes: magic, original size, then a count and a length per section.
const CATALOG_LEN: usize = 16 + 16 * SECTIONS.len();
/// Most bytes a count read from the file may reserve up front. A count is
/// only capped by its section's bytes, and one byte can claim an object far
/// larger than itself, so longer vectors grow as their objects parse. The
/// cap stays below the largest allocation an honest open makes besides its
/// image buffer (36,864 B at 200 KB XMark), so a hostile count asks for no
/// more at once than the honest image does.
const PREALLOC_BYTES: usize = 32 << 10;

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
    // The catalog's room first; its counts and lengths are filled in once
    // the sections behind it are written. `ends[i]` is where section `i`
    // ends in the image.
    let mut image = vec![0u8; CATALOG_LEN];
    let mut ends = [0usize; SECTIONS.len()];

    for (_, name) in repo.dict.iter() {
        write_varint(&mut image, name.len());
        image.extend_from_slice(name.as_bytes());
    }
    ends[0] = image.len();

    // Summary nodes in id order (children recoverable from parents).
    for p in repo.summary.ids() {
        let node = repo.summary.node(p);
        let (kind, tag) = match node.kind {
            PathKind::Root => (0u8, 0u16),
            PathKind::Element(t) => (1, t.0),
            PathKind::Attribute(t) => (2, t.0),
            PathKind::Text => (3, 0),
        };
        image.push(kind);
        write_varint(&mut image, tag as usize);
        write_varint(&mut image, node.parent.map_or(0, |x| x.0 as usize));
    }
    ends[1] = image.len();

    // Node records in id order; the parent is a backward delta.
    let tree = &repo.tree;
    for i in 0..tree.len() as u32 {
        let id = ElemId(i);
        write_varint(&mut image, tree.tag(id).0 as usize);
        write_varint(&mut image, tree.parent(id).map_or(0, |p| (i - p.0) as usize));
    }
    ends[2] = image.len();

    // Source models, each once (deduplicated by Arc identity), in the order
    // the individual containers first use them.
    let mut model_ids: Vec<*const ValueCodec> = Vec::new();
    for c in repo.containers.iter().filter(|c| c.is_individual()) {
        let ptr = Arc::as_ptr(c.codec());
        if !model_ids.contains(&ptr) {
            let blob = c.codec().serialize();
            write_varint(&mut image, blob.len());
            image.extend_from_slice(&blob);
            model_ids.push(ptr);
        }
    }
    ends[3] = image.len();

    // Containers, each followed by its parents and its records or blob.
    for c in &repo.containers {
        write_varint(&mut image, c.path.0 as usize);
        match c.vtype {
            ValueType::Str => image.push(0),
            ValueType::Int => image.push(1),
            ValueType::Decimal(s) => image.extend_from_slice(&[2, s]),
        }
        if c.is_individual() {
            let ptr = Arc::as_ptr(c.codec());
            let mid = model_ids.iter().position(|&p| p == ptr).expect("every model is written");
            image.push(0);
            write_varint(&mut image, mid);
        } else {
            image.push(1);
            write_varint(&mut image, c.plain_size());
        }
        write_varint(&mut image, c.len());
        for (_, parent) in c.scan() {
            write_varint(&mut image, parent.0 as usize);
        }
        if let Some(blob) = c.block_blob() {
            write_varint(&mut image, blob.len());
            image.extend_from_slice(blob);
        } else {
            for idx in 0..c.len() as u32 {
                let comp = c.compressed(idx)?;
                write_varint(&mut image, comp.len());
                image.extend_from_slice(comp);
            }
        }
    }
    ends[4] = image.len();

    let counts = [
        repo.dict.len(),
        repo.summary.len(),
        repo.tree.len(),
        model_ids.len(),
        repo.containers.len(),
    ];
    let mut start = CATALOG_LEN;
    let lens = ends.map(|end| end - std::mem::replace(&mut start, end));
    let mut catalog = Vec::with_capacity(CATALOG_LEN);
    catalog.extend_from_slice(MAGIC);
    catalog.extend_from_slice(&(repo.original_bytes as u64).to_le_bytes());
    for n in counts.into_iter().chain(lens) {
        catalog.extend_from_slice(&(n as u64).to_le_bytes());
    }
    image[..CATALOG_LEN].copy_from_slice(&catalog);

    let pool = BufferPool::new(pager, 256);
    let first = write_stream(&pool, &image)?;
    debug_assert_eq!(first, PageId(0));
    pool.flush()?;
    Ok(())
}

/// Load a repository saved by [`save`].
pub fn load(path: impl AsRef<Path>) -> Result<Repository, PersistError> {
    let pager = Arc::new(FilePager::open(path.as_ref())?);
    load_from_pager(pager)
}

/// Load a repository through an arbitrary pager. Corrupt input of any shape
/// yields `Err`, never a panic: all counts, offsets and the facts the rest
/// is derived from are validated before use.
pub fn load_from_pager(pager: Arc<dyn Pager>) -> Result<Repository, PersistError> {
    let pool = BufferPool::new(pager, 256);
    let page_count = pool.page_count();
    if page_count == 0 {
        return corrupt("empty store has no catalog page");
    }
    // The image is one stream from page 0; read every page of the store
    // once, and slice the sections out of that one buffer.
    let image = read_stream(&pool, PageId(0), page_count.saturating_mul(PAGE_SIZE as u64))?;

    let mut r = Reader::new(&image[..CATALOG_LEN], "catalog");
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
    let [n_names, n_paths, n_nodes, n_models, n_containers] = counts.map(|n| n as usize);
    // The sections lie back to back behind the catalog, inside the image.
    let mut sections = [&image[..0]; SECTIONS.len()];
    let mut at = CATALOG_LEN;
    for (section, &len) in sections.iter_mut().zip(&lens) {
        let end = usize::try_from(len)
            .ok()
            .and_then(|len| at.checked_add(len))
            .filter(|&end| end <= image.len())
            .map_or_else(|| corrupt("section lengths run past the end of the image"), Ok)?;
        *section = &image[at..end];
        at = end;
    }

    // Dictionary.
    let r = &mut Reader::new(sections[0], SECTIONS[0]);
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

    // Summary: each node's parent precedes it, so interning them in id order
    // gives back the same ids.
    let r = &mut Reader::new(sections[1], SECTIONS[1]);
    let mut summary = StructureSummary::new();
    for i in 0..n_paths {
        let kind = r.u8()?;
        let tag = TagCode(r.varint_as()?);
        let parent_raw: u32 = r.varint_as()?;
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
    }
    if summary.len() != n_paths {
        return corrupt(format!("expected {n_paths} summary nodes, found {}", summary.len()));
    }
    r.finish()?;

    // Node records: ids are dense pre-order, so each node's parent is the
    // node before it or one of that node's ancestors. The builder checks
    // this first, since subtree ranges are only right for a pre-order
    // sequence. A node's path is then its parent's path (the root path for
    // a root) stepped down by its tag, and the node joins that path's
    // extent.
    let r = &mut Reader::new(sections[2], SECTIONS[2]);
    if n_nodes > u32::MAX as usize {
        return corrupt(format!("{n_nodes} nodes exceed the id space"));
    }
    let mut tree = TreeBuilder::new();
    tree.reserve(n_nodes.min(PREALLOC_BYTES / 4));
    for id in 0..n_nodes {
        let tag = TagCode(r.varint_as()?);
        let parent = match r.varint()? {
            0 => None,
            d if d <= id => Some(ElemId((id - d) as u32)),
            d => return corrupt(format!("node {id} claims a parent {d} ids back")),
        };
        let path = summary.child_element(parent.map_or(summary.root(), |p| tree.path(p)), tag);
        match (tree.push(tag, parent, path.unwrap_or(summary.root())), path) {
            (Some(elem), Some(path)) => summary.record(path, elem),
            (None, _) => {
                return corrupt(format!(
                    "node {id} hangs off node {}, which is not an ancestor of node {}",
                    parent.map_or(0, |p| p.0),
                    id - 1
                ))
            }
            (Some(_), None) => {
                return corrupt(format!("node {id}'s tag {} has no path under its parent's", tag.0))
            }
        }
    }
    r.finish()?;
    let mut tree = tree.finish();

    // Models.
    let r = &mut Reader::new(sections[3], SECTIONS[3]);
    let mut models: Vec<Arc<ValueCodec>> = prealloc(n_models);
    for _ in 0..n_models {
        let len = r.varint()?;
        let codec = ValueCodec::deserialize(r.bytes(len)?)
            .ok_or_else(|| PersistError::Corrupt("source model blob does not parse".into()))?;
        models.push(Arc::new(codec));
    }
    r.finish()?;

    // Containers: each on its own value leaf, in ascending path order, as
    // the loader numbers them. Each record's parent must be an element of
    // the leaf's parent path, so the value refs derived from these parent
    // lists point from elements to their own leaves.
    let r = &mut Reader::new(sections[4], SECTIONS[4]);
    let mut containers: Vec<Container> = prealloc(n_containers);
    let mut n_values = 0usize;
    for ci in 0..n_containers {
        let path = PathId(r.varint_as()?);
        if let Some(prev) = containers.last().map(|c| c.path).filter(|&prev| path <= prev) {
            return corrupt(format!(
                "container {ci} names summary path {} after path {}",
                path.0, prev.0
            ));
        }
        if path.0 as usize >= summary.len() {
            return corrupt(format!("container {ci} names summary path {}", path.0));
        }
        let leaf_path = summary.node(path);
        let leaf = match leaf_path.kind {
            PathKind::Attribute(t) => ContainerLeaf::Attribute(t),
            PathKind::Text => ContainerLeaf::Text,
            _ => return corrupt(format!("container {ci} names path {}, no value leaf", path.0)),
        };
        let parent_path = leaf_path.parent;
        let vtype = match r.u8()? {
            0 => ValueType::Str,
            1 => ValueType::Int,
            2 => ValueType::Decimal(r.u8()?),
            k => return corrupt(format!("vtype {k}")),
        };
        // An individual container's model, or a block container's plain total.
        let (codec, plain_bytes) = match r.u8()? {
            0 => match models.get(r.varint()?) {
                Some(model) => (Some(model.clone()), 0),
                None => return corrupt("model id out of range"),
            },
            // No blob inflates past the decode bound, so neither may its
            // total, which `plain_size()` hands out before any read checks it.
            1 => match r.varint()? {
                plain if plain <= MAX_DECODE_OUTPUT => (None, plain),
                plain => return corrupt(format!("container {ci} claims {plain} plain bytes")),
            },
            k => return corrupt(format!("container {ci} storage mode {k}")),
        };
        // Each record's parent takes at least one byte.
        let count = r.varint()?;
        if count > r.remaining() {
            return corrupt(format!("container {ci} claims {count} records"));
        }
        n_values += count;
        if n_values > u32::MAX as usize {
            return corrupt(format!("container {ci} holds more values than a tree can hold"));
        }
        let mut parents = prealloc(count);
        for _ in 0..count {
            let parent: u32 = r.varint_as()?;
            if (parent as usize) >= n_nodes || Some(tree.path(ElemId(parent))) != parent_path {
                return corrupt(format!(
                    "container {ci} record parent {parent} is not on its leaf's parent path"
                ));
            }
            parents.push(ElemId(parent));
        }

        let cid = ContainerId(ci as u32);
        summary.set_container(path, cid);
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
                Container::from_block_parts(cid, path, leaf, vtype, blob, plain_bytes, parents)
            }
        };
        containers.push(c);
    }
    r.finish()?;
    tree.attach_values(&containers);

    Ok(Repository { dict, tree, summary, containers, original_bytes })
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::loader::{load_with, LoaderOptions, WorkloadSpec};
    use crate::query::Engine;
    use crate::workload::PredOp;
    use std::ops::Range;
    use xquec_compress::blz::BlockHeader;
    use xquec_storage::{FaultPager, FaultPlan, MemPager};

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
        let opts = LoaderOptions { workload: Some(crate::queries::xmark_workload()), threads: 1 };
        load_with(&xml, &opts).unwrap()
    }

    /// Bytes on disk are a machine-independent counter: the saved page count
    /// of a fixed document is pinned exactly. A layout change that moves it
    /// updates the count and says why in CHANGES.md.
    #[test]
    fn saved_page_count_is_pinned() {
        let pager = Arc::new(MemPager::new());
        save_to_pager(&xmark_200k_seed_1(), pager.clone()).unwrap();
        assert_eq!(pager.page_count(), 12);
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
        let opts = LoaderOptions { workload: Some(crate::queries::xmark_workload()), threads: 1 };
        let repo = load_with(&xml, &opts).unwrap();
        let pager = Arc::new(FaultPager::new(MemPager::new(), FaultPlan::none()));
        save_to_pager(&repo, pager.clone()).unwrap();
        let pages = pager.page_count();
        assert!(pages > 30, "{pages} pages");
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

    /// Catalog offsets of section `i`'s object count and byte length.
    fn count_at(i: usize) -> usize {
        16 + 8 * i
    }
    fn len_at(i: usize) -> usize {
        16 + 8 * (SECTIONS.len() + i)
    }

    fn get_u64(image: &[u8], at: usize) -> u64 {
        u64::from_le_bytes(image[at..at + 8].try_into().unwrap())
    }

    /// The byte range of section `i` in `image`, by the catalog's lengths.
    fn section(image: &[u8], i: usize) -> Range<usize> {
        let len = |j| get_u64(image, len_at(j)) as usize;
        let start = CATALOG_LEN + (0..i).map(len).sum::<usize>();
        start..start + len(i)
    }

    /// The saved image of `repo`: the catalog and the five sections, without
    /// the last page's padding.
    fn image_of(repo: &Repository) -> Vec<u8> {
        let pager = Arc::new(MemPager::new());
        save_to_pager(repo, pager.clone()).unwrap();
        let pool = BufferPool::new(pager.clone(), 16);
        let mut image =
            read_stream(&pool, PageId(0), pager.page_count() * PAGE_SIZE as u64).unwrap();
        image.truncate(section(&image, SECTIONS.len() - 1).end);
        image
    }

    /// The image of a small XMark document loaded with default options.
    fn small_image() -> Vec<u8> {
        let xml = xquec_xml::gen::Dataset::Xmark.generate(20_000);
        image_of(&load_with(&xml, &LoaderOptions::default()).unwrap())
    }

    /// A store holding `image`.
    fn store_of(image: &[u8]) -> Arc<MemPager> {
        let pager = Arc::new(MemPager::new());
        let pool = BufferPool::new(pager.clone(), 16);
        write_stream(&pool, image).unwrap();
        pool.flush().unwrap();
        pager
    }

    /// A store holding `image` with the catalog's u64 at `at` set to `v`.
    fn store_with_u64(image: &[u8], at: usize, v: u64) -> Arc<MemPager> {
        let mut image = image.to_vec();
        image[at..at + 8].copy_from_slice(&v.to_le_bytes());
        store_of(&image)
    }

    /// `image` with its bytes `range` replaced by `with`; the range lies in
    /// section `i`, whose length in the catalog follows the edit.
    fn spliced(image: &[u8], i: usize, range: Range<usize>, with: &[u8]) -> Vec<u8> {
        let len = section(image, i).len() - range.len() + with.len();
        let mut out = image.to_vec();
        out.splice(range, with.iter().copied());
        out[len_at(i)..len_at(i) + 8].copy_from_slice(&(len as u64).to_le_bytes());
        out
    }

    fn varint_bytes(v: usize) -> Vec<u8> {
        let mut out = Vec::new();
        write_varint(&mut out, v);
        out
    }

    /// The varint at `*pos` in `image`, with its byte range; `*pos` moves past it.
    fn varint_at(image: &[u8], pos: &mut usize) -> (Range<usize>, usize) {
        let (v, used) = read_varint(&image[*pos..]).unwrap();
        *pos += used;
        (*pos - used..*pos, v)
    }

    fn open_error(pager: Arc<MemPager>, why: &str) -> String {
        match load_from_pager(pager) {
            Err(PersistError::Corrupt(m)) => m,
            other => panic!("{why}: expected Corrupt, got {:?}", other.map(|r| r.tree.len())),
        }
    }

    fn assert_corrupt(pager: Arc<MemPager>, why: &str) {
        open_error(pager, why);
    }

    #[test]
    fn previous_layout_magic_is_corrupt() {
        for magic in [b"XQUEC03\0", b"XQUEC04\0", b"XQUEC05\0"] {
            let mut image = small_image();
            image[..8].copy_from_slice(magic);
            assert_corrupt(store_of(&image), &String::from_utf8_lossy(magic));
        }
    }

    #[test]
    fn section_length_past_the_image_is_corrupt() {
        let image = small_image();
        for len in [1 << 32, u64::MAX / 2, u64::MAX] {
            for (i, what) in SECTIONS.iter().enumerate() {
                let pager = store_with_u64(&image, len_at(i), len);
                assert_corrupt(pager, &format!("{what} section of {len} bytes"));
            }
        }
        // One byte past the image's last page.
        let last = SECTIONS.len() - 1;
        let room = image.len().div_ceil(PAGE_SIZE) * PAGE_SIZE - image.len();
        let len = get_u64(&image, len_at(last)) + room as u64 + 1;
        let why = "container section one byte past the last page";
        assert_corrupt(store_with_u64(&image, len_at(last), len), why);
    }

    #[test]
    fn count_beyond_its_section_bytes_is_corrupt() {
        let image = small_image();
        for (i, what) in SECTIONS.iter().enumerate() {
            let len = get_u64(&image, len_at(i));
            let with_count = |n| store_with_u64(&image, count_at(i), n);
            assert_corrupt(with_count(len + 1), &format!("{what} count past its bytes"));
            // A count equal to its bytes passes the catalog check; every
            // object of a non-empty section takes more than one byte.
            if len > 0 {
                assert_corrupt(with_count(len), &format!("{what} count equal to its bytes"));
            }
            assert_corrupt(with_count(u64::MAX), &format!("{what} count u64::MAX"));
        }
    }

    /// 200 KB XMark saved with its largest block container's plain total
    /// replaced by `plain(total)` and its blz blob by `edit(blob)`, and that
    /// container's id. The catalog follows the edits, so only the
    /// container's own fields are damaged.
    fn store_with_edited_block(
        plain: impl FnOnce(usize) -> usize,
        edit: impl FnOnce(&[u8]) -> Vec<u8>,
    ) -> (Arc<MemPager>, ContainerId) {
        let repo = xmark_200k_seed_1();
        let image = image_of(&repo);
        let c = repo.containers.iter().filter(|c| !c.is_individual());
        let c = c.max_by_key(|c| c.compressed_size()).unwrap();
        let fields = container_fields(&image).swap_remove(c.id.0 as usize);
        let (total, blob) = (fields.plain.unwrap(), fields.body);
        let framed = varint_bytes(c.compressed_size());
        assert_eq!(image[blob.start..blob.start + framed.len()], framed[..], "the blob's length");
        assert_eq!(image[blob.start + framed.len()..blob.end], *c.block_blob().unwrap());
        assert_eq!(image[total.clone()], varint_bytes(c.plain_size())[..], "the plain total");
        // The blob lies behind the plain total, so edit it first.
        let edited = edit(&image[blob.start + framed.len()..blob.end]);
        let mut with = varint_bytes(edited.len());
        with.extend_from_slice(&edited);
        let image = spliced(&image, 4, blob, &with);
        let image = spliced(&image, 4, total, &varint_bytes(plain(c.plain_size())));
        (store_of(&image), c.id)
    }

    /// The header of a blob's first block (after the blob's total), and
    /// the offset just past it (where the Huffman code lengths start).
    fn blob_header(blob: &[u8]) -> (BlockHeader, usize) {
        let mut pos = read_varint(blob).unwrap().1;
        (BlockHeader::read(blob, &mut pos).unwrap(), pos)
    }

    /// The entry rows of a block header: its rows after `primary`.
    fn entries(h: &mut BlockHeader) -> &mut [usize] {
        &mut h.rows[1..xquec_compress::bwt::walks(h.len)]
    }

    /// The blob with its first block's header changed by `f`.
    fn with_header(blob: &[u8], f: impl Fn(&mut BlockHeader)) -> Vec<u8> {
        let total = read_varint(blob).unwrap().1;
        let (mut h, end) = blob_header(blob);
        f(&mut h);
        let mut out = blob[..total].to_vec();
        h.write(&mut out);
        out.extend_from_slice(&blob[end..]);
        out
    }

    #[test]
    fn relaid_image_with_the_blob_unchanged_reopens() {
        let relaid = |b: &[u8]| {
            // What the entry-row cases below need: two distinct entry
            // rows, and room in their bits for a row past the block.
            let mut h = blob_header(b).0;
            let (len, primary) = (h.len, h.rows[0]);
            let e = entries(&mut h);
            assert!(e.len() >= 2 && e[0] != e[1], "{e:?}");
            let last = e[e.len() - 1];
            assert!(last < len && last + 1 != primary, "last entry row {last}");
            let past = with_header(b, |h| entries(h)[0] = h.len + 1);
            assert_eq!(entries(&mut blob_header(&past).0)[0], len + 1, "block of {len} bytes");
            with_header(b, |_| {})
        };
        let (pager, cid) = store_with_edited_block(|total| total, relaid);
        let revived = load_from_pager(pager).unwrap();
        assert_eq!(revived.size_report(), xmark_200k_seed_1().size_report());
        let query = revived.container_path_string(cid);
        revived.container(cid).decompress_all().unwrap();
        Engine::new(&revived).run(&query).unwrap();
    }

    /// A change to a blz blob.
    type BlobEdit = fn(&[u8]) -> Vec<u8>;

    /// Open inflates no blob, so a damaged block container opens, and the
    /// first read of its values fails with a typed error naming the check:
    /// `decompress_all`, and a query that reads the container.
    fn assert_fails_at_first_read(store: (Arc<MemPager>, ContainerId), why: &str, check: &str) {
        let (pager, cid) = store;
        let revived = load_from_pager(pager).unwrap_or_else(|e| panic!("{why}: open: {e}"));
        let m = revived.container(cid).decompress_all().unwrap_err().to_string();
        assert!(m.contains(check), "{why}: decompress_all: {m}");
        let query = revived.container_path_string(cid);
        let m = Engine::new(&revived).run(&query).unwrap_err().to_string();
        assert!(m.contains(check), "{why}: {query}: {m}");
    }

    #[test]
    fn damaged_block_blob_fails_at_first_read() {
        // Each case with the part of its message that names the check.
        let cases: [(&str, &str, BlobEdit); 12] = [
            ("primary 0", "outside the block", |b| with_header(b, |h| h.rows[0] = 0)),
            ("primary past the block", "outside the block", |b| {
                with_header(b, |h| h.rows[0] = h.len + 1)
            }),
            ("entry row past the block", "inverse BWT rejects", |b| {
                with_header(b, |h| entries(h)[0] = h.len + 1)
            }),
            ("entry row on the sentinel's row", "inverse BWT rejects", |b| {
                with_header(b, |h| entries(h)[1] = h.rows[0])
            }),
            ("two entry rows swapped", "inverse BWT rejects", |b| {
                with_header(b, |h| entries(h).swap(0, 1))
            }),
            // Only the last walk's end meets the damage.
            ("last entry row one off", "inverse BWT rejects", |b| {
                with_header(b, |h| *entries(h).last_mut().unwrap() += 1)
            }),
            ("rle length one over", "output exceeds bound", |b| with_header(b, |h| h.rle_len += 1)),
            ("rle length one under", "short of the block", |b| with_header(b, |h| h.rle_len -= 1)),
            ("rle length at its bound over a small payload", "output exceeds bound", |b| {
                with_header(b, |h| h.rle_len = 2 * xquec_compress::blz::BLOCK_SIZE)
            }),
            ("first payload bit flipped", "blz stream", |b| {
                // Past the header and the 256 code lengths.
                let pos = blob_header(b).1 + 256;
                let mut out = b.to_vec();
                out[pos] ^= 0x80;
                out
            }),
            ("one value fewer than parents", "values but", |b| {
                let plain = xquec_compress::blz::decompress(b).unwrap();
                let (mut pos, mut last) = (0, 0);
                while pos < plain.len() {
                    let (len, used) = read_varint(&plain[pos..]).unwrap();
                    last = pos;
                    pos += used + len;
                }
                xquec_compress::blz::compress(&plain[..last])
            }),
            // A few hundred bytes that frame a million empty values.
            ("empty values past the parents", "more values than", |_| {
                xquec_compress::blz::compress(&vec![0u8; 1 << 20])
            }),
        ];
        for (why, check, edit) in cases {
            assert_fails_at_first_read(store_with_edited_block(|total| total, edit), why, check);
        }
        let off_by_one = store_with_edited_block(|total| total + 1, <[u8]>::to_vec);
        assert_fails_at_first_read(off_by_one, "plain total one over", "plain bytes but");
    }

    /// The plain total is read at open, so a container section that ends
    /// inside it, or a total past the decode bound, is corrupt there.
    #[test]
    fn truncated_or_unbounded_plain_total_is_corrupt_at_open() {
        let image = image_of(&xmark_200k_seed_1());
        let fields = container_fields(&image);
        let total = fields.iter().find_map(|f| f.plain.clone()).unwrap();
        let end = section(&image, 4).end;
        // A continuation byte with nothing behind it.
        let m = open_error(store_of(&spliced(&image, 4, total.start..end, &[0x80])), "cut total");
        assert!(m.contains("container section truncated"), "{m}");
        let past = varint_bytes(MAX_DECODE_OUTPUT + 1);
        let m = open_error(store_of(&spliced(&image, 4, total, &past)), "total past the bound");
        assert!(m.contains(&format!("claims {} plain bytes", MAX_DECODE_OUTPUT + 1)), "{m}");
    }

    /// The `[tag, parent delta]` fields of the first `k` node records of
    /// `image`, each as its byte range in the image and its value.
    fn node_fields(image: &[u8], k: usize) -> Vec<[(Range<usize>, usize); 2]> {
        let mut pos = section(image, 2).start;
        (0..k).map(|_| [varint_at(image, &mut pos), varint_at(image, &mut pos)]).collect()
    }

    #[test]
    fn parent_delta_before_the_first_node_is_corrupt() {
        let mut image = small_image();
        let [_, (delta, d)] = node_fields(&image, 1).remove(0);
        assert_eq!((delta.len(), d), (1, 0), "the root record has no parent");
        image[delta.start] = 1;
        assert_corrupt(store_of(&image), "root parent one id back");
    }

    /// Subtree ranges are only right for nodes in pre-order: each node's
    /// parent must be the node before it or one of that node's ancestors.
    /// Each edited parent delta still points backwards, and the tag edit
    /// keeps node 2 on a summary path, so only the order is wrong.
    #[test]
    fn nodes_out_of_pre_order_are_corrupt() {
        let image = small_image();
        let nodes = node_fields(&image, 4);
        // Control: the image rewritten unchanged reopens.
        let deltas: Vec<usize> = nodes.iter().map(|[_, d]| d.1).collect();
        assert_eq!(deltas, [0, 1, 1, 1], "a chain of four nodes");
        load_from_pager(store_of(&image)).unwrap();
        // Node 2 now hangs off node 0 with node 1's tag, which closes node
        // 1's subtree, and node 3 then claims node 1 as its parent.
        let mut edited = image.clone();
        assert_eq!((nodes[1][0].0.len(), nodes[2][0].0.len()), (1, 1), "one-byte tags");
        edited[nodes[2][0].0.start] = image[nodes[1][0].0.start];
        edited[nodes[2][1].0.start] = 2;
        edited[nodes[3][1].0.start] = 2;
        let m = open_error(store_of(&edited), "nodes out of pre-order");
        assert!(m.contains("node 3 hangs off node 1"), "{m}");
    }

    /// A node's path is derived from its parent's path and its tag, so a
    /// tag that has no element path under its parent's is corrupt.
    #[test]
    fn node_without_a_summary_path_is_corrupt() {
        let mut image = small_image();
        let nodes = node_fields(&image, 2);
        // The document element's tag under the document element.
        assert_eq!((nodes[0][0].0.len(), nodes[1][0].0.len()), (1, 1), "one-byte tags");
        image[nodes[1][0].0.start] = image[nodes[0][0].0.start];
        let m = open_error(store_of(&image), "node 1 with its parent's tag");
        assert!(m.contains("node 1's tag") && m.contains("no path"), "{m}");
    }

    /// The byte ranges of one container's fields in an image.
    struct ContainerFields {
        path: Range<usize>,
        /// A block container's plain total.
        plain: Option<Range<usize>>,
        first_parent: Range<usize>,
        /// The records, or the blob behind its length.
        body: Range<usize>,
    }

    /// The fields of each container of `image`, in container order.
    fn container_fields(image: &[u8]) -> Vec<ContainerFields> {
        let end = section(image, 4).end;
        let mut pos = section(image, 4).start;
        let mut out = Vec::new();
        while pos < end {
            let path = varint_at(image, &mut pos).0;
            pos += if image[pos] == 2 { 2 } else { 1 }; // value type (+ scale)
            let individual = image[pos] == 0;
            pos += 1;
            // The model, or the plain total.
            let field = varint_at(image, &mut pos).0;
            let plain = (!individual).then_some(field);
            let count = varint_at(image, &mut pos).1;
            let parents: Vec<Range<usize>> =
                (0..count).map(|_| varint_at(image, &mut pos).0).collect();
            let body = pos;
            for _ in 0..if individual { count } else { 1 } {
                pos += varint_at(image, &mut pos).1;
            }
            let first_parent = parents[0].clone();
            out.push(ContainerFields { path, plain, first_parent, body: body..pos });
        }
        out
    }

    /// `image` with container `ci`'s path set to `path`.
    fn with_container_path(image: &[u8], ci: usize, path: usize) -> Arc<MemPager> {
        let range = container_fields(image).swap_remove(ci).path;
        store_of(&spliced(image, 4, range, &varint_bytes(path)))
    }

    #[test]
    fn container_on_a_non_leaf_path_is_corrupt() {
        let image = small_image();
        // Path 1 is the document element's.
        let m = open_error(with_container_path(&image, 0, 1), "container 0 on path 1");
        assert!(m.contains("no value leaf"), "{m}");
    }

    /// Container ids follow path order, one container per value leaf.
    #[test]
    fn containers_sharing_a_path_or_out_of_path_order_are_corrupt() {
        let image = small_image();
        let fields = container_fields(&image);
        assert_eq!(fields.len(), get_u64(&image, count_at(4)) as usize);
        let first = read_varint(&image[fields[0].path.clone()]).unwrap().0;
        let cases = [(first, "two containers on one path"), (0, "containers out of path order")];
        for (path, why) in cases {
            let m = open_error(with_container_path(&image, 1, path), why);
            let want = format!("container 1 names summary path {path} after path {first}");
            assert!(m.contains(&want), "{why}: {m}");
        }
    }

    /// A record's parent must be an element of its leaf's parent path; the
    /// document element is no parent of any leaf of the small image.
    #[test]
    fn record_parent_off_its_containers_parent_path_is_corrupt() {
        let image = small_image();
        let parent = container_fields(&image).swap_remove(0).first_parent;
        let m = open_error(store_of(&spliced(&image, 4, parent, &[0])), "record parent 0");
        assert!(m.contains("container 0 record parent 0 is not on its leaf's parent path"), "{m}");
    }
}
