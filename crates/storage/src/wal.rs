//! Journaled atomic commit for file-backed stores.
//!
//! A save that overwrites pages in place can be interrupted half-way —
//! a crash or failed sync then leaves neither the old nor the new store
//! readable. This module provides the classic redo-journal protocol that
//! makes a full-store rewrite atomic at every write/sync boundary:
//!
//! 1. **Stage.** The complete new image is written to a sidecar journal
//!    store `<path>.wal` (itself an ordinary checksummed v2 page file).
//!    Journal page 0 is reserved for the commit record and stays zeroed;
//!    image page *i* lives at journal page *i + 1*. The main store is not
//!    touched.
//! 2. **Commit.** The journal is synced, a checksummed [`CommitRecord`]
//!    (magic, image page count, CRC-32 of the concatenated image payloads)
//!    is written into journal page 0, and the journal is synced again. The
//!    durability of that record is the commit point.
//! 3. **Apply.** Only now is the main file truncated and rewritten from
//!    the journal, synced, and the journal deleted.
//!
//! [`recover`] (run automatically by [`FilePager::open`]) inspects the
//! sidecar on open: a journal with a valid commit record is re-applied
//! (redo is idempotent, so recovery itself may crash and be restarted any
//! number of times); a journal without one is discarded, leaving the
//! pre-save image. Every crash point therefore resolves to exactly the
//! old or the new store — never a torn hybrid.
//!
//! All durable operations flow through the [`Pager`] trait, so tests wrap
//! both stores in [`crate::FaultPager`] (via the `wrap` hook on
//! [`recover_with`]) and sweep a [`crate::CrashPoint`] across every
//! write/sync index of a save.

use crate::checksum::Crc32;
use crate::error::{Result, StorageError};
use crate::page::{Page, PageId};
use crate::pager::{FilePager, Pager};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use xquec_obs::counter;

/// Magic bytes opening a valid commit record (journal page 0).
const COMMIT_MAGIC: [u8; 8] = *b"XQWAL1\0\0";

/// Hook type letting callers interpose on every pager the commit/recovery
/// protocol opens (e.g. wrapping both the journal and the main store in a
/// fault-injecting pager that shares one crash budget).
pub type PagerWrap = dyn Fn(Arc<dyn Pager>) -> Arc<dyn Pager>;

/// The checksummed record whose durability is the commit point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CommitRecord {
    /// Number of image pages staged in the journal (journal pages 1..=n).
    pub pages: u64,
    /// CRC-32 over the concatenated payloads of image pages 0..n, in order.
    pub image_crc: u32,
}

/// Sidecar journal path for a store at `path`: the same file name with
/// `.wal` appended (`repo.xqc` → `repo.xqc.wal`).
pub fn wal_path(path: &Path) -> PathBuf {
    let mut os = path.as_os_str().to_owned();
    os.push(".wal");
    PathBuf::from(os)
}

fn encode_commit(rec: &CommitRecord) -> Page {
    let mut p = Page::new();
    p.write_at(0, &COMMIT_MAGIC);
    p.put_u64(8, rec.pages);
    p.put_u32(16, rec.image_crc);
    let crc = crate::checksum::crc32(p.slice(0, 20));
    p.put_u32(20, crc);
    p
}

enum RecordState {
    /// Page 0 is still all-zero: the record was never written.
    Empty,
    /// A well-formed, self-checksummed record.
    Valid(CommitRecord),
    /// Readable but not a record: at-rest corruption or a foreign file.
    Invalid,
}

fn decode_commit(p: &Page) -> RecordState {
    if p.bytes().iter().all(|&b| b == 0) {
        return RecordState::Empty;
    }
    if p.slice(0, 8) != COMMIT_MAGIC {
        return RecordState::Invalid;
    }
    if crate::checksum::crc32(p.slice(0, 20)) != p.get_u32(20) {
        return RecordState::Invalid;
    }
    RecordState::Valid(CommitRecord { pages: p.get_u64(8), image_crc: p.get_u32(16) })
}

/// A staging transaction over a journal store.
///
/// [`Journal::begin`] reserves page 0 for the commit record; the image is
/// built through [`Journal::staging`], and [`Journal::commit`] makes it
/// durable. Nothing outside the journal store is modified.
pub struct Journal {
    wal: Arc<dyn Pager>,
}

impl Journal {
    /// Start staging into the (empty) journal store `wal`.
    pub fn begin(wal: Arc<dyn Pager>) -> Result<Self> {
        if wal.page_count() != 0 {
            return Err(StorageError::corrupt("journal store is not empty"));
        }
        // Page 0 stays zeroed (= "not committed") until commit().
        let p0 = wal.allocate()?;
        debug_assert_eq!(p0, PageId(0));
        Ok(Journal { wal })
    }

    /// A pager view of the staged image: image page `i` is journal page
    /// `i + 1`, so the image writer sees a dense store starting at page 0.
    pub fn staging(&self) -> Arc<dyn Pager> {
        Arc::new(Staging { wal: self.wal.clone() })
    }

    /// Durably commit the staged image: sync the pages, write the
    /// checksummed commit record into page 0, sync again. After this
    /// returns, [`committed`] on the journal yields the record.
    pub fn commit(&self) -> Result<CommitRecord> {
        self.wal.sync()?;
        let pages = self.wal.page_count().saturating_sub(1);
        let mut crc = Crc32::new();
        let mut page = Page::new();
        for i in 0..pages {
            self.wal.read_page(PageId(i + 1), &mut page)?;
            crc.update(page.bytes());
        }
        let rec = CommitRecord { pages, image_crc: crc.finish() };
        self.wal.write_page(PageId(0), &encode_commit(&rec))?;
        self.wal.sync()?;
        counter!("storage.wal.commit").inc();
        Ok(rec)
    }
}

/// Offset-by-one view mapping image page ids onto journal page ids.
struct Staging {
    wal: Arc<dyn Pager>,
}

impl Pager for Staging {
    fn read_page(&self, id: PageId, out: &mut Page) -> Result<()> {
        self.wal.read_page(PageId(id.0 + 1), out)
    }

    fn write_page(&self, id: PageId, page: &Page) -> Result<()> {
        self.wal.write_page(PageId(id.0 + 1), page)
    }

    fn allocate(&self) -> Result<PageId> {
        let id = self.wal.allocate()?;
        if id.0 == 0 {
            return Err(StorageError::corrupt("journal commit page was never reserved"));
        }
        Ok(PageId(id.0 - 1))
    }

    fn page_count(&self) -> u64 {
        self.wal.page_count().saturating_sub(1)
    }

    fn sync(&self) -> Result<()> {
        self.wal.sync()
    }
}

/// Inspect a journal store for a durable commit record.
///
/// Returns `Ok(None)` when the journal is affirmatively *uncommitted*: no
/// pages yet, a still-zeroed record page, or a record page whose checksum
/// shows a torn write (the record is written after the image pages are
/// synced, so an unreadable record can only mean the commit point was not
/// reached). A readable record that is malformed or inconsistent with the
/// journal's own page count is at-rest corruption and surfaces as an
/// error so callers do not silently discard a committed image.
pub fn committed(wal: &dyn Pager) -> Result<Option<CommitRecord>> {
    if wal.page_count() == 0 {
        return Ok(None);
    }
    let mut p0 = Page::new();
    match wal.read_page(PageId(0), &mut p0) {
        Ok(()) => {}
        // A torn record write: pre-commit crash.
        Err(StorageError::ChecksumMismatch { .. } | StorageError::Corrupt { .. }) => {
            return Ok(None)
        }
        Err(e) => return Err(e),
    }
    match decode_commit(&p0) {
        RecordState::Empty => Ok(None),
        RecordState::Invalid => {
            Err(StorageError::corrupt_at(0, "journal commit record is malformed"))
        }
        RecordState::Valid(rec) => {
            if rec.pages != wal.page_count().saturating_sub(1) {
                return Err(StorageError::corrupt_at(
                    0,
                    format!(
                        "commit record names {} image pages, journal holds {}",
                        rec.pages,
                        wal.page_count().saturating_sub(1)
                    ),
                ));
            }
            Ok(Some(rec))
        }
    }
}

/// Redo a committed journal into `main`, which must be an empty store.
/// Verifies the image checksum named by the commit record and syncs the
/// target. Idempotent from scratch: if it fails part-way, recreating the
/// target and re-applying yields the same result.
pub fn apply(wal: &dyn Pager, rec: &CommitRecord, main: &dyn Pager) -> Result<()> {
    if main.page_count() != 0 {
        return Err(StorageError::corrupt("journal apply target is not empty"));
    }
    let mut crc = Crc32::new();
    let mut page = Page::new();
    for i in 0..rec.pages {
        wal.read_page(PageId(i + 1), &mut page)?;
        crc.update(page.bytes());
        let id = main.allocate()?;
        debug_assert_eq!(id.0, i);
        main.write_page(id, &page)?;
    }
    if crc.finish() != rec.image_crc {
        return Err(StorageError::corrupt("journal image checksum mismatch"));
    }
    main.sync()
}

/// Best-effort fsync of `path`'s parent directory, so the creation or
/// removal of a sidecar journal survives power loss. Platforms that cannot
/// open a directory simply skip it — the protocol stays old-or-new either
/// way because redo is idempotent.
pub fn sync_parent_dir(path: &Path) {
    let parent = match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => p,
        _ => Path::new("."),
    };
    if let Ok(dir) = std::fs::File::open(parent) {
        let _ = dir.sync_all();
    }
}

/// Run crash recovery for the store at `path`: complete a committed
/// journal, discard an uncommitted one. Returns `true` when a committed
/// journal was applied. [`FilePager::open`] calls this automatically.
pub fn recover(path: &Path) -> Result<bool> {
    recover_with(path, &|p| p)
}

/// [`recover`], with every pager the protocol opens passed through `wrap`
/// first (fault-injection seam: tests wrap both stores in
/// [`crate::FaultPager`] to sweep crash points through recovery itself).
pub fn recover_with(path: &Path, wrap: &PagerWrap) -> Result<bool> {
    let wp = wal_path(path);
    if std::fs::metadata(&wp).is_err() {
        return Ok(false);
    }
    let wal = match FilePager::open_raw(&wp) {
        Ok(w) => wrap(Arc::new(w)),
        Err(StorageError::BadHeader { .. }) => {
            // Torn mid-staging: the journal never reached its commit
            // record, so the main store is still the untouched old image.
            std::fs::remove_file(&wp)?;
            counter!("storage.wal.recovery_discarded").inc();
            return Ok(false);
        }
        Err(e) => return Err(e),
    };
    match committed(&*wal)? {
        Some(rec) => {
            let main = wrap(Arc::new(FilePager::create(path)?));
            apply(&*wal, &rec, &*main)?;
            drop(main);
            drop(wal);
            std::fs::remove_file(&wp)?;
            sync_parent_dir(path);
            counter!("storage.wal.recovery_applied").inc();
            Ok(true)
        }
        None => {
            drop(wal);
            std::fs::remove_file(&wp)?;
            counter!("storage.wal.recovery_discarded").inc();
            Ok(false)
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::pager::MemPager;

    fn fill(staging: &dyn Pager, seeds: &[u64]) {
        for &s in seeds {
            let id = staging.allocate().unwrap();
            let mut p = Page::new();
            p.put_u64(0, s);
            staging.write_page(id, &p).unwrap();
        }
    }

    #[test]
    fn stage_commit_apply_roundtrip() {
        let wal: Arc<dyn Pager> = Arc::new(MemPager::new());
        let j = Journal::begin(wal.clone()).unwrap();
        fill(&*j.staging(), &[11, 22, 33]);
        assert!(committed(&*wal).unwrap().is_none(), "not committed before commit()");
        let rec = j.commit().unwrap();
        assert_eq!(rec.pages, 3);
        assert_eq!(committed(&*wal).unwrap(), Some(rec));

        let main = MemPager::new();
        apply(&*wal, &rec, &main).unwrap();
        let mut p = Page::new();
        main.read_page(PageId(1), &mut p).unwrap();
        assert_eq!(p.get_u64(0), 22);
        assert_eq!(main.page_count(), 3);
    }

    #[test]
    fn zeroed_record_page_is_uncommitted() {
        let wal: Arc<dyn Pager> = Arc::new(MemPager::new());
        let j = Journal::begin(wal.clone()).unwrap();
        fill(&*j.staging(), &[1, 2]);
        // Crash before commit(): record page still zeroed.
        assert!(committed(&*wal).unwrap().is_none());
    }

    #[test]
    fn malformed_record_is_an_error_not_a_discard() {
        let wal: Arc<dyn Pager> = Arc::new(MemPager::new());
        let j = Journal::begin(wal.clone()).unwrap();
        fill(&*j.staging(), &[5]);
        j.commit().unwrap();
        // Scribble over the record's CRC field: readable page, bad record.
        let mut p0 = Page::new();
        wal.read_page(PageId(0), &mut p0).unwrap();
        p0.put_u32(20, p0.get_u32(20) ^ 0xFFFF);
        wal.write_page(PageId(0), &p0).unwrap();
        assert!(matches!(committed(&*wal), Err(StorageError::Corrupt { .. })));
    }

    #[test]
    fn apply_detects_image_corruption() {
        let wal: Arc<dyn Pager> = Arc::new(MemPager::new());
        let j = Journal::begin(wal.clone()).unwrap();
        fill(&*j.staging(), &[7, 8]);
        let rec = j.commit().unwrap();
        // Flip a bit in an image page after commit (at-rest corruption a
        // MemPager's lack of page CRCs lets through to the image check).
        let mut p = Page::new();
        wal.read_page(PageId(2), &mut p).unwrap();
        p.bytes_mut()[100] ^= 1;
        wal.write_page(PageId(2), &p).unwrap();
        let main = MemPager::new();
        assert!(matches!(apply(&*wal, &rec, &main), Err(StorageError::Corrupt { .. })));
    }

    #[test]
    fn wal_path_appends_suffix() {
        assert_eq!(wal_path(Path::new("/x/repo.xqc")), PathBuf::from("/x/repo.xqc.wal"));
    }
}
