//! Page-granular backends: in-memory and file-backed.
//!
//! The file-backed pager uses a checksummed on-disk format (version 2):
//!
//! ```text
//! file   := file-header frame*
//! file-header (32 bytes):
//!   [ 0.. 8)  magic  b"XQPGv2\0\0"
//!   [ 8..10)  format version  (u16 LE, currently 2)
//!   [10..14)  page size       (u32 LE, must equal PAGE_SIZE)
//!   [14..22)  page count      (u64 LE)
//!   [22..26)  CRC32 of bytes [0..22)
//!   [26..32)  reserved (zero)
//! frame (16 + PAGE_SIZE bytes), frame i at offset 32 + i * (16 + PAGE_SIZE):
//!   [ 0.. 4)  CRC32 of the page payload (u32 LE)
//!   [ 4.. 6)  format version (u16 LE)
//!   [ 6.. 8)  reserved (zero)
//!   [ 8..16)  page id (u64 LE, must equal i)
//!   [16.. )   page payload (PAGE_SIZE bytes)
//! ```
//!
//! Checksums are computed when a page is flushed and verified on every read;
//! a payload that does not match its stored CRC32 surfaces as
//! [`StorageError::ChecksumMismatch`] with the offending page id. The header
//! is validated on [`FilePager::open`], so a truncated, oversized, or
//! foreign file is rejected before any page is served.

use crate::checksum::crc32;
use crate::error::{Result, StorageError};
use crate::page::{Page, PageId, PAGE_SIZE};
use parking_lot::Mutex;
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use xquec_obs::counter;

/// Count the rejection in `storage.pager.open_rejected` and build the
/// [`StorageError::BadHeader`] that carries its detail, so every
/// header-rejection path is counted rather than silent.
fn reject_header(detail: String) -> StorageError {
    counter!("storage.pager.open_rejected").inc();
    StorageError::BadHeader { detail }
}

/// A page-granular storage backend.
pub trait Pager: Send + Sync {
    /// Read page `id` into `out`.
    fn read_page(&self, id: PageId, out: &mut Page) -> Result<()>;
    /// Write `page` at `id`.
    fn write_page(&self, id: PageId, page: &Page) -> Result<()>;
    /// Allocate a fresh zeroed page and return its id.
    fn allocate(&self) -> Result<PageId>;
    /// Number of allocated pages.
    fn page_count(&self) -> u64;
    /// Flush to durable storage (no-op for memory).
    fn sync(&self) -> Result<()>;
}

/// Shared pagers are pagers: lets one populated [`MemPager`] back several
/// wrappers (e.g. repeated [`crate::FaultPager`] runs over the same store).
impl<P: Pager + ?Sized> Pager for std::sync::Arc<P> {
    fn read_page(&self, id: PageId, out: &mut Page) -> Result<()> {
        (**self).read_page(id, out)
    }

    fn write_page(&self, id: PageId, page: &Page) -> Result<()> {
        (**self).write_page(id, page)
    }

    fn allocate(&self) -> Result<PageId> {
        (**self).allocate()
    }

    fn page_count(&self) -> u64 {
        (**self).page_count()
    }

    fn sync(&self) -> Result<()> {
        (**self).sync()
    }
}

/// Purely in-memory pager.
#[derive(Default)]
pub struct MemPager {
    pages: Mutex<Vec<Page>>,
}

impl MemPager {
    /// New empty pager.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Pager for MemPager {
    fn read_page(&self, id: PageId, out: &mut Page) -> Result<()> {
        let pages = self.pages.lock();
        let page = pages.get(id.0 as usize).ok_or(StorageError::PageOutOfRange {
            page: id.0,
            count: pages.len() as u64,
        })?;
        out.bytes_mut().copy_from_slice(page.bytes());
        Ok(())
    }

    fn write_page(&self, id: PageId, page: &Page) -> Result<()> {
        let mut pages = self.pages.lock();
        let count = pages.len() as u64;
        let slot = pages
            .get_mut(id.0 as usize)
            .ok_or(StorageError::PageOutOfRange { page: id.0, count })?;
        slot.bytes_mut().copy_from_slice(page.bytes());
        Ok(())
    }

    fn allocate(&self) -> Result<PageId> {
        let mut pages = self.pages.lock();
        pages.push(Page::new());
        Ok(PageId(pages.len() as u64 - 1))
    }

    fn page_count(&self) -> u64 {
        self.pages.lock().len() as u64
    }

    fn sync(&self) -> Result<()> {
        Ok(())
    }
}

/// On-disk format version written and accepted by [`FilePager`].
pub const FORMAT_VERSION: u16 = 2;

const FILE_MAGIC: [u8; 8] = *b"XQPGv2\0\0";
/// Bytes of file header before the first page frame.
pub const FILE_HEADER: u64 = 32;
/// Bytes of per-page frame header (checksum, version, page id).
pub const FRAME_HEADER: usize = 16;
/// On-disk bytes per page frame (header + payload).
pub const FRAME_SIZE: u64 = (FRAME_HEADER + PAGE_SIZE) as u64;

fn frame_offset(id: PageId) -> u64 {
    FILE_HEADER + id.0 * FRAME_SIZE
}

fn encode_file_header(count: u64) -> [u8; FILE_HEADER as usize] {
    let mut h = [0u8; FILE_HEADER as usize];
    h[0..8].copy_from_slice(&FILE_MAGIC);
    h[8..10].copy_from_slice(&FORMAT_VERSION.to_le_bytes());
    h[10..14].copy_from_slice(&(PAGE_SIZE as u32).to_le_bytes());
    h[14..22].copy_from_slice(&count.to_le_bytes());
    let crc = crc32(&h[0..22]);
    h[22..26].copy_from_slice(&crc.to_le_bytes());
    h
}

/// File-backed pager with a validated header and per-page checksums.
pub struct FilePager {
    file: Mutex<File>,
    count: Mutex<u64>,
    /// Set when a `sync` fails: the durable state is unknown, so every
    /// subsequent write/allocate/sync is refused with
    /// [`StorageError::Poisoned`] until the file is reopened.
    poisoned: AtomicBool,
}

impl FilePager {
    /// Open or create the file at `path`, first completing any interrupted
    /// journaled save (see [`crate::wal`]): if a committed journal
    /// `<path>.wal` is found it is re-applied, and an uncommitted one is
    /// discarded, so the store observed here is always exactly the pre-save
    /// or post-save image — never a torn intermediate.
    pub fn open(path: impl AsRef<Path>) -> Result<Self> {
        crate::wal::recover(path.as_ref())?;
        Self::open_raw(path)
    }

    /// Create (or truncate) the file at `path` as an empty store.
    pub fn create(path: impl AsRef<Path>) -> Result<Self> {
        let mut file =
            OpenOptions::new().read(true).write(true).create(true).truncate(true).open(path)?;
        file.write_all(&encode_file_header(0))?;
        Ok(FilePager { file: Mutex::new(file), count: Mutex::new(0), poisoned: AtomicBool::new(false) })
    }

    /// Open the file at `path` without running journal recovery.
    ///
    /// This is the raw constructor [`FilePager::open`] wraps; the journal
    /// machinery itself uses it to open `.wal` sidecar files. A fresh
    /// (empty) file is initialised with a version-2 header. An existing
    /// file must carry a valid header — magic, version, page size, header
    /// CRC, and a length consistent with the stored page count — otherwise
    /// [`StorageError::BadHeader`] is returned.
    pub fn open_raw(path: impl AsRef<Path>) -> Result<Self> {
        let path = path.as_ref();
        let mut file =
            OpenOptions::new().read(true).write(true).create(true).truncate(false).open(path)?;
        let len = file.metadata()?.len();
        if len == 0 {
            file.write_all(&encode_file_header(0))?;
            return Ok(FilePager {
                file: Mutex::new(file),
                count: Mutex::new(0),
                poisoned: AtomicBool::new(false),
            });
        }
        if len < FILE_HEADER {
            return Err(reject_header(
                format!("file of {len} bytes is shorter than the {FILE_HEADER}-byte header"),
            ));
        }
        let mut h = [0u8; FILE_HEADER as usize];
        file.seek(SeekFrom::Start(0))?;
        file.read_exact(&mut h)?;
        if h[0..8] != FILE_MAGIC {
            return Err(reject_header("bad magic".into()));
        }
        let version = u16::from_le_bytes([h[8], h[9]]);
        if version != FORMAT_VERSION {
            return Err(reject_header(
                format!("unsupported format version {version} (expected {FORMAT_VERSION})"),
            ));
        }
        let page_size = u32::from_le_bytes([h[10], h[11], h[12], h[13]]);
        if page_size as usize != PAGE_SIZE {
            return Err(reject_header(
                format!("page size {page_size} does not match engine page size {PAGE_SIZE}"),
            ));
        }
        let stored_crc = u32::from_le_bytes([h[22], h[23], h[24], h[25]]);
        if crc32(&h[0..22]) != stored_crc {
            return Err(reject_header("header checksum mismatch".into()));
        }
        let count = u64::from_le_bytes(h[14..22].try_into().expect("8 bytes"));
        let expected = FILE_HEADER + count * FRAME_SIZE;
        if len != expected {
            return Err(reject_header(
                format!("file length {len} inconsistent with {count} pages (expected {expected})"),
            ));
        }
        Ok(FilePager {
            file: Mutex::new(file),
            count: Mutex::new(count),
            poisoned: AtomicBool::new(false),
        })
    }

    fn check_poisoned(&self) -> Result<()> {
        if self.poisoned.load(Ordering::Acquire) {
            Err(StorageError::Poisoned)
        } else {
            Ok(())
        }
    }
}

impl Pager for FilePager {
    fn read_page(&self, id: PageId, out: &mut Page) -> Result<()> {
        counter!("storage.page.read").inc();
        let count = *self.count.lock();
        if id.0 >= count {
            return Err(StorageError::PageOutOfRange { page: id.0, count });
        }
        let mut file = self.file.lock();
        file.seek(SeekFrom::Start(frame_offset(id)))?;
        let mut header = [0u8; FRAME_HEADER];
        file.read_exact(&mut header)?;
        file.read_exact(out.bytes_mut().as_mut_slice())?;
        drop(file);
        let stored_crc = u32::from_le_bytes(header[0..4].try_into().expect("4 bytes"));
        let version = u16::from_le_bytes([header[4], header[5]]);
        let stored_id = u64::from_le_bytes(header[8..16].try_into().expect("8 bytes"));
        if version != FORMAT_VERSION {
            return Err(StorageError::corrupt_at(
                id.0,
                format!("frame version {version} (expected {FORMAT_VERSION})"),
            ));
        }
        if stored_id != id.0 {
            return Err(StorageError::corrupt_at(
                id.0,
                format!("frame stores page id {stored_id}"),
            ));
        }
        if crc32(out.bytes()) != stored_crc {
            counter!("storage.page.checksum_failed").inc();
            return Err(StorageError::ChecksumMismatch { page: id.0 });
        }
        counter!("storage.page.checksum_validated").inc();
        Ok(())
    }

    fn write_page(&self, id: PageId, page: &Page) -> Result<()> {
        counter!("storage.page.write").inc();
        self.check_poisoned()?;
        let count = *self.count.lock();
        if id.0 >= count {
            return Err(StorageError::PageOutOfRange { page: id.0, count });
        }
        let mut frame = Vec::with_capacity(FRAME_HEADER + PAGE_SIZE);
        frame.extend_from_slice(&crc32(page.bytes()).to_le_bytes());
        frame.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        frame.extend_from_slice(&[0u8; 2]);
        frame.extend_from_slice(&id.0.to_le_bytes());
        frame.extend_from_slice(page.bytes().as_slice());
        let mut file = self.file.lock();
        file.seek(SeekFrom::Start(frame_offset(id)))?;
        file.write_all(&frame)?;
        Ok(())
    }

    fn allocate(&self) -> Result<PageId> {
        counter!("storage.page.alloc").inc();
        self.check_poisoned()?;
        let mut count = self.count.lock();
        let id = PageId(*count);
        let zero = Page::new();
        let mut frame = Vec::with_capacity(FRAME_HEADER + PAGE_SIZE);
        frame.extend_from_slice(&crc32(zero.bytes()).to_le_bytes());
        frame.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        frame.extend_from_slice(&[0u8; 2]);
        frame.extend_from_slice(&id.0.to_le_bytes());
        frame.extend_from_slice(zero.bytes().as_slice());
        let mut file = self.file.lock();
        file.seek(SeekFrom::Start(frame_offset(id)))?;
        file.write_all(&frame)?;
        // Keep the header's page count current so a reopen sees a
        // self-consistent file even without an explicit sync.
        file.seek(SeekFrom::Start(0))?;
        file.write_all(&encode_file_header(id.0 + 1))?;
        *count += 1;
        Ok(id)
    }

    fn page_count(&self) -> u64 {
        *self.count.lock()
    }

    fn sync(&self) -> Result<()> {
        counter!("storage.page.sync").inc();
        self.check_poisoned()?;
        if let Err(e) = self.file.lock().sync_all() {
            // After a failed fsync the kernel may have dropped dirty pages;
            // nothing written from here on has a knowable durable state.
            self.poisoned.store(true, Ordering::Release);
            counter!("storage.pager.sync_failed").inc();
            return Err(e.into());
        }
        Ok(())
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    fn exercise(pager: &dyn Pager) {
        let a = pager.allocate().unwrap();
        let b = pager.allocate().unwrap();
        assert_ne!(a, b);
        let mut p = Page::new();
        p.put_u64(0, 42);
        pager.write_page(b, &p).unwrap();
        let mut out = Page::new();
        pager.read_page(b, &mut out).unwrap();
        assert_eq!(out.get_u64(0), 42);
        pager.read_page(a, &mut out).unwrap();
        assert_eq!(out.get_u64(0), 0);
        assert!(pager.read_page(PageId(99), &mut out).is_err());
        assert_eq!(pager.page_count(), 2);
    }

    fn temp_path(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("xquec-pager-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name);
        let _ = std::fs::remove_file(&path);
        path
    }

    #[test]
    fn mem_pager() {
        exercise(&MemPager::new());
    }

    #[test]
    fn file_pager() {
        let path = temp_path("test.pages");
        {
            let pager = FilePager::open(&path).unwrap();
            exercise(&pager);
            pager.sync().unwrap();
        }
        // Reopen: contents persist.
        let pager = FilePager::open(&path).unwrap();
        assert_eq!(pager.page_count(), 2);
        let mut out = Page::new();
        pager.read_page(PageId(1), &mut out).unwrap();
        assert_eq!(out.get_u64(0), 42);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn flipped_payload_bit_is_checksum_mismatch() {
        let path = temp_path("flip.pages");
        {
            let pager = FilePager::open(&path).unwrap();
            for i in 0..3u64 {
                let id = pager.allocate().unwrap();
                let mut p = Page::new();
                p.put_u64(0, 1000 + i);
                pager.write_page(id, &p).unwrap();
            }
            pager.sync().unwrap();
        }
        // Flip one bit in page 1's payload, on disk.
        let mut bytes = std::fs::read(&path).unwrap();
        let off = (frame_offset(PageId(1)) as usize) + FRAME_HEADER + 1234;
        bytes[off] ^= 0x10;
        std::fs::write(&path, &bytes).unwrap();

        let pager = FilePager::open(&path).unwrap();
        let mut out = Page::new();
        // Pages 0 and 2 still read fine.
        pager.read_page(PageId(0), &mut out).unwrap();
        pager.read_page(PageId(2), &mut out).unwrap();
        // Page 1 reports a checksum mismatch naming the right page.
        match pager.read_page(PageId(1), &mut out) {
            Err(StorageError::ChecksumMismatch { page }) => assert_eq!(page, 1),
            other => panic!("expected ChecksumMismatch on page 1, got {other:?}"),
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn bad_headers_rejected() {
        // Wrong magic.
        let path = temp_path("magic.pages");
        std::fs::write(&path, vec![0xAAu8; 64]).unwrap();
        assert!(matches!(FilePager::open(&path), Err(StorageError::BadHeader { .. })));

        // Too short for a header.
        std::fs::write(&path, b"XQ").unwrap();
        assert!(matches!(FilePager::open(&path), Err(StorageError::BadHeader { .. })));

        // Valid header, truncated body.
        {
            let pager = FilePager::open(temp_path("trunc.pages")).unwrap();
            pager.allocate().unwrap();
            pager.sync().unwrap();
        }
        let src = {
            let dir = std::env::temp_dir().join(format!("xquec-pager-{}", std::process::id()));
            dir.join("trunc.pages")
        };
        let full = std::fs::read(&src).unwrap();
        std::fs::write(&path, &full[..full.len() - 100]).unwrap();
        assert!(matches!(FilePager::open(&path), Err(StorageError::BadHeader { .. })));

        // Corrupted header CRC.
        let mut h = full.clone();
        h[15] ^= 0x01; // page-count byte: header CRC no longer matches
        std::fs::write(&path, &h).unwrap();
        assert!(matches!(FilePager::open(&path), Err(StorageError::BadHeader { .. })));

        std::fs::remove_file(&path).unwrap();
        std::fs::remove_file(&src).unwrap();
    }

    #[test]
    fn wrong_page_id_in_frame_is_corrupt() {
        let path = temp_path("swap.pages");
        {
            let pager = FilePager::open(&path).unwrap();
            for v in [7u64, 8] {
                let id = pager.allocate().unwrap();
                let mut p = Page::new();
                p.put_u64(0, v);
                pager.write_page(id, &p).unwrap();
            }
            pager.sync().unwrap();
        }
        // Swap the two frames wholesale: checksums still match their
        // payloads, but the stored page ids expose the transposition.
        let mut bytes = std::fs::read(&path).unwrap();
        let (a, b) = (frame_offset(PageId(0)) as usize, frame_offset(PageId(1)) as usize);
        let frame_len = FRAME_SIZE as usize;
        let tmp = bytes[a..a + frame_len].to_vec();
        bytes.copy_within(b..b + frame_len, a);
        bytes[b..b + frame_len].copy_from_slice(&tmp);
        std::fs::write(&path, &bytes).unwrap();

        let pager = FilePager::open(&path).unwrap();
        let mut out = Page::new();
        assert!(matches!(
            pager.read_page(PageId(0), &mut out),
            Err(StorageError::Corrupt { page: Some(0), .. })
        ));
        std::fs::remove_file(&path).unwrap();
    }
}
