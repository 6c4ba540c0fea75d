//! A byte string laid across consecutive pages: the one on-disk shape a
//! repository image needs.
//!
//! [`write_stream`] allocates pages one after another and fills each with
//! the next `PAGE_SIZE` bytes (the last page is zero-padded).
//! [`read_stream`] reads back exactly `len` bytes from a first page. It
//! checks that the whole page run lies inside the store before it allocates
//! or reads anything, so a hostile length costs a typed error, never a huge
//! allocation or a read past the end.

use crate::buffer::BufferPool;
use crate::error::{Result, StorageError};
use crate::page::{PageId, PAGE_SIZE};

/// Write `bytes` across freshly allocated consecutive pages and return the
/// first page's id. An empty string allocates nothing and returns the id
/// the next page would get.
pub fn write_stream(pool: &BufferPool, bytes: &[u8]) -> Result<PageId> {
    let first = PageId(pool.page_count());
    for (i, chunk) in bytes.chunks(PAGE_SIZE).enumerate() {
        let id = pool.allocate(|p| p.write_at(0, chunk))?;
        if id.0 != first.0 + i as u64 {
            return Err(StorageError::corrupt_at(id.0, "stream pages are not consecutive"));
        }
    }
    Ok(first)
}

/// Read exactly `len` bytes from the page run starting at `first`. A run
/// that does not fit inside the store is [`StorageError::PageOutOfRange`],
/// naming the last page the run would need.
pub fn read_stream(pool: &BufferPool, first: PageId, len: u64) -> Result<Vec<u8>> {
    let pages = len.div_ceil(PAGE_SIZE as u64);
    let count = pool.page_count();
    let end = match first.0.checked_add(pages) {
        Some(end) if end <= count => end,
        end => {
            let page = end.map_or(u64::MAX, |e| e - 1);
            return Err(StorageError::PageOutOfRange { page, count });
        }
    };
    // The run fits the store, so `len` is bounded by the store's size.
    let mut out = Vec::with_capacity(len as usize);
    for id in first.0..end {
        let take = (len as usize - out.len()).min(PAGE_SIZE);
        pool.with_page(PageId(id), |p| out.extend_from_slice(&p.bytes()[..take]))?;
    }
    Ok(out)
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::pager::MemPager;
    use std::sync::Arc;

    fn pool() -> BufferPool {
        BufferPool::new(Arc::new(MemPager::new()), 4)
    }

    #[test]
    fn empty_stream_allocates_nothing() {
        let p = pool();
        let first = write_stream(&p, &[]).unwrap();
        assert_eq!((first, p.page_count()), (PageId(0), 0));
        assert!(read_stream(&p, first, 0).unwrap().is_empty());
    }

    #[test]
    fn streams_follow_one_another() {
        let p = pool();
        let a: Vec<u8> = (0..PAGE_SIZE + 3).map(|i| i as u8).collect();
        let b = b"second".to_vec();
        let (fa, fb) = (write_stream(&p, &a).unwrap(), write_stream(&p, &b).unwrap());
        assert_eq!((fa, fb, p.page_count()), (PageId(0), PageId(2), 3));
        assert_eq!(read_stream(&p, fa, a.len() as u64).unwrap(), a);
        assert_eq!(read_stream(&p, fb, b.len() as u64).unwrap(), b);
    }

    #[test]
    fn length_past_the_last_page_is_out_of_range() {
        let p = pool();
        write_stream(&p, &[7u8; 2 * PAGE_SIZE]).unwrap();
        let over = 2 * PAGE_SIZE as u64 + 1;
        assert!(matches!(
            read_stream(&p, PageId(0), over),
            Err(StorageError::PageOutOfRange { page: 2, count: 2 })
        ));
        assert!(matches!(
            read_stream(&p, PageId(1), PAGE_SIZE as u64 + 1),
            Err(StorageError::PageOutOfRange { page: 2, count: 2 })
        ));
        assert!(matches!(
            read_stream(&p, PageId(u64::MAX), 1),
            Err(StorageError::PageOutOfRange { page: u64::MAX, count: 2 })
        ));
        assert!(matches!(
            read_stream(&p, PageId(0), u64::MAX),
            Err(StorageError::PageOutOfRange { .. })
        ));
    }
}
