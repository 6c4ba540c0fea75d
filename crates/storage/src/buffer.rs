//! A clock-eviction buffer pool over a [`Pager`].
//!
//! Access is closure-scoped (`allocate` fills a fresh page, `with_page`
//! reads one), which keeps the pin/unpin discipline impossible to get wrong
//! at the API boundary. Dirty frames are written back on eviction and on
//! [`BufferPool::flush`].

use crate::error::Result;
use crate::page::{Page, PageId};
use crate::pager::Pager;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::Arc;
use xquec_obs::counter;

struct Frame {
    id: PageId,
    page: Page,
    dirty: bool,
    referenced: bool,
}

struct Inner {
    map: HashMap<PageId, usize>,
    frames: Vec<Frame>,
    hand: usize,
    hits: u64,
    misses: u64,
    evictions: u64,
}

/// Buffer pool with clock (second-chance) replacement.
pub struct BufferPool {
    pager: Arc<dyn Pager>,
    capacity: usize,
    inner: Mutex<Inner>,
}

/// Hit/miss/eviction counters for instrumentation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolStats {
    /// Page requests served from memory.
    pub hits: u64,
    /// Page requests that went to the pager.
    pub misses: u64,
    /// Resident frames replaced to make room for a faulted-in page.
    pub evictions: u64,
}

impl BufferPool {
    /// Create a pool of `capacity` frames over `pager`.
    pub fn new(pager: Arc<dyn Pager>, capacity: usize) -> Self {
        assert!(capacity > 0, "buffer pool needs at least one frame");
        BufferPool {
            pager,
            capacity,
            inner: Mutex::new(Inner {
                map: HashMap::new(),
                frames: Vec::new(),
                hand: 0,
                hits: 0,
                misses: 0,
                evictions: 0,
            }),
        }
    }

    /// Allocate a fresh page in the underlying pager and let `fill` write
    /// it. The page is known to be zero, so it is installed in the pool
    /// zeroed and dirty, without a read from the pager, and counts as
    /// neither a hit nor a miss.
    pub fn allocate(&self, fill: impl FnOnce(&mut Page)) -> Result<PageId> {
        let id = self.pager.allocate()?;
        let mut page = Page::new();
        fill(&mut page);
        let mut inner = self.inner.lock();
        self.install(&mut inner, id, page, true)?;
        Ok(id)
    }

    /// Pages allocated in the underlying pager. Chain walks (leaf chains,
    /// overflow chains) use this to bound their step count: a well-formed
    /// chain can never be longer than the store itself.
    pub fn page_count(&self) -> u64 {
        self.pager.page_count()
    }

    /// Run `f` with read access to page `id`.
    pub fn with_page<R>(&self, id: PageId, f: impl FnOnce(&Page) -> R) -> Result<R> {
        let mut inner = self.inner.lock();
        let slot = self.load(&mut inner, id)?;
        inner.frames[slot].referenced = true;
        Ok(f(&inner.frames[slot].page))
    }

    /// Write all dirty frames back and sync the pager.
    pub fn flush(&self) -> Result<()> {
        let mut inner = self.inner.lock();
        for frame in &mut inner.frames {
            if frame.dirty {
                self.pager.write_page(frame.id, &frame.page)?;
                frame.dirty = false;
            }
        }
        self.pager.sync()
    }

    /// Current hit/miss counters.
    pub fn stats(&self) -> PoolStats {
        let inner = self.inner.lock();
        PoolStats { hits: inner.hits, misses: inner.misses, evictions: inner.evictions }
    }

    /// Locate (or fault in) page `id`, returning its frame slot.
    fn load(&self, inner: &mut Inner, id: PageId) -> Result<usize> {
        if let Some(&slot) = inner.map.get(&id) {
            inner.hits += 1;
            counter!("storage.pool.hit").inc();
            return Ok(slot);
        }
        inner.misses += 1;
        counter!("storage.pool.miss").inc();
        let mut page = Page::new();
        self.pager.read_page(id, &mut page)?;
        self.install(inner, id, page, false)
    }

    /// Put `page` in a frame as page `id`, evicting by clock when the pool
    /// is full (a dirty victim is written back first).
    fn install(&self, inner: &mut Inner, id: PageId, page: Page, dirty: bool) -> Result<usize> {
        if inner.frames.len() < self.capacity {
            let slot = inner.frames.len();
            inner.frames.push(Frame { id, page, dirty, referenced: true });
            inner.map.insert(id, slot);
            return Ok(slot);
        }
        // Clock eviction: find a frame whose reference bit is clear.
        let slot = loop {
            let hand = inner.hand;
            inner.hand = (inner.hand + 1) % self.capacity;
            if inner.frames[hand].referenced {
                inner.frames[hand].referenced = false;
            } else {
                break hand;
            }
        };
        let victim = &inner.frames[slot];
        if victim.dirty {
            self.pager.write_page(victim.id, &victim.page)?;
        }
        let old_id = victim.id;
        inner.evictions += 1;
        counter!("storage.pool.eviction").inc();
        inner.map.remove(&old_id);
        inner.frames[slot] = Frame { id, page, dirty, referenced: true };
        inner.map.insert(id, slot);
        Ok(slot)
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::fault::{FaultPager, FaultPlan};
    use crate::pager::MemPager;

    fn pool(cap: usize) -> BufferPool {
        BufferPool::new(Arc::new(MemPager::new()), cap)
    }

    #[test]
    fn read_write_through() {
        let p = pool(4);
        let id = p.allocate(|pg| pg.put_u32(0, 7)).unwrap();
        assert_eq!(p.with_page(id, |pg| pg.get_u32(0)).unwrap(), 7);
    }

    #[test]
    fn eviction_writes_back_dirty_pages() {
        let pager = Arc::new(FaultPager::new(MemPager::new(), FaultPlan::none()));
        let p = BufferPool::new(pager.clone(), 2);
        let ids: Vec<_> = (0..5u32).map(|i| p.allocate(|pg| pg.put_u32(0, i)).unwrap()).collect();
        // Fresh pages are installed, not read; three evictions made room.
        assert_eq!(pager.op_counts(), (0, 3, 5), "(reads, writes, allocations)");
        assert_eq!(p.stats(), PoolStats { hits: 0, misses: 0, evictions: 3 });
        // All five pages went through a 2-frame pool; re-read them.
        for (i, &id) in ids.iter().enumerate() {
            assert_eq!(p.with_page(id, |pg| pg.get_u32(0)).unwrap(), i as u32);
        }
        let stats = p.stats();
        assert!(stats.misses >= 3, "{stats:?}");
        // The pool is full, so every miss evicts.
        assert_eq!(stats.evictions, stats.misses + 3, "{stats:?}");
        p.flush().unwrap();
        assert_eq!(pager.op_counts().1, 5, "each page written once");
    }

    #[test]
    fn hits_counted() {
        let pager = Arc::new(MemPager::new());
        let id = BufferPool::new(pager.clone(), 2).allocate(|_| ()).unwrap();
        let p = BufferPool::new(pager, 2);
        for _ in 0..10 {
            p.with_page(id, |_| ()).unwrap();
        }
        let stats = p.stats();
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.hits, 9);
    }

    #[test]
    fn flush_persists() {
        let pager = Arc::new(MemPager::new());
        let p = BufferPool::new(pager.clone(), 2);
        let id = p.allocate(|pg| pg.put_u64(8, 99)).unwrap();
        p.flush().unwrap();
        let mut out = Page::new();
        pager.read_page(id, &mut out).unwrap();
        assert_eq!(out.get_u64(8), 99);
    }
}
