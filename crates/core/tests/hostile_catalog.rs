//! A hostile catalog must not make load reserve memory by the counts it
//! claims.
//!
//! Load caps each object count by its section's bytes, but one byte of the
//! file can claim an object far larger than itself (a container's
//! statistics hold a 2 KiB byte histogram), so a count at that cap must not
//! size any allocation. A global allocator records the largest single
//! allocation the current thread asks for, leaving out the one buffer load
//! reads the whole image into: that buffer is sized by the store, not by a
//! count, and it is larger than anything else an honest load asks for. An
//! image whose counts are raised to their sections' byte lengths must load
//! as `PersistError::Corrupt` without asking for more at once than loading
//! the honest image does, the image buffer aside.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;
use xquec_core::persist::{load_from_pager, save_to_pager, PersistError};
use xquec_core::queries::xmark_workload;
use xquec_core::{load_with, LoaderOptions};
use xquec_storage::{MemPager, Page, PageId, Pager, PAGE_SIZE};
use xquec_xml::gen::XmarkGen;

/// The catalog on page 0 (see `persist`): magic and original size take 16
/// bytes, then come an object count per section, then a length per section.
const SECTIONS: [&str; 5] = ["dictionary", "summary", "node", "model", "container"];

fn count_at(i: usize) -> usize {
    16 + 8 * i
}

fn len_at(i: usize) -> usize {
    16 + 8 * (SECTIONS.len() + i)
}

/// System allocator that records the largest request per thread, except
/// for one request of exactly `SKIP` bytes.
struct Largest;

thread_local! {
    static LARGEST: Cell<usize> = const { Cell::new(0) };
    static SKIP: Cell<usize> = const { Cell::new(0) };
}

fn note(size: usize) {
    let skipped = SKIP.try_with(|s| {
        let hit = s.get() == size;
        if hit {
            s.set(0);
        }
        hit
    });
    if !matches!(skipped, Ok(true)) {
        let _ = LARGEST.try_with(|c| c.set(c.get().max(size)));
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, so
// `System`'s guarantees hold for the caller; the only extra work is updating
// const-initialised thread-local `Cell`s, which never allocates or unwinds
// (`try_with` skips the update once the thread-locals are torn down).
unsafe impl GlobalAlloc for Largest {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Largest = Largest;

/// Load `pager`, returning the largest single allocation the load asked for
/// besides the image buffer (every page of the store), and whether it
/// failed as corrupt.
fn load_measured(pager: &Arc<MemPager>) -> (usize, Result<(), PersistError>) {
    LARGEST.with(|c| c.set(0));
    SKIP.with(|s| s.set(pager.page_count() as usize * PAGE_SIZE));
    let result = load_from_pager(pager.clone()).map(drop);
    assert_eq!(SKIP.with(Cell::get), 0, "load read no image buffer");
    (LARGEST.with(Cell::get), result)
}

#[test]
fn counts_raised_to_their_section_bytes_size_no_allocation() {
    // The XMark workload makes individual containers, so every section,
    // source models included, holds bytes.
    let xml = XmarkGen::with_target_size(200_000).seed(1).generate();
    let opts = LoaderOptions { workload: Some(xmark_workload()), threads: 1 };
    let repo = load_with(&xml, &opts).expect("load 200 KB XMark");
    let pager = Arc::new(MemPager::new());
    save_to_pager(&repo, pager.clone()).expect("save");
    let mut catalog = Page::new();
    pager.read_page(PageId(0), &mut catalog).expect("catalog page");

    let (honest, result) = load_measured(&pager);
    assert!(result.is_ok(), "honest image: {result:?}");
    let image = pager.page_count() as usize * PAGE_SIZE;
    assert!(honest < image, "an honest allocation of {honest} B outgrows the {image} B image");
    for (i, what) in SECTIONS.iter().enumerate() {
        let len = catalog.get_u64(len_at(i));
        assert!(len > 0, "{what} section is empty");
        let mut hostile = Page::new();
        hostile.write_at(0, catalog.bytes());
        hostile.put_u64(count_at(i), len);
        pager.write_page(PageId(0), &hostile).expect("patch catalog");
        let (largest, result) = load_measured(&pager);
        assert!(matches!(result, Err(PersistError::Corrupt(_))), "{what} count {len}: {result:?}");
        assert!(
            largest <= honest,
            "{what} count {len} made load ask for {largest} bytes at once \
             (the honest image asks for at most {honest} besides its {image} B buffer)"
        );
        println!(
            "{what}: count {len} -> largest allocation {largest} B \
             (honest {honest} B, image buffer {image} B left out)"
        );
    }
}
