//! Heap-allocation budgets for the FLWOR-heavy catalog queries and for
//! opening a saved repository.
//!
//! A counting global allocator tallies the allocations made by the current
//! thread; each budgeted query is run once to warm the engine (block cache
//! filled, metric handles registered) and then counted over one more
//! `Engine::run` — parse, evaluate and serialize. The budgets sit about 10%
//! above the measured counts, so a change that puts per-row heap work back
//! on the query path fails here, on any machine, with metrics compiled in or
//! out. Run with `--nocapture` to see the counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;
use xquec_core::loader::{load_with, LoaderOptions};
use xquec_core::persist::{load_from_pager, save_to_pager};
use xquec_core::queries::{query, xmark_workload};
use xquec_core::query::Engine;
use xquec_storage::MemPager;
use xquec_xml::gen::{Dataset, XmarkGen};

/// System allocator that counts allocations per thread.
struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`, so
// `System`'s guarantees hold for the caller; the only extra work is bumping a
// const-initialised thread-local `Cell`, which never allocates or unwinds
// (`try_with` skips the count once the thread-local is torn down).
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

/// `(query id, allocation budget for one warm run)`: the measured count
/// (2,189 / 2,533 / 8,098 / 1,053) plus 10%.
const BUDGETS: &[(&str, u64)] = &[("Q8", 2_408), ("Q9", 2_787), ("Q10", 8_908), ("Q19", 1_159)];

#[test]
fn warm_flwor_queries_stay_within_their_allocation_budgets() {
    let xml = Dataset::Xmark.generate(200_000);
    let opts = LoaderOptions { workload: Some(xmark_workload()), threads: 1, ..Default::default() };
    let repo = load_with(&xml, &opts).expect("load 200 KB XMark");
    let engine = Engine::new(&repo);
    let mut over = Vec::new();
    for &(id, budget) in BUDGETS {
        let text = query(id).expect("catalog query").text;
        engine.run(text).unwrap_or_else(|e| panic!("{id}: {e}"));
        let before = allocs();
        engine.run(text).unwrap_or_else(|e| panic!("{id}: {e}"));
        let used = allocs() - before;
        println!("{id}: {used} allocations (budget {budget})");
        if used > budget {
            over.push(format!("{id}: {used} > {budget}"));
        }
    }
    assert!(over.is_empty(), "allocation budgets exceeded: {over:?}");
}

/// Allocation budget for one `load_from_pager` of 200 KB XMark (seed 1,
/// XMark workload, one loader thread): the measured count (11,097) plus
/// 10%. Open decodes every record and block blob to validate it, each
/// record into one reused buffer, so a change that builds a per-value
/// object again shows here.
const OPEN_BUDGET: u64 = 12_206;

#[test]
fn opening_a_saved_repository_stays_within_its_allocation_budget() {
    let xml = XmarkGen::with_target_size(200_000).seed(1).generate();
    let opts = LoaderOptions { workload: Some(xmark_workload()), threads: 1, ..Default::default() };
    let repo = load_with(&xml, &opts).expect("load 200 KB XMark");
    let pager = Arc::new(MemPager::new());
    save_to_pager(&repo, pager.clone()).expect("save");
    drop(load_from_pager(pager.clone()).expect("open"));
    let before = allocs();
    let opened = load_from_pager(pager).expect("open");
    let used = allocs() - before;
    drop(opened);
    println!("load_from_pager: {used} allocations (budget {OPEN_BUDGET})");
    assert!(used <= OPEN_BUDGET, "open made {used} allocations, budget {OPEN_BUDGET}");
}
