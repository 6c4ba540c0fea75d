//! Heap-allocation budgets for the FLWOR-heavy catalog queries and for
//! opening a saved repository, live-heap budgets for an opened repository
//! and a fresh engine, and a steady live heap for a long-running engine.
//!
//! A counting global allocator tallies the allocations made by the current
//! thread, and its live heap bytes (bytes allocated minus bytes freed);
//! each budgeted query is run once to warm the engine (block cache
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
use xquec_core::queries::{query, xmark_workload, XMARK_QUERIES};
use xquec_core::query::Engine;
use xquec_storage::MemPager;
use xquec_xml::gen::{Dataset, XmarkGen};

/// System allocator that counts allocations and live bytes per thread.
struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static LIVE: Cell<i64> = const { Cell::new(0) };
}

/// Count one allocation that grows the thread's live heap by `grown` bytes.
fn bump(grown: i64) {
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
    shift(grown);
}

/// Move the thread's live heap bytes by `delta`.
fn shift(delta: i64) {
    let _ = LIVE.try_with(|c| c.set(c.get() + delta));
}

// SAFETY: every method forwards its arguments unchanged to `System`, so
// `System`'s guarantees hold for the caller; the only extra work is updating
// const-initialised thread-local `Cell`s, which never allocates or unwinds
// (`try_with` skips the count once the thread-local is torn down).
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump(layout.size() as i64);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump(layout.size() as i64);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump(new_size as i64 - layout.size() as i64);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        shift(-(layout.size() as i64));
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

fn live() -> i64 {
    LIVE.with(Cell::get)
}

/// `(query id, allocation budget for one warm run)`: 10% above the counts
/// measured when the budgets were set (803 / 955 / 943 / 681); a value
/// read more than once is decoded again into one reused buffer, not
/// interned under a boxed key, so Q19's count fell from 758 to 681 when
/// the per-query value memo went. A decorrelated join runs once per
/// clause for all the outer rows, and the rest of its FLWOR once over all
/// their matches, so Q8, Q9 and Q10 no longer make a match vector, a row
/// batch and an output vector per outer row; a FLWOR's rows write their
/// results into one sequence, not a vector each; and a constructor nested
/// in another's content is an entry of the outer fragment, so a warm Q10
/// no longer makes an `Rc<Fragment>` and a content vector per element. A
/// `for` body's row-local paths run once per clause for all rows, and the
/// serializer decodes each value into one reused buffer, so neither makes
/// a heap object per row or per value.
const BUDGETS: &[(&str, u64)] = &[("Q8", 883), ("Q9", 1_050), ("Q10", 1_037), ("Q19", 749)];

#[test]
fn warm_flwor_queries_stay_within_their_allocation_budgets() {
    let xml = Dataset::Xmark.generate(200_000);
    let opts = LoaderOptions { workload: Some(xmark_workload()), threads: 1 };
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
/// XMark workload, one loader thread): the measured count (2,155) plus
/// 10%. Open decodes every record and block blob to validate it, each
/// record into one reused buffer, fills the structure tree's arrays and
/// each container's record arena directly, and builds each ALM model's
/// flat tables from token slices borrowed from the image, so a change that
/// builds a per-node, per-value or per-token object again shows here.
const OPEN_BUDGET: u64 = 2_370;

#[test]
fn opening_a_saved_repository_stays_within_its_allocation_budget() {
    let xml = XmarkGen::with_target_size(200_000).seed(1).generate();
    let opts = LoaderOptions { workload: Some(xmark_workload()), threads: 1 };
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

/// Live-heap budgets, in bytes, for 200 KB XMark (seed 1, XMark workload,
/// one loader thread): what an opened repository holds once
/// `load_from_pager` returns, and what `Engine::new` holds on it. Each is
/// the measured value (366,671 and 704 bytes) plus 10%. Both count bytes,
/// not allocations, so a per-node vector, an engine table sized by the
/// node count or a heap box per ALM token fails here.
const OPEN_LIVE_BUDGET: i64 = 403_338;
const ENGINE_LIVE_BUDGET: i64 = 774;

#[test]
fn an_opened_repository_and_a_fresh_engine_stay_within_their_live_heap_budgets() {
    let xml = XmarkGen::with_target_size(200_000).seed(1).generate();
    let opts = LoaderOptions { workload: Some(xmark_workload()), threads: 1 };
    let repo = load_with(&xml, &opts).expect("load 200 KB XMark");
    let pager = Arc::new(MemPager::new());
    save_to_pager(&repo, pager.clone()).expect("save");
    drop(repo);
    drop(load_from_pager(pager.clone()).expect("open"));
    // The pager outlives the measurement: its pages, freed inside
    // `load_from_pager` with its last reference, are not the repository's.
    let before = live();
    let opened = load_from_pager(pager.clone()).expect("open");
    let held = live() - before;
    let before = live();
    let engine = Engine::new(&opened);
    let engine_held = live() - before;
    drop(engine);
    println!("load_from_pager: {held} live bytes (budget {OPEN_LIVE_BUDGET})");
    println!("Engine::new: {engine_held} live bytes (budget {ENGINE_LIVE_BUDGET})");
    assert!(held <= OPEN_LIVE_BUDGET, "open holds {held} bytes, budget {OPEN_LIVE_BUDGET}");
    assert!(
        engine_held <= ENGINE_LIVE_BUDGET,
        "Engine::new holds {engine_held} bytes, budget {ENGINE_LIVE_BUDGET}"
    );
}

/// A long-running engine does not grow memory with query count: over 20
/// rounds of the whole catalog on one engine over 200 KB XMark, the live
/// heap the engine holds after round 2 equals the live heap after round
/// 20. Round 1 fills the block cache and registers the metric handles.
#[test]
fn a_long_running_engine_holds_a_steady_live_heap() {
    let xml = Dataset::Xmark.generate(200_000);
    let opts = LoaderOptions { workload: Some(xmark_workload()), threads: 1 };
    let repo = load_with(&xml, &opts).expect("load 200 KB XMark");
    let before = live();
    let engine = Engine::new(&repo);
    let mut held = Vec::with_capacity(20);
    for _ in 0..20 {
        for q in XMARK_QUERIES {
            engine.run(q.text).unwrap_or_else(|e| panic!("{}: {e}", q.id));
        }
        held.push(live() - before);
    }
    println!("engine live bytes after rounds 1, 2 and 20: {}, {}, {}", held[0], held[1], held[19]);
    assert_eq!(held[1], held[19], "engine live bytes by round: {held:?}");
}
