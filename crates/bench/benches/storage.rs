//! Storage-engine microbenches: B+tree inserts, bulk loads and point/range
//! operations, heap appends and the buffer-pool hot path — the substrate
//! costs under every repository access.

use criterion::{criterion_group, Criterion};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Duration;
use xquec_storage::{BTree, BufferPool, Heap, MemPager};

fn btree_ops(c: &mut Criterion) {
    let mut g = c.benchmark_group("storage_btree");
    g.sample_size(10).measurement_time(Duration::from_secs(3));

    g.bench_function("insert_10k", |b| {
        b.iter(|| {
            let pool = Arc::new(BufferPool::new(Arc::new(MemPager::new()), 128));
            let mut t = BTree::create(pool).expect("create");
            for i in 0u32..10_000 {
                let k = ((i as u64 * 2_654_435_761) % 10_000) as u32;
                t.insert(&k.to_be_bytes(), format!("value{k}").as_bytes()).expect("insert");
            }
            black_box(t.root())
        })
    });

    g.bench_function("bulk_load_10k", |b| {
        b.iter(|| {
            let pool = Arc::new(BufferPool::new(Arc::new(MemPager::new()), 128));
            let rows = (0u32..10_000).map(|i| (i.to_be_bytes(), format!("value{i}")));
            black_box(BTree::bulk_load(pool, rows).expect("bulk_load").root())
        })
    });

    let pool = Arc::new(BufferPool::new(Arc::new(MemPager::new()), 128));
    let mut t = BTree::create(pool).expect("create");
    for i in 0u32..10_000 {
        t.insert(&i.to_be_bytes(), format!("value{i}").as_bytes()).expect("insert");
    }
    g.bench_function("get_1k", |b| {
        b.iter(|| {
            let mut found = 0usize;
            for i in (0u32..10_000).step_by(10) {
                found += usize::from(t.get(&i.to_be_bytes()).expect("get").is_some());
            }
            black_box(found)
        })
    });
    g.bench_function("scan_all", |b| {
        b.iter(|| black_box(t.iter().expect("iter").count()))
    });
    g.finish();
}

fn heap_ops(c: &mut Criterion) {
    let mut g = c.benchmark_group("storage_heap");
    g.sample_size(10).measurement_time(Duration::from_secs(3));
    g.bench_function("append_10k", |b| {
        b.iter(|| {
            let pool = Arc::new(BufferPool::new(Arc::new(MemPager::new()), 128));
            let mut h = Heap::create(pool).expect("create");
            for i in 0..10_000 {
                h.append(format!("record number {i}").as_bytes()).expect("append");
            }
            black_box(h.first_page())
        })
    });
    let pool = Arc::new(BufferPool::new(Arc::new(MemPager::new()), 128));
    let mut h = Heap::create(pool).expect("create");
    let ids: Vec<_> =
        (0..10_000).map(|i| h.append(format!("record number {i}").as_bytes()).expect("append")).collect();
    g.bench_function("get_1k", |b| {
        b.iter(|| {
            let mut n = 0usize;
            for id in ids.iter().step_by(10) {
                n += h.get(*id).expect("get").len();
            }
            black_box(n)
        })
    });
    g.finish();
}

fn pool_ops(c: &mut Criterion) {
    let mut g = c.benchmark_group("storage_pool");
    g.sample_size(20).measurement_time(Duration::from_secs(3));
    let pool = BufferPool::new(Arc::new(MemPager::new()), 64);
    let pages: Vec<_> = (0..32).map(|_| pool.allocate().expect("alloc")).collect();
    g.bench_function("hit_read", |b| {
        b.iter(|| {
            let mut sum = 0u64;
            for &p in &pages {
                sum += pool.with_page(p, |pg| pg.get_u64(0)).expect("read");
            }
            black_box(sum)
        })
    });
    let pool = BufferPool::new(Arc::new(MemPager::new()), 8);
    let pages: Vec<_> = (0..64).map(|_| pool.allocate().expect("alloc")).collect();
    g.bench_function("miss_evict_read", |b| {
        b.iter(|| {
            let mut sum = 0u64;
            for &p in &pages {
                sum += pool.with_page(p, |pg| pg.get_u64(0)).expect("read");
            }
            black_box(sum)
        })
    });
    g.finish();
}

criterion_group!(benches, btree_ops, heap_ops, pool_ops);

fn main() {
    benches();
    // Page-level counters (reads, writes, pool hit/miss/eviction) from the
    // instrumented storage layer, accumulated across the groups above.
    xquec_bench::dump_metrics("storage");
}
