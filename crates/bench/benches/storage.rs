//! Storage-engine microbenches: writing and reading a 1 MB page stream (the
//! shape of a saved repository) and the buffer-pool hot path.

use criterion::{criterion_group, Criterion};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Duration;
use xquec_storage::{read_stream, write_stream, BufferPool, MemPager};

fn stream_ops(c: &mut Criterion) {
    let mut g = c.benchmark_group("storage_stream");
    g.sample_size(10).measurement_time(Duration::from_secs(3));
    let data: Vec<u8> =
        (0..1usize << 20).map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8).collect();
    g.bench_function("write_1mb", |b| {
        b.iter(|| {
            let pool = BufferPool::new(Arc::new(MemPager::new()), 256);
            black_box(write_stream(&pool, &data).expect("write"));
            pool.flush().expect("flush")
        })
    });
    let pager = Arc::new(MemPager::new());
    let first = {
        let pool = BufferPool::new(pager.clone(), 256);
        let first = write_stream(&pool, &data).expect("write");
        pool.flush().expect("flush");
        first
    };
    g.bench_function("read_1mb", |b| {
        b.iter(|| {
            let pool = BufferPool::new(pager.clone(), 256);
            black_box(read_stream(&pool, first, data.len() as u64).expect("read").len())
        })
    });
    g.finish();
}

fn pool_ops(c: &mut Criterion) {
    let mut g = c.benchmark_group("storage_pool");
    g.sample_size(20).measurement_time(Duration::from_secs(3));
    let pool = BufferPool::new(Arc::new(MemPager::new()), 64);
    let pages: Vec<_> = (0..32).map(|_| pool.allocate(|_| ()).expect("alloc")).collect();
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
    let pages: Vec<_> = (0..64).map(|_| pool.allocate(|_| ()).expect("alloc")).collect();
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

criterion_group!(benches, stream_ops, pool_ops);

fn main() {
    benches();
    // Page-level counters (reads, writes, pool hit/miss/eviction) from the
    // instrumented storage layer, accumulated across the groups above.
    xquec_bench::dump_metrics("storage");
}
