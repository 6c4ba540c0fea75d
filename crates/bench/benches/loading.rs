//! Load-pipeline bench: sequential vs parallel shredding + compression.
//!
//! Exercises the post-parse fan-out of the loader (`LoaderOptions::threads`)
//! on an XMark-like document with the paper workload and a Shakespeare-like
//! document with no workload, each at two sizes. One thread and the machine
//! width produce byte-identical repositories, so the two series measure the
//! same work — only the scheduling differs.

use criterion::{criterion_group, Criterion, Throughput};
use std::hint::black_box;
use std::time::Duration;
use xquec_core::loader::{load_with, LoaderOptions};
use xquec_core::par::effective_threads;
use xquec_core::queries::xmark_workload;
use xquec_xml::gen::Dataset;

fn load_pipeline(c: &mut Criterion) {
    let machine = effective_threads(0);
    for (dataset, bytes) in [
        (Dataset::Xmark, 250_000),
        (Dataset::Xmark, 1_000_000),
        (Dataset::Shakespeare, 250_000),
        (Dataset::Shakespeare, 1_000_000),
    ] {
        let xml = dataset.generate(bytes);
        let workload = (dataset == Dataset::Xmark).then(xmark_workload);
        let mut g = c.benchmark_group(format!("load/{}/{}k", dataset.name(), bytes / 1000));
        g.throughput(Throughput::Bytes(xml.len() as u64));
        g.sample_size(10).measurement_time(Duration::from_secs(5));
        for (label, threads) in [("sequential", 1usize), ("parallel", machine)] {
            let opts = LoaderOptions { workload: workload.clone(), threads };
            g.bench_function(label, |b| {
                b.iter(|| {
                    let repo = load_with(&xml, &opts).expect("load");
                    black_box(repo.containers.len())
                })
            });
        }
        g.finish();
    }
}

criterion_group!(benches, load_pipeline);

fn main() {
    benches();
    // The loader is instrumented: per-phase latency histograms and byte
    // counters accumulate across every iteration above.
    xquec_bench::dump_metrics("loading");
}
