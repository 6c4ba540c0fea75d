//! A2/A3/A4 — operator-level ablations for the design choices DESIGN.md
//! calls out:
//!
//! * A2: hash-join decorrelation (XQueC) vs naive nested-loop re-evaluation
//!   (Galax-like) on the Q8 join shape;
//! * A3: descendant steps answered from structure-summary extents vs a full
//!   structure-tree walk (the §2.3 Q14 argument);
//! * A4: lazy (compressed-domain) predicate evaluation vs eager
//!   decompress-then-compare over a container scan (§4's principle).

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::time::Duration;
use xquec_baselines::GalaxEngine;
use xquec_core::loader::{load_with, LoaderOptions};
use xquec_core::queries::xmark_workload;
use xquec_core::query::Engine;
use xquec_xml::gen::Dataset;

const Q8: &str = r#"FOR $p IN document("auction.xml")/site/people/person
LET $a := FOR $t IN document("auction.xml")/site/closed_auctions/closed_auction
          WHERE $t/buyer/@person = $p/@id
          RETURN $t
RETURN <item person=$p/name/text()>{ count($a) }</item>"#;

fn join_ablation(c: &mut Criterion) {
    // Small document so the quadratic baseline stays benchable.
    let xml = Dataset::Xmark.generate(150_000);
    let opts = LoaderOptions { workload: Some(xmark_workload()), ..Default::default() };
    let repo = load_with(&xml, &opts).expect("load");
    let engine = Engine::new(&repo);
    let galax = GalaxEngine::load(&xml).expect("galax");

    let mut g = c.benchmark_group("a2_join_q8_150kb");
    g.sample_size(10).measurement_time(Duration::from_secs(4));
    g.bench_function("xquec_hash_join", |b| {
        b.iter(|| black_box(engine.run(Q8).expect("query")))
    });
    g.bench_function("galax_nested_loop", |b| {
        b.iter(|| black_box(galax.run(Q8).expect("query")))
    });
    g.finish();
}

fn descendant_ablation(c: &mut Criterion) {
    let xml = Dataset::Xmark.generate(800_000);
    let repo = load_with(&xml, &LoaderOptions::default()).expect("load");
    let engine = Engine::new(&repo);
    let tag = repo.dict.code("item").expect("items exist");
    let root = repo.root().expect("root");

    let mut g = c.benchmark_group("a3_descendant_items_800kb");
    g.sample_size(20).measurement_time(Duration::from_secs(3));
    // Summary-extent strategy (what the engine does for `//item`).
    g.bench_function("summary_extents", |b| {
        b.iter(|| black_box(engine.run("count(//item)").expect("query")))
    });
    // Structure-tree scan of the root's subtree id range, filtering by tag.
    g.bench_function("tree_walk", |b| {
        b.iter(|| {
            let n = repo.tree.descendants(root).filter(|&e| repo.tree.tag(e) == tag).count();
            black_box(n)
        })
    });
    g.finish();
}

fn lazy_decompression_ablation(c: &mut Criterion) {
    let xml = Dataset::Xmark.generate(800_000);
    let opts = LoaderOptions { workload: Some(xmark_workload()), ..Default::default() };
    let repo = load_with(&xml, &opts).expect("load");
    let cid = repo
        .container_by_path("/site/people/person/@id")
        .expect("id container");
    let container = repo.container(cid);
    let probe = b"person42";
    let codec = container.codec();
    let comp_probe = codec.compress(probe).expect("encodes");

    let mut g = c.benchmark_group("a4_predicate_eval");
    g.sample_size(20).measurement_time(Duration::from_secs(3));
    // Lazy: compare compressed bytes across the whole container.
    g.bench_function("scan_compressed_eq", |b| {
        b.iter(|| {
            let mut hits = 0usize;
            for (idx, _) in container.scan() {
                if container.compressed(idx).expect("in range") == comp_probe.as_slice() {
                    hits += 1;
                }
            }
            black_box(hits)
        })
    });
    // Eager: decompress every record, then compare plaintext.
    g.bench_function("scan_decompress_eq", |b| {
        b.iter(|| {
            let mut hits = 0usize;
            for (idx, _) in container.scan() {
                if container.decompress(idx).expect("in range").as_bytes() == probe {
                    hits += 1;
                }
            }
            black_box(hits)
        })
    });
    // Index: binary-searched ContAccess range (what the planner picks).
    g.bench_function("cont_access_range", |b| {
        b.iter(|| black_box(container.equal_range(probe).expect("valid container").len()))
    });
    g.finish();
}

criterion_group!(benches, join_ablation, descendant_ablation, lazy_decompression_ablation);
criterion_main!(benches);
