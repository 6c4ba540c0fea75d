//! Workload-aware compression tuning — the paper's §3 in action.
//!
//! Loads the same document under three compression configurations and shows
//! how the workload changes codec choices, source-model sharing, and the
//! compressed size:
//!
//! 1. no workload (everything ALM, the §2.1 default);
//! 2. an equality-join workload (join sides share one source model);
//! 3. an inequality workload (order-preserving codecs on the ranges).
//!
//! ```sh
//! cargo run --release --example workload_tuning
//! ```

use std::sync::Arc;
use xquec::core::loader::{load_with, LoaderOptions, WorkloadSpec};
use xquec::core::query::Engine;
use xquec::core::{PredOp, Repository};
use xquec::xml::gen::Dataset;

fn describe(tag: &str, repo: &Repository) {
    let report = repo.size_report();
    println!(
        "\n== {tag}: CF {:.1}% (containers {}, models {} bytes)",
        report.compression_factor() * 100.0,
        repo.containers.len(),
        report.models
    );
    for path in
        ["/site/people/person/@id", "/site/closed_auctions/closed_auction/buyer/@person", "/site/people/person/name/text()"]
    {
        if let Some(cid) = repo.container_by_path(path) {
            let c = repo.container(cid);
            println!(
                "   {path}: codec={}, storage={}, records={}",
                c.stored_codec().name(),
                if c.is_individual() { "individual" } else { "blz block" },
                c.len()
            );
        }
    }
}

fn main() {
    let xml = Dataset::Xmark.generate(1_000_000);

    // 1. No workload: ALM per container.
    let plain = load_with(&xml, &LoaderOptions::default()).expect("load");
    describe("no workload (ALM default)", &plain);

    // 2. Equality join workload: Q8/Q9 shape.
    let eq = WorkloadSpec::new()
        .join(
            "/site/closed_auctions/closed_auction/buyer/@person",
            "/site/people/person/@id",
            PredOp::Eq,
        )
        .project("/site/people/person/name/text()");
    let repo_eq = load_with(&xml, &LoaderOptions { workload: Some(eq), ..Default::default() })
        .expect("load");
    describe("equality-join workload", &repo_eq);
    let ids = repo_eq.container_by_path("/site/people/person/@id").expect("exists");
    let refs = repo_eq
        .container_by_path("/site/closed_auctions/closed_auction/buyer/@person")
        .expect("exists");
    println!(
        "   join sides share one source model: {}",
        Arc::ptr_eq(repo_eq.container(ids).codec(), repo_eq.container(refs).codec())
    );

    // The join now runs on compressed bytes end to end.
    let engine = Engine::new(&repo_eq);
    let out = engine
        .run(
            r#"count(for $p in /site/people/person
                 let $a := for $t in /site/closed_auctions/closed_auction
                           where $t/buyer/@person = $p/@id return $t
                 where count($a) >= 1 return $p)"#,
        )
        .expect("query");
    let stats = engine.stats.borrow();
    println!(
        "   buyers with >=1 purchase: {out} (compressed-domain ops: {}, decompressions: {})",
        stats.compressed_eq + stats.compressed_cmp,
        stats.decompressions
    );
    drop(stats);

    // 3. Inequality workload: names must be order-comparable compressed.
    let ineq = WorkloadSpec::new().constant("/site/people/person/name/text()", PredOp::Ineq);
    let repo_ineq = load_with(&xml, &LoaderOptions { workload: Some(ineq), ..Default::default() })
        .expect("load");
    describe("inequality workload on names", &repo_ineq);
    let names = repo_ineq.container_by_path("/site/people/person/name/text()").expect("exists");
    println!(
        "   name codec order-preserving: {}",
        repo_ineq.container(names).codec().order_preserving()
    );
}
