//! Quickstart: compress an XML document and query it in the compressed
//! domain.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use xquec::core::loader::{load_with, LoaderOptions, WorkloadSpec};
use xquec::core::query::Engine;
use xquec::core::PredOp;

fn main() {
    let xml = r#"<library>
        <book year="2004"><title>Efficient Query Evaluation over Compressed XML Data</title>
            <author>Arion</author><author>Bonifati</author><pages>19</pages></book>
        <book year="2000"><title>XMill: an Efficient Compressor for XML Data</title>
            <author>Liefke</author><author>Suciu</author><pages>12</pages></book>
        <book year="2002"><title>XGrind: A Query-friendly XML Compressor</title>
            <author>Tolani</author><author>Haritsa</author><pages>10</pages></book>
    </library>"#;

    // Tell the loader what the workload compares, so the cost-based search
    // (paper §3) picks codecs: equality on authors, ranges on years.
    let workload = WorkloadSpec::new()
        .constant("/library/book/author/text()", PredOp::Eq)
        .constant("/library/book/@year", PredOp::Ineq)
        .project("/library/book/title/text()");
    let opts = LoaderOptions { workload: Some(workload), ..Default::default() };
    let repo = load_with(xml, &opts).expect("well-formed XML");

    let report = repo.size_report();
    println!(
        "loaded {} bytes -> {} compressed ({} containers, CF {:.1}%)",
        report.original,
        report.total(),
        repo.containers.len(),
        report.compression_factor() * 100.0
    );

    let engine = Engine::new(&repo);

    // Equality predicate: evaluated on compressed bytes.
    let q1 = r#"for $b in /library/book
                where $b/author/text() = "Suciu"
                return $b/title/text()"#;
    println!("\nbooks by Suciu: {}", engine.run(q1).expect("valid query"));

    // Range predicate: pushed down to a binary-searched container range.
    let q2 = r#"for $b in /library/book
                where $b/@year >= 2002
                return <hit year={$b/@year}>{ $b/title/text() }</hit>"#;
    println!("\nsince 2002:\n{}", engine.run(q2).expect("valid query"));

    // Aggregation.
    let q3 = "sum(/library/book/pages/text())";
    println!("\ntotal pages: {}", engine.run(q3).expect("valid query"));

    // Peek at the physical plan trace.
    println!("\noperator trace for the range query:");
    println!("{}", engine.profile(q2).expect("valid query").plan.render());
    let stats = engine.stats.borrow();
    println!(
        "(decompressions: {}, compressed-domain comparisons: {})",
        stats.decompressions,
        stats.compressed_eq + stats.compressed_cmp
    );
}
