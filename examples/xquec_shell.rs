//! Interactive XQueC shell: load (or generate) a document, then type XQuery
//! expressions against the compressed repository.
//!
//! ```sh
//! cargo run --release --example xquec_shell [file.xml | xmark:BYTES]
//! ```
//!
//! Commands: `.stats` (repository sizes), `.containers` (codec per
//! container), `.explain <query>` (timed operator plan), `.quit`.

use std::io::{BufRead, Write};
use xquec::core::loader::{load_with, LoaderOptions};
use xquec::core::queries::xmark_workload;
use xquec::core::query::Engine;
use xquec::xml::gen::Dataset;

fn main() {
    let arg = std::env::args().nth(1).unwrap_or_else(|| "xmark:500000".into());
    let xml = if let Some(spec) = arg.strip_prefix("xmark:") {
        let bytes: usize = spec.parse().expect("xmark:<bytes>");
        eprintln!("generating an XMark-like document (~{bytes} bytes)…");
        Dataset::Xmark.generate(bytes)
    } else {
        std::fs::read_to_string(&arg).expect("readable XML file")
    };

    let opts = LoaderOptions { workload: Some(xmark_workload()), ..Default::default() };
    let repo = load_with(&xml, &opts).expect("well-formed XML");
    let report = repo.size_report();
    eprintln!(
        "loaded: {} -> {} bytes compressed (CF {:.1}%), {} containers, {} nodes",
        report.original,
        report.total(),
        report.compression_factor() * 100.0,
        repo.containers.len(),
        repo.tree.len()
    );
    let engine = Engine::new(&repo);

    let stdin = std::io::stdin();
    let mut out = std::io::stdout();
    loop {
        print!("xquec> ");
        out.flush().expect("stdout");
        let mut line = String::new();
        if stdin.lock().read_line(&mut line).expect("stdin") == 0 {
            break;
        }
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        match line {
            ".quit" | ".exit" => break,
            ".stats" => {
                let r = repo.size_report();
                println!("original    {:>12} bytes", r.original);
                println!("dictionary  {:>12}", r.dictionary);
                println!("node records{:>12}", r.structure_tree);
                println!("summary     {:>12}", r.summary);
                println!("containers  {:>12}", r.containers);
                println!("pointers    {:>12}", r.pointers);
                println!("models      {:>12}", r.models);
                println!("total       {:>12}  (CF {:.1}%)", r.total(), r.compression_factor() * 100.0);
            }
            ".containers" => {
                for (i, c) in repo.containers.iter().enumerate() {
                    println!(
                        "c{:<3} {:<50} {:>7} recs  {:<9} {}",
                        i,
                        repo.container_path_string(xquec::core::ContainerId(i as u32)),
                        c.len(),
                        c.stored_codec().name(),
                        if c.is_individual() { "individual" } else { "blz block" },
                    );
                }
            }
            _ if line.starts_with(".explain ") => {
                match engine.profile(&line[".explain ".len()..]) {
                    Ok(p) => println!("{}", p.plan.render()),
                    Err(e) => println!("error: {e}"),
                }
            }
            query => {
                let t = std::time::Instant::now();
                match engine.run(query) {
                    Ok(result) => {
                        let stats = engine.stats.borrow();
                        println!("{result}");
                        println!(
                            "-- {:.2} ms, {} decompressions, {} compressed ops",
                            t.elapsed().as_secs_f64() * 1e3,
                            stats.decompressions,
                            stats.compressed_eq + stats.compressed_cmp
                        );
                    }
                    Err(e) => println!("error: {e}"),
                }
            }
        }
    }
}
