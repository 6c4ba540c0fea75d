//! # XQueC — an XQuery processor and compressor for XML data
//!
//! A from-scratch Rust reproduction of *Arion, Bonifati, Costa, D'Aguanno,
//! Manolescu, Pugliese: "Efficient Query Evaluation over Compressed XML
//! Data", EDBT 2004*.
//!
//! This facade crate re-exports the workspace members:
//!
//! * [`xml`] — XML parser, DOM, and the synthetic evaluation datasets;
//! * [`compress`] — the codec pool (Huffman, ALM, Hu-Tucker, numeric, blz);
//! * [`storage`] — the embedded page store: pages, pagers, a buffer pool,
//!   page streams and the write-ahead journal;
//! * [`core`] — the XQueC system: compressed repository, workload-aware
//!   compression configuration, and the XQuery processor;
//! * [`baselines`] — XMill-, XGrind-, XPRESS- and Galax-like comparators.
//!
//! See the `examples/` directory for runnable walkthroughs and
//! `crates/bench` for the harness regenerating the paper's tables/figures.

pub use xquec_baselines as baselines;
pub use xquec_compress as compress;
pub use xquec_core as core;
pub use xquec_storage as storage;
pub use xquec_xml as xml;
