//! Machine-independent gate on the query engine's work: for every catalog
//! query over 200 KB XMark (loaded with one thread, so the repository is the
//! same everywhere) this compares, against a committed golden file,
//!
//! * a hash and the length of the serialized answer,
//! * the full per-query [`ExecStats`] of a cold run (fresh engine) and of a
//!   warm run (the same engine, block cache populated), and
//! * the stable plan rendering (operators, details, cardinalities).
//!
//! It also checks the counters' accounting on every query, cold and warm:
//! each value read is one fetch, and a block-cache touch happens only in a
//! fetch, so `cache_hits + cache_misses <= value_fetches`; a query that
//! touches no block container decodes each value it fetches, so
//! `decompressions == value_fetches`.
//!
//! A change to the evaluator that claims to only move wall time or heap
//! traffic must leave this file byte-identical: decompressions, value
//! fetches, cache hits/misses, compressed comparisons and every plan line
//! stay where they were. No wall-clock figure is compared, so the test
//! holds on any machine.
//!
//! After a deliberate change to the engine's work, regenerate the golden
//! with `XQUEC_BLESS=1 cargo test -p xquec-core --test exec_counters_golden`
//! and explain the diff in the change description.

use std::fmt::Write as _;
use std::path::PathBuf;
use xquec_core::loader::{load_with, LoaderOptions};
use xquec_core::queries::{xmark_workload, XMARK_QUERIES};
use xquec_core::query::{Engine, ExecStats};
use xquec_xml::gen::Dataset;

/// FNV-1a, 64 bit: a stable hash of the answer bytes.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/exec_counters.txt")
}

/// Assert that `stats` account for every value read through one counted
/// read (see the module docs).
fn assert_reads_accounted(id: &str, run: &str, stats: &ExecStats) {
    let touches = stats.cache_hits + stats.cache_misses;
    assert!(touches <= stats.value_fetches, "{id} {run}: block touches exceed fetches: {stats}");
    if touches == 0 {
        assert_eq!(
            stats.decompressions, stats.value_fetches,
            "{id} {run}: a query without block reads decodes each fetch once: {stats}"
        );
    }
}

/// The golden text: one block per catalog query.
fn record() -> String {
    let xml = Dataset::Xmark.generate(200_000);
    let opts = LoaderOptions { workload: Some(xmark_workload()), threads: 1 };
    let repo = load_with(&xml, &opts).expect("load 200 KB XMark");
    let mut out = String::new();
    for q in XMARK_QUERIES {
        let engine = Engine::new(&repo);
        let cold = engine.run(q.text).unwrap_or_else(|e| panic!("{}: {e}", q.id));
        let cold_stats = *engine.stats.borrow();
        let plan = engine.last_plan().render_stable();
        let warm = engine.run(q.text).unwrap_or_else(|e| panic!("{} (warm): {e}", q.id));
        let warm_stats = *engine.stats.borrow();
        assert_eq!(cold, warm, "{}: warm answer differs from cold", q.id);
        assert_reads_accounted(q.id, "cold", &cold_stats);
        assert_reads_accounted(q.id, "warm", &warm_stats);
        assert_eq!(plan, engine.last_plan().render_stable(), "{}: warm plan differs", q.id);
        let _ =
            writeln!(out, "== {} bytes={} fnv={:016x}", q.id, cold.len(), fnv1a(cold.as_bytes()));
        let _ = writeln!(out, "cold: {cold_stats}");
        let _ = writeln!(out, "warm: {warm_stats}");
        out.push_str(&plan);
    }
    out
}

#[test]
fn catalog_answers_counters_and_plans_match_the_golden() {
    let actual = record();
    let path = golden_path();
    if std::env::var_os("XQUEC_BLESS").is_some() {
        std::fs::create_dir_all(path.parent().expect("golden dir")).expect("create golden dir");
        std::fs::write(&path, &actual).expect("write golden");
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("read {}: {e} (record it with XQUEC_BLESS=1)", path.display()));
    if actual != expected {
        let first = actual
            .lines()
            .zip(expected.lines())
            .position(|(a, e)| a != e)
            .unwrap_or_else(|| actual.lines().count().min(expected.lines().count()));
        panic!(
            "engine work moved; first differing line {}:\n  expected: {:?}\n  actual:   {:?}\n\
             full actual golden:\n{actual}",
            first + 1,
            expected.lines().nth(first),
            actual.lines().nth(first),
        );
    }
}
