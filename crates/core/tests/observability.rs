//! Cross-layer tests of the observability subsystem: subscriber delivery
//! under the parallel loader, WAL recovery events, and the structured
//! profile JSON round-trip through the serde stand-in.
//!
//! Both the ambient side (subscriber traffic, registry counters) and the
//! explicit profiles ([`LoadProfile`], `Engine::profile`) are asserted.

use std::path::PathBuf;
use std::sync::Arc;
use xquec_core::persist;
use xquec_core::query::Engine;
use xquec_core::{load_profiled, load_with, LoaderOptions};
use xquec_obs::json::{Json, ToJson};
use xquec_obs::{add_subscriber, remove_subscriber, Collector};
use xquec_storage::wal::{self, Journal};
use xquec_storage::{FilePager, Page, Pager};

const PHASES: [&str; 5] = ["parse", "stats", "cost_search", "codec_training", "container_build"];

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("xquec-obs-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

fn sample_xml(bytes: usize) -> String {
    xquec_xml::gen::Dataset::Xmark.generate(bytes)
}

/// The loader reports the same five phases with the same container and
/// codec totals whether it runs on one thread or many, and span-close
/// notifications from concurrent loads reach a shared subscriber without
/// loss or panic.
#[test]
fn parallel_loader_phase_totals_consistent() {
    let xml = sample_xml(120_000);
    let threads = xquec_core::par::effective_threads(0).max(2);
    let collector = Collector::new();
    let id = add_subscriber(collector.clone());

    let opts = |threads: usize| LoaderOptions { threads, ..Default::default() };
    let (seq_opts, par_opts) = (opts(1), opts(threads));
    let (seq, par) = std::thread::scope(|s| {
        let a = s.spawn(|| load_profiled(&xml, &seq_opts).expect("sequential load").1);
        let b = s.spawn(|| load_profiled(&xml, &par_opts).expect("parallel load").1);
        (a.join().expect("no panic"), b.join().expect("no panic"))
    });
    remove_subscriber(id);

    for profile in [&seq, &par] {
        let names: Vec<&str> = profile.phases.iter().map(|p| p.name).collect();
        assert_eq!(names, PHASES);
        assert!(profile.phases.iter().all(|p| p.nanos > 0), "{:?}", profile.phases);
        assert_eq!(profile.input_bytes, xml.len());
        assert!(profile.total_nanos() > 0);
    }
    // Thread count changes scheduling, never the output: the per-container
    // and per-codec byte totals are identical.
    assert_eq!(
        seq.containers.to_json().pretty(),
        par.containers.to_json().pretty(),
        "parallel load must produce identical container sizes"
    );
    assert_eq!(seq.codecs.to_json().pretty(), par.codecs.to_json().pretty());

    // Both loads closed one span per phase into the shared collector
    // (other tests may add more — assert at least ours arrived).
    let spans = collector.spans();
    for phase in PHASES {
        let name = format!("loader.phase.{phase}");
        let n = spans.iter().filter(|(s, _)| *s == name).count();
        assert!(n >= 2, "expected >=2 closes of {name}, saw {n}");
    }
}

/// WAL recovery announces its decisions: an uncommitted journal is
/// discarded with a reason, a committed one is re-applied with its page
/// count. Both surface as structured events.
#[test]
fn wal_recovery_emits_structured_events() {
    let dir = temp_dir("wal-events");
    let collector = Collector::new();
    let id = add_subscriber(collector.clone());

    // Scenario 1: a journal that never reached its commit record.
    let store = dir.join("uncommitted.xqc");
    std::fs::write(&store, b"placeholder").expect("seed main file");
    {
        let pager = Arc::new(FilePager::create(wal::wal_path(&store)).expect("journal store"));
        let j = Journal::begin(pager).expect("begin");
        let staged = j.staging();
        let pid = staged.allocate().expect("allocate");
        staged.write_page(pid, &Page::new()).expect("write");
        // Dropped without commit(): a mid-save crash.
    }
    assert!(!wal::recover(&store).expect("recovery"));

    // Scenario 2: a committed journal whose save crashed before cleanup.
    let store2 = dir.join("committed.xqc");
    {
        let pager = Arc::new(FilePager::create(wal::wal_path(&store2)).expect("journal store"));
        let j = Journal::begin(pager).expect("begin");
        let staged = j.staging();
        let pid = staged.allocate().expect("allocate");
        staged.write_page(pid, &Page::new()).expect("write");
        j.commit().expect("commit");
    }
    assert!(wal::recover(&store2).expect("recovery"));

    remove_subscriber(id);
    let events = collector.events();
    let for_path = |p: &PathBuf, name: &str| {
        events
            .iter()
            .filter(|(n, fields)| {
                n == name
                    && fields
                        .iter()
                        .any(|(k, v)| k == "path" && v == &p.display().to_string())
            })
            .count()
    };
    assert_eq!(for_path(&store, "storage.wal.recovery_discarded"), 1, "{events:?}");
    assert_eq!(for_path(&store2, "storage.wal.recovery_applied"), 1, "{events:?}");
    let (_, fields) = events
        .iter()
        .find(|(n, _)| n == "storage.wal.recovery_discarded")
        .expect("discard event");
    assert!(
        fields.iter().any(|(k, v)| k == "reason" && v.contains("no durable commit")),
        "{fields:?}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A persist round-trip moves the storage counter families; the registry
/// snapshot exposes them alongside the loader and query families.
#[test]
fn metrics_snapshot_spans_all_three_layers() {
    let xml = sample_xml(80_000);
    let repo = load_with(&xml, &LoaderOptions::default()).expect("load");
    let dir = temp_dir("snapshot");
    let path = dir.join("repo.xqc");
    persist::save(&repo, &path).expect("save");
    let reloaded = persist::load(&path).expect("reload");
    let engine = Engine::new(&reloaded);
    engine.run("count(//item)").expect("query");
    drop(engine); // retire per-query stats into the registry

    let snap = xquec_obs::snapshot();
    for key in [
        "storage.page.read",
        "storage.page.write",
        "storage.wal.commit",
        "loader.bytes.input",
        "loader.containers.built",
        "query.exec.queries",
    ] {
        assert!(snap.counter(key).is_some_and(|v| v > 0), "missing or zero: {key}");
    }
    let families = snap.families();
    for fam in ["storage", "loader", "query"] {
        assert!(families.iter().any(|f| f == fam), "{families:?}");
    }
    // The JSON exposure parses back and holds the same counters.
    let parsed = Json::parse(&snap.to_json().pretty()).expect("valid JSON");
    let read = parsed
        .get("counters")
        .and_then(|c| c.get("storage.page.read"))
        .and_then(Json::as_num)
        .expect("storage.page.read in JSON");
    assert_eq!(read as u64, snap.counter("storage.page.read").expect("present"));
    let _ = std::fs::remove_dir_all(&dir);
}

/// Golden shape of the structured query profile: serializes through the
/// serde stand-in, parses back to an identical value, and exposes every
/// phase and counter a consumer would chart.
#[test]
fn query_profile_json_round_trip() {
    let xml = sample_xml(80_000);
    let repo = load_with(&xml, &LoaderOptions::default()).expect("load");
    let engine = Engine::new(&repo);
    let profile = engine
        .profile("FOR $p IN document(\"auction.xml\")/site/people/person RETURN $p/name/text()")
        .expect("profiled query");

    let json = profile.to_json();
    let text = json.pretty();
    let parsed = Json::parse(&text).expect("profile JSON parses");
    assert_eq!(parsed, json, "pretty -> parse is lossless");

    // Golden structure: the keys and phase names a dashboard relies on.
    assert!(parsed.get("query").and_then(Json::as_str).is_some());
    let phases = match parsed.get("phases") {
        Some(Json::Arr(items)) => items,
        other => panic!("phases must be an array, got {other:?}"),
    };
    let names: Vec<&str> =
        phases.iter().filter_map(|p| p.get("name").and_then(Json::as_str)).collect();
    assert_eq!(names, ["parse", "execute", "serialize"]);
    assert!(phases
        .iter()
        .all(|p| p.get("nanos").and_then(Json::as_num).is_some()));
    for key in ["result_items", "output_bytes"] {
        assert!(parsed.get(key).and_then(Json::as_num).is_some(), "missing {key}");
    }
    let stats = parsed.get("stats").expect("stats object");
    for key in
        ["decompressions", "compressed_eq", "compressed_cmp", "cache_hits", "value_fetches"]
    {
        assert!(stats.get(key).and_then(Json::as_num).is_some(), "missing stats.{key}");
    }
}
