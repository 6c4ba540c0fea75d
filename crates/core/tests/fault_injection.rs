//! Fault injection over the whole persistence path: every I/O failure
//! point in save and load — plus torn writes and silent read corruption —
//! must surface as a typed error (or survive), never a panic.

use std::sync::{Arc, Mutex};
use xquec_core::persist::{self, PersistError};
use xquec_core::query::Engine;
use xquec_core::repo::Repository;
use xquec_core::{load_with, LoaderOptions};
use xquec_storage::{wal, FaultPager, FaultPlan, MemPager, Pager, StorageError};

/// Every fault-injecting pager a save wrapped, kept for inspection afterwards.
type CapturedPagers = Arc<Mutex<Vec<Arc<FaultPager<Arc<dyn Pager>>>>>>;

fn build_repo(bytes: usize) -> Repository {
    let xml = xquec_xml::gen::Dataset::Xmark.generate(bytes);
    load_with(&xml, &LoaderOptions::default()).expect("reference document loads")
}

/// The XMark size most tests use: a small image, swept at every point.
const SMALL: usize = 10_000;

/// The XMark size of the read-corruption sweep, whose image must span at
/// least `MIN_READ_PAGES` pages.
const SWEPT: usize = 120_000;
const MIN_READ_PAGES: u64 = 6;

fn populated_store(repo: &Repository) -> Arc<MemPager> {
    let mem = Arc::new(MemPager::new());
    persist::save_to_pager(repo, mem.clone()).expect("clean save");
    mem
}

/// Sweep `points` failure indices over `0..total`, always including the
/// first and last operations.
fn sweep(total: u64, points: u64) -> Vec<u64> {
    if total == 0 {
        return vec![];
    }
    let step = (total / points).max(1);
    let mut v: Vec<u64> = (0..total).step_by(step as usize).collect();
    v.push(total - 1);
    v.dedup();
    v
}

#[test]
fn every_write_failure_during_save_is_a_typed_error() {
    let repo = build_repo(SMALL);

    // Measure a clean save to size the sweep.
    let probe = Arc::new(FaultPager::new(MemPager::new(), FaultPlan::none()));
    persist::save_to_pager(&repo, probe.clone()).expect("clean save");
    let (_, writes, allocs) = probe.op_counts();
    assert!(writes > 0 && allocs > 0);

    for at in sweep(writes, 24) {
        let plan = FaultPlan { fail_write_at: Some(at), ..FaultPlan::none() };
        let faulty = Arc::new(FaultPager::new(MemPager::new(), plan));
        let out = persist::save_to_pager(&repo, faulty);
        assert!(
            matches!(out, Err(PersistError::Storage(_))),
            "write fault at {at} not surfaced: {out:?}"
        );
    }
    for at in sweep(allocs, 12) {
        let plan = FaultPlan { fail_allocate_at: Some(at), ..FaultPlan::none() };
        let faulty = Arc::new(FaultPager::new(MemPager::new(), plan));
        let out = persist::save_to_pager(&repo, faulty);
        assert!(
            matches!(out, Err(PersistError::Storage(_))),
            "allocate fault at {at} not surfaced: {out:?}"
        );
    }

    // A failing sync is also an error, not a silent success.
    let plan = FaultPlan { fail_sync: true, ..FaultPlan::none() };
    let faulty = Arc::new(FaultPager::new(MemPager::new(), plan));
    assert!(matches!(persist::save_to_pager(&repo, faulty), Err(PersistError::Storage(_))));
}

#[test]
fn failed_sync_during_save_rolls_back_and_poisons() {
    let old = build_repo(SMALL);
    let new_xml = xquec_xml::gen::Dataset::Xmark.generate(14_000);
    let new = load_with(&new_xml, &LoaderOptions::default()).expect("new document loads");

    let dir = std::env::temp_dir().join(format!("xquec-fault-sync-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let path = dir.join("repo.xqc");
    persist::save(&old, &path).expect("clean save of old");
    let old_bytes = std::fs::read(&path).expect("read old image");

    // Every sync the protocol issues fails; keep a handle on each wrapped
    // pager so the poisoning contract can be checked afterwards.
    let captured: CapturedPagers = Arc::default();
    let sink = captured.clone();
    let wrap = move |inner: Arc<dyn Pager>| -> Arc<dyn Pager> {
        let plan = FaultPlan { fail_sync: true, ..FaultPlan::none() };
        let fp = Arc::new(FaultPager::new(inner, plan));
        sink.lock().expect("capture lock").push(fp.clone());
        fp
    };
    let res = persist::save_with(&new, &path, &wrap);
    assert!(matches!(res, Err(PersistError::Storage(_))), "failed sync must abort the save");

    // The pager whose sync failed is poisoned: its durable state is
    // unknown, so it refuses everything rather than keep writing.
    let pagers = captured.lock().expect("capture lock");
    let poisoned = pagers.iter().find(|p| p.is_poisoned()).expect("a pager saw the failed sync");
    assert!(matches!(poisoned.sync(), Err(StorageError::Poisoned)));
    assert!(matches!(poisoned.allocate(), Err(StorageError::Poisoned)));

    // Rollback: the sync failed while staging the journal, so the main
    // store was never touched and the old image is still byte-intact.
    assert_eq!(std::fs::read(&path).expect("reread"), old_bytes, "main image was disturbed");
    let revived = persist::load(&path).expect("old repository reopens");
    assert_eq!(revived.tree.len(), old.tree.len());
    assert!(!wal::wal_path(&path).exists(), "reopen must discard the dead journal");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn every_read_failure_during_load_is_a_typed_error() {
    let repo = build_repo(SMALL);
    let mem = populated_store(&repo);

    // Measure a clean load to size the sweep.
    let probe = Arc::new(FaultPager::new(mem.clone(), FaultPlan::none()));
    persist::load_from_pager(probe.clone()).expect("clean load");
    let (reads, _, _) = probe.op_counts();
    assert!(reads > 0);

    for at in sweep(reads, 32) {
        let plan = FaultPlan { fail_read_at: Some(at), ..FaultPlan::none() };
        let faulty = Arc::new(FaultPager::new(mem.clone(), plan));
        let out = persist::load_from_pager(faulty);
        assert!(
            matches!(out, Err(PersistError::Storage(_))),
            "read fault at {at} not surfaced as a storage error"
        );
    }
}

#[test]
fn torn_writes_during_save_never_panic_the_loader() {
    let repo = build_repo(SMALL);
    let probe = Arc::new(FaultPager::new(MemPager::new(), FaultPlan::none()));
    persist::save_to_pager(&repo, probe.clone()).expect("clean save");
    let (_, writes, _) = probe.op_counts();

    for at in sweep(writes, 16) {
        for keep in [0usize, 17, 1024, 4096] {
            // The torn write *reports success*: save completes, the store is
            // silently damaged, and only load may notice.
            let plan = FaultPlan { torn_write_at: Some((at, keep)), ..FaultPlan::none() };
            let faulty = Arc::new(FaultPager::new(MemPager::new(), plan));
            persist::save_to_pager(&repo, faulty.clone()).expect("torn write lies");
            match persist::load_from_pager(faulty) {
                Ok(revived) => {
                    // Tear landed in a page that was fully rewritten later,
                    // or in slack space: the repository must still answer.
                    let engine = Engine::new(&revived);
                    let _ = engine.run("count(//person)");
                }
                Err(PersistError::Storage(_) | PersistError::Corrupt(_)) => {}
            }
        }
    }
}

#[test]
fn silent_read_corruption_during_load_never_panics() {
    let repo = build_repo(SWEPT);
    let mem = populated_store(&repo);
    let probe = Arc::new(FaultPager::new(mem.clone(), FaultPlan::none()));
    persist::load_from_pager(probe.clone()).expect("clean load");
    let (reads, _, _) = probe.op_counts();
    // A smaller image would silently narrow the sweep.
    assert!(
        reads >= MIN_READ_PAGES,
        "the image spans {reads} page reads, fewer than {MIN_READ_PAGES}"
    );

    let (mut ok, mut err) = (0u64, 0u64);
    for at in sweep(reads, 24) {
        for bit in [1usize, 4097 * 8 + 3, 8191 * 8] {
            let plan = FaultPlan { flip_read_bit: Some((at, bit)), ..FaultPlan::none() };
            let faulty = Arc::new(FaultPager::new(mem.clone(), plan));
            match persist::load_from_pager(faulty) {
                Ok(revived) => {
                    let engine = Engine::new(&revived);
                    let _ = engine.run("count(//person)");
                    let _ = engine.run("sum(//closed_auction/price/text())");
                    ok += 1;
                }
                Err(PersistError::Storage(_) | PersistError::Corrupt(_)) => err += 1,
            }
        }
    }
    // The sweep must actually have tripped the logical validation somewhere.
    assert!(err > 0, "no flipped read was ever rejected ({ok} ok)");
    println!(
        "silent read corruption over {reads} page reads: {ok} loads survived, {err} typed errors"
    );
}
