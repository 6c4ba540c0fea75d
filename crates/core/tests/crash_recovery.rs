//! Crash-point sweep over the atomic save protocol.
//!
//! A save stages the new image into a sidecar journal, commits it with a
//! checksummed record, and only then rewrites the main file. These tests
//! simulate power loss after the k-th durable operation (write / allocate /
//! sync), for every k in a full save, and assert the crash-atomicity
//! contract: reopening always succeeds and yields a store byte-equivalent
//! to exactly the pre-save or the post-save image — never garbage.
//!
//! `XQUEC_CRASH_POINTS=all` forces the exhaustive sweep (every crash
//! point); by default large sweeps are subsampled, always keeping the
//! first and last points. Saves are byte-deterministic for a given
//! repository, which is what makes the old-or-new byte comparison valid.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use xquec_core::persist::{self, PersistError};
use xquec_core::repo::Repository;
use xquec_core::{load_with, LoaderOptions};
use xquec_storage::wal;
use xquec_storage::{CrashPoint, FaultPager, FaultPlan, MemPager, Pager};

fn build_repo(bytes: usize) -> Repository {
    let xml = xquec_xml::gen::Dataset::Xmark.generate(bytes);
    load_with(&xml, &LoaderOptions::default()).expect("reference document loads")
}

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("xquec-crash-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

/// Reset the store at `path` to exactly `bytes`, with no sidecar journal.
fn restore(path: &Path, bytes: &[u8]) {
    std::fs::write(path, bytes).expect("restore main file");
    let _ = std::fs::remove_file(wal::wal_path(path));
}

/// Wrap every pager the save/recovery protocol opens in a `FaultPager`
/// drawing on the shared crash budget `cp` (and optionally flipping a bit
/// on read `flip`).
fn crash_wrap(
    cp: CrashPoint,
    flip: Option<(u64, usize)>,
) -> impl Fn(Arc<dyn Pager>) -> Arc<dyn Pager> {
    move |inner: Arc<dyn Pager>| -> Arc<dyn Pager> {
        let plan = FaultPlan { crash: Some(cp.clone()), flip_read_bit: flip, ..FaultPlan::none() };
        Arc::new(FaultPager::new(inner, plan))
    }
}

/// All crash points `0..total`, subsampled to roughly `cap` points unless
/// `XQUEC_CRASH_POINTS=all` asks for the exhaustive sweep. First and last
/// points are always included.
fn sweep_points(total: u64, cap: u64) -> Vec<u64> {
    if total == 0 {
        return vec![];
    }
    let exhaustive = std::env::var("XQUEC_CRASH_POINTS").is_ok_and(|v| v == "all");
    let step = if exhaustive { 1 } else { (total / cap).max(1) };
    let mut v: Vec<u64> = (0..total).step_by(step as usize).collect();
    if v.last() != Some(&(total - 1)) {
        v.push(total - 1);
    }
    v
}

/// Baseline states: `old` saved at `path` (its bytes returned), and the
/// byte image `new` would leave after a clean save over it.
fn baselines(path: &Path, old: &Repository, new: &Repository) -> (Vec<u8>, Vec<u8>, u64) {
    persist::save(old, path).expect("clean save of old");
    let old_bytes = std::fs::read(path).expect("read old image");

    // Probe run: count the durable ops of a full save of `new` over `old`,
    // and capture the post-save bytes. The unlimited crash point never
    // trips, so the FaultPager is a pure pass-through counter.
    let probe = CrashPoint::unlimited();
    persist::save_with(new, path, &crash_wrap(probe.clone(), None)).expect("probe save");
    let new_bytes = std::fs::read(path).expect("read new image");
    assert_ne!(old_bytes, new_bytes, "old and new images must differ for the sweep to mean anything");

    // Determinism check: replaying the same save over the old image must
    // reproduce the probe bytes, or byte-equivalence below is vacuous.
    restore(path, &old_bytes);
    persist::save(new, path).expect("determinism save");
    assert_eq!(std::fs::read(path).expect("reread"), new_bytes, "save is not byte-deterministic");

    (old_bytes, new_bytes, probe.ops_used())
}

/// The fewest durable ops a save in `every_crash_point_recovers_to_old_or_new`
/// may make: a smaller image would silently narrow the sweep.
const MIN_SWEPT_OPS: u64 = 30;

#[test]
fn every_crash_point_recovers_to_old_or_new() {
    let old = build_repo(60_000);
    let new = build_repo(90_000);
    let dir = temp_dir("sweep");
    let path = dir.join("repo.xqc");

    let (old_bytes, new_bytes, total) = baselines(&path, &old, &new);
    assert!(
        total >= MIN_SWEPT_OPS,
        "save of the probe repo made {total} durable ops, fewer than {MIN_SWEPT_OPS}"
    );

    let points = sweep_points(total, 40);
    let (mut recovered_old, mut recovered_new) = (0u64, 0u64);
    for &k in &points {
        restore(&path, &old_bytes);
        let cp = CrashPoint::after(k);
        let res = persist::save_with(&new, &path, &crash_wrap(cp, None));
        assert!(res.is_err(), "crash at op {k} of {total} did not abort the save");

        // "Reboot": open the store; FilePager::open replays or discards the
        // journal, so the load must succeed with no special handling.
        let revived = persist::load(&path)
            .unwrap_or_else(|e| panic!("reopen after crash at op {k} failed: {e}"));

        let bytes = std::fs::read(&path).expect("read recovered image");
        if bytes == old_bytes {
            assert_eq!(revived.tree.len(), old.tree.len(), "crash at {k}: old bytes, wrong tree");
            recovered_old += 1;
        } else if bytes == new_bytes {
            assert_eq!(revived.tree.len(), new.tree.len(), "crash at {k}: new bytes, wrong tree");
            recovered_new += 1;
        } else {
            panic!("crash at op {k}: recovered image is neither the old nor the new bytes");
        }
        assert!(
            !wal::wal_path(&path).exists(),
            "crash at op {k}: recovery left the journal behind"
        );
    }
    // The sweep must straddle the commit point: early crashes keep the old
    // image, late ones complete the new one.
    assert!(recovered_old > 0, "no crash point ever preserved the old image");
    assert!(recovered_new > 0, "no crash point ever completed the new image");
    println!(
        "crash sweep: {} points over {total} durable ops — {recovered_old} old, {recovered_new} new",
        points.len()
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn recovery_itself_is_restartable_at_every_crash_point() {
    let old = build_repo(6_000);
    let new = build_repo(9_000);
    let dir = temp_dir("rerecover");
    let path = dir.join("repo.xqc");

    let (old_bytes, new_bytes, total) = baselines(&path, &old, &new);

    // Build the fixture: a save that died mid-apply, leaving a committed
    // journal and a half-rewritten main file.
    restore(&path, &old_bytes);
    let res = persist::save_with(&new, &path, &crash_wrap(CrashPoint::after(total - 2), None));
    assert!(res.is_err());
    let wp = wal::wal_path(&path);
    assert!(wp.exists(), "mid-apply crash must leave the committed journal");
    let wal_bytes = std::fs::read(&wp).expect("read journal fixture");
    let main_bytes = std::fs::read(&path).expect("read torn main fixture");
    assert_ne!(main_bytes, old_bytes);
    assert_ne!(main_bytes, new_bytes);

    // Probe recovery's own durable op count.
    let probe = CrashPoint::unlimited();
    assert!(wal::recover_with(&path, &crash_wrap(probe.clone(), None)).expect("probe recovery"));
    assert_eq!(std::fs::read(&path).expect("reread"), new_bytes);
    let r_total = probe.ops_used();
    assert!(r_total > 2, "recovery made only {r_total} durable ops");

    // Crash recovery after each of its own durable ops; a second recovery
    // (the next reboot) must still complete the committed save.
    for k in sweep_points(r_total, 24) {
        std::fs::write(&wp, &wal_bytes).expect("restore journal");
        std::fs::write(&path, &main_bytes).expect("restore torn main");
        let res = wal::recover_with(&path, &crash_wrap(CrashPoint::after(k), None));
        assert!(res.is_err(), "recovery crash at op {k} of {r_total} did not surface");
        assert!(wp.exists(), "failed recovery at op {k} discarded the committed journal");

        let applied = wal::recover(&path).expect("second recovery completes");
        assert!(applied, "second recovery at crash point {k} applied nothing");
        assert_eq!(
            std::fs::read(&path).expect("reread"),
            new_bytes,
            "crash at recovery op {k}: replay did not reproduce the committed image"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn composed_crash_and_bitflip_sweep_never_yields_garbage_silently() {
    // Documents whose images span several pages (five for `new`): read
    // k / 4 below only reaches the commit's checksum pass when that pass
    // reads more than a page or two.
    let old = build_repo(60_000);
    let new = build_repo(90_000);
    let dir = temp_dir("composed");
    let path = dir.join("repo.xqc");

    let (old_bytes, new_bytes, total) = baselines(&path, &old, &new);

    // Layer a transient single-bit read corruption on top of each crash
    // point (memory-side, past the page CRC — the nastiest composition).
    // The atomicity contract weakens to: every outcome is a typed error or
    // a consistent store; nothing panics and nothing torn loads silently.
    // A save makes about four durable operations per image page (staging
    // allocate and write, apply allocate and write) and reads each journal
    // page twice (the commit's checksum pass, then apply), so read k / 4
    // falls in the commit's checksum pass for the crash points of apply.
    let (mut ok, mut err) = (0u64, 0u64);
    for k in sweep_points(total, 16) {
        for bit in [3usize, 8 * 4096 + 1, 8 * 8191] {
            restore(&path, &old_bytes);
            let cp = CrashPoint::after(k);
            let flip = Some((k / 4, bit));
            let _ = persist::save_with(&new, &path, &crash_wrap(cp, flip));

            match persist::load(&path) {
                Ok(revived) => {
                    let bytes = std::fs::read(&path).expect("read recovered image");
                    assert!(
                        bytes == old_bytes || bytes == new_bytes,
                        "crash {k} flip {bit}: load succeeded on a torn image"
                    );
                    let want =
                        if bytes == old_bytes { old.tree.len() } else { new.tree.len() };
                    assert_eq!(revived.tree.len(), want);
                    ok += 1;
                }
                // A flip that reached the journal's committed image (or its
                // record) is detected, never silently applied.
                Err(PersistError::Storage(_) | PersistError::Corrupt(_)) => err += 1,
            }

            // Whatever happened, the v2 header and any surviving commit
            // record must still be self-consistent: both parse fully or
            // fail with a typed error, so the next save can proceed.
            match xquec_storage::FilePager::open_raw(&path) {
                Ok(p) => {
                    let hdr_pages = p.page_count();
                    let len = std::fs::metadata(&path).expect("stat main").len();
                    assert_eq!(
                        len,
                        xquec_storage::FILE_HEADER + hdr_pages * xquec_storage::FRAME_SIZE,
                        "crash {k} flip {bit}: header page count disagrees with file length"
                    );
                }
                Err(xquec_storage::StorageError::BadHeader { .. }) => {}
                Err(e) => panic!("crash {k} flip {bit}: unexpected open error {e}"),
            }
            let wp = wal::wal_path(&path);
            if wp.exists() {
                let wal_pager =
                    xquec_storage::FilePager::open_raw(&wp).expect("journal stays openable");
                // Typed outcome either way — a retained journal is always
                // either affirmatively committed or a typed error.
                match wal::committed(&wal_pager) {
                    Ok(Some(rec)) => assert_eq!(rec.pages, wal_pager.page_count() - 1),
                    Ok(None) => {}
                    Err(xquec_storage::StorageError::Corrupt { .. }) => {}
                    Err(e) => panic!("crash {k} flip {bit}: commit record check: {e}"),
                }
            }
        }
    }
    assert!(err > 0, "no composed fault was ever detected ({ok} clean recoveries)");
    println!("composed sweep: {ok} recoveries, {err} typed detections");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn concurrent_loads_share_one_fault_pager() {
    let repo = build_repo(9_000);
    let mem = Arc::new(MemPager::new());
    persist::save_to_pager(&repo, mem.clone()).expect("clean save");

    // Several threads load through ONE shared Arc<FaultPager> whose read
    // counter is global, so the injected bit flip lands in a different
    // reader every run: each thread must see either a clean repository or
    // a typed error — concurrency must not turn corruption into a panic.
    let want = repo.tree.len();
    for bit in [5usize, 8 * 2048 + 7] {
        for at in [0u64, 7, 63] {
            let plan = FaultPlan { flip_read_bit: Some((at, bit)), ..FaultPlan::none() };
            let shared: Arc<FaultPager<Arc<MemPager>>> =
                Arc::new(FaultPager::new(mem.clone(), plan));
            std::thread::scope(|s| {
                let handles: Vec<_> = (0..4)
                    .map(|_| {
                        let pager: Arc<dyn Pager> = shared.clone();
                        s.spawn(move || match persist::load_from_pager(pager) {
                            Ok(revived) => {
                                assert_eq!(revived.tree.len(), want);
                                true
                            }
                            Err(PersistError::Storage(_) | PersistError::Corrupt(_)) => false,
                        })
                    })
                    .collect();
                let outcomes: Vec<bool> =
                    handles.into_iter().map(|h| h.join().expect("loader thread")).collect();
                // At most one thread can have consumed the flipped read.
                assert!(
                    outcomes.iter().filter(|&&clean| !clean).count() <= 1,
                    "one injected flip failed several loads: {outcomes:?}"
                );
            });
        }
    }
}
