//! Corruption fuzz: a persisted repository mutated by random single-bit
//! flips and truncations must always load-and-query to `Ok` or a typed
//! error — never a panic, never a hang. Open inflates no block blob, so
//! damage inside one shows at the first read: each loaded image also has
//! every container decoded.
//!
//! The flip positions are driven by seeded xorshift streams so runs are
//! reproducible; `XQUEC_FUZZ_SEEDS` widens the sweep (`XQUEC_FUZZ_SEEDS=0..8`
//! in CI, default `0..4` locally).

use std::sync::Arc;
use xquec_core::persist::{self, PersistError};
use xquec_core::query::Engine;
use xquec_core::repo::Repository;
use xquec_core::{load_with, LoaderOptions, WorkloadSpec};
use xquec_core::workload::PredOp;
use xquec_storage::{
    FilePager, MemPager, Page, PageId, Pager, StorageError, FILE_HEADER, FRAME_HEADER, FRAME_SIZE,
};

/// Flips per seed; 4 seeds already clear the 200-mutation floor.
const FLIPS_PER_SEED: u64 = 56;

fn seeds() -> Vec<u64> {
    let spec = std::env::var("XQUEC_FUZZ_SEEDS").unwrap_or_else(|_| "0..4".to_owned());
    if let Some((lo, hi)) = spec.split_once("..") {
        let lo: u64 = lo.trim().parse().expect("XQUEC_FUZZ_SEEDS range start");
        let hi: u64 = hi.trim().parse().expect("XQUEC_FUZZ_SEEDS range end");
        (lo..hi).collect()
    } else {
        vec![spec.trim().parse().expect("XQUEC_FUZZ_SEEDS seed")]
    }
}

fn xorshift(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x
}

fn build_repo() -> Repository {
    let xml = xquec_xml::gen::Dataset::Xmark.generate(30_000);
    let spec = WorkloadSpec::new()
        .join("//buyer/@person", "//person/@id", PredOp::Eq)
        .constant("//price/text()", PredOp::Ineq)
        .project("//person/name/text()");
    let opts = LoaderOptions { workload: Some(spec), ..Default::default() };
    load_with(&xml, &opts).expect("reference document loads")
}

fn save_to_file(repo: &Repository, name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("xquec-corruption-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let file = dir.join(name);
    persist::save(repo, &file).expect("save reference repository");
    file
}

/// Run queries over a loaded image and decode every container of it. A
/// corrupt value may legitimately fail to decode, so both `Ok` and a typed
/// error are acceptable; only panics are bugs, and they unwind out and
/// fail the test. Returns whether some container failed to decode.
fn read_everything(repo: &Repository) -> bool {
    let engine = Engine::new(repo);
    for q in ["count(//person)", "sum(//closed_auction/price/text())"] {
        let _ = engine.run(q);
    }
    let mut failed = false;
    for c in &repo.containers {
        if let Err(e) = c.decompress_all() {
            assert_eq!(e.container, c.id, "{e}");
            failed = true;
        }
    }
    failed
}

/// Load a mutated image and, if it loads, read all of it. The return value
/// only feeds the summary.
fn exercise(path: &std::path::Path) -> Result<(), PersistError> {
    read_everything(&persist::load(path)?);
    Ok(())
}

#[test]
fn seeded_bit_flips_never_panic() {
    let repo = build_repo();
    let file = save_to_file(&repo, "flips.xqc");
    let image = std::fs::read(&file).expect("read saved image");
    let scratch = file.with_extension("mut");

    let (mut ok, mut checksum, mut other_err) = (0u64, 0u64, 0u64);
    let mut total = 0u64;
    for seed in seeds() {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
        for _ in 0..FLIPS_PER_SEED {
            let bit = (xorshift(&mut state) % (image.len() as u64 * 8)) as usize;
            let mut mutated = image.clone();
            mutated[bit / 8] ^= 1 << (bit % 8);
            std::fs::write(&scratch, &mutated).expect("write mutated image");
            match exercise(&scratch) {
                Ok(()) => ok += 1,
                Err(PersistError::Storage(StorageError::ChecksumMismatch { .. })) => checksum += 1,
                Err(_) => other_err += 1,
            }
            total += 1;
        }
    }
    assert!(total >= 200, "mutation floor: ran {total}");
    // Most in-frame flips must be caught by the page checksums; flips in the
    // file header or frame headers surface as other typed errors.
    assert!(checksum > 0, "no flip hit a checksummed payload ({ok} ok, {other_err} other)");
    println!("bit flips: {total} total, {ok} ok, {checksum} checksum, {other_err} other errors");
    let _ = std::fs::remove_file(&scratch);
    let _ = std::fs::remove_file(&file);
}

/// Bit flips applied *behind* the checksum layer (directly on an in-memory
/// pager) must still come back as typed errors from the logical validation
/// in `persist::load` and the decode paths — never panics.
#[test]
fn seeded_logical_flips_never_panic() {
    let repo = build_repo();
    let mem = Arc::new(MemPager::new());
    persist::save_to_pager(&repo, mem.clone()).expect("save to memory");
    let pages = mem.page_count();

    let (mut ok, mut err, mut read_err) = (0u64, 0u64, 0u64);
    let mut total = 0u64;
    for seed in seeds() {
        let mut state = seed.wrapping_mul(0xD134_2543_DE82_EF95).wrapping_add(7);
        for _ in 0..FLIPS_PER_SEED {
            let r = xorshift(&mut state);
            let page = PageId(r % pages);
            let bit = (xorshift(&mut state) % (xquec_storage::PAGE_SIZE as u64 * 8)) as usize;

            // Flip one bit in place, exercise, then flip it back.
            let mut p = Page::new();
            mem.read_page(page, &mut p).expect("read page");
            p.bytes_mut()[bit / 8] ^= 1 << (bit % 8);
            mem.write_page(page, &p).expect("write page");

            match persist::load_from_pager(mem.clone()) {
                Ok(revived) if read_everything(&revived) => read_err += 1,
                Ok(_) => ok += 1,
                Err(_) => err += 1,
            }
            total += 1;

            p.bytes_mut()[bit / 8] ^= 1 << (bit % 8);
            mem.write_page(page, &p).expect("restore page");
        }
    }
    assert!(total >= 200, "mutation floor: ran {total}");
    // Sanity: the restored store still loads cleanly.
    assert!(persist::load_from_pager(mem.clone()).is_ok(), "store not restored after flips");
    println!(
        "logical flips: {total} total, {ok} ok, {err} typed errors at open, \
         {read_err} typed errors at first read"
    );
}

#[test]
fn every_truncation_point_is_a_typed_error() {
    let repo = build_repo();
    let file = save_to_file(&repo, "trunc.xqc");
    let image = std::fs::read(&file).expect("read saved image");
    let scratch = file.with_extension("trunc");

    // Every prefix in the headers, then a stride through the body chosen so
    // cut points drift across frame payloads, frame headers and boundaries.
    let mut cuts: Vec<usize> = (0..(FILE_HEADER as usize + FRAME_HEADER).min(image.len())).collect();
    let stride = (FRAME_SIZE as usize / 3) + 11;
    cuts.extend((0..image.len()).step_by(stride));
    cuts.push(image.len().saturating_sub(1));

    for cut in cuts {
        std::fs::write(&scratch, &image[..cut]).expect("write truncated image");
        assert!(
            matches!(exercise(&scratch), Err(PersistError::Storage(_) | PersistError::Corrupt(_))),
            "truncation at byte {cut} of {} did not error",
            image.len()
        );
    }
    let _ = std::fs::remove_file(&scratch);
    let _ = std::fs::remove_file(&file);
}

/// A single flipped payload bit is reported as a checksum mismatch naming
/// the damaged page (the acceptance checksum round-trip).
#[test]
fn flipped_payload_bit_names_the_page() {
    let repo = build_repo();
    let file = save_to_file(&repo, "named.xqc");
    let mut image = std::fs::read(&file).expect("read saved image");

    let page = 2u64;
    let offset = FILE_HEADER as usize + (page as usize) * FRAME_SIZE as usize + FRAME_HEADER + 513;
    image[offset] ^= 0x10;
    std::fs::write(&file, &image).expect("write damaged image");

    let pager = FilePager::open(&file).expect("header is undamaged");
    let mut out = Page::new();
    match pager.read_page(PageId(page), &mut out) {
        Err(StorageError::ChecksumMismatch { page: reported }) => assert_eq!(reported, page),
        other => panic!("expected ChecksumMismatch on page {page}, got {other:?}"),
    }
    // Undamaged pages still read fine through the same pager.
    pager.read_page(PageId(0), &mut out).expect("page 0 intact");
    let _ = std::fs::remove_file(&file);
}
