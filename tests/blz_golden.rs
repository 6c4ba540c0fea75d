//! Byte-identity gate for the encoders on the load path.
//!
//! A suffix array is unique, so any correct suffix sort behind the BWT must
//! produce the same blz bytes; a change to `bwt.rs`, `blz.rs` or the
//! Huffman stage that moves a single output byte fails here. The hash of a
//! saved repository image also pins the models the loader trains, ALM
//! dictionaries among them.
//!
//! The blz hashes were re-pinned once for a block layout change, with no
//! other encoder touched: each block now stores the BWT rows at which its
//! inverse's walks start (one per full 8 KiB, at most 7, packed in as
//! many bits as the block length takes), and neither the payload's byte
//! length nor the Huffman codes' bit count (the RLE symbol count ends
//! them). Before that, the hashes had held since the prefix-doubling sort
//! that SA-IS replaced.

use std::sync::Arc;
use xquec::compress::blz;
use xquec::core::loader::{load_with, LoaderOptions};
use xquec::core::persist;
use xquec::core::queries::xmark_workload;
use xquec::storage::{MemPager, Page, PageId, Pager};
use xquec::xml::gen::Dataset;

fn fnv1a(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h ^= u64::from(b);
        *h = h.wrapping_mul(0x100_0000_01b3);
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// A 300 KB XMark document compressed whole: one full `BLOCK_SIZE` block
/// plus a partial one.
#[test]
fn blz_of_xmark_text_is_unchanged() {
    let xml = Dataset::Xmark.generate(300_000);
    assert!(xml.len() > blz::BLOCK_SIZE);
    let out = blz::compress(xml.as_bytes());
    let mut h = FNV_OFFSET;
    fnv1a(&mut h, &out);
    assert_eq!((out.len(), format!("{h:016x}")), (GOLDEN_TEXT_LEN, GOLDEN_TEXT_FNV.to_string()));
    assert_eq!(blz::decompress(&out).unwrap(), xml.as_bytes());
}

/// Every block container of a 250 KB XMark repository (loader on one
/// thread), re-encoded from its decoded values the way the loader encodes
/// them, plus the repository's accounted size.
#[test]
fn blz_of_xmark_block_containers_is_unchanged() {
    let xml = Dataset::Xmark.generate(250_000);
    let opts = LoaderOptions { workload: Some(xmark_workload()), threads: 1 };
    let repo = load_with(&xml, &opts).unwrap();
    let mut h = FNV_OFFSET;
    let mut blocks = 0usize;
    for c in repo.containers.iter().filter(|c| !c.is_individual()) {
        let mut concat = Vec::new();
        for v in c.decompress_all().unwrap() {
            xquec::compress::bitio::write_varint(&mut concat, v.len());
            concat.extend_from_slice(v.as_bytes());
        }
        fnv1a(&mut h, &blz::compress(&concat));
        blocks += 1;
    }
    assert_eq!(
        (blocks, format!("{h:016x}"), repo.size_report().total()),
        (GOLDEN_BLOCKS, GOLDEN_BLOCKS_FNV.to_string(), GOLDEN_ACCOUNTED)
    );
}

/// The saved image of the same 250 KB repository, page by page. This pins
/// every encoder the loader trains or runs (ALM dictionaries, Huffman and
/// Hu-Tucker tables, numeric and blz payloads), not just the total size.
#[test]
fn saved_image_of_xmark_repository_is_unchanged() {
    let xml = Dataset::Xmark.generate(250_000);
    let opts = LoaderOptions { workload: Some(xmark_workload()), threads: 1 };
    let repo = load_with(&xml, &opts).unwrap();
    let pager = Arc::new(MemPager::new());
    persist::save_to_pager(&repo, pager.clone()).unwrap();
    let mut h = FNV_OFFSET;
    let mut page = Page::new();
    for id in 0..pager.page_count() {
        pager.read_page(PageId(id), &mut page).unwrap();
        fnv1a(&mut h, page.bytes());
    }
    assert_eq!(
        (pager.page_count(), format!("{h:016x}")),
        (GOLDEN_IMAGE_PAGES, GOLDEN_IMAGE_FNV.to_string())
    );
}

// Recorded for the block layout with entry rows. The layout before it gave
// 62,936 bytes ("b8242e9484b669bf") for the text, "b15a8ba5f515cb40" for the
// blocks and 157,277 accounted bytes.
const GOLDEN_TEXT_LEN: usize = 62_950;
const GOLDEN_TEXT_FNV: &str = "a5f26b64130f5868";
const GOLDEN_BLOCKS: usize = 86;
const GOLDEN_BLOCKS_FNV: &str = "27a757ef9c0fdd6e";
const GOLDEN_ACCOUNTED: usize = 157_002;
// Recorded for the `XQUEC05` image layout: the `XQUEC04` one (one stream; no
// stored paths, extents or value refs; "df626cb55c4c61d0") with the blz
// blobs of the block layout above. Every model and record in it is what
// the `XQUEC03` image (20 pages, "dbb9bac3ebffd5be") held, recorded before
// the blz encode stages and ALM training were rewritten.
const GOLDEN_IMAGE_PAGES: u64 = 14;
const GOLDEN_IMAGE_FNV: &str = "5da03ba31736f0bf";
