//! Randomized property tests over the core invariants.
//!
//! Formerly `proptest`-based; the workspace now builds hermetically, so the
//! same properties are exercised with seeded random inputs from the local
//! `rand` shim — every run replays the identical case set, and a failing
//! case is reported by its `(test, case)` pair.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use xquec::compress::{blz, bwt, numeric, Alm, Arith, Huffman, HuTucker, NumericCodec};
use xquec::storage::{read_stream, write_stream, BufferPool, MemPager, PageId, PAGE_SIZE};

fn bytes(rng: &mut StdRng, max_len: usize) -> Vec<u8> {
    let len = rng.gen_range(0..=max_len);
    (0..len).map(|_| rng.gen_range(0u8..=255)).collect()
}

fn bytes_nonempty(rng: &mut StdRng, max_len: usize) -> Vec<u8> {
    let len = rng.gen_range(1..=max_len);
    (0..len).map(|_| rng.gen_range(0u8..=255)).collect()
}

fn corpus(rng: &mut StdRng, n_max: usize, max_len: usize) -> Vec<Vec<u8>> {
    let n = rng.gen_range(1..=n_max);
    (0..n).map(|_| bytes(rng, max_len)).collect()
}

// ---- compression codecs -----------------------------------------------------

/// blz round-trips arbitrary bytes.
#[test]
fn blz_roundtrip() {
    let mut rng = StdRng::seed_from_u64(0xB12);
    for case in 0..64 {
        let data = bytes(&mut rng, 4096);
        assert_eq!(blz::decompress(&blz::compress(&data)).unwrap(), data, "case {case}");
    }
}

/// blz round-trips at the block edges (empty, one byte, one byte either
/// side of a block, two blocks and a tail) and on both sides of every
/// length at which a block's inverse BWT gets one more walk, over the
/// shapes that stress its decoder: all-equal bytes (one long zero run
/// after move-to-front), long zero runs between random bytes, and every
/// one of the 256 symbols.
#[test]
fn blz_roundtrip_at_block_edges() {
    let mut rng = StdRng::seed_from_u64(0xB10C);
    let n = blz::BLOCK_SIZE;
    let mut lens = vec![0, 1, n - 1, n, n + 1, 2 * n + 77];
    for walks in 1..bwt::MAX_WALKS {
        let at = walks * bwt::SEGMENT;
        assert_eq!((bwt::walks(at - 1), bwt::walks(at)), (walks, walks + 1));
        lens.extend([at - 1, at]);
    }
    assert_eq!(bwt::walks(bwt::MAX_WALKS * bwt::SEGMENT), bwt::MAX_WALKS);
    for len in lens {
        let equal = vec![rng.gen_range(0u8..=255); len];
        let mut runs = Vec::with_capacity(len);
        while runs.len() < len {
            let run = rng.gen_range(0..5000usize).min(len - runs.len());
            runs.resize(runs.len() + run, 0);
            if runs.len() < len {
                runs.push(rng.gen_range(1u8..=255));
            }
        }
        let symbols: Vec<u8> = (0..len).map(|_| rng.gen_range(0u8..=255)).collect();
        if len > 1000 {
            assert!((0..=255u8).all(|b| symbols.contains(&b)), "len {len}");
        }
        for (shape, data) in [("equal", &equal), ("zero runs", &runs), ("symbols", &symbols)] {
            assert_eq!(data.len(), len);
            let c = blz::compress(data);
            assert_eq!(&blz::decompress(&c).unwrap(), data, "{shape}, len {len}");
        }
    }
}

/// BWT round-trips arbitrary bytes: the forward transform permutes the
/// input with the sentinel's row and the entry rows in range, and blz,
/// whose decoder holds the one inverse, gives the input back.
#[test]
fn bwt_roundtrip() {
    let mut rng = StdRng::seed_from_u64(0xB37);
    for case in 0..64 {
        let data = bytes_nonempty(&mut rng, 2048);
        let (l, rows) = bwt::bwt(&data);
        let (mut sorted_l, mut sorted_data) = (l, data.clone());
        sorted_l.sort_unstable();
        sorted_data.sort_unstable();
        assert_eq!(sorted_l, sorted_data, "case {case}");
        assert_eq!(rows.len(), bwt::walks(data.len()), "case {case}");
        assert!(rows.iter().all(|r| (1..=data.len()).contains(r)), "case {case}: rows {rows:?}");
        assert_eq!(blz::decompress(&blz::compress(&data)).unwrap(), data, "case {case}");
    }
}

/// Huffman round-trips and preserves equality of compressed forms.
#[test]
fn huffman_roundtrip_and_eq() {
    let mut rng = StdRng::seed_from_u64(0x4FF);
    for case in 0..48 {
        let corpus = corpus(&mut rng, 20, 64);
        let probe = bytes(&mut rng, 64);
        let h = Huffman::train(corpus.iter().map(|v| v.as_slice()));
        for v in &corpus {
            assert_eq!(h.decompress(&h.compress(v)).unwrap(), v.clone(), "case {case}");
        }
        assert_eq!(h.decompress(&h.compress(&probe)).unwrap(), probe, "case {case}");
        assert_eq!(h.compress(&probe), h.compress(&probe.clone()), "case {case}");
    }
}

/// Huffman prefix matching in the compressed domain equals plaintext prefix
/// matching.
#[test]
fn huffman_prefix_match() {
    let mut rng = StdRng::seed_from_u64(0x9F1);
    for case in 0..96 {
        let value = bytes(&mut rng, 48);
        let cut = rng.gen_range(0..48usize).min(value.len());
        let extra = bytes(&mut rng, 8);
        let h = Huffman::train([value.as_slice()]);
        let comp = h.compress(&value);
        assert!(h.prefix_match(&comp, &value[..cut]), "case {case}");
        let mut other = value[..cut].to_vec();
        other.extend_from_slice(&extra);
        assert_eq!(h.prefix_match(&comp, &other), value.starts_with(&other), "case {case}");
    }
}

/// Arithmetic coding round-trips arbitrary values under any model and stays
/// deterministic (the `eq` property).
#[test]
fn arith_roundtrip() {
    let mut rng = StdRng::seed_from_u64(0xA21);
    for case in 0..48 {
        let corpus = corpus(&mut rng, 16, 64);
        let probe = bytes(&mut rng, 64);
        let a = Arith::train(corpus.iter().map(|v| v.as_slice()));
        for v in &corpus {
            assert_eq!(a.decompress(&a.compress(v)).unwrap(), v.clone(), "case {case}");
        }
        assert_eq!(a.decompress(&a.compress(&probe)).unwrap(), probe, "case {case}");
        assert_eq!(a.compress(&probe), a.compress(&probe.clone()), "case {case}");
    }
}

/// Hu-Tucker round-trips and preserves order in the compressed domain.
#[test]
fn hutucker_order() {
    let mut rng = StdRng::seed_from_u64(0x447);
    for case in 0..48 {
        let n = rng.gen_range(2..=16usize);
        let corpus: Vec<Vec<u8>> = (0..n).map(|_| bytes(&mut rng, 32)).collect();
        let h = HuTucker::train(corpus.iter().map(|v| v.as_slice()));
        let mut sorted = corpus.clone();
        sorted.sort();
        sorted.dedup();
        let comp: Vec<Vec<u8>> = sorted.iter().map(|v| h.compress(v)).collect();
        for w in comp.windows(2) {
            assert_eq!(h.cmp_compressed(&w[0], &w[1]).unwrap(), std::cmp::Ordering::Less, "case {case}");
        }
        for (v, c) in sorted.iter().zip(&comp) {
            assert_eq!(&h.decompress(c).unwrap(), v, "case {case}");
        }
    }
}

/// ALM round-trips its training corpus and is order-preserving under plain
/// byte comparison.
#[test]
fn alm_order_preserving() {
    let mut rng = StdRng::seed_from_u64(0xA7A);
    const ALPHABET: &[u8] = b"abcdef ";
    for case in 0..48 {
        let n = rng.gen_range(2..=24usize);
        let corpus: Vec<String> = (0..n)
            .map(|_| {
                let len = rng.gen_range(0..=24usize);
                (0..len)
                    .map(|_| ALPHABET[rng.gen_range(0..ALPHABET.len())] as char)
                    .collect()
            })
            .collect();
        let alm = Alm::train(corpus.iter().map(|v| v.as_bytes()));
        let mut sorted: Vec<&String> = corpus.iter().collect();
        sorted.sort();
        sorted.dedup();
        let comp: Vec<Vec<u8>> = sorted
            .iter()
            .map(|v| alm.compress(v.as_bytes()).expect("trained corpus encodes"))
            .collect();
        for (i, w) in comp.windows(2).enumerate() {
            assert!(
                w[0] < w[1],
                "case {case}: order violated between {:?} and {:?}",
                sorted[i],
                sorted[i + 1]
            );
        }
        for (v, c) in sorted.iter().zip(&comp) {
            assert_eq!(alm.decompress(c).unwrap(), v.as_bytes(), "case {case}");
        }
    }
}

/// Numeric encoding orders exactly like the numbers themselves.
#[test]
fn numeric_order() {
    let mut rng = StdRng::seed_from_u64(0x111);
    for case in 0..256 {
        let a = rng.gen_range(-1_000_000_000i64..1_000_000_000);
        let b = rng.gen_range(-1_000_000_000i64..1_000_000_000);
        let ea = numeric::encode_i128(a as i128);
        let eb = numeric::encode_i128(b as i128);
        assert_eq!(ea.cmp(&eb), a.cmp(&b), "case {case}");
        assert_eq!(numeric::decode_i128(&ea).unwrap(), a as i128, "case {case}");
    }
}

/// Canonical integers survive the numeric codec byte-for-byte.
#[test]
fn numeric_codec_roundtrip() {
    let mut rng = StdRng::seed_from_u64(0x222);
    for case in 0..64 {
        let n = rng.gen_range(1..=20usize);
        let texts: Vec<String> =
            (0..n).map(|_| rng.gen_range(-100_000i64..100_000).to_string()).collect();
        let codec = NumericCodec::detect(texts.iter().map(|t| t.as_bytes()))
            .expect("canonical integers detect");
        for t in &texts {
            let c = codec.compress(t.as_bytes()).expect("encodes");
            assert_eq!(codec.decompress(&c).unwrap(), t.as_bytes(), "case {case}");
        }
    }
}

// ---- XML ---------------------------------------------------------------------

/// Escape/unescape round-trips arbitrary printable text.
#[test]
fn escape_roundtrip() {
    let mut rng = StdRng::seed_from_u64(0xE5C);
    for case in 0..96 {
        let len = rng.gen_range(0..=200usize);
        let text: String = (0..len)
            .map(|_| {
                // Printable-heavy mix including the XML-special characters.
                match rng.gen_range(0..8u32) {
                    0 => '<',
                    1 => '>',
                    2 => '&',
                    3 => '\'',
                    4 => '"',
                    _ => char::from_u32(rng.gen_range(0x20u32..0x2FF))
                        .unwrap_or('x'),
                }
            })
            .collect();
        let esc = xquec::xml::escape::escape_text(&text).into_owned();
        assert_eq!(xquec::xml::escape::unescape(&esc, 0).unwrap(), text, "case {case}");
    }
}

/// A document built from arbitrary text content parses back to the same text.
#[test]
fn document_text_roundtrip() {
    let mut rng = StdRng::seed_from_u64(0xD0C);
    const INNER: &[u8] = b"abcXYZ019<>&'\" ";
    const TAIL: &[u8] = b"abcXYZ019";
    for case in 0..48 {
        let n = rng.gen_range(1..=10usize);
        // Trailing non-space character keeps the text from being dropped as
        // ignorable inter-element whitespace.
        let texts: Vec<String> = (0..n)
            .map(|_| {
                let len = rng.gen_range(0..=39usize);
                let mut t: String = (0..len)
                    .map(|_| INNER[rng.gen_range(0..INNER.len())] as char)
                    .collect();
                t.push(TAIL[rng.gen_range(0..TAIL.len())] as char);
                t
            })
            .collect();
        let mut b = xquec::xml::XmlBuilder::new();
        b.open("root");
        for t in &texts {
            b.open("item").text(t).close();
        }
        b.close();
        let xml = b.finish();
        let doc = xquec::xml::Document::parse(&xml).unwrap();
        let root = doc.root().unwrap();
        let items = doc.descendant_elements(root, "item");
        assert_eq!(items.len(), texts.len(), "case {case}");
        for (node, t) in items.iter().zip(&texts) {
            assert_eq!(&doc.text_content(*node), t, "case {case}");
        }
    }
}

// ---- storage -------------------------------------------------------------------

/// Byte strings written as page streams read back exactly, one after
/// another in one store. Lengths cover the page edges and several pages,
/// and the pool is smaller than the streams, so evicted pages are written
/// back and faulted in again.
#[test]
fn page_stream_roundtrip() {
    let mut rng = StdRng::seed_from_u64(0x57E);
    let edges = [0, 1, PAGE_SIZE - 1, PAGE_SIZE, PAGE_SIZE + 1, 5 * PAGE_SIZE + 17];
    for case in 0..12 {
        let pool = BufferPool::new(Arc::new(MemPager::new()), 3);
        let mut lens: Vec<usize> =
            (0..4).map(|_| rng.gen_range(0..=6 * PAGE_SIZE)).chain(edges).collect();
        let n = lens.len();
        lens.rotate_left(case % n);
        let streams: Vec<(PageId, Vec<u8>)> = lens
            .iter()
            .map(|&len| {
                let data: Vec<u8> = (0..len).map(|_| rng.gen_range(0u8..=255)).collect();
                (write_stream(&pool, &data).unwrap(), data)
            })
            .collect();
        for (first, data) in &streams {
            let back = read_stream(&pool, *first, data.len() as u64).unwrap();
            assert!(back == *data, "case {case}: stream of {} bytes at {first:?}", data.len());
        }
        let pages: usize = lens.iter().map(|l| l.div_ceil(PAGE_SIZE)).sum();
        assert_eq!(pool.page_count(), pages as u64, "case {case}");
        assert!(pool.stats().evictions > 0, "case {case}: the pool held every page");
    }
}

// ---- repository --------------------------------------------------------------

/// Every value in a loaded repository decompresses back to the original
/// leaf content, whatever the codec mix.
#[test]
fn repository_values_roundtrip() {
    for seed in [0u64, 7, 42, 128, 260, 499] {
        let xml = xquec::xml::gen::xmark::XmarkGen::with_scale(0.0006).seed(seed).generate();
        let repo = xquec::core::loader::load(&xml).unwrap();
        let doc = xquec::xml::Document::parse(&xml).unwrap();
        // Compare multisets of all leaf values.
        let mut original: Vec<String> = Vec::new();
        for n in doc.descendants(doc.document_node()) {
            if let xquec::xml::NodeKind::Text(t) = doc.kind(n) {
                original.push(t.clone());
            }
            for (_, v) in doc.attributes(n) {
                original.push(v.to_owned());
            }
        }
        let mut stored: Vec<String> = Vec::new();
        for c in &repo.containers {
            stored.extend(c.decompress_all().unwrap());
        }
        original.sort();
        stored.sort();
        assert_eq!(stored, original, "seed {seed}");
    }
}
