//! A1 — codec ablation bench: compression and decompression throughput of
//! every algorithm in the pool, on a prose container corpus. This is the
//! measurement behind §2.1's claims ("ALM decompresses faster than Huffman,
//! since it outputs bigger portions of a string at a time") and the cost
//! model's `d_c` constants.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Duration;
use xquec_compress::{blz, Alm, CodecKind, ValueCodec};
use xquec_core::loader::{load_with, LoaderOptions};
use xquec_core::queries::xmark_workload;
use xquec_xml::gen::{Dataset, XmarkGen};

fn corpus() -> Vec<String> {
    let xml = Dataset::Shakespeare.generate(400_000);
    let doc = xquec_xml::Document::parse(&xml).expect("valid");
    let root = doc.root().expect("root");
    doc.descendant_elements(root, "LINE").iter().map(|&n| doc.immediate_text(n)).collect()
}

fn codec_throughput(c: &mut Criterion) {
    let values = corpus();
    let bytes: usize = values.iter().map(|v| v.len()).sum();
    let refs: Vec<&[u8]> = values.iter().map(|v| v.as_bytes()).collect();

    let mut g = c.benchmark_group("codec_decompress");
    g.throughput(Throughput::Bytes(bytes as u64));
    g.sample_size(20).measurement_time(Duration::from_secs(3));
    for kind in
        [CodecKind::Huffman, CodecKind::Alm, CodecKind::HuTucker, CodecKind::Arith, CodecKind::Raw]
    {
        let codec = ValueCodec::train(kind, &refs);
        let comp: Vec<Vec<u8>> =
            values.iter().map(|v| codec.compress(v.as_bytes()).expect("encodes")).collect();
        g.bench_function(kind.name(), |b| {
            b.iter(|| {
                let mut n = 0usize;
                for cv in &comp {
                    n += codec.decompress(cv).expect("trained corpus decodes").len();
                }
                black_box(n)
            })
        });
    }
    g.finish();

    let mut g = c.benchmark_group("codec_compress");
    g.throughput(Throughput::Bytes(bytes as u64));
    g.sample_size(10).measurement_time(Duration::from_secs(3));
    for kind in [CodecKind::Huffman, CodecKind::Alm, CodecKind::HuTucker, CodecKind::Arith] {
        let codec = ValueCodec::train(kind, &refs);
        g.bench_function(kind.name(), |b| {
            b.iter(|| {
                let mut n = 0usize;
                for v in &values {
                    n += codec.compress(v.as_bytes()).expect("encodes").len();
                }
                black_box(n)
            })
        });
    }
    g.finish();

    // Block compressor on the concatenated corpus.
    let joined: Vec<u8> = values.iter().flat_map(|v| v.as_bytes().iter().copied()).collect();
    let blob = blz::compress(&joined);
    let mut g = c.benchmark_group("blz_block");
    g.throughput(Throughput::Bytes(joined.len() as u64));
    g.sample_size(10).measurement_time(Duration::from_secs(3));
    g.bench_function("compress", |b| b.iter(|| black_box(blz::compress(&joined).len())));
    g.bench_function("decompress", |b| b.iter(|| black_box(blz::decompress(&blob).expect("self-compressed block").len())));
    g.finish();
}

/// 1 MB XMark (seed 1) loaded with the XMark workload on one thread.
fn xmark_repository() -> xquec_core::Repository {
    let xml = XmarkGen::with_target_size(1_000_000).seed(1).generate();
    let opts = LoaderOptions { workload: Some(xmark_workload()), threads: 1 };
    load_with(&xml, &opts).expect("XMark loads")
}

/// Every block container of 1 MB XMark loaded with the XMark workload
/// (seed 1): the real mix of block sizes that load encodes and open
/// decodes, most of them a few KB, unlike the one large block of
/// `blz_block`.
fn xmark_block_blobs(c: &mut Criterion) {
    let repo = xmark_repository();
    let blobs: Vec<&[u8]> = repo.containers.iter().filter_map(|c| c.block_blob()).collect();
    let plains: Vec<Vec<u8>> =
        blobs.iter().map(|b| blz::decompress(b).expect("saved blob decodes")).collect();
    let plain: usize = plains.iter().map(Vec::len).sum();
    let mut g = c.benchmark_group("blz_xmark_blocks");
    g.throughput(Throughput::Bytes(plain as u64));
    g.sample_size(20).measurement_time(Duration::from_secs(3));
    g.bench_function("decompress_all", |b| {
        b.iter(|| {
            let mut n = 0usize;
            for blob in &blobs {
                n += blz::decompress(blob).expect("saved blob decodes").len();
            }
            black_box(n)
        })
    });
    g.bench_function("compress_all", |b| {
        b.iter(|| black_box(plains.iter().map(|p| blz::compress(p).len()).sum::<usize>()))
    });
    g.finish();
}

/// ALM training on the corpora of 1 MB XMark's ALM models: one corpus per
/// trained model, the values of every container sharing it. Values come
/// in stored (sorted) order, not the document order the loader sees.
fn alm_training(c: &mut Criterion) {
    let repo = xmark_repository();
    let mut corpora: Vec<(*const ValueCodec, Vec<String>)> = Vec::new();
    for ct in repo.containers.iter().filter(|ct| ct.codec().kind() == CodecKind::Alm) {
        let values = ct.decompress_all().expect("loaded container decodes");
        let key = Arc::as_ptr(ct.codec());
        match corpora.iter_mut().find(|(k, _)| *k == key) {
            Some((_, corpus)) => corpus.extend(values),
            None => corpora.push((key, values)),
        }
    }
    let bytes: usize = corpora.iter().flat_map(|(_, v)| v).map(String::len).sum();
    let mut g = c.benchmark_group("alm_train");
    g.throughput(Throughput::Bytes(bytes as u64));
    g.sample_size(20).measurement_time(Duration::from_secs(3));
    g.bench_function("xmark", |b| {
        b.iter(|| {
            let mut n = 0usize;
            for (_, corpus) in &corpora {
                n += Alm::train(corpus.iter().map(|v| v.as_bytes())).interval_count();
            }
            black_box(n)
        })
    });
    g.finish();
}

/// ALM decoding of two containers of 1 MB XMark, each record in record
/// order into one reused buffer (`ValueCodec::decompress_into`, the path
/// the serializer takes): the closed auctions' annotation prose (long
/// values of many codes) and the people's names (short values).
fn alm_xmark_decode(c: &mut Criterion) {
    let repo = xmark_repository();
    let container = |suffix: &str| {
        repo.containers
            .iter()
            .find(|ct| {
                ct.codec().kind() == CodecKind::Alm
                    && repo
                        .summary
                        .path(ct.path, |t| repo.dict.name(t))
                        .to_string()
                        .ends_with(suffix)
            })
            .unwrap_or_else(|| panic!("an ALM container at {suffix}"))
    };
    let mut g = c.benchmark_group("alm_xmark_decode");
    g.sample_size(20).measurement_time(Duration::from_secs(3));
    for (name, suffix) in [
        ("prose", "/closed_auction/annotation/description/text/text()"),
        ("short_names", "/person/name/text()"),
    ] {
        let ct = container(suffix);
        let codec = ct.codec();
        let records: Vec<&[u8]> =
            (0..ct.len() as u32).map(|i| ct.compressed(i).expect("individual")).collect();
        let mut buf = Vec::new();
        let plain: usize = records
            .iter()
            .map(|r| {
                buf.clear();
                codec.decompress_into(r, &mut buf).expect("loaded record decodes");
                buf.len()
            })
            .sum();
        g.throughput(Throughput::Bytes(plain as u64));
        g.bench_function(name, |b| {
            b.iter(|| {
                let mut n = 0usize;
                for r in &records {
                    buf.clear();
                    codec.decompress_into(r, &mut buf).expect("loaded record decodes");
                    n += buf.len();
                }
                black_box(n)
            })
        });
    }
    g.finish();
}

criterion_group!(benches, codec_throughput, xmark_block_blobs, alm_training, alm_xmark_decode);
criterion_main!(benches);
