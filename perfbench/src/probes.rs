//! Layer probes of the traced run: each layer timed on its own, outside the
//! workload's timed loop, over the workload's own document and repository.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use xquec_compress::{bitio, blz, CodecKind};
use xquec_core::{persist, Repository};
use xquec_xml::Reader;

use crate::stats::best;
use crate::trace;

/// Repetitions of each probe; the fastest is reported. Per-value decoding
/// and encoding take milliseconds per pass, so they are repeated more.
const PROBE_REPS: usize = 3;
const SHORT_PROBE_REPS: usize = 20;

/// Fastest of `reps` runs of `f`, in seconds.
fn fastest(
    name: &'static str,
    reps: usize,
    mut f: impl FnMut() -> Result<(), String>,
) -> Result<f64, String> {
    let mut times = Vec::with_capacity(reps);
    for _ in 0..reps {
        let _s = trace::span(name);
        let t = Instant::now();
        f()?;
        times.push(t.elapsed().as_secs_f64());
    }
    Ok(best(&times))
}

/// Run every probe and insert its per-layer metrics into `out`: the reader
/// over `xml`, the codecs over `repo` (loaded from `xml`), and a durable
/// save of `saved` into the temporary file `path`, removed afterwards.
pub fn run_all(
    xml: &str,
    repo: &Repository,
    saved: &Repository,
    path: &Path,
    out: &mut BTreeMap<&'static str, f64>,
) -> Result<(), String> {
    trace::begin_op();
    let _s = trace::span("probes");
    xml_reader(xml, out)?;
    codecs(repo, out)?;
    durable_save(saved, path, out)
}

/// Pull every `Reader` event over the input.
fn xml_reader(xml: &str, out: &mut BTreeMap<&'static str, f64>) -> Result<(), String> {
    let secs = fastest("probe.xml_reader", PROBE_REPS, || {
        let mut reader = Reader::new(xml);
        while let Some(ev) = reader.next_event().map_err(|e| e.to_string())? {
            black_box(ev);
        }
        Ok(())
    })?;
    out.insert("xml.reader_mb_per_s", xml.len() as f64 / 1e6 / secs);
    Ok(())
}

/// Decode and encode MB/s of the codecs the repository's containers use,
/// measured in plaintext bytes.
fn codecs(repo: &Repository, out: &mut BTreeMap<&'static str, f64>) -> Result<(), String> {
    let err = |e: &dyn std::fmt::Display| e.to_string();
    for (kind, decode_name, encode_name) in [
        (
            CodecKind::Alm,
            "codec.alm.decode_mb_per_s",
            Some("codec.alm.encode_mb_per_s"),
        ),
        (CodecKind::Numeric, "codec.numeric.decode_mb_per_s", None),
    ] {
        let containers: Vec<_> = repo
            .containers
            .iter()
            .filter(|c| c.is_individual() && c.codec().kind() == kind)
            .collect();
        let mut plain = Vec::new();
        for c in &containers {
            for i in 0..c.len() as u32 {
                let comp = c.compressed(i).map_err(|e| err(&e))?;
                plain.push(c.codec().decompress(comp).map_err(|e| err(&e))?);
            }
        }
        let mb = plain.iter().map(Vec::len).sum::<usize>() as f64 / 1e6;
        let secs = fastest("probe.codec.decode", SHORT_PROBE_REPS, || {
            for c in &containers {
                for i in 0..c.len() as u32 {
                    let comp = c.compressed(i).map_err(|e| err(&e))?;
                    black_box(c.codec().decompress(comp).map_err(|e| err(&e))?);
                }
            }
            Ok(())
        })?;
        out.insert(decode_name, mb / secs);
        if let Some(encode_name) = encode_name {
            let mut values = plain.iter();
            let secs = fastest("probe.codec.encode", SHORT_PROBE_REPS, || {
                values = plain.iter();
                for c in &containers {
                    for _ in 0..c.len() {
                        let v = values.next().ok_or("record count changed")?;
                        black_box(c.codec().compress(v));
                    }
                }
                Ok(())
            })?;
            out.insert(encode_name, mb / secs);
        }
    }

    // Block containers: whole-container inflation, and the blz compression
    // of the same varint-framed plaintext the loader compresses.
    let blocks: Vec<_> = repo
        .containers
        .iter()
        .filter(|c| !c.is_individual())
        .collect();
    let mut framed = Vec::with_capacity(blocks.len());
    for c in &blocks {
        let mut buf = Vec::with_capacity(c.plain_size() + 2 * c.len());
        for v in c.decompress_all().map_err(|e| err(&e))? {
            bitio::write_varint(&mut buf, v.len());
            buf.extend_from_slice(v.as_bytes());
        }
        framed.push(buf);
    }
    let plain_mb = blocks.iter().map(|c| c.plain_size()).sum::<usize>() as f64 / 1e6;
    let secs = fastest("probe.codec.blz_decode", PROBE_REPS, || {
        for c in &blocks {
            black_box(c.decompress_all().map_err(|e| err(&e))?);
        }
        Ok(())
    })?;
    out.insert("codec.blz.decode_mb_per_s", plain_mb / secs);
    let framed_mb = framed.iter().map(Vec::len).sum::<usize>() as f64 / 1e6;
    let secs = fastest("probe.codec.blz_encode", PROBE_REPS, || {
        for f in &framed {
            black_box(blz::compress(f));
        }
        Ok(())
    })?;
    out.insert("codec.blz.encode_mb_per_s", framed_mb / secs);
    Ok(())
}

/// One durable file save: counts of page writes and syncs (the wall time
/// would measure the machine's disk, so it is not reported).
fn durable_save(
    repo: &Repository,
    path: &Path,
    out: &mut BTreeMap<&'static str, f64>,
) -> Result<(), String> {
    let before = xquec_obs::snapshot();
    let res = {
        let _s = trace::span("probe.persist.save");
        persist::save(repo, path)
    };
    let after = xquec_obs::snapshot();
    let _ = std::fs::remove_file(path);
    res.map_err(|e| e.to_string())?;
    let delta = |n: &str| {
        after
            .counter(n)
            .unwrap_or(0)
            .saturating_sub(before.counter(n).unwrap_or(0)) as f64
    };
    out.insert("storage.syncs_per_save", delta("storage.page.sync"));
    out.insert("storage.page_writes_per_save", delta("storage.page.write"));
    Ok(())
}
