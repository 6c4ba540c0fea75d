//! The reproduction experiments, one function per paper artifact.
//!
//! See DESIGN.md's experiments index: E1 = Table 1, E2/E3 = Fig. 6,
//! E4 = Fig. 7 (+ the in-text Q8/Q9 numbers), E5 = the §3.3 partitioning
//! example, E6 = the §2.2 storage-overhead claims, A1 = the codec ablation
//! behind §2.1's choice of ALM.

use std::sync::Arc;
use xquec_baselines::{GalaxEngine, XgrindDoc, XmillDoc, XpressDoc};
use xquec_core::cost::{Configuration, CostModel, Group};
use xquec_core::loader::{load, load_with, LoaderOptions};
use xquec_core::queries::{xmark_workload, XMARK_QUERIES};
use xquec_core::query::Engine;
use xquec_core::stats::ContainerStats;
use xquec_core::workload::{PredOp, Workload};
use xquec_core::ContainerId;
use xquec_storage::{MemPager, Pager, FILE_HEADER, FRAME_SIZE};
use xquec_xml::gen::Dataset;

use crate::{time, time_median};

/// Experiment sizing profile.
#[derive(Debug, Clone, Copy)]
pub struct Profile {
    /// Scale all dataset sizes down for smoke runs.
    pub quick: bool,
}

impl Profile {
    fn scaled(&self, full: usize) -> usize {
        if self.quick {
            (full / 16).max(60_000)
        } else {
            full
        }
    }

    /// The four corpora of Table 1 with their (approximate) original sizes.
    pub fn datasets(&self) -> Vec<(Dataset, usize)> {
        vec![
            (Dataset::Shakespeare, self.scaled(7_300_000)),
            (Dataset::Courses, self.scaled(3_000_000)),
            (Dataset::Baseball, self.scaled(650_000)),
            (Dataset::Xmark, self.scaled(11_300_000)),
        ]
    }

    /// XMark sizes for the Fig. 6 (right) sweep.
    pub fn xmark_sweep(&self) -> Vec<usize> {
        if self.quick {
            vec![120_000, 400_000, 900_000]
        } else {
            vec![1_000_000, 5_000_000, 10_000_000, 25_000_000]
        }
    }

    /// Document size for Fig. 7 query timing (the paper's XMark11).
    pub fn fig7_bytes(&self) -> usize {
        self.scaled(11_300_000)
    }

    /// Per-query Galax timeout in seconds.
    pub fn galax_timeout(&self) -> f64 {
        if self.quick {
            10.0
        } else {
            150.0
        }
    }
}

// ---- E1: Table 1 ----------------------------------------------------------

/// One dataset characterization row.
#[derive(Debug)]
pub struct DatasetRow {
    /// Dataset name.
    pub name: String,
    /// Generated size in bytes.
    pub bytes: usize,
    /// Number of element/attribute nodes.
    pub nodes: usize,
    /// Distinct tag/attribute names.
    pub distinct_names: usize,
    /// Number of value containers (distinct `<type, path>` pairs).
    pub containers: usize,
    /// Structure-summary nodes (distinct paths).
    pub summary_nodes: usize,
    /// Fraction of bytes that are leaf values.
    pub value_ratio: f64,
}

/// E1: dataset characteristics (Table 1).
pub fn table1(p: Profile) -> Vec<DatasetRow> {
    p.datasets()
        .into_iter()
        .map(|(ds, bytes)| {
            let xml = ds.generate(bytes);
            let vr = xquec_xml::value_ratio(&xml).expect("generated XML is well-formed");
            let repo = load(&xml).expect("loads");
            DatasetRow {
                name: ds.name().to_owned(),
                bytes: xml.len(),
                nodes: repo.tree.len(),
                distinct_names: repo.dict.len(),
                containers: repo.containers.len(),
                summary_nodes: repo.summary.len(),
                value_ratio: vr,
            }
        })
        .collect()
}

// ---- E2/E3: Fig. 6 compression factors -----------------------------------

/// Compression factors of every system on one document.
#[derive(Debug)]
pub struct CfRow {
    /// Dataset name.
    pub dataset: String,
    /// Original bytes.
    pub bytes: usize,
    /// XQueC tuned for the query workload (projected containers stay
    /// individually compressed; what Fig. 7 queries run against).
    pub xquec_query: f64,
    /// XQueC tuned for archival: only predicate-queried containers stay
    /// individual, everything else is blz-blocked (§3.3).
    pub xquec_archive: f64,
    /// XMill-like baseline.
    pub xmill: f64,
    /// XGrind-like baseline.
    pub xgrind: f64,
    /// XPRESS-like baseline.
    pub xpress: f64,
}

fn cf_row(name: &str, xml: &str, query_opts: &LoaderOptions, archive_opts: &LoaderOptions) -> CfRow {
    let q = load_with(xml, query_opts).expect("xquec load").size_report();
    let a = load_with(xml, archive_opts).expect("xquec load").size_report();
    let xmill = XmillDoc::compress(xml).expect("xmill");
    let xgrind = XgrindDoc::compress(xml).expect("xgrind");
    let xpress = XpressDoc::compress(xml).expect("xpress");
    CfRow {
        dataset: name.to_owned(),
        bytes: xml.len(),
        xquec_query: q.compression_factor(),
        xquec_archive: a.compression_factor(),
        xmill: xmill.compression_factor(),
        xgrind: xgrind.compression_factor(),
        xpress: xpress.compression_factor(),
    }
}

/// Loader options for the archive tuning: with a workload, every textual
/// container outside the predicate set is stored as a blz block (§3.3's
/// prescription).
fn archive_options(workload: Option<xquec_core::WorkloadSpec>) -> LoaderOptions {
    let mut spec = workload.unwrap_or_default();
    spec.projections.clear();
    LoaderOptions { workload: Some(spec), ..Default::default() }
}

/// E2: Fig. 6 (left) — CF on the three real-life-style corpora.
pub fn fig6_left(p: Profile) -> Vec<CfRow> {
    p.datasets()
        .into_iter()
        .filter(|(ds, _)| *ds != Dataset::Xmark)
        .map(|(ds, bytes)| {
            let xml = ds.generate(bytes);
            cf_row(ds.name(), &xml, &LoaderOptions::default(), &archive_options(None))
        })
        .collect()
}

/// E3: Fig. 6 (right) — CF over XMark document sizes.
pub fn fig6_right(p: Profile) -> Vec<CfRow> {
    let opts = LoaderOptions { workload: Some(xmark_workload()), ..Default::default() };
    let archive = archive_options(Some(xmark_workload()));
    p.xmark_sweep()
        .into_iter()
        .map(|bytes| {
            let xml = Dataset::Xmark.generate(bytes);
            cf_row("XMark", &xml, &opts, &archive)
        })
        .collect()
}

// ---- E4: Fig. 7 query execution times -------------------------------------

/// Per-query timing row.
#[derive(Debug)]
pub struct QetRow {
    /// XMark query id.
    pub query: String,
    /// XQueC query execution time in seconds (includes result
    /// decompression, as in the paper).
    pub xquec_s: f64,
    /// Galax-like time in seconds; `None` = did not finish within budget
    /// (the paper could not measure Q9 on Galax either).
    pub galax_s: Option<f64>,
    /// Decompressions XQueC performed.
    pub xquec_decompressions: usize,
    /// Compressed-domain comparisons XQueC performed.
    pub xquec_compressed_ops: usize,
    /// Both engines produced byte-identical output.
    pub results_match: Option<bool>,
}

/// Timing context reported alongside Fig. 7.
#[derive(Debug)]
pub struct Fig7Report {
    /// Document size in bytes.
    pub bytes: usize,
    /// XQueC load+compress time (one-time).
    pub xquec_load_s: f64,
    /// Galax DOM load time (one-time).
    pub galax_load_s: f64,
    /// XQueC repository resident size (compressed, incl. structures).
    pub xquec_footprint: usize,
    /// Galax DOM resident size estimate.
    pub galax_footprint: usize,
    /// Per-query rows.
    pub rows: Vec<QetRow>,
}

/// E4: Fig. 7 — query execution times, XQueC vs the Galax-like engine.
pub fn fig7(p: Profile) -> Fig7Report {
    let xml = Dataset::Xmark.generate(p.fig7_bytes());
    let opts = LoaderOptions { workload: Some(xmark_workload()), ..Default::default() };
    let (repo, xquec_load_s) = time(|| load_with(&xml, &opts).expect("load"));
    let engine = Engine::new(&repo);
    let (galax, galax_load_s) = time(|| GalaxEngine::load(&xml).expect("galax load"));

    let mut rows = Vec::new();
    for q in XMARK_QUERIES.iter().filter(|q| q.in_figure7) {
        let reps = if p.quick { 1 } else { 3 };
        let (xq_out, xquec_s) =
            time_median(reps, || engine.run(q.text).expect("xquec query"));
        let stats = *engine.stats.borrow();

        galax.set_timeout(p.galax_timeout());
        let (g_out, galax_elapsed) = time(|| galax.run(q.text));
        let (galax_s, results_match) = match g_out {
            Ok(out) => (Some(galax_elapsed), Some(out == xq_out)),
            Err(_) => (None, None),
        };
        rows.push(QetRow {
            query: q.id.to_owned(),
            xquec_s,
            galax_s,
            xquec_decompressions: stats.decompressions,
            xquec_compressed_ops: stats.compressed_eq + stats.compressed_cmp,
            results_match,
        });
    }
    Fig7Report {
        bytes: xml.len(),
        xquec_load_s,
        galax_load_s,
        xquec_footprint: repo.size_report().total(),
        galax_footprint: galax.memory_footprint(),
        rows,
    }
}

// ---- E5: the §3.3 partitioning example ------------------------------------

/// Result of the NaiveConf-vs-GoodConf comparison.
#[derive(Debug)]
pub struct PartitionReport {
    /// CF of the naive single-group ALM configuration.
    pub naive_cf: f64,
    /// CF of the greedy (workload-driven) configuration.
    pub good_cf: f64,
    /// Group sizes chosen by the greedy search.
    pub good_groups: Vec<usize>,
    /// Cost-model estimates for both configurations.
    pub naive_cost: f64,
    /// Greedy configuration cost.
    pub good_cost: f64,
}

/// E5: the §3.3 example — five containers (three Shakespeare-text, one of
/// person names, one of dates) under an inequality workload: a shared naive
/// model vs the greedy partition.
pub fn partition_example(p: Profile) -> PartitionReport {
    let per = if p.quick { 60_000 } else { 1_200_000 };
    let mk_prose = |seed: u64| -> Vec<String> {
        let text = xquec_xml::gen::ShakespeareGen::with_target_size(per).seed(seed).generate();
        let doc = xquec_xml::Document::parse(&text).expect("valid");
        let root = doc.root().expect("has root");
        doc.descendant_elements(root, "LINE")
            .iter()
            .map(|&n| doc.immediate_text(n))
            .collect()
    };
    let names: Vec<String> = {
        use xquec_xml::gen::words::{FIRST_NAMES, LAST_NAMES};
        (0..per / 12)
            .map(|i| {
                format!(
                    "{} {}",
                    FIRST_NAMES[i % FIRST_NAMES.len()],
                    LAST_NAMES[(i * 7) % LAST_NAMES.len()]
                )
            })
            .collect()
    };
    let dates: Vec<String> =
        (0..per / 10).map(|i| format!("{:02}/{:02}/{}", (i % 12) + 1, (i % 28) + 1, 1998 + i % 5)).collect();

    let corpora: Vec<Vec<String>> =
        vec![mk_prose(1), mk_prose(2), mk_prose(3), names, dates];
    let stats: Vec<ContainerStats> = corpora
        .iter()
        .map(|c| ContainerStats::from_values(c.iter().map(|s| s.as_str())))
        .collect();

    // Workload: inequality predicates over all five containers; the prose
    // containers are also compared among themselves.
    let mut w = Workload::new();
    for i in 0..5u32 {
        w.push(ContainerId(i), None, PredOp::Ineq);
    }
    w.push(ContainerId(0), Some(ContainerId(1)), PredOp::Ineq);
    w.push(ContainerId(1), Some(ContainerId(2)), PredOp::Ineq);
    let matrices = w.matrices(5);
    let cm = CostModel::new(&stats, &matrices);

    let all: Vec<ContainerId> = (0..5).map(ContainerId).collect();
    let naive = Configuration { groups: vec![Group { containers: all.clone(), alg: xquec_compress::CodecKind::Alm }] };
    let good = xquec_core::partition::choose_configuration(&cm, &w, 1);

    // Measure actual compression under both configurations.
    let measure = |cfg: &Configuration| -> f64 {
        let mut orig = 0usize;
        let mut comp = 0usize;
        for g in &cfg.groups {
            let corpus: Vec<&[u8]> = g
                .containers
                .iter()
                .flat_map(|c| corpora[c.0 as usize].iter().map(|s| s.as_bytes()))
                .collect();
            let codec = xquec_compress::ValueCodec::train(g.alg, &corpus);
            for &c in &g.containers {
                for v in &corpora[c.0 as usize] {
                    orig += v.len();
                    comp += codec.compress(v.as_bytes()).map_or(v.len(), |x| x.len());
                }
            }
            comp += codec.model_size();
        }
        1.0 - comp as f64 / orig as f64
    };

    PartitionReport {
        naive_cf: measure(&naive),
        good_cf: measure(&good),
        good_groups: good.groups.iter().map(|g| g.containers.len()).collect(),
        naive_cost: cm.cost(&naive),
        good_cost: cm.cost(&good),
    }
}

// ---- E6: §2.2 storage-overhead claims --------------------------------------

/// Storage-overhead measurements.
#[derive(Debug)]
pub struct StorageRow {
    /// Document size.
    pub bytes: usize,
    /// Structure summary as a fraction of the original document.
    pub summary_fraction: f64,
    /// Compression factor with all access structures.
    pub cf_full: f64,
    /// Factor by which dropping access structures shrinks the database.
    pub access_structure_factor: f64,
    /// Accounted repository size (`SizeReport::total`).
    pub accounted_bytes: usize,
    /// Size of the file `persist::save` writes for the repository.
    pub disk_bytes: usize,
    /// On-disk bytes per accounted byte.
    pub disk_per_accounted: f64,
}

/// E6: summary size (§2.2 measures ≈19 % of the original), the shrink
/// factor from dropping access structures (§2.2 says 3-4×), and what the
/// saved file costs next to the accounted size.
pub fn storage_overhead(p: Profile) -> Vec<StorageRow> {
    p.xmark_sweep()
        .into_iter()
        .map(|bytes| {
            let xml = Dataset::Xmark.generate(bytes);
            let repo = load(&xml).expect("load");
            let r = repo.size_report();
            let pager = Arc::new(MemPager::new());
            xquec_core::persist::save_to_pager(&repo, pager.clone()).expect("save");
            let disk_bytes = (FILE_HEADER + pager.page_count() * FRAME_SIZE) as usize;
            StorageRow {
                bytes: xml.len(),
                summary_fraction: r.summary as f64 / r.original as f64,
                cf_full: r.compression_factor(),
                access_structure_factor: r.total() as f64
                    / r.total_without_access_structures() as f64,
                accounted_bytes: r.total(),
                disk_bytes,
                disk_per_accounted: disk_bytes as f64 / r.total() as f64,
            }
        })
        .collect()
}

// ---- A1: codec ablation -----------------------------------------------------

/// Codec measurement on one value corpus.
#[derive(Debug)]
pub struct CodecRow {
    /// Corpus name.
    pub corpus: String,
    /// Codec name.
    pub codec: String,
    /// compressed/original ratio (lower is better).
    pub ratio: f64,
    /// Decompression throughput, MB of plaintext per second.
    pub decompress_mb_s: f64,
    /// eq/ineq/wild support triple.
    pub properties: String,
}

/// A1: per-codec compression ratio and decompression speed on container
/// corpora — the empirical basis for §2.1's choice of ALM (order-preserving,
/// decompresses faster than Huffman) and the cost model's `d_c`.
pub fn ablation_codecs(p: Profile) -> Vec<CodecRow> {
    use xquec_compress::{CodecKind, ValueCodec};
    let bytes = if p.quick { 150_000 } else { 2_000_000 };
    let xml = Dataset::Xmark.generate(bytes);
    let repo = load(&xml).expect("load");

    // Pick three characteristic containers: prose, names, numeric-ish ids.
    let corpora: Vec<(String, Vec<String>)> = [
        ("item descriptions", "/site/regions/europe/item/description/text/text()"),
        ("person names", "/site/people/person/name/text()"),
        ("person ids", "/site/people/person/@id"),
    ]
    .iter()
    .filter_map(|(name, path)| {
        let cid = repo.container_by_path(path)?;
        Some((name.to_string(), repo.container(cid).decompress_all().ok()?))
    })
    .collect();

    let mut out = Vec::new();
    for (name, values) in &corpora {
        let corpus: Vec<&[u8]> = values.iter().map(|v| v.as_bytes()).collect();
        let plain_bytes: usize = values.iter().map(|v| v.len()).sum();
        for kind in
            [CodecKind::Huffman, CodecKind::Alm, CodecKind::HuTucker, CodecKind::Arith, CodecKind::Raw]
        {
            let codec = ValueCodec::train(kind, &corpus);
            let comp: Vec<Vec<u8>> = values
                .iter()
                .map(|v| codec.compress(v.as_bytes()).expect("trained corpus encodes"))
                .collect();
            let comp_bytes: usize = comp.iter().map(|c| c.len()).sum();
            let (_, secs) = time_median(if p.quick { 1 } else { 3 }, || {
                let mut sink = 0usize;
                for c in &comp {
                    sink += codec.decompress(c).expect("trained corpus decodes").len();
                }
                sink
            });
            let props = kind.properties();
            out.push(CodecRow {
                corpus: name.clone(),
                codec: kind.name().to_owned(),
                ratio: comp_bytes as f64 / plain_bytes as f64,
                decompress_mb_s: plain_bytes as f64 / 1e6 / secs.max(1e-9),
                properties: format!(
                    "eq={} ineq={} wild={}",
                    props.eq as u8, props.ineq as u8, props.wild as u8
                ),
            });
        }
        // blz as a whole-container block (no individual access).
        let joined: Vec<u8> = values.iter().flat_map(|v| v.as_bytes().iter().copied()).collect();
        let comp = xquec_compress::blz::compress(&joined);
        let (_, secs) = time(|| xquec_compress::blz::decompress(&comp).expect("self-compressed block").len());
        out.push(CodecRow {
            corpus: name.clone(),
            codec: "blz (block)".to_owned(),
            ratio: comp.len() as f64 / plain_bytes.max(1) as f64,
            decompress_mb_s: plain_bytes as f64 / 1e6 / secs.max(1e-9),
            properties: "eq=0 ineq=0 wild=0".to_owned(),
        });
    }
    out
}

// ---- E7: parallel loading ---------------------------------------------------

/// Sequential-vs-parallel load timing on one document.
#[derive(Debug)]
pub struct LoadingRow {
    /// Dataset name.
    pub dataset: String,
    /// Document size in bytes.
    pub bytes: usize,
    /// Worker threads used for the parallel run.
    pub threads: usize,
    /// Load+compress wall-clock with one thread.
    pub sequential_s: f64,
    /// Load+compress wall-clock with `threads` threads.
    pub parallel_s: f64,
    /// `sequential_s / parallel_s`.
    pub speedup: f64,
    /// The two repositories persist to byte-identical images.
    pub identical: bool,
}

/// Persist a repository to a scratch file and return the image bytes (the
/// strictest equality check available: every container byte, pointer and
/// summary entry participates).
fn repo_image(repo: &xquec_core::Repository, tag: &str) -> Vec<u8> {
    let path = std::env::temp_dir()
        .join(format!("xquec-bench-loading-{}-{tag}.xqc", std::process::id()));
    xquec_core::persist::save(repo, &path).expect("persist repository");
    let bytes = std::fs::read(&path).expect("read persisted repository");
    let _ = std::fs::remove_file(&path);
    bytes
}

/// E7: the parallel load pipeline — wall-clock for 1 thread vs the machine
/// width on XMark (with the paper workload) and Shakespeare (no workload),
/// each at two sizes, plus the byte-identity check the pipeline guarantees.
pub fn loading(p: Profile) -> Vec<LoadingRow> {
    let (small, large) = if p.quick { (150_000, 600_000) } else { (2_000_000, 8_000_000) };
    let threads = xquec_core::par::effective_threads(0);
    let reps = if p.quick { 1 } else { 3 };
    [(Dataset::Xmark, small), (Dataset::Xmark, large),
     (Dataset::Shakespeare, small), (Dataset::Shakespeare, large)]
        .into_iter()
        .map(|(ds, bytes)| {
            let xml = ds.generate(bytes);
            let workload =
                (ds == Dataset::Xmark).then(xmark_workload);
            let opts = |threads: usize| LoaderOptions { workload: workload.clone(), threads };
            let (seq_opts, par_opts) = (opts(1), opts(threads));
            let (repo_seq, sequential_s) =
                time_median(reps, || load_with(&xml, &seq_opts).expect("load"));
            let (repo_par, parallel_s) =
                time_median(reps, || load_with(&xml, &par_opts).expect("load"));
            let identical = repo_image(&repo_seq, "seq") == repo_image(&repo_par, "par");
            LoadingRow {
                dataset: ds.name().to_owned(),
                bytes: xml.len(),
                threads,
                sequential_s,
                parallel_s,
                speedup: sequential_s / parallel_s.max(1e-9),
                identical,
            }
        })
        .collect()
}

// ---- E8: observability profile ---------------------------------------------

/// The observability walkthrough: one profiled load, a persist round-trip
/// through the pager/WAL (so the `storage.*` counters move), and structured
/// per-query profiles over the reloaded repository.
#[derive(Debug)]
pub struct ProfileReport {
    /// Document size in bytes.
    pub bytes: usize,
    /// Per-phase loader profile with container/codec size breakdown.
    pub load: xquec_core::LoadProfile,
    /// Structured profiles for the sampled XMark queries.
    pub queries: Vec<xquec_core::QueryProfile>,
    /// Engine-lifetime counters after all profiled runs (cross-query cache
    /// traffic included).
    pub lifetime: xquec_core::ExecStats,
}

/// E8: the observability subsystem end to end — `load_profiled` for the
/// loader phases, `persist::save`/`persist::load` so the pager and WAL
/// counters register traffic, then `Engine::profile` on a sample of the
/// XMark catalog. The ambient [`xquec_obs`] registry fills as a side effect;
/// `repro` snapshots it into `results/metrics.json` after the run.
pub fn profile(p: Profile) -> ProfileReport {
    let bytes = if p.quick { 200_000 } else { 2_000_000 };
    let xml = Dataset::Xmark.generate(bytes);
    let opts = LoaderOptions { workload: Some(xmark_workload()), ..Default::default() };
    let (repo, load) =
        xquec_core::load_profiled(&xml, &opts).expect("load");

    // Round-trip through the durable store: save commits through the WAL
    // journal, load re-opens through the checksummed FilePager.
    let path = std::env::temp_dir()
        .join(format!("xquec-bench-profile-{}.xqc", std::process::id()));
    xquec_core::persist::save(&repo, &path).expect("persist repository");
    let reloaded = xquec_core::persist::load(&path).expect("reload repository");
    let _ = std::fs::remove_file(&path);

    let engine = Engine::new(&reloaded);
    let queries: Vec<xquec_core::QueryProfile> = XMARK_QUERIES
        .iter()
        .filter(|q| q.in_figure7)
        .take(4)
        .map(|q| engine.profile(q.text).expect("profiled query"))
        .collect();
    assert!(queries.len() >= 3, "profile experiment needs >= 3 queries");
    let lifetime = engine.lifetime_stats();
    ProfileReport { bytes: xml.len(), load, queries, lifetime }
}

// ---- E9: cost-model calibration ---------------------------------------------

/// E9: predicted-vs-actual compression ratios for the configuration the §3
/// greedy search chose on the XMark workload. The per-container ratios are
/// pure functions of the deterministic generator and codecs, so this report
/// is machine-stable — `repro --baseline` gates on it to catch estimator
/// drift (sampling changes, codec regressions) in CI.
///
/// The quick profile loads 575 KB, the smallest size on a 25 KB grid at
/// which a predicted container (`person/@id`, 262 values) holds more values
/// than the cost model samples: below it every prediction sees its whole
/// container and reads 0% error by construction.
pub fn calibration(p: Profile) -> xquec_core::CalibrationReport {
    let bytes = if p.quick { 575_000 } else { 2_000_000 };
    let xml = Dataset::Xmark.generate(bytes);
    let opts = LoaderOptions { workload: Some(xmark_workload()), ..Default::default() };
    let (_repo, profile) = xquec_core::load_profiled(&xml, &opts).expect("load");
    let report = xquec_core::CalibrationReport::from_profile(&profile);
    report.publish_metrics();
    report
}

// ---- JSON emission ----------------------------------------------------------

use xquec_obs::json::{Json, ToJson};

/// Implement [`ToJson`] field-by-field, preserving declaration order (the
/// layout `serde_json` used to emit for these rows).
macro_rules! impl_to_json {
    ($ty:ty { $($field:ident),+ $(,)? }) => {
        impl ToJson for $ty {
            fn to_json(&self) -> Json {
                Json::obj(vec![$((stringify!($field), self.$field.to_json())),+])
            }
        }
    };
}

impl_to_json!(DatasetRow { name, bytes, nodes, distinct_names, containers, summary_nodes, value_ratio });
impl_to_json!(CfRow { dataset, bytes, xquec_query, xquec_archive, xmill, xgrind, xpress });
impl_to_json!(QetRow { query, xquec_s, galax_s, xquec_decompressions, xquec_compressed_ops, results_match });
impl_to_json!(Fig7Report { bytes, xquec_load_s, galax_load_s, xquec_footprint, galax_footprint, rows });
impl_to_json!(PartitionReport { naive_cf, good_cf, good_groups, naive_cost, good_cost });
impl_to_json!(StorageRow {
    bytes,
    summary_fraction,
    cf_full,
    access_structure_factor,
    accounted_bytes,
    disk_bytes,
    disk_per_accounted,
});
impl_to_json!(CodecRow { corpus, codec, ratio, decompress_mb_s, properties });
impl_to_json!(LoadingRow { dataset, bytes, threads, sequential_s, parallel_s, speedup, identical });
impl_to_json!(ProfileReport { bytes, load, queries, lifetime });
