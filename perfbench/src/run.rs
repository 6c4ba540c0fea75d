//! The two workloads, the answer checks and the metric summaries.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

use xquec_baselines::galax::GalaxEngine;
use xquec_core::loader::{load_profiled, LoaderOptions};
use xquec_core::queries::{self, CatalogQuery, XMARK_QUERIES};
use xquec_core::query::{self, QueryError};
use xquec_core::{persist, Engine, Repository};
use xquec_storage::{MemPager, Pager, FILE_HEADER, FRAME_SIZE};
use xquec_xml::gen::XmarkGen;

use crate::metrics::{self, END_TO_END, LAYERS};
use crate::stats::{best, median, quantile, PerQuery};
use crate::{probes, trace, Args};

/// Set-ups per run. The timed loop is split into this many segments, one
/// after each set-up, so that the set-up samples are spread over the run.
/// xmark-warm's set-up loads 4 MB (about 1.7 s), so it has fewer, which
/// leaves more of the run to the query rounds.
const WARM_SETUPS: usize = 3;
const INGEST_SETUPS: usize = 5;
/// Share of xmark-warm's `--seconds` given to query rounds; persistence
/// cycles get the rest. The host's speed drifts in phases of seconds, so
/// the longer the rounds run, the surer their fastest repetitions fall in
/// a fast phase.
const WARM_ROUND_SHARE: f64 = 0.75;
/// Opens per save: opening is cheap next to saving, so each saved image is
/// opened several times to give the open metric as many samples.
const OPENS_PER_SAVE: usize = 3;
/// Measured wall time of one operation on a 2-vCPU machine (medians of the
/// `info` lines over sets of five or six seeds): a catalog round on
/// xmark-warm's 4 MB engine, and a persistence cycle (load, save, opens and
/// check queries) of xmark-warm's 0.25 MB and of ingest's 1 MB document.
/// `--seconds` becomes fixed operation counts through them, so the timed
/// work takes about `--seconds` there; set-up and the Galax oracle come on
/// top.
const WARM_ROUND_S: f64 = 0.16;
const WARM_CYCLE_S: f64 = 0.43;
const INGEST_CYCLE_S: f64 = 1.75;
/// Document sizes: xmark-warm's document and its persistence cycle's, and
/// ingest's, whose persistence cycle is the operation.
const XMARK_BYTES: usize = 4_000_000;
const WARM_CYCLE_BYTES: usize = 250_000;
const INGEST_BYTES: usize = 1_000_000;
/// The loader's thread count: one client on one thread.
const LOADER_THREADS: usize = 1;
/// Queries the Galax baseline finishes at 4 MB; Q9 does not finish in 30 s.
const GALAX_SKIPS: &[&str] = &["Q9"];
const GALAX_TIMEOUT_S: f64 = 120.0;
/// Answers and errors quoted on standard error before going quiet.
const MAX_REPORTED_FAILURES: usize = 10;

/// One of the benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    XmarkWarm,
    Ingest,
}

impl Workload {
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "xmark-warm" => Ok(Workload::XmarkWarm),
            "ingest" => Ok(Workload::Ingest),
            _ => Err(format!("unknown workload {s} (xmark-warm, ingest)")),
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::XmarkWarm => "xmark-warm",
            Workload::Ingest => "ingest",
        }
    }
}

/// Where a query repetition's timings go.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Record {
    /// An untraced repetition: its time feeds the end-to-end query metrics.
    Timed,
    /// A traced repetition: parse, evaluate and serialize are timed apart.
    Traced,
    /// A check whose time is not a sample of this workload's metrics.
    Untimed,
}

/// What a load is for.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Load {
    /// The workload's document at set-up: gives the accounted bytes.
    Setup,
    /// xmark-warm's persistence-cycle document at set-up: its reference
    /// answers.
    CycleReference,
    /// A persistence cycle: gives the load metric and the loader phases.
    Cycle,
}

/// What the run keeps of its last set-up for the checks after the timed
/// loop and the traced run's probes.
struct Last {
    xml: String,
    repo: Repository,
    /// xmark-warm's persistence-cycle document (ingest's is `xml`).
    cycle_xml: Option<String>,
    /// The last persistence cycle's loaded repository.
    cycle_repo: Option<Repository>,
}

/// Buffer-pool and pager counters summed over the run's persistence calls.
#[derive(Default)]
struct StorageCounts {
    saves: u64,
    pool_hits: u64,
    pool_misses: u64,
    save_evictions: u64,
}

/// Work counters of one catalog pass, from `Engine::lifetime_stats`.
#[derive(Default)]
struct PassCounts {
    decompressions: usize,
    value_fetches: usize,
    bytes_decompressed: usize,
    cache_hits: usize,
    cache_misses: usize,
    output_bytes: usize,
    plan_nodes: usize,
}

/// State of one benchmark run.
pub struct Ctx {
    args: Args,
    catalog: &'static [CatalogQuery],
    opts: LoaderOptions,
    rng: SplitMix,
    attempted: u64,
    failed: u64,
    /// Reference answers from the first set-up's pass, in catalog order.
    refs: Vec<String>,
    /// Reference answers of the persistence cycle's document.
    cycle_refs: Vec<String>,
    /// Named sample sets (times in the unit their name says).
    samples: BTreeMap<&'static str, Vec<f64>>,
    /// Untraced query repetitions per type, in ms.
    queries: PerQuery,
    /// Traced query repetitions per type: whole, parse (us), eval, serialize.
    traced_total: PerQuery,
    traced_parse: PerQuery,
    traced_eval: PerQuery,
    traced_serialize: PerQuery,
    storage: StorageCounts,
    pass: PassCounts,
    input_bytes: usize,
    cycle_input_bytes: usize,
    accounted_bytes: usize,
    pages: u64,
    rss_growth_mb: f64,
    peak_rss_mb: f64,
    timed_ops: u64,
    /// Wall time of the timed loops (after the set-ups), and of the query
    /// rounds in them.
    timed_loop_s: f64,
    query_loop_s: f64,
    layer: BTreeMap<&'static str, f64>,
    started: Instant,
}

impl Ctx {
    pub fn new(args: Args) -> Self {
        let n = XMARK_QUERIES.len();
        let rng = SplitMix(args.seed ^ 0x5EED);
        Ctx {
            args,
            catalog: XMARK_QUERIES,
            opts: LoaderOptions {
                workload: Some(queries::xmark_workload()),
                threads: LOADER_THREADS,
                ..Default::default()
            },
            rng,
            attempted: 0,
            failed: 0,
            refs: Vec::new(),
            cycle_refs: Vec::new(),
            samples: BTreeMap::new(),
            queries: PerQuery::new(n),
            traced_total: PerQuery::new(n),
            traced_parse: PerQuery::new(n),
            traced_eval: PerQuery::new(n),
            traced_serialize: PerQuery::new(n),
            storage: StorageCounts::default(),
            pass: PassCounts::default(),
            input_bytes: 0,
            cycle_input_bytes: 0,
            accounted_bytes: 0,
            pages: 0,
            rss_growth_mb: 0.0,
            peak_rss_mb: 0.0,
            timed_ops: 0,
            timed_loop_s: 0.0,
            query_loop_s: 0.0,
            layer: BTreeMap::new(),
            started: Instant::now(),
        }
    }

    /// Sizes of the workload's document and of its persistence cycle's, as
    /// planned (`--doc-bytes` overrides both, but not the plan).
    fn doc_bytes(&self) -> (usize, usize) {
        let planned = match self.args.workload {
            Workload::XmarkWarm => (XMARK_BYTES, WARM_CYCLE_BYTES),
            Workload::Ingest => (INGEST_BYTES, INGEST_BYTES),
        };
        self.args.doc_bytes.map_or(planned, |n| (n, n))
    }

    /// Set-ups per run, and so segments of the timed loop.
    fn setups(&self) -> usize {
        match self.args.workload {
            Workload::XmarkWarm => WARM_SETUPS,
            Workload::Ingest => INGEST_SETUPS,
        }
    }

    /// Operations of the whole timed loop, `(catalog rounds, persistence
    /// cycles)`: fixed by `--seconds`, never by elapsed time, so the work
    /// (and the engine's retained memory) does not depend on the machine's
    /// speed. xmark-warm splits `--seconds` by `WARM_ROUND_SHARE`.
    fn plan(&self) -> (usize, usize) {
        let secs = self.args.seconds as f64;
        let setups = self.setups();
        let count = |s: f64, op_s: f64| ((s / op_s).round() as usize).max(setups);
        match self.args.workload {
            Workload::XmarkWarm => (
                count(secs * WARM_ROUND_SHARE, WARM_ROUND_S),
                count(secs * (1.0 - WARM_ROUND_SHARE), WARM_CYCLE_S),
            ),
            Workload::Ingest => (0, count(secs, INGEST_CYCLE_S)),
        }
    }

    fn push(&mut self, key: &'static str, v: f64) {
        self.samples.entry(key).or_default().push(v);
    }

    fn sample(&self, key: &str) -> &[f64] {
        self.samples.get(key).map_or(&[], Vec::as_slice)
    }

    /// Count one checked operation.
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failed as usize <= MAX_REPORTED_FAILURES {
                eprintln!("perfbench: FAILED {}", what());
            }
        }
    }

    fn generate(&self, bytes: usize) -> String {
        let _s = trace::span("xml.generate");
        XmarkGen::with_target_size(bytes)
            .seed(self.args.seed)
            .generate()
    }

    /// Load `xml`. Only the loads of persistence cycles give the load
    /// metric and the loader phase times.
    fn load(&mut self, xml: &str, role: Load) -> Option<Repository> {
        let _s = trace::span("loader.load_profiled");
        let t = Instant::now();
        let res = load_profiled(xml, &self.opts);
        let ms = ms_since(t);
        self.check(res.is_ok(), || "load_profiled returned an error".to_owned());
        let (repo, profile) = res.ok()?;
        match role {
            Load::Setup => {
                self.input_bytes = xml.len();
                self.accounted_bytes = repo.size_report().total();
                return Some(repo);
            }
            Load::CycleReference => return Some(repo),
            Load::Cycle => {}
        }
        self.push("load_ms", ms);
        for phase in &profile.phases {
            let key = match phase.name {
                "parse" => "loader.parse_ms",
                "stats" => "loader.stats_ms",
                "cost_search" => "loader.cost_search_ms",
                "codec_training" => "loader.codec_training_ms",
                "container_build" => "loader.container_build_ms",
                _ => continue,
            };
            self.push(key, phase.nanos as f64 / 1e6);
        }
        self.cycle_input_bytes = xml.len();
        Some(repo)
    }

    /// Build an engine; `sampled` records its build time, which only the
    /// workload's own engines (set-up or timed) do.
    fn new_engine<'r>(&mut self, repo: &'r Repository, sampled: bool) -> Engine<'r> {
        let t = Instant::now();
        let engine = Engine::new(repo);
        if sampled {
            self.push("engine_new_ms", ms_since(t));
        }
        engine
    }

    /// One repetition of catalog query `qi`: on `warm` when given, else on
    /// an engine built for this query alone (as the first query after
    /// opening a repository). Returns the answer.
    fn query_op(
        &mut self,
        repo: &Repository,
        warm: Option<&Engine>,
        qi: usize,
        record: Record,
    ) -> Result<String, QueryError> {
        let text = self.catalog[qi].text;
        let traced = record == Record::Traced;
        if traced {
            trace::begin_op();
        }
        let _op = traced.then(|| trace::span("query.op"));
        let t = Instant::now();
        let fresh;
        let engine = match warm {
            Some(e) => e,
            None => {
                let _s = traced.then(|| trace::span("query.engine_new"));
                fresh = self.new_engine(repo, record != Record::Untimed);
                &fresh
            }
        };
        if !traced {
            let out = engine.run(text);
            if record == Record::Timed && out.is_ok() {
                self.queries.push(qi, ms_since(t));
            }
            return out;
        }
        let tp = Instant::now();
        {
            let _s = trace::span("query.parse");
            query::parse(text)?;
        }
        let parse_us = ms_since(tp) * 1e3;
        let te = Instant::now();
        let seq = {
            let _s = trace::span("query.eval_query");
            engine.eval_query(text)?
        };
        let eval_ms = ms_since(te);
        let ts = Instant::now();
        let out = {
            let _s = trace::span("query.serialize");
            engine.serialize(&seq)?
        };
        let serialize_ms = ms_since(ts);
        self.traced_total.push(qi, ms_since(t));
        self.traced_parse.push(qi, parse_us);
        self.traced_eval.push(qi, eval_ms);
        self.traced_serialize.push(qi, serialize_ms);
        Ok(out)
    }

    /// Run one query repetition and check its answer against the reference.
    fn checked_query(
        &mut self,
        repo: &Repository,
        warm: Option<&Engine>,
        qi: usize,
        record: Record,
    ) {
        let out = self.query_op(repo, warm, qi, record);
        let id = self.catalog[qi].id;
        let ok = matches!(&out, Ok(s) if *s == self.refs[qi]);
        self.check(ok, || match out {
            Ok(_) => format!("{id}: answer differs from the reference"),
            Err(e) => format!("{id}: {e}"),
        });
    }

    /// The set-up pass: every catalog query once, in catalog order. The
    /// first set-up's answers become the reference (of the persistence
    /// cycle's document when `cycle_doc`); later set-ups must reproduce
    /// them byte for byte.
    fn reference_pass(&mut self, repo: &Repository, warm: Option<&Engine>, cycle_doc: bool) {
        let _s = trace::span("query.reference_pass");
        let mut answers = Vec::with_capacity(self.catalog.len());
        let mut errors = Vec::new();
        for qi in 0..self.catalog.len() {
            match self.query_op(repo, warm, qi, Record::Untimed) {
                Ok(s) => answers.push(s),
                Err(e) => {
                    errors.push(format!("{}: {e}", self.catalog[qi].id));
                    answers.push(String::new());
                }
            }
        }
        let refs = if cycle_doc {
            &mut self.cycle_refs
        } else {
            &mut self.refs
        };
        if refs.is_empty() {
            *refs = answers;
            self.check(errors.is_empty(), || format!("reference pass: {errors:?}"));
        } else {
            let same = answers == *refs;
            self.check(errors.is_empty() && same, || {
                format!("set-up answers differ from the first set-up's ({errors:?})")
            });
        }
    }

    /// Save `repo` into a fresh `MemPager` and open it again, timing both.
    fn save_and_open(&mut self, repo: &Repository) -> Option<Repository> {
        let pager = Arc::new(MemPager::new());
        let traced = trace::enabled();
        let before = traced.then(xquec_obs::snapshot);
        let t = Instant::now();
        let saved = {
            let _s = trace::span("persist.save_to_pager");
            persist::save_to_pager(repo, pager.clone())
        };
        let save_ms = ms_since(t);
        let mid = traced.then(xquec_obs::snapshot);
        self.check(saved.is_ok(), || {
            format!("save_to_pager: {:?}", saved.as_ref().err())
        });
        saved.ok()?;
        self.push("save_ms", save_ms);
        self.pages = pager.page_count();
        let mut open_ms = Vec::with_capacity(OPENS_PER_SAVE);
        let mut opened = None;
        for _ in 0..OPENS_PER_SAVE {
            drop(opened.take());
            let t = Instant::now();
            let res = {
                let _s = trace::span("persist.load_from_pager");
                persist::load_from_pager(pager.clone())
            };
            open_ms.push(ms_since(t));
            opened = Some(res);
        }
        let opened = opened.expect("OPENS_PER_SAVE is at least one");
        if let (Some(a), Some(b)) = (before, mid) {
            let after = xquec_obs::snapshot();
            let d = |x: &xquec_obs::MetricsSnapshot, y: &xquec_obs::MetricsSnapshot, n: &str| {
                y.counter(n)
                    .unwrap_or(0)
                    .saturating_sub(x.counter(n).unwrap_or(0))
            };
            self.storage.saves += 1;
            self.storage.save_evictions += d(&a, &b, "storage.pool.eviction");
            self.storage.pool_hits += d(&a, &after, "storage.pool.hit");
            self.storage.pool_misses += d(&a, &after, "storage.pool.miss");
        }
        self.check(opened.is_ok(), || {
            format!("load_from_pager: {:?}", opened.as_ref().err())
        });
        let opened = opened.ok()?;
        for ms in open_ms {
            self.push("open_ms", ms);
        }
        Some(opened)
    }

    /// A seeded shuffle of the catalog.
    fn shuffled(&mut self) -> Vec<usize> {
        let mut order: Vec<usize> = (0..self.catalog.len()).collect();
        for i in (1..order.len()).rev() {
            let j = (self.rng.next() % (i as u64 + 1)) as usize;
            order.swap(i, j);
        }
        order
    }

    pub fn run(&mut self) {
        match self.args.workload {
            Workload::XmarkWarm => self.run_xmark(),
            Workload::Ingest => self.run_ingest(),
        }
    }

    /// xmark-warm: a 4 MB document and the catalog in seeded shuffled
    /// rounds on one reused engine. Each segment alternates persistence
    /// cycles of a 0.25 MB document, which give this workload's load, save
    /// and open metrics, with stretches of query rounds.
    fn run_xmark(&mut self) {
        let mut last = None;
        let mut round = 0usize;
        let (rounds, cycles) = self.plan();
        let (doc_bytes, cycle_bytes) = self.doc_bytes();
        let setups = self.setups();
        for seg in 0..setups {
            drop(last.take());
            trace::begin_op();
            let setup_span = trace::span("setup");
            let t0 = Instant::now();
            let xml = self.generate(doc_bytes);
            let cycle_xml = self.generate(cycle_bytes);
            let Some(repo) = self.load(&xml, Load::Setup) else {
                break;
            };
            let engine = self.new_engine(&repo, true);
            self.reference_pass(&repo, Some(&engine), false);
            let Some(cycle_ref) = self.load(&cycle_xml, Load::CycleReference) else {
                break;
            };
            self.reference_pass(&cycle_ref, None, true);
            drop(cycle_ref);
            self.push("setup_s", t0.elapsed().as_secs_f64());
            drop(setup_span);

            let t = Instant::now();
            let (r, c) = (share(rounds, seg, setups), share(cycles, seg, setups));
            let mut cycle_repo = None;
            for k in 0..c {
                cycle_repo = self.cycle(&cycle_xml, Record::Untimed);
                let n = r * (k + 1) / c - r * k / c;
                self.query_rounds(&repo, &engine, n, &mut round);
            }
            self.timed_loop_s += t.elapsed().as_secs_f64();
            if self.args.traced && seg == setups - 1 {
                self.count_pass(&repo, Some(&engine));
            }
            drop(engine);
            last = Some(Last {
                xml,
                repo,
                cycle_xml: Some(cycle_xml),
                cycle_repo,
            });
        }
        self.finish(last);
    }

    /// `n` shuffled catalog rounds on `engine`; in the traced run odd
    /// rounds are traced and even ones untraced.
    fn query_rounds(&mut self, repo: &Repository, engine: &Engine, n: usize, round: &mut usize) {
        let rss0 = rss_mb("VmRSS:");
        let t = Instant::now();
        for _ in 0..n {
            let record = if self.args.traced && *round % 2 == 1 {
                Record::Traced
            } else {
                Record::Timed
            };
            for qi in self.shuffled() {
                self.checked_query(repo, Some(engine), qi, record);
                self.timed_ops += 1;
            }
            *round += 1;
        }
        self.query_loop_s += t.elapsed().as_secs_f64();
        self.rss_growth_mb += rss_mb("VmRSS:") - rss0;
    }

    /// ingest: the 1 MB document's persistence cycle is the operation; the
    /// catalog answers of both copies give this workload's query metrics.
    fn run_ingest(&mut self) {
        let mut last = None;
        let mut op = 0usize;
        let (_, cycles) = self.plan();
        let (doc_bytes, _) = self.doc_bytes();
        let setups = self.setups();
        for seg in 0..setups {
            drop(last.take());
            trace::begin_op();
            let setup_span = trace::span("setup");
            let t0 = Instant::now();
            let xml = self.generate(doc_bytes);
            let Some(repo) = self.load(&xml, Load::Setup) else {
                break;
            };
            self.reference_pass(&repo, None, false);
            self.push("setup_s", t0.elapsed().as_secs_f64());
            drop(setup_span);
            if self.cycle_refs.is_empty() {
                self.cycle_refs = self.refs.clone();
            }

            let rss0 = rss_mb("VmRSS:");
            let t = Instant::now();
            let mut cycle_repo = None;
            for _ in 0..share(cycles, seg, setups) {
                let traced = self.args.traced && op % 2 == 1;
                let record = if traced {
                    Record::Traced
                } else {
                    Record::Timed
                };
                cycle_repo = self.cycle(&xml, record);
                self.timed_ops += 1;
                op += 1;
            }
            self.timed_loop_s += t.elapsed().as_secs_f64();
            self.rss_growth_mb += rss_mb("VmRSS:") - rss0;
            if self.args.traced && seg == setups - 1 {
                self.count_pass(&repo, None);
            }
            last = Some(Last {
                xml,
                repo,
                cycle_xml: None,
                cycle_repo,
            });
        }
        self.finish(last);
    }

    /// The persistence cycle: load the document, save it into a
    /// `MemPager`, open it, and ask the whole catalog of both the loaded
    /// and the reopened copy (a fresh engine per query). Both must give the
    /// document's reference answers from set-up. `record` says whether the
    /// answers' times are query samples of this workload; in the traced
    /// run a `Timed` cycle records no spans and no storage counters, so it
    /// is the untraced side of `trace.overhead_ratio`. Returns the loaded
    /// repository.
    fn cycle(&mut self, xml: &str, record: Record) -> Option<Repository> {
        let _paused = (record == Record::Timed).then(trace::pause);
        trace::begin_op();
        let _op = trace::span("cycle");
        let t = Instant::now();
        let loaded = self.load(xml, Load::Cycle)?;
        let reopened = self.save_and_open(&loaded)?;
        for qi in self.shuffled() {
            let a = self.query_op(&loaded, None, qi, record);
            let b = self.query_op(&reopened, None, qi, record);
            let expected = &self.cycle_refs[qi];
            let ok = matches!((&a, &b), (Ok(x), Ok(y)) if x == expected && y == expected);
            let id = self.catalog[qi].id;
            self.check(ok, || {
                format!("{id}: the loaded or reopened answer differs from the reference")
            });
        }
        let key = if record == Record::Traced {
            "cycle_traced_ms"
        } else {
            "cycle_ms"
        };
        self.push(key, ms_since(t));
        Some(loaded)
    }

    /// After the timed loop: memory high-water mark, the Galax oracle and,
    /// in the traced run, the layer probes.
    fn finish(&mut self, last: Option<Last>) {
        self.peak_rss_mb = rss_mb("VmHWM:");
        let Some(last) = last else {
            return;
        };
        self.galax_oracle(&last.xml, false);
        if let Some(cycle_xml) = &last.cycle_xml {
            self.galax_oracle(cycle_xml, true);
        }
        if self.args.traced {
            let path = self.args.out_dir.join(format!(
                "probe-{}-{}.xqc",
                self.args.workload.name(),
                self.args.seed
            ));
            let mut layer = BTreeMap::new();
            let saved = last.cycle_repo.as_ref().unwrap_or(&last.repo);
            let ok = probes::run_all(&last.xml, &last.repo, saved, &path, &mut layer);
            self.check(ok.is_ok(), || format!("layer probes: {:?}", ok.err()));
            self.layer = layer;
            self.write_trace();
        }
    }

    /// Compare the reference answers of `xml` (the persistence cycle's
    /// document when `cycle_doc`) with the Galax-like baseline engine.
    /// Galax is an oracle only: it is never timed.
    fn galax_oracle(&mut self, xml: &str, cycle_doc: bool) {
        trace::begin_op();
        let _s = trace::span("oracle.galax");
        let galax = match GalaxEngine::load(xml) {
            Ok(g) => g,
            Err(e) => return self.check(false, || format!("galax load: {e}")),
        };
        for (qi, q) in self.catalog.iter().enumerate() {
            if GALAX_SKIPS.contains(&q.id) {
                continue;
            }
            galax.set_timeout(GALAX_TIMEOUT_S);
            let out = galax.run(q.text);
            let expected = if cycle_doc {
                &self.cycle_refs[qi]
            } else {
                &self.refs[qi]
            };
            let ok = matches!(&out, Ok(s) if s == expected);
            self.check(ok, || {
                format!("{}: Galax disagrees ({:?})", q.id, out.err())
            });
        }
    }

    /// One pass over the catalog in catalog order, recording the engine's
    /// work counters (deterministic for a given seed).
    fn count_pass(&mut self, repo: &Repository, warm: Option<&Engine>) {
        let _s = trace::span("query.count_pass");
        let mut c = PassCounts::default();
        for (qi, q) in self.catalog.iter().enumerate() {
            let fresh;
            let engine = match warm {
                Some(e) => e,
                None => {
                    fresh = Engine::new(repo);
                    &fresh
                }
            };
            let before = engine.lifetime_stats();
            let out = engine.run(q.text);
            let after = engine.lifetime_stats();
            let ok = matches!(&out, Ok(s) if *s == self.refs[qi]);
            self.check(ok, || format!("{}: counting pass answer differs", q.id));
            c.decompressions += after.decompressions - before.decompressions;
            c.value_fetches += after.value_fetches - before.value_fetches;
            c.bytes_decompressed += after.bytes_decompressed - before.bytes_decompressed;
            c.cache_hits += after.cache_hits - before.cache_hits;
            c.cache_misses += after.cache_misses - before.cache_misses;
            c.output_bytes += out.map_or(0, |s| s.len());
            c.plan_nodes += engine.last_plan().size();
        }
        self.pass = c;
    }

    fn write_trace(&self) {
        let spans = trace::spans();
        let path = self.args.out_dir.join(format!(
            "trace-{}-{}.json",
            self.args.workload.name(),
            self.args.seed
        ));
        if let Err(e) = std::fs::write(&path, trace::to_json(&spans).pretty()) {
            eprintln!("perfbench: cannot write {}: {e}", path.display());
        }
        println!("trace {} spans -> {}", spans.len(), path.display());
        println!(
            "trace {:<28} {:>7} {:>12} {:>12}",
            "span", "count", "total_ms", "self_ms"
        );
        for (name, count, total, own) in trace::self_times(&spans) {
            println!(
                "trace {name:<28} {count:>7} {:>12.3} {:>12.3}",
                total as f64 / 1e6,
                own as f64 / 1e6
            );
        }
    }

    /// Megabytes (10^6 bytes) of the persistence cycle's document.
    fn cycle_mb(&self) -> f64 {
        self.cycle_input_bytes as f64 / 1e6
    }

    fn mb_per_s(&self, key: &str) -> f64 {
        self.cycle_mb() / (best(self.sample(key)) / 1e3)
    }

    fn end_to_end(&self) -> Vec<(String, f64, &'static str)> {
        let disk = (self.pages * FRAME_SIZE + FILE_HEADER) as f64;
        let values = [
            median(self.sample("setup_s")),
            self.queries.best_geomean(),
            self.queries.best_sum(),
            self.mb_per_s("load_ms"),
            self.mb_per_s("save_ms"),
            self.mb_per_s("open_ms"),
            self.accounted_bytes as f64 / self.input_bytes as f64,
            disk / self.cycle_input_bytes as f64,
            self.peak_rss_mb,
        ];
        END_TO_END
            .iter()
            .zip(values)
            .map(|(&(n, u, _), v)| (n.to_owned(), v, u))
            .collect()
    }

    fn per_layer(&self) -> Vec<(String, f64, &'static str)> {
        let p = &self.pass;
        let st = &self.storage;
        let overhead = match self.args.workload {
            Workload::Ingest => {
                best(self.sample("cycle_traced_ms")) / best(self.sample("cycle_ms"))
            }
            _ => self.traced_total.best_sum() / self.queries.best_sum(),
        };
        let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { f64::NAN };
        let saves = st.saves.max(1) as f64;
        let mut values: BTreeMap<&str, f64> = BTreeMap::new();
        values.insert("trace.overhead_ratio", overhead);
        for &(name, ..) in LAYERS.iter().filter(|l| l.0.starts_with("loader.")) {
            values.insert(name, best(self.sample(name)));
        }
        values.insert("query.parse_us", self.traced_parse.best_geomean());
        values.insert("query.eval_ms", self.traced_eval.best_geomean());
        values.insert("query.serialize_ms", self.traced_serialize.best_geomean());
        values.insert("query.engine_new_ms", best(self.sample("engine_new_ms")));
        values.insert("query.decompressions", p.decompressions as f64);
        values.insert("query.value_fetches", p.value_fetches as f64);
        values.insert("query.bytes_decompressed", p.bytes_decompressed as f64);
        values.insert(
            "query.cache_hit_ratio",
            ratio(p.cache_hits as f64, (p.cache_hits + p.cache_misses) as f64),
        );
        values.insert(
            "query.decompressed_bytes_per_output_byte",
            ratio(p.bytes_decompressed as f64, p.output_bytes as f64),
        );
        values.insert("query.plan_nodes", p.plan_nodes as f64);
        values.insert("engine.rss_growth_mb", self.rss_growth_mb);
        values.insert(
            "storage.pool_hit_ratio",
            ratio(st.pool_hits as f64, (st.pool_hits + st.pool_misses) as f64),
        );
        values.insert(
            "storage.pool_evictions_per_save",
            st.save_evictions as f64 / saves,
        );
        values.insert(
            "storage.pages_per_input_mb",
            self.pages as f64 / self.cycle_mb(),
        );
        values.insert("query.p50_geomean_ms", self.queries.quantile_geomean(0.5));
        values.insert("query.p90_geomean_ms", self.queries.quantile_geomean(0.9));
        for (name, v) in &self.layer {
            values.insert(name, *v);
        }
        let mut out: Vec<(String, f64, &'static str)> = LAYERS
            .iter()
            .map(|&(n, u, ..)| (n.to_owned(), values.get(n).copied().unwrap_or(f64::NAN), u))
            .collect();
        for (c, b) in self.catalog.iter().zip(self.queries.bests()) {
            out.push((metrics::query_best_name(c.id), b, "ms"));
        }
        out
    }

    /// The report: info, every metric with its unit, diagnostics, and the
    /// result object as the last line.
    pub fn report(&self) -> String {
        let mut s = String::new();
        let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
        let (rounds, cycles) = self.plan();
        let _ = writeln!(
            s,
            "info {{\"workload\":\"{}\",\"seed\":{},\"trace\":{},\"input_bytes\":{},\"cycle_input_bytes\":{},\
             \"loader_threads\":{LOADER_THREADS},\"hardware_threads\":{nproc},\"setups\":{},\
             \"planned_rounds\":{rounds},\"planned_cycles\":{cycles},\"op\":\"{}\",\"timed_ops\":{},\
             \"timed_loop_s\":{:.3},\"query_loop_s\":{:.3},\"run_s\":{:.3},\"pager\":\"MemPager\",\
             \"flush\":\"none: MemPager::sync is a no-op\",\"block_cache\":\"Engine::new default\"}}",
            self.args.workload.name(),
            self.args.seed,
            u8::from(self.args.traced),
            self.input_bytes,
            self.cycle_input_bytes,
            self.setups(),
            match self.args.workload {
                Workload::Ingest => "load, save, open, check",
                _ => "one catalog query",
            },
            self.timed_ops,
            self.timed_loop_s,
            self.query_loop_s,
            self.started.elapsed().as_secs_f64(),
        );
        let e2e = self.end_to_end();
        for ((name, v, unit), (.., better)) in e2e.iter().zip(END_TO_END) {
            let _ = writeln!(
                s,
                "metric {name:<34} {v:>14.4} {unit:<5} {better} is better"
            );
        }
        let pooled = self.queries.pooled();
        let _ = writeln!(
            s,
            "diag queries={} pooled_p50_ms={:.4} pooled_p99_ms={:.4} ops_per_s={:.2} \
             p50_geomean_ms={:.4} p90_geomean_ms={:.4}",
            pooled.len(),
            median(&pooled),
            quantile(&pooled, 0.99),
            self.timed_ops as f64
                / match self.args.workload {
                    Workload::Ingest => self.timed_loop_s,
                    _ => self.query_loop_s,
                },
            self.queries.quantile_geomean(0.5),
            self.queries.quantile_geomean(0.9),
        );
        let _ = write!(s, "diag best_ms");
        for (c, b) in self.catalog.iter().zip(self.queries.bests()) {
            let _ = write!(s, " {}={b:.3}", c.id);
        }
        s.push('\n');
        for key in ["setup_s", "load_ms", "save_ms", "open_ms", "cycle_ms"] {
            let v = self.sample(key);
            if !v.is_empty() {
                let _ = writeln!(
                    s,
                    "diag {key}: n={} best={:.4} median={:.4} worst={:.4}",
                    v.len(),
                    best(v),
                    median(v),
                    quantile(v, 1.0)
                );
            }
        }
        let reported = if self.args.traced {
            let layers = self.per_layer();
            for (name, v, unit) in &layers {
                let (better, moves) = LAYERS
                    .iter()
                    .find(|l| l.0 == name)
                    .map_or(("lower", "catalog_best_ms"), |l| (l.2, l.3));
                let _ = writeln!(
                    s,
                    "layer {name:<42} {v:>14.4} {unit:<8} {better:<6} moves: {moves}"
                );
            }
            layers
        } else {
            e2e
        };
        let complete = self.queries.complete()
            && (!self.args.traced || self.traced_total.complete())
            && reported.iter().all(|(_, v, _)| v.is_finite());
        let correct = self.failed == 0 && complete && self.attempted > 0;
        let _ = write!(
            s,
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.attempted.max(1),
            self.failed
        );
        for (i, (name, v, unit)) in reported.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let v = if v.is_finite() {
                format!("{v}")
            } else {
                "null".to_owned()
            };
            let _ = write!(
                s,
                "{sep}\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
            );
        }
        s.push_str("}}");
        s
    }
}

/// The share of `total` operations that falls in segment `seg` of `segs`.
fn share(total: usize, seg: usize, segs: usize) -> usize {
    total * (seg + 1) / segs - total * seg / segs
}

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// A `/proc/self/status` memory field (`VmRSS:`, `VmHWM:`) in MiB.
fn rss_mb(field: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with(field))?;
            line[field.len()..]
                .trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// SplitMix64: the seeded query order.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}
