//! The loader/compressor (§1.1 module 1): shreds an XML document into the
//! compressed repository.
//!
//! Phase A streams the document once, building the structure tree, the
//! structure summary, and per-path plaintext value lists. Phase B resolves
//! the query workload against the summary, runs the §3 cost-based greedy
//! search to partition the textual containers and pick codecs, and phase C
//! trains one source model per partition set and compresses every value
//! individually (or block-compresses untouched containers, §3.3).
//!
//! Everything after the single-pass parse fans out over
//! [`LoaderOptions::threads`] worker threads: per-container statistics and
//! numeric detection, cost-model candidate evaluation, per-group codec
//! training, and per-container compression + sorted-record assembly each run
//! as an order-preserving [`crate::par::par_map`]. Container ids are
//! assigned in sorted path order *before* the fan-out and results are
//! reassembled in that order, so the repository is byte-identical whatever
//! the thread count.

use crate::container::{Container, ContainerLeaf, ValueType};
use crate::cost::{CostModel, Prediction};
use crate::dictionary::NameDictionary;
use crate::ids::{ContainerId, ElemId, PathId};
use crate::par::{par_map, par_map_into};
use crate::partition::choose_configuration;
use crate::repo::Repository;
use crate::stats::ContainerStats;
use crate::structure::TreeBuilder;
use crate::summary::{PathKind, StructureSummary};
use crate::workload::{PredOp, Workload};
use std::collections::HashMap;
use std::sync::Arc;
use xquec_compress::{CodecKind, NumericCodec, ValueCodec};
use xquec_obs::json::{Json, ToJson};
use xquec_obs::{counter, span};
use xquec_xml::{Event, Reader, XmlError};

/// A workload expressed over leaf-path strings, before container resolution.
#[derive(Debug, Clone, Default)]
pub struct WorkloadSpec {
    /// Predicates: (left path, right path or None for a constant, class).
    pub predicates: Vec<(String, Option<String>, PredOp)>,
    /// Paths the workload *returns* (projections). They enter no comparison
    /// matrix (§3.2 counts only predicates) but mark their containers as
    /// touched, so they stay individually accessible instead of being
    /// block-compressed — a query that outputs a value must not have to
    /// inflate an entire XMill-style block to read it.
    pub projections: Vec<String>,
}

impl WorkloadSpec {
    /// Empty spec.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a predicate between a path and a constant.
    pub fn constant(mut self, path: &str, op: PredOp) -> Self {
        self.predicates.push((path.to_owned(), None, op));
        self
    }

    /// Add a predicate joining two paths.
    pub fn join(mut self, left: &str, right: &str, op: PredOp) -> Self {
        self.predicates.push((left.to_owned(), Some(right.to_owned()), op));
        self
    }

    /// Mark a path as projected (returned) by the workload.
    pub fn project(mut self, path: &str) -> Self {
        self.projections.push(path.to_owned());
        self
    }
}

/// Loader configuration.
///
/// The cost-based search draws from [`crate::partition::DEFAULT_POOL`] and
/// weighs storage and decompression alike. With a workload, containers it
/// leaves untouched are stored as blz blocks (§3.3); string containers
/// outside the search get ALM (§2.1: "In case the workload has not been
/// provided, XQueC uses ALM for strings").
#[derive(Debug, Clone, Default)]
pub struct LoaderOptions {
    /// Optional workload; drives partitioning and codec choice.
    pub workload: Option<WorkloadSpec>,
    /// Worker threads for the post-parse pipeline (statistics, cost search,
    /// codec training, container builds). `0` means one per hardware thread;
    /// the produced repository is byte-identical for every setting.
    pub threads: usize,
}

/// Errors from loading.
#[derive(Debug)]
pub enum LoadError {
    /// The document failed to parse.
    Xml(XmlError),
}

impl std::fmt::Display for LoadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LoadError::Xml(e) => write!(f, "load failed: {e}"),
        }
    }
}

impl std::error::Error for LoadError {}

impl From<XmlError> for LoadError {
    fn from(e: XmlError) -> Self {
        LoadError::Xml(e)
    }
}

/// Wall time of one loader phase.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhaseTiming {
    /// Phase name (matches the `loader.phase.*` span names, last segment).
    pub name: &'static str,
    /// Elapsed wall time in nanoseconds.
    pub nanos: u64,
}

/// Compressed-vs-raw accounting for one container (Table 1 / Fig 6 style).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ContainerSizeRow {
    /// Rooted leaf path, e.g. `/site/people/person/name/text()`.
    pub path: String,
    /// Codec name (`alm`, `huffman`, `numeric`, `blz`, …).
    pub codec: &'static str,
    /// Number of records.
    pub values: usize,
    /// Plaintext bytes the container represents.
    pub raw_bytes: usize,
    /// Compressed payload bytes.
    pub compressed_bytes: usize,
    /// Whether records are individually accessible (vs. block storage).
    pub individual: bool,
}

/// Aggregate totals for one codec across all containers that use it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CodecTotal {
    /// Codec name.
    pub codec: &'static str,
    /// Containers compressed with it.
    pub containers: usize,
    /// Summed plaintext bytes.
    pub raw_bytes: usize,
    /// Summed compressed bytes.
    pub compressed_bytes: usize,
}

/// One cost-model prediction, resolved to a leaf path. Produced by the
/// §3.2 greedy search for every workload-touched textual container; the
/// calibration report ([`crate::calibration`]) joins these against the
/// measured [`ContainerSizeRow`]s by path.
#[derive(Debug, Clone, PartialEq)]
pub struct PredictedRow {
    /// Rooted leaf path of the predicted container.
    pub path: String,
    /// Algorithm the chosen configuration assigns to its group.
    pub alg: &'static str,
    /// Predicted compressed/plain payload ratio (sample-based estimate).
    pub ratio: f64,
    /// Values in the sample the ratio was estimated on.
    pub sample: usize,
    /// Configuration group index (containers sharing one source model).
    pub group: usize,
    /// Predicted bytes of the group's shared source model.
    pub group_model_bytes: usize,
}

/// Structured account of one load: per-phase wall time plus per-container
/// and per-codec size totals. Returned by [`load_profiled`]; each phase
/// time is the reading its `loader.phase.*` span records.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadProfile {
    /// Bytes of input XML.
    pub input_bytes: usize,
    /// Wall time per phase: parse, stats, cost_search, codec_training,
    /// container_build — in execution order.
    pub phases: Vec<PhaseTiming>,
    /// One row per container, in container-id order.
    pub containers: Vec<ContainerSizeRow>,
    /// Totals grouped by codec, sorted by codec name.
    pub codecs: Vec<CodecTotal>,
    /// The cost model's predictions for the configuration the greedy search
    /// chose: workload-touched textual containers only, in container-id
    /// order. Empty when the load ran without a workload.
    pub predictions: Vec<PredictedRow>,
}

impl LoadProfile {
    fn from_repo(
        repo: &Repository,
        phases: Vec<PhaseTiming>,
        input_bytes: usize,
        predictions: Vec<Prediction>,
    ) -> Self {
        let containers: Vec<ContainerSizeRow> = repo
            .containers
            .iter()
            .map(|c| ContainerSizeRow {
                path: repo.container_path_string(c.id),
                codec: c.codec().kind().name(),
                values: c.len(),
                raw_bytes: c.plain_size(),
                compressed_bytes: c.compressed_size(),
                individual: c.is_individual(),
            })
            .collect();
        let mut by_codec: std::collections::BTreeMap<&'static str, CodecTotal> =
            std::collections::BTreeMap::new();
        for row in &containers {
            let t = by_codec.entry(row.codec).or_insert(CodecTotal {
                codec: row.codec,
                containers: 0,
                raw_bytes: 0,
                compressed_bytes: 0,
            });
            t.containers += 1;
            t.raw_bytes += row.raw_bytes;
            t.compressed_bytes += row.compressed_bytes;
        }
        let predictions = predictions
            .into_iter()
            .map(|p| PredictedRow {
                path: repo.container_path_string(p.container),
                alg: p.alg.name(),
                ratio: p.ratio,
                sample: p.sample,
                group: p.group,
                group_model_bytes: p.group_model_bytes,
            })
            .collect();
        LoadProfile {
            input_bytes,
            phases,
            containers,
            codecs: by_codec.into_values().collect(),
            predictions,
        }
    }

    /// Total wall time across all phases, in nanoseconds.
    pub fn total_nanos(&self) -> u64 {
        self.phases.iter().map(|p| p.nanos).sum()
    }

    /// Human-readable report: phases, then per-codec totals.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "load of {} input bytes", self.input_bytes);
        for p in &self.phases {
            let _ = writeln!(out, "  phase {:<18} {:>12.3} ms", p.name, p.nanos as f64 / 1e6);
        }
        for c in &self.codecs {
            let _ = writeln!(
                out,
                "  codec {:<18} {} containers, {} -> {} bytes",
                c.codec, c.containers, c.raw_bytes, c.compressed_bytes
            );
        }
        out
    }
}

impl ToJson for PhaseTiming {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("name", self.name.to_json()),
            ("nanos", Json::Num(self.nanos as f64)),
        ])
    }
}

impl ToJson for ContainerSizeRow {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("path", self.path.to_json()),
            ("codec", self.codec.to_json()),
            ("values", self.values.to_json()),
            ("raw_bytes", self.raw_bytes.to_json()),
            ("compressed_bytes", self.compressed_bytes.to_json()),
            ("individual", self.individual.to_json()),
        ])
    }
}

impl ToJson for CodecTotal {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("codec", self.codec.to_json()),
            ("containers", self.containers.to_json()),
            ("raw_bytes", self.raw_bytes.to_json()),
            ("compressed_bytes", self.compressed_bytes.to_json()),
        ])
    }
}

impl ToJson for PredictedRow {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("path", self.path.to_json()),
            ("alg", self.alg.to_json()),
            ("ratio", Json::Num(self.ratio)),
            ("sample", self.sample.to_json()),
            ("group", self.group.to_json()),
            ("group_model_bytes", self.group_model_bytes.to_json()),
        ])
    }
}

impl ToJson for LoadProfile {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("input_bytes", self.input_bytes.to_json()),
            ("phases", self.phases.to_json()),
            ("containers", self.containers.to_json()),
            ("codecs", self.codecs.to_json()),
            ("predictions", self.predictions.to_json()),
        ])
    }
}

/// Load and compress a document with default options (no workload).
pub fn load(xml: &str) -> Result<Repository, LoadError> {
    load_with(xml, &LoaderOptions::default())
}

/// Load and compress a document.
pub fn load_with(xml: &str, opts: &LoaderOptions) -> Result<Repository, LoadError> {
    Ok(load_impl(xml, opts)?.0)
}

/// [`load_with`], additionally returning a [`LoadProfile`] with per-phase
/// wall times, per-container / per-codec size accounting, and the cost
/// model's per-container predictions for the chosen configuration.
pub fn load_profiled(xml: &str, opts: &LoaderOptions) -> Result<(Repository, LoadProfile), LoadError> {
    let (repo, phases, predictions) = load_impl(xml, opts)?;
    let profile = LoadProfile::from_repo(&repo, phases, xml.len(), predictions);
    Ok((repo, profile))
}

type Loaded = (Repository, Vec<PhaseTiming>, Vec<Prediction>);

fn load_impl(xml: &str, opts: &LoaderOptions) -> Result<Loaded, LoadError> {
    let mut phases: Vec<PhaseTiming> = Vec::with_capacity(5);
    counter!("loader.bytes.input").add(xml.len() as u64);
    let phase_span = span!("loader.phase.parse");
    // ---- Phase A: shred ------------------------------------------------
    let mut dict = NameDictionary::new();
    let mut tree = TreeBuilder::new();
    let mut summary = StructureSummary::new();
    // Pending plaintext values per value-leaf path.
    let mut pending: HashMap<PathId, Vec<(String, ElemId)>> = HashMap::new();
    let mut leaf_kind: HashMap<PathId, ContainerLeaf> = HashMap::new();

    let mut reader = Reader::new(xml);
    let mut elem_stack: Vec<ElemId> = Vec::new();
    let mut path_stack: Vec<PathId> = vec![summary.root()];
    while let Some(ev) = reader.next_event()? {
        match ev {
            Event::StartElement { name, attributes } => {
                let tag = dict.intern(&name);
                let parent_path = *path_stack.last().expect("root always present");
                let path = summary.intern_child(parent_path, PathKind::Element(tag));
                let elem = tree
                    .push(tag, elem_stack.last().copied(), path)
                    .expect("the element stack is the open root path");
                summary.record(path, elem);
                for (an, av) in attributes {
                    let code = dict.intern(&an);
                    let apath = summary.intern_child(path, PathKind::Attribute(code));
                    leaf_kind.entry(apath).or_insert(ContainerLeaf::Attribute(code));
                    pending.entry(apath).or_default().push((av, elem));
                }
                elem_stack.push(elem);
                path_stack.push(path);
            }
            Event::EndElement { .. } => {
                elem_stack.pop();
                path_stack.pop();
            }
            Event::Text(t) => {
                let elem = *elem_stack.last().expect("text inside root");
                let path = *path_stack.last().expect("non-empty");
                let tpath = summary.intern_child(path, PathKind::Text);
                leaf_kind.entry(tpath).or_insert(ContainerLeaf::Text);
                pending.entry(tpath).or_default().push((t, elem));
            }
        }
    }

    let tree = tree.finish();
    phases.push(PhaseTiming { name: "parse", nanos: phase_span.close() });
    let phase_span = span!("loader.phase.stats");

    // Assign container ids in path order for determinism.
    let mut paths: Vec<PathId> = pending.keys().copied().collect();
    paths.sort();
    let path_to_cid: HashMap<PathId, ContainerId> =
        paths.iter().enumerate().map(|(i, &p)| (p, ContainerId(i as u32))).collect();
    for (&p, &cid) in &path_to_cid {
        summary.set_container(p, cid);
    }

    // Statistics + numeric detection per container (independent per path).
    let (stats, vtypes): (Vec<ContainerStats>, Vec<ValueType>) =
        par_map(opts.threads, &paths, |_, p| {
            let values = &pending[p];
            let st = ContainerStats::from_values(values.iter().map(|(v, _)| v.as_str()));
            let vt = match NumericCodec::detect(values.iter().map(|(v, _)| v.as_bytes())) {
                Some(c) if c.scale == 0 => ValueType::Int,
                Some(c) => ValueType::Decimal(c.scale),
                None => ValueType::Str,
            };
            (st, vt)
        })
        .into_iter()
        .unzip();

    phases.push(PhaseTiming { name: "stats", nanos: phase_span.close() });
    let phase_span = span!("loader.phase.cost_search");

    // ---- Phase B: compression configuration ----------------------------
    // Build a temporary repository view for path resolution of the workload.
    let resolver = Repository {
        dict,
        tree,
        summary,
        containers: Vec::new(),
        original_bytes: xml.len(),
    };
    let mut workload = Workload::new();
    let mut projected: Vec<ContainerId> = Vec::new();
    if let Some(spec) = &opts.workload {
        for proj in &spec.projections {
            if let Some(c) = resolve_container(&resolver, &path_to_cid, proj) {
                projected.push(c);
            }
        }
        for (l, r, op) in &spec.predicates {
            // Resolve each side; unresolvable paths are skipped (a workload
            // can mention paths absent from this document).
            let Some(lc) = resolve_container(&resolver, &path_to_cid, l) else { continue };
            match r {
                None => workload.push(lc, None, *op),
                Some(rp) => {
                    let Some(rc) = resolve_container(&resolver, &path_to_cid, rp) else {
                        continue;
                    };
                    workload.push(lc, Some(rc), *op);
                }
            }
        }
    }
    let Repository { dict, tree, summary, .. } = resolver;

    // Textual containers participate in the cost-based search; numeric ones
    // get the numeric codec directly (it supports eq and ineq anyway).
    let textual_workload = Workload {
        predicates: workload
            .predicates
            .iter()
            .copied()
            .filter(|p| {
                vtypes[p.left.0 as usize] == ValueType::Str
                    && p.right.is_none_or(|r| vtypes[r.0 as usize] == ValueType::Str)
            })
            .collect(),
    };
    let matrices = textual_workload.matrices(paths.len());
    let cost_model = CostModel::new(&stats, &matrices);
    let config = choose_configuration(&cost_model, &textual_workload, opts.threads);
    // Persist what the search believed: the same cached sample estimates it
    // optimized, later joined with measured sizes by the calibration report.
    let predictions = cost_model.predict(&config);
    // The statistics only feed the configuration search.
    drop(cost_model);
    drop(stats);

    // Map container -> chosen codec kind (None = untouched by workload).
    let mut chosen: Vec<Option<CodecKind>> = vec![None; paths.len()];
    for g in &config.groups {
        for &c in &g.containers {
            chosen[c.0 as usize] = Some(g.alg);
        }
    }
    // Containers touched through numeric predicates or projections count as
    // touched (projections need individual record access for output).
    let mut touched_any: Vec<bool> = vec![false; paths.len()];
    for p in &workload.predicates {
        touched_any[p.left.0 as usize] = true;
        if let Some(r) = p.right {
            touched_any[r.0 as usize] = true;
        }
    }
    for c in &projected {
        touched_any[c.0 as usize] = true;
    }

    phases.push(PhaseTiming { name: "cost_search", nanos: phase_span.close() });
    let phase_span = span!("loader.phase.codec_training");

    // ---- Phase C: train shared models and build containers -------------
    // One codec per configuration group, trained concurrently; group index
    // keys the map, so the fill order is irrelevant.
    let trained: Vec<Option<Arc<ValueCodec>>> = par_map(opts.threads, &config.groups, |_, g| {
        if g.alg == CodecKind::Blz {
            return None; // handled as block storage below
        }
        let corpus: Vec<&[u8]> = g
            .containers
            .iter()
            .flat_map(|&c| pending[&paths[c.0 as usize]].iter().map(|(v, _)| v.as_bytes()))
            .collect();
        Some(Arc::new(ValueCodec::train(g.alg, &corpus)))
    });
    let group_codec: HashMap<usize, Arc<ValueCodec>> = trained
        .into_iter()
        .enumerate()
        .filter_map(|(gi, c)| c.map(|c| (gi, c)))
        .collect();

    phases.push(PhaseTiming { name: "codec_training", nanos: phase_span.close() });
    let phase_span = span!("loader.phase.container_build");

    // Per-container compression + sorted-record assembly fan out; container
    // ids were fixed in path order above and par_map_into returns results in
    // that same order, so the repository layout matches a sequential build.
    let values_by_path: Vec<Vec<(String, ElemId)>> =
        paths.iter().map(|p| pending.remove(p).expect("each path built once")).collect();
    let containers: Vec<Container> =
        par_map_into(opts.threads, values_by_path, |i, values| {
            let cid = ContainerId(i as u32);
            let p = paths[i];
            let leaf = leaf_kind[&p];
            let vtype = vtypes[i];

            if vtype != ValueType::Str {
                // Numeric container: order-preserving numeric codec.
                let corpus: Vec<&[u8]> = values.iter().map(|(v, _)| v.as_bytes()).collect();
                let codec = Arc::new(ValueCodec::train(CodecKind::Numeric, &corpus));
                Container::build(cid, p, leaf, vtype, codec, values)
            } else {
                match chosen[i] {
                    Some(CodecKind::Blz) | None
                        if opts.workload.is_some() && !touched_any[i] =>
                    {
                        // Untouched by the workload: block-compress (§3.3).
                        Container::build_block(cid, p, leaf, vtype, values)
                    }
                    Some(alg) if alg != CodecKind::Blz => {
                        let gi = config.group_of(cid);
                        let codec = group_codec[&gi].clone();
                        Container::build(cid, p, leaf, vtype, codec, values)
                    }
                    _ => {
                        // No workload guidance: default string codec (ALM).
                        let corpus: Vec<&[u8]> =
                            values.iter().map(|(v, _)| v.as_bytes()).collect();
                        let codec = Arc::new(ValueCodec::train(CodecKind::Alm, &corpus));
                        Container::build(cid, p, leaf, vtype, codec, values)
                    }
                }
            }
        });

    let mut tree = tree;
    tree.attach_values(&containers);

    phases.push(PhaseTiming { name: "container_build", nanos: phase_span.close() });

    // Publish size accounting: overall raw/compressed totals plus per-codec
    // splits, so a metrics snapshot carries Table 1-style numbers. Block
    // containers count as blz, whatever per-value codec they carry.
    for c in &containers {
        counter!("loader.bytes.raw").add(c.plain_size() as u64);
        counter!("loader.bytes.compressed").add(c.compressed_size() as u64);
        let kind = if c.is_individual() { c.codec().kind() } else { CodecKind::Blz };
        xquec_obs::metrics::counter_handle(codec_metric(kind)).add(c.compressed_size() as u64);
    }
    counter!("loader.containers.built").add(containers.len() as u64);

    Ok((
        Repository { dict, tree, summary, containers, original_bytes: xml.len() },
        phases,
        predictions,
    ))
}

/// Registry counter name for compressed bytes produced per codec. Static
/// strings because the registry is `&'static`-keyed.
fn codec_metric(kind: CodecKind) -> &'static str {
    match kind {
        CodecKind::Raw => "loader.codec.raw.compressed_bytes",
        CodecKind::Huffman => "loader.codec.huffman.compressed_bytes",
        CodecKind::Alm => "loader.codec.alm.compressed_bytes",
        CodecKind::HuTucker => "loader.codec.hu_tucker.compressed_bytes",
        CodecKind::Arith => "loader.codec.arith.compressed_bytes",
        CodecKind::Numeric => "loader.codec.numeric.compressed_bytes",
        CodecKind::Blz => "loader.codec.blz.compressed_bytes",
    }
}

fn resolve_container(
    resolver: &Repository,
    path_to_cid: &HashMap<PathId, ContainerId>,
    path: &str,
) -> Option<ContainerId> {
    let leaves = resolver.resolve_path(path)?;
    leaves.into_iter().find_map(|p| path_to_cid.get(&p).copied())
}

#[cfg(test)]
mod tests {
    use super::*;

    const DOC: &str = r#"<site>
        <people>
            <person id="person0"><name>Alice Smith</name><age>31</age></person>
            <person id="person1"><name>Bob Jones</name><age>27</age></person>
            <person id="person2"><name>Carol King</name></person>
        </people>
        <closed_auctions>
            <closed_auction><buyer person="person1"/><price>19.99</price></closed_auction>
            <closed_auction><buyer person="person0"/><price>5.00</price></closed_auction>
        </closed_auctions>
    </site>"#;

    #[test]
    fn shreds_into_expected_containers() {
        let repo = load(DOC).unwrap();
        // Containers: person/@id, name/text(), age/text(), buyer/@person, price/text()
        assert_eq!(repo.containers.len(), 5);
        let names = repo.container_by_path("/site/people/person/name/text()").unwrap();
        assert_eq!(repo.container(names).len(), 3);
        let ids = repo.container_by_path("/site/people/person/@id").unwrap();
        assert_eq!(repo.container(ids).len(), 3);
        let ages = repo.container_by_path("//age/text()").unwrap();
        assert_eq!(repo.container(ages).vtype, ValueType::Int);
        let prices = repo.container_by_path("//price/text()").unwrap();
        assert_eq!(repo.container(prices).vtype, ValueType::Decimal(2));
    }

    #[test]
    fn values_roundtrip_after_compression() {
        let repo = load(DOC).unwrap();
        let names = repo.container_by_path("//name/text()").unwrap();
        let c = repo.container(names);
        let all = c.decompress_all().unwrap();
        assert_eq!(all, vec!["Alice Smith", "Bob Jones", "Carol King"]);
    }

    #[test]
    fn value_refs_connect_tree_and_containers() {
        let repo = load(DOC).unwrap();
        let ids = repo.container_by_path("//person/@id").unwrap();
        let c = repo.container(ids);
        // Each person element has a ValueRef to its id record.
        for idx in 0..c.len() as u32 {
            let elem = c.parent_of(idx);
            let refs = repo.tree.values(elem);
            assert!(refs.iter().any(|r| r.container == ids && r.index == idx));
        }
    }

    #[test]
    fn extents_in_document_order() {
        let repo = load(DOC).unwrap();
        let persons = repo.resolve_path("/site/people/person").unwrap();
        assert_eq!(persons.len(), 1);
        let extent = &repo.summary.node(persons[0]).extent;
        assert_eq!(extent.len(), 3);
        assert!(extent.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn workload_drives_codec_choice() {
        let spec = WorkloadSpec::new()
            .join("//person/@id", "//buyer/@person", PredOp::Eq)
            .constant("//name/text()", PredOp::Ineq);
        let opts = LoaderOptions { workload: Some(spec), ..Default::default() };
        let repo = load_with(DOC, &opts).unwrap();

        // Join sides share one source model supporting equality.
        let ids = repo.container_by_path("//person/@id").unwrap();
        let refs = repo.container_by_path("//buyer/@person").unwrap();
        let ca = repo.container(ids).codec();
        let cb = repo.container(refs).codec();
        assert!(Arc::ptr_eq(ca, cb), "join containers share a source model");
        assert!(ca.properties().eq);

        // Inequality-queried names get an order-preserving codec.
        let names = repo.container_by_path("//name/text()").unwrap();
        assert!(repo.container(names).codec().order_preserving());
    }

    #[test]
    fn untouched_containers_blocked_when_workload_present() {
        let spec = WorkloadSpec::new().constant("//name/text()", PredOp::Eq);
        let opts = LoaderOptions { workload: Some(spec), ..Default::default() };
        let repo = load_with(DOC, &opts).unwrap();
        let ids = repo.container_by_path("//person/@id").unwrap();
        assert!(!repo.container(ids).is_individual(), "untouched => block storage");
        let names = repo.container_by_path("//name/text()").unwrap();
        assert!(repo.container(names).is_individual());
        // Block containers still round-trip.
        assert_eq!(repo.container(ids).decompress_all().unwrap().len(), 3);
    }

    #[test]
    fn compresses_documents() {
        let xml = xquec_xml::gen::Dataset::Xmark.generate(1_000_000);
        let repo = load(&xml).unwrap();
        let report = repo.size_report();
        assert!(
            report.compression_factor() > 0.25,
            "CF {:.3}: {report:?}",
            report.compression_factor()
        );
        // Summary is small relative to the document (§2.2 measures ~19%
        // of the original including extents).
        assert!(report.summary < report.original / 3, "{report:?}");
        // Dropping access structures shrinks the database substantially
        // (§2.2: "by a factor of 3 to 4" — we assert the direction here and
        // record the measured factor in EXPERIMENTS.md).
        assert!(
            (report.total_without_access_structures() as f64) < 0.75 * report.total() as f64,
            "{report:?}"
        );
    }

    #[test]
    fn malformed_document_is_error() {
        assert!(load("<a><b></a>").is_err());
    }

    /// The tentpole guarantee of the parallel loader: the persisted
    /// repository is byte-identical whatever the thread count.
    #[test]
    fn parallel_load_is_byte_identical_to_sequential() {
        let xml = xquec_xml::gen::Dataset::Xmark.generate(150_000);
        let spec = WorkloadSpec::new()
            .join("//buyer/@person", "//person/@id", PredOp::Eq)
            .constant("//price/text()", PredOp::Ineq)
            .project("//person/name/text()");

        let dir = std::env::temp_dir().join(format!("xquec-par-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let mut images: Vec<Vec<u8>> = Vec::new();
        for threads in [1usize, 4] {
            let opts = LoaderOptions { workload: Some(spec.clone()), threads };
            let repo = load_with(&xml, &opts).unwrap();
            let file = dir.join(format!("repo-t{threads}.xqc"));
            crate::persist::save(&repo, &file).unwrap();
            images.push(std::fs::read(&file).unwrap());
            std::fs::remove_file(&file).unwrap();
        }
        assert!(!images[0].is_empty());
        assert_eq!(images[0], images[1], "1-thread vs 4-thread repositories differ");
    }
}
