//! The metrics the benchmark reports: names, units, directions, and for each
//! per-layer metric the end-to-end metric it should move. `BENCHMARK.json`
//! lists the same names; the smoke test keeps the two in step.

/// An end-to-end metric: `(name, unit, better)`.
pub type EndToEnd = (&'static str, &'static str, &'static str);

/// Reported by every untraced run, on every workload.
pub const END_TO_END: &[EndToEnd] = &[
    ("setup_s", "s", "lower"),
    ("query_best_geomean_ms", "ms", "lower"),
    ("catalog_best_ms", "ms", "lower"),
    ("load_mb_per_s", "MB/s", "higher"),
    ("save_mb_per_s", "MB/s", "higher"),
    ("open_mb_per_s", "MB/s", "higher"),
    ("accounted_bytes_per_input_byte", "B/B", "lower"),
    ("disk_bytes_per_input_byte", "B/B", "lower"),
    ("peak_rss_mb", "MB", "lower"),
];

/// A per-layer metric: `(name, unit, better, end-to-end metric it should move)`.
pub type Layer = (&'static str, &'static str, &'static str, &'static str);

const LOADER: &str = "load_mb_per_s; setup_s on xmark-warm";
const QUERY: &str = "query_best_geomean_ms and catalog_best_ms";

/// Reported by every traced run, on every workload. The sixteen
/// `query.<Qn>.best_ms` metrics follow these, one per catalog query.
#[rustfmt::skip]
pub const LAYERS: &[Layer] = &[
    ("trace.overhead_ratio", "ratio", "lower", "none: traced over untraced time of the same operation"),
    ("xml.reader_mb_per_s", "MB/s", "higher", LOADER),
    ("loader.parse_ms", "ms", "lower", LOADER),
    ("loader.stats_ms", "ms", "lower", LOADER),
    ("loader.cost_search_ms", "ms", "lower", LOADER),
    ("loader.codec_training_ms", "ms", "lower", LOADER),
    ("loader.container_build_ms", "ms", "lower", LOADER),
    ("codec.alm.decode_mb_per_s", "MB/s", "higher", "query_best_geomean_ms on xmark-warm"),
    ("codec.numeric.decode_mb_per_s", "MB/s", "higher", "query_best_geomean_ms on xmark-warm"),
    ("codec.blz.decode_mb_per_s", "MB/s", "higher", "both query metrics on ingest (fresh engines); none on xmark-warm"),
    ("codec.blz.encode_mb_per_s", "MB/s", "higher", "load_mb_per_s on ingest"),
    ("codec.alm.encode_mb_per_s", "MB/s", "higher", "load_mb_per_s on ingest"),
    ("query.parse_us", "us", "lower", "query_best_geomean_ms"),
    ("query.eval_ms", "ms", "lower", "query_best_geomean_ms"),
    ("query.serialize_ms", "ms", "lower", "catalog_best_ms"),
    ("query.engine_new_ms", "ms", "lower", "query_best_geomean_ms on ingest (fresh engines) only"),
    ("query.decompressions", "count", "lower", QUERY),
    ("query.value_fetches", "count", "lower", QUERY),
    ("query.bytes_decompressed", "B", "lower", QUERY),
    ("query.cache_hit_ratio", "ratio", "higher", QUERY),
    ("query.decompressed_bytes_per_output_byte", "B/B", "lower", QUERY),
    ("query.plan_nodes", "count", "lower", "none yet: plan size must not grow with data"),
    ("engine.rss_growth_mb", "MB", "lower", "peak_rss_mb on xmark-warm"),
    ("storage.pool_hit_ratio", "ratio", "higher", "save_mb_per_s and open_mb_per_s on ingest"),
    ("storage.pool_evictions_per_save", "count", "lower", "save_mb_per_s on ingest"),
    ("storage.pages_per_input_mb", "pages/MB", "lower", "disk_bytes_per_input_byte"),
    ("storage.syncs_per_save", "count", "lower", "none: counts of the durable file save"),
    ("storage.page_writes_per_save", "count", "lower", "none: counts of the durable file save"),
    ("query.p50_geomean_ms", "ms", "lower", "none: diagnostic, keeps the machine's noise visible"),
    ("query.p90_geomean_ms", "ms", "lower", "none: diagnostic, keeps the machine's noise visible"),
];

/// Name of the per-type fastest-repetition metric of catalog query `id`.
pub fn query_best_name(id: &str) -> String {
    format!("query.{id}.best_ms")
}
