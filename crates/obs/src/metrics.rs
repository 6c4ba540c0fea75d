//! The metrics registry: counters, gauges, and monotonic histograms.
//!
//! Metrics are keyed by `&'static str` names and live forever once touched
//! (the registry leaks one small allocation per distinct metric — bounded by
//! the number of instrumentation sites, not by traffic). Every update is a
//! single relaxed atomic operation; reads (snapshots) are lock-free per
//! cell and only lock the name table briefly to enumerate it.
//!
//! Histograms use fixed log₂-scale buckets: bucket 0 holds the value `0`,
//! bucket *i* (1..=64) holds values in `[2^(i-1), 2^i)`. That covers the
//! full `u64` range (durations in nanoseconds, byte sizes) with 65 cells
//! and no configuration.

use crate::json::Json;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock, PoisonError};

/// Number of histogram buckets: one for zero plus one per power of two.
pub const HISTOGRAM_BUCKETS: usize = 65;

/// Bucket index for a recorded value: `0` for `0`, else `64 - leading_zeros`
/// (so bucket *i* spans `[2^(i-1), 2^i)`; `u64::MAX` lands in bucket 64).
#[inline]
pub fn bucket_index(value: u64) -> usize {
    (64 - value.leading_zeros()) as usize
}

/// Inclusive lower bound of bucket `i`.
#[inline]
pub fn bucket_lo(i: usize) -> u64 {
    if i == 0 {
        0
    } else {
        1u64 << (i - 1)
    }
}

/// Estimate the `q`-quantile (`0.0..=1.0`) from `(bucket lower bound,
/// count)` pairs in ascending bound order — the layout of
/// [`HistogramSnapshot::buckets`].
///
/// Bucket 0 holds exactly the value `0`; every other bucket spans
/// `[lo, 2*lo)` and the estimate interpolates linearly inside it, so the
/// error is bounded by the bucket width (a factor of two) and shrinks with
/// how early in the bucket the rank falls. Returns `None` for an empty
/// histogram.
pub fn quantile_from_buckets(buckets: &[(u64, u64)], q: f64) -> Option<u64> {
    let count: u64 = buckets.iter().map(|&(_, c)| c).sum();
    if count == 0 {
        return None;
    }
    let q = q.clamp(0.0, 1.0);
    let rank = ((q * count as f64).ceil() as u64).clamp(1, count);
    let mut cum = 0u64;
    for &(lo, c) in buckets {
        if cum + c >= rank {
            if lo == 0 {
                return Some(0);
            }
            // Fraction of this bucket below the rank, in (0, 1]; the bucket
            // spans [lo, 2*lo), so its width equals its lower bound.
            let f = (rank - cum) as f64 / c as f64;
            let v = lo as f64 + f * lo as f64;
            return Some(v.min(u64::MAX as f64) as u64);
        }
        cum += c;
    }
    None
}

/// Monotonically increasing event count.
#[derive(Debug, Default)]
pub struct Counter {
    v: AtomicU64,
}

impl Counter {
    /// Increment by one.
    #[inline]
    pub fn inc(&self) {
        self.v.fetch_add(1, Ordering::Relaxed);
    }

    /// Increment by `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.v.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.v.load(Ordering::Relaxed)
    }
}

/// Point-in-time signed value (e.g. resident entries of a cache).
#[derive(Debug, Default)]
pub struct Gauge {
    v: AtomicI64,
}

impl Gauge {
    /// Overwrite the value.
    #[inline]
    pub fn set(&self, v: i64) {
        self.v.store(v, Ordering::Relaxed);
    }

    /// Adjust by a signed delta.
    #[inline]
    pub fn add(&self, d: i64) {
        self.v.fetch_add(d, Ordering::Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> i64 {
        self.v.load(Ordering::Relaxed)
    }
}

/// Monotonic histogram over fixed log₂ buckets.
pub struct Histogram {
    count: AtomicU64,
    sum: AtomicU64,
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
}

impl Histogram {
    fn new() -> Self {
        Histogram {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            buckets: [0u64; HISTOGRAM_BUCKETS].map(AtomicU64::new),
        }
    }

    /// Record one observation.
    #[inline]
    pub fn record(&self, value: u64) {
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
    }

    /// Number of observations.
    #[inline]
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of observations (wraps on overflow, like Prometheus' `_sum`).
    #[inline]
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Per-bucket counts.
    pub fn buckets(&self) -> [u64; HISTOGRAM_BUCKETS] {
        let mut out = [0u64; HISTOGRAM_BUCKETS];
        for (o, b) in out.iter_mut().zip(&self.buckets) {
            *o = b.load(Ordering::Relaxed);
        }
        out
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Histogram")
            .field("count", &self.count())
            .field("sum", &self.sum())
            .finish()
    }
}

enum Metric {
    Counter(&'static Counter),
    Gauge(&'static Gauge),
    Histogram(&'static Histogram),
}

fn table() -> &'static Mutex<BTreeMap<&'static str, Metric>> {
    static TABLE: OnceLock<Mutex<BTreeMap<&'static str, Metric>>> = OnceLock::new();
    TABLE.get_or_init(|| Mutex::new(BTreeMap::new()))
}

fn lock() -> std::sync::MutexGuard<'static, BTreeMap<&'static str, Metric>> {
    table().lock().unwrap_or_else(PoisonError::into_inner)
}

/// Look up (or create) the counter `name`. Panics if the name is already
/// registered as a different metric kind — a programming error at an
/// instrumentation site, not a runtime condition.
pub fn counter_handle(name: &'static str) -> &'static Counter {
    let mut t = lock();
    let cell = t
        .entry(name)
        .or_insert_with(|| Metric::Counter(Box::leak(Box::new(Counter::default()))));
    match cell {
        Metric::Counter(c) => c,
        _ => panic!("metric {name:?} is registered as a non-counter"),
    }
}

/// Look up (or create) the gauge `name`.
pub fn gauge_handle(name: &'static str) -> &'static Gauge {
    let mut t = lock();
    let cell = t
        .entry(name)
        .or_insert_with(|| Metric::Gauge(Box::leak(Box::new(Gauge::default()))));
    match cell {
        Metric::Gauge(g) => g,
        _ => panic!("metric {name:?} is registered as a non-gauge"),
    }
}

/// Look up (or create) the histogram `name`.
pub fn histogram_handle(name: &'static str) -> &'static Histogram {
    let mut t = lock();
    let cell = t
        .entry(name)
        .or_insert_with(|| Metric::Histogram(Box::leak(Box::new(Histogram::new()))));
    match cell {
        Metric::Histogram(h) => h,
        _ => panic!("metric {name:?} is registered as a non-histogram"),
    }
}

/// Snapshot every registered metric.
pub fn snapshot() -> MetricsSnapshot {
    let t = lock();
    let mut snap = MetricsSnapshot::default();
    for (&name, metric) in t.iter() {
        match metric {
            Metric::Counter(c) => snap.counters.push((name.to_owned(), c.get())),
            Metric::Gauge(g) => snap.gauges.push((name.to_owned(), g.get())),
            Metric::Histogram(h) => {
                let buckets = h
                    .buckets()
                    .iter()
                    .enumerate()
                    .filter(|(_, &c)| c > 0)
                    .map(|(i, &c)| (bucket_lo(i), c))
                    .collect();
                snap.histograms.push(HistogramSnapshot {
                    name: name.to_owned(),
                    count: h.count(),
                    sum: h.sum(),
                    buckets,
                });
            }
        }
    }
    snap
}

/// One histogram, flattened for reporting. Only non-empty buckets are kept.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Metric name.
    pub name: String,
    /// Total observations.
    pub count: u64,
    /// Sum of observations.
    pub sum: u64,
    /// `(bucket lower bound, observations)` for non-empty buckets.
    pub buckets: Vec<(u64, u64)>,
}

impl HistogramSnapshot {
    /// Estimated `q`-quantile of the recorded values (see
    /// [`quantile_from_buckets`]); `None` when nothing was recorded.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        quantile_from_buckets(&self.buckets, q)
    }
}

/// A point-in-time dump of every registered metric, sorted by name.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// `(name, value)` for every counter.
    pub counters: Vec<(String, u64)>,
    /// `(name, value)` for every gauge.
    pub gauges: Vec<(String, i64)>,
    /// Every histogram.
    pub histograms: Vec<HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// The value of counter `name`, if registered.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }

    /// The snapshot of histogram `name`, if registered.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.iter().find(|h| h.name == name)
    }

    /// Distinct top-level metric families (`storage`, `loader`, `query`, …):
    /// the segment before the first `.` of every metric name, deduplicated.
    pub fn families(&self) -> Vec<String> {
        let mut fams: Vec<String> = self
            .counters
            .iter()
            .map(|(n, _)| n.as_str())
            .chain(self.gauges.iter().map(|(n, _)| n.as_str()))
            .chain(self.histograms.iter().map(|h| h.name.as_str()))
            .map(|n| n.split('.').next().unwrap_or(n).to_owned())
            .collect();
        fams.sort();
        fams.dedup();
        fams
    }

    /// JSON dump: `{"counters": {...}, "gauges": {...}, "histograms": {...}}`.
    pub fn to_json(&self) -> Json {
        let counters =
            Json::Obj(self.counters.iter().map(|(n, v)| (n.clone(), Json::Num(*v as f64))).collect());
        let gauges =
            Json::Obj(self.gauges.iter().map(|(n, v)| (n.clone(), Json::Num(*v as f64))).collect());
        let histograms = Json::Obj(
            self.histograms
                .iter()
                .map(|h| {
                    let buckets = Json::Arr(
                        h.buckets
                            .iter()
                            .map(|&(lo, c)| {
                                Json::obj(vec![
                                    ("lo", Json::Num(lo as f64)),
                                    ("count", Json::Num(c as f64)),
                                ])
                            })
                            .collect(),
                    );
                    let quantile = |q: f64| match h.quantile(q) {
                        Some(v) => Json::Num(v as f64),
                        None => Json::Null,
                    };
                    (
                        h.name.clone(),
                        Json::obj(vec![
                            ("count", Json::Num(h.count as f64)),
                            ("sum", Json::Num(h.sum as f64)),
                            ("p50", quantile(0.50)),
                            ("p95", quantile(0.95)),
                            ("p99", quantile(0.99)),
                            ("buckets", buckets),
                        ]),
                    )
                })
                .collect(),
        );
        Json::obj(vec![
            ("counters", counters),
            ("gauges", gauges),
            ("histograms", histograms),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_edges() {
        // Zero gets its own bucket.
        assert_eq!(bucket_index(0), 0);
        // Powers of two open a new bucket; their predecessors close one.
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(1023), 10);
        assert_eq!(bucket_index(1024), 11);
        // Extremes stay in range.
        assert_eq!(bucket_index(u64::MAX), HISTOGRAM_BUCKETS - 1);
        assert_eq!(bucket_index(1u64 << 63), HISTOGRAM_BUCKETS - 1);
        assert_eq!(bucket_index((1u64 << 63) - 1), HISTOGRAM_BUCKETS - 2);
    }

    #[test]
    fn bucket_lo_matches_index() {
        for i in 0..HISTOGRAM_BUCKETS {
            assert_eq!(bucket_index(bucket_lo(i)), i, "lower bound of bucket {i}");
            if i > 0 {
                // The value just below the bound lands one bucket down.
                assert_eq!(bucket_index(bucket_lo(i) - 1), i - 1);
            }
        }
    }

    #[test]
    fn quantiles_from_explicit_buckets() {
        // Empty histogram: no quantile.
        assert_eq!(quantile_from_buckets(&[], 0.5), None);
        // All zeros land in bucket 0 exactly.
        assert_eq!(quantile_from_buckets(&[(0, 7)], 0.5), Some(0));
        assert_eq!(quantile_from_buckets(&[(0, 7)], 0.99), Some(0));
        // Ten values in [4, 8): the median interpolates to the middle.
        assert_eq!(quantile_from_buckets(&[(4, 10)], 0.5), Some(6));
        assert_eq!(quantile_from_buckets(&[(4, 10)], 1.0), Some(8));
        // Mixed buckets: 5 values in [1,2), 5 in [256,512) — the median is
        // the last value of the low bucket, p95+ reach the high bucket.
        let b = [(1, 5), (256, 5)];
        assert_eq!(quantile_from_buckets(&b, 0.5), Some(2));
        let p95 = quantile_from_buckets(&b, 0.95).unwrap();
        assert!((256..=512).contains(&p95), "{p95}");
        // Quantiles never decrease in q.
        let mut last = 0;
        for q in [0.0, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0] {
            let v = quantile_from_buckets(&b, q).unwrap();
            assert!(v >= last, "quantile regressed at q={q}");
            last = v;
        }
        // The top bucket saturates instead of overflowing.
        let top = quantile_from_buckets(&[(1u64 << 63, 3)], 1.0).unwrap();
        assert_eq!(top, u64::MAX);
    }

    #[test]
    fn snapshot_quantiles_track_recorded_values() {
        let h = histogram_handle("test.metrics.quantiles");
        for v in 1..=1000u64 {
            h.record(v);
        }
        let snap = snapshot();
        let hs = snap.histogram("test.metrics.quantiles").expect("registered");
        let p50 = hs.quantile(0.5).expect("non-empty");
        let p95 = hs.quantile(0.95).expect("non-empty");
        let p99 = hs.quantile(0.99).expect("non-empty");
        // True percentiles are 500 / 950 / 990; log₂ buckets bound the
        // estimate to the enclosing power-of-two range.
        assert!((256..=512).contains(&p50), "p50={p50}");
        assert!((512..=1024).contains(&p95), "p95={p95}");
        assert!((512..=1024).contains(&p99), "p99={p99}");
        assert!(p50 <= p95 && p95 <= p99);
        // JSON carries the percentile fields.
        let json = snap.to_json();
        let h_json = json
            .get("histograms")
            .and_then(|h| h.get("test.metrics.quantiles"))
            .expect("histogram in JSON");
        assert_eq!(h_json.get("p50").and_then(Json::as_num), Some(p50 as f64));
        assert_eq!(h_json.get("p99").and_then(Json::as_num), Some(p99 as f64));
    }

    #[test]
    fn counter_gauge_histogram_roundtrip() {
        let c = counter_handle("test.metrics.counter");
        let g = gauge_handle("test.metrics.gauge");
        let h = histogram_handle("test.metrics.histogram");
        c.inc();
        c.add(4);
        g.set(7);
        g.add(-2);
        h.record(0);
        h.record(5);
        h.record(u64::MAX);
        assert_eq!(c.get(), 5);
        assert_eq!(g.get(), 5);
        assert_eq!(h.count(), 3);
        let b = h.buckets();
        assert_eq!(b[0], 1);
        assert_eq!(b[bucket_index(5)], 1);
        assert_eq!(b[HISTOGRAM_BUCKETS - 1], 1);
        let snap = snapshot();
        assert_eq!(snap.counter("test.metrics.counter"), Some(5));
        let hs = snap.histogram("test.metrics.histogram").expect("registered");
        assert_eq!(hs.count, 3);
        assert!(snap.families().contains(&"test".to_owned()));
    }

    #[test]
    fn same_name_same_cell() {
        let a = counter_handle("test.metrics.same");
        let b = counter_handle("test.metrics.same");
        a.add(3);
        b.add(4);
        assert_eq!(a.get(), 7);
        assert!(std::ptr::eq(a, b));
    }

    #[test]
    fn concurrent_updates_do_not_lose_counts() {
        let threads = 8;
        let per = 10_000u64;
        std::thread::scope(|s| {
            for _ in 0..threads {
                s.spawn(|| {
                    let c = crate::counter!("test.metrics.concurrent");
                    let h = crate::histogram!("test.metrics.concurrent.hist");
                    for i in 0..per {
                        c.inc();
                        h.record(i);
                    }
                });
            }
        });
        assert_eq!(snapshot().counter("test.metrics.concurrent"), Some(threads * per));
        assert_eq!(
            snapshot().histogram("test.metrics.concurrent.hist").expect("exists").count,
            threads * per
        );
    }

    #[test]
    fn snapshot_json_shape() {
        counter_handle("test.metrics.json").add(2);
        let json = snapshot().to_json().pretty();
        let parsed = Json::parse(&json).expect("snapshot JSON parses");
        assert!(parsed.get("counters").is_some());
        assert!(parsed.get("gauges").is_some());
        assert!(parsed.get("histograms").is_some());
    }
}
