//! # xquec-obs
//!
//! The hermetic observability layer: a `tracing`-style span/event API with
//! thread-safe subscribers, plus a metrics registry (counters, gauges,
//! monotonic histograms with fixed log-scale buckets) cheap enough to leave
//! on in production builds. Follows the `crates/shims` convention — no
//! registry dependencies, `std` only.
//!
//! Design constraints, in order:
//!
//! * **No allocation on the hot path.** Metrics are `&'static`-keyed; the
//!   [`counter!`]/[`gauge!`]/[`histogram!`]/[`span!`] macros resolve the
//!   registry entry once per call site (a `OnceLock`) and every later touch
//!   is a single relaxed atomic op.
//! * **Thread-safe by construction.** All metric cells are atomics;
//!   subscribers are `Send + Sync` behind an `RwLock`ed list, so the
//!   parallel loader's worker threads can emit concurrently.
//! * **One build.** Instrumentation is always compiled in. Its call sites
//!   fire per query, phase, page or event, never per row (a query adds its
//!   counters to the registry once, when it retires). Per-operator timing,
//!   the one per-row cost, is asked for per query (`Engine::profile`), not
//!   per build.
//!
//! Naming scheme (see DESIGN.md "Observability"): dot-separated
//! `layer.component.detail` paths, e.g. `storage.page.read`,
//! `loader.phase.codec_training`, `query.exec.decompressions`. Span names
//! double as histogram names (durations in nanoseconds).
//!
//! [`json`] holds the workspace's serde stand-in ([`json::Json`] /
//! [`json::ToJson`] plus a parser for round-trip tests), shared by the
//! metrics snapshot, query/load profiles, and the `repro` experiment logs.

pub mod json;
pub mod metrics;
pub mod span;

pub use metrics::{counter_handle, gauge_handle, histogram_handle, snapshot, MetricsSnapshot};
pub use span::{
    add_subscriber, event, remove_subscriber, span, Collector, Field, Span, Subscriber,
    SubscriberId,
};

/// Resolve a counter once per call site, then increment atomically.
///
/// ```
/// xquec_obs::counter!("doc.example.hits").inc();
/// ```
#[macro_export]
macro_rules! counter {
    ($name:expr) => {{
        static HANDLE: ::std::sync::OnceLock<&'static $crate::metrics::Counter> =
            ::std::sync::OnceLock::new();
        *HANDLE.get_or_init(|| $crate::metrics::counter_handle($name))
    }};
}

/// Resolve a gauge once per call site.
#[macro_export]
macro_rules! gauge {
    ($name:expr) => {{
        static HANDLE: ::std::sync::OnceLock<&'static $crate::metrics::Gauge> =
            ::std::sync::OnceLock::new();
        *HANDLE.get_or_init(|| $crate::metrics::gauge_handle($name))
    }};
}

/// Open a [`span::Span`], resolving its histogram once per call site as
/// [`histogram!`] does. The name must be the same at every evaluation of
/// the call site (a literal).
///
/// ```
/// let span = xquec_obs::span!("doc.example.phase");
/// // ... region ...
/// let nanos: u64 = span.close();
/// ```
#[macro_export]
macro_rules! span {
    ($name:expr) => {{
        static HANDLE: ::std::sync::OnceLock<&'static $crate::metrics::Histogram> =
            ::std::sync::OnceLock::new();
        $crate::span::Span::open(
            $name,
            *HANDLE.get_or_init(|| $crate::metrics::histogram_handle($name)),
        )
    }};
}

/// Resolve a histogram once per call site.
#[macro_export]
macro_rules! histogram {
    ($name:expr) => {{
        static HANDLE: ::std::sync::OnceLock<&'static $crate::metrics::Histogram> =
            ::std::sync::OnceLock::new();
        *HANDLE.get_or_init(|| $crate::metrics::histogram_handle($name))
    }};
}
