//! Spans, events, and subscribers — the `tracing`-style half of the layer.
//!
//! * [`span`] starts a timed region; dropping the returned [`Span`] guard
//!   (or [`Span::close`], which also returns the time) records the elapsed
//!   nanoseconds into a histogram of the same name and notifies
//!   subscribers. The hot path is one `Instant::now()` per end; the
//!   [`crate::span!`] macro also resolves the histogram once per call site.
//! * [`event`] reports a discrete occurrence (a WAL journal discarded, a
//!   header rejected) with structured [`Field`]s. Every event also bumps a
//!   counter of the same name, so events are countable from a
//!   [`crate::metrics::snapshot`] even with no subscriber installed.
//! * [`Subscriber`]s are `Send + Sync` observers behind an `RwLock`ed list;
//!   [`Collector`] is the bundled test helper that captures everything.

use crate::metrics::Histogram;
use std::sync::{Arc, Mutex, PoisonError, RwLock};

/// One structured key/value attached to an [`event`].
///
/// Events sit on cold paths (recovery, open-time validation), so values are
/// plain `String`s — clarity over allocation avoidance here.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Field {
    /// Attribute name, e.g. `"pages"` or `"path"`.
    pub key: &'static str,
    /// Rendered attribute value.
    pub value: String,
}

impl Field {
    /// Build a field from anything displayable.
    pub fn new(key: &'static str, value: impl std::fmt::Display) -> Self {
        Field {
            key,
            value: value.to_string(),
        }
    }
}

/// Handle returned by [`add_subscriber`]; pass to [`remove_subscriber`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SubscriberId(u64);

/// A thread-safe observer of events and span closings.
///
/// Implementations must tolerate concurrent calls — the parallel loader's
/// worker threads emit without coordination.
pub trait Subscriber: Send + Sync {
    /// Called for every [`event`], with its structured fields.
    fn on_event(&self, name: &'static str, fields: &[Field]);

    /// Called when a [`Span`] guard drops, with the elapsed wall time.
    fn on_span_close(&self, name: &'static str, elapsed_ns: u64) {
        let _ = (name, elapsed_ns);
    }
}

struct Registry {
    next_id: u64,
    subs: Vec<(SubscriberId, Arc<dyn Subscriber>)>,
}

fn registry() -> &'static RwLock<Registry> {
    static REGISTRY: std::sync::OnceLock<RwLock<Registry>> = std::sync::OnceLock::new();
    REGISTRY.get_or_init(|| {
        RwLock::new(Registry {
            next_id: 1,
            subs: Vec::new(),
        })
    })
}

/// Install a subscriber; it observes every event and span close from every
/// thread until removed. Returns a handle for [`remove_subscriber`].
pub fn add_subscriber(sub: Arc<dyn Subscriber>) -> SubscriberId {
    let mut reg = registry().write().unwrap_or_else(PoisonError::into_inner);
    let id = SubscriberId(reg.next_id);
    reg.next_id += 1;
    reg.subs.push((id, sub));
    id
}

/// Remove a previously installed subscriber. Removing twice is a no-op.
pub fn remove_subscriber(id: SubscriberId) {
    let mut reg = registry().write().unwrap_or_else(PoisonError::into_inner);
    reg.subs.retain(|(sid, _)| *sid != id);
}

fn dispatch(f: impl Fn(&dyn Subscriber)) {
    let reg = registry().read().unwrap_or_else(PoisonError::into_inner);
    for (_, sub) in &reg.subs {
        f(sub.as_ref());
    }
}

/// Emit a structured event: notifies subscribers and increments the counter
/// `name`.
pub fn event(name: &'static str, fields: &[Field]) {
    crate::metrics::counter_handle(name).inc();
    dispatch(|s| s.on_event(name, fields));
}

/// Timed-region guard returned by [`span`] and [`crate::span!`]. On drop,
/// or on [`Span::close`], records elapsed nanoseconds into the histogram of
/// its name and notifies subscribers.
#[must_use = "a span measures until it is dropped; binding to _ ends it immediately"]
pub struct Span {
    name: &'static str,
    histogram: &'static Histogram,
    start: std::time::Instant,
}

/// Open a timed span, resolving its histogram by name under the registry
/// lock. Hold the guard for the duration of the region:
///
/// ```
/// let _span = xquec_obs::span("doc.example.work");
/// // ... region ...
/// ```
///
/// A span opened on a hot path should use [`crate::span!`], which resolves
/// the histogram once per call site.
pub fn span(name: &'static str) -> Span {
    Span::open(name, crate::metrics::histogram_handle(name))
}

impl Span {
    /// Open a span that records into `histogram`, which must be the
    /// histogram named `name` ([`crate::span!`] passes its cached handle).
    pub fn open(name: &'static str, histogram: &'static Histogram) -> Span {
        Span { name, histogram, start: std::time::Instant::now() }
    }

    /// End the span now and return its elapsed nanoseconds: the same
    /// reading the histogram and the subscribers get, so a caller that
    /// needs the time reads no clock of its own.
    pub fn close(self) -> u64 {
        let elapsed = self.finish();
        std::mem::forget(self);
        elapsed
    }

    fn finish(&self) -> u64 {
        let elapsed = self.start.elapsed().as_nanos().min(u64::MAX as u128) as u64;
        self.histogram.record(elapsed);
        dispatch(|s| s.on_span_close(self.name, elapsed));
        elapsed
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        self.finish();
    }
}

/// A captured event: `(name, [(key, value)])`.
pub type CapturedEvent = (String, Vec<(String, String)>);

/// Test-helper subscriber that records everything it observes.
#[derive(Default)]
pub struct Collector {
    events: Mutex<Vec<CapturedEvent>>,
    spans: Mutex<Vec<(String, u64)>>,
}

impl Collector {
    /// New empty collector, ready to pass to [`add_subscriber`].
    pub fn new() -> Arc<Self> {
        Arc::new(Collector::default())
    }

    /// All captured events as `(name, [(key, value)])`, in arrival order.
    pub fn events(&self) -> Vec<CapturedEvent> {
        self.events
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }

    /// All captured span closes as `(name, elapsed_ns)`, in arrival order.
    pub fn spans(&self) -> Vec<(String, u64)> {
        self.spans
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }

    /// How many captured events carry exactly this name.
    pub fn event_count(&self, name: &str) -> usize {
        self.events
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .iter()
            .filter(|(n, _)| n == name)
            .count()
    }

    /// How many captured span closes carry exactly this name.
    pub fn span_count(&self, name: &str) -> usize {
        self.spans
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .iter()
            .filter(|(n, _)| n == name)
            .count()
    }
}

impl Subscriber for Collector {
    fn on_event(&self, name: &'static str, fields: &[Field]) {
        self.events
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push((
                name.to_owned(),
                fields
                    .iter()
                    .map(|f| (f.key.to_owned(), f.value.clone()))
                    .collect(),
            ));
    }

    fn on_span_close(&self, name: &'static str, elapsed_ns: u64) {
        self.spans
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push((name.to_owned(), elapsed_ns));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_records_into_histogram_and_subscriber() {
        let collector = Collector::new();
        let id = add_subscriber(collector.clone());
        {
            let _span = span("test.span.basic");
        }
        remove_subscriber(id);
        assert_eq!(collector.span_count("test.span.basic"), 1);
        let snap = crate::metrics::snapshot();
        let h = snap.histogram("test.span.basic").expect("span histogram");
        assert_eq!(h.count, 1);
    }

    #[test]
    fn event_reaches_subscriber_with_fields_and_counter() {
        let collector = Collector::new();
        let id = add_subscriber(collector.clone());
        event(
            "test.span.event",
            &[Field::new("pages", 3), Field::new("path", "/tmp/x")],
        );
        remove_subscriber(id);
        // After removal, further events are not captured.
        event("test.span.event", &[]);
        assert_eq!(collector.event_count("test.span.event"), 1);
        let events = collector.events();
        let (_, fields) = &events[0];
        assert!(fields.contains(&("pages".to_owned(), "3".to_owned())));
        assert!(fields.contains(&("path".to_owned(), "/tmp/x".to_owned())));
        assert!(crate::metrics::snapshot().counter("test.span.event").unwrap_or(0) >= 2);
    }

    #[test]
    fn subscribers_survive_concurrent_emission() {
        let collector = Collector::new();
        let id = add_subscriber(collector.clone());
        let threads = 8;
        let per = 500;
        std::thread::scope(|s| {
            for _ in 0..threads {
                s.spawn(|| {
                    for _ in 0..per {
                        event("test.span.concurrent", &[]);
                        let _span = span("test.span.concurrent.region");
                    }
                });
            }
        });
        remove_subscriber(id);
        assert_eq!(collector.event_count("test.span.concurrent"), threads * per);
        assert_eq!(collector.span_count("test.span.concurrent.region"), threads * per);
    }
}
