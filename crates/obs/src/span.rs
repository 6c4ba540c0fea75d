//! Timed regions: the `tracing`-style half of the layer.
//!
//! [`crate::span!`] starts a timed region; dropping the returned [`Span`]
//! guard (or [`Span::close`], which also returns the time) records the
//! elapsed nanoseconds into the histogram of the span's name. The hot path
//! is one `Instant::now()` per end, and the macro resolves the histogram
//! once per call site.

use crate::metrics::Histogram;

/// Timed-region guard returned by [`crate::span!`]. On drop, or on
/// [`Span::close`], records elapsed nanoseconds into its histogram.
#[must_use = "a span measures until it is dropped; binding to _ ends it immediately"]
pub struct Span {
    histogram: &'static Histogram,
    start: std::time::Instant,
}

impl Span {
    /// Open a span that records into `histogram` ([`crate::span!`] passes
    /// its cached handle).
    pub fn open(histogram: &'static Histogram) -> Span {
        Span { histogram, start: std::time::Instant::now() }
    }

    /// End the span now and return its elapsed nanoseconds: the same
    /// reading the histogram gets, so a caller that needs the time reads
    /// no clock of its own.
    pub fn close(self) -> u64 {
        let elapsed = self.finish();
        std::mem::forget(self);
        elapsed
    }

    fn finish(&self) -> u64 {
        let elapsed = self.start.elapsed().as_nanos().min(u64::MAX as u128) as u64;
        self.histogram.record(elapsed);
        elapsed
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        self.finish();
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn span_records_into_its_histogram() {
        {
            let _span = crate::span!("test.span.dropped");
        }
        let closed = crate::span!("test.span.closed");
        std::thread::sleep(std::time::Duration::from_millis(1));
        let nanos = closed.close();
        assert!(nanos >= 1_000_000, "{nanos}");

        let snap = crate::metrics::snapshot();
        assert_eq!(snap.histogram("test.span.dropped").expect("span histogram").count, 1);
        let h = snap.histogram("test.span.closed").expect("span histogram");
        // `close` records once, not again on drop, and returns the reading
        // the histogram got.
        assert_eq!((h.count, h.sum), (1, nanos));
    }
}
