//! In-memory span recorder for the traced run.
//!
//! Spans are opened around each call into a layer of the program, from the
//! benchmark's own code. Every span has a name, a start, an end and the span
//! that was open when it started; spans of one operation share an id. They
//! are kept in memory and written out once, when the run ends. With tracing
//! off (the run that yields the end-to-end metrics) `span` does nothing.

use std::cell::RefCell;
use std::time::Instant;

use xquec_obs::json::Json;

/// One closed span. Times are nanoseconds since the recorder started.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub op: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

struct Recorder {
    on: bool,
    origin: Instant,
    op: u64,
    spans: Vec<Span>,
    open: Vec<usize>,
}

thread_local! {
    static REC: RefCell<Recorder> = RefCell::new(Recorder {
        on: false,
        origin: Instant::now(),
        op: 0,
        spans: Vec::new(),
        open: Vec::new(),
    });
}

/// Start recording spans on this thread.
pub fn enable() {
    REC.with(|r| r.borrow_mut().on = true);
}

/// Whether spans are being recorded.
pub fn enabled() -> bool {
    REC.with(|r| r.borrow().on)
}

/// Stop recording until the returned guard drops: the untraced operations
/// of a traced run.
pub fn pause() -> Paused {
    Paused(REC.with(|r| std::mem::replace(&mut r.borrow_mut().on, false)))
}

/// Restores the recording state when dropped.
pub struct Paused(bool);

impl Drop for Paused {
    fn drop(&mut self) {
        REC.with(|r| r.borrow_mut().on = self.0);
    }
}

/// Start a new operation: spans opened from now on share a fresh id.
pub fn begin_op() {
    REC.with(|r| r.borrow_mut().op += 1);
}

/// Closes its span when dropped.
pub struct Guard(Option<usize>);

/// Open a span named `name`, closed when the returned guard drops.
pub fn span(name: &'static str) -> Guard {
    REC.with(|r| {
        let mut r = r.borrow_mut();
        if !r.on {
            return Guard(None);
        }
        let start_ns = r.origin.elapsed().as_nanos() as u64;
        let (op, parent, idx) = (r.op, r.open.last().copied(), r.spans.len());
        r.spans.push(Span {
            name,
            op,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        r.open.push(idx);
        Guard(Some(idx))
    })
}

impl Drop for Guard {
    fn drop(&mut self) {
        if let Some(idx) = self.0 {
            REC.with(|r| {
                let mut r = r.borrow_mut();
                r.spans[idx].end_ns = r.origin.elapsed().as_nanos() as u64;
                r.open.retain(|&i| i != idx);
            });
        }
    }
}

/// Every span recorded so far.
pub fn spans() -> Vec<Span> {
    REC.with(|r| r.borrow().spans.clone())
}

/// Per span name: `(name, count, total ns, self ns)`, where a span's self
/// time is its duration minus the time its child spans cover. Spans on one
/// thread nest without overlap, so the children's durations simply add.
pub fn self_times(spans: &[Span]) -> Vec<(&'static str, usize, u64, u64)> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.end_ns - s.start_ns;
        }
    }
    let mut by_name: std::collections::BTreeMap<&'static str, (usize, u64, u64)> =
        std::collections::BTreeMap::new();
    for (s, c) in spans.iter().zip(&child_ns) {
        let dur = s.end_ns - s.start_ns;
        let e = by_name.entry(s.name).or_default();
        e.0 += 1;
        e.1 += dur;
        e.2 += dur.saturating_sub(*c);
    }
    by_name
        .into_iter()
        .map(|(n, (c, t, s))| (n, c, t, s))
        .collect()
}

/// The spans as a JSON array, one object per span.
pub fn to_json(spans: &[Span]) -> Json {
    Json::Arr(
        spans
            .iter()
            .enumerate()
            .map(|(i, s)| {
                Json::obj(vec![
                    ("id", Json::Num(i as f64)),
                    ("name", Json::Str(s.name.to_owned())),
                    ("op", Json::Num(s.op as f64)),
                    (
                        "parent",
                        s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                    ),
                    ("start_ns", Json::Num(s.start_ns as f64)),
                    ("end_ns", Json::Num(s.end_ns as f64)),
                ])
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let spans = vec![
            Span {
                name: "op",
                op: 1,
                parent: None,
                start_ns: 0,
                end_ns: 100,
            },
            Span {
                name: "a",
                op: 1,
                parent: Some(0),
                start_ns: 10,
                end_ns: 40,
            },
            Span {
                name: "b",
                op: 1,
                parent: Some(0),
                start_ns: 50,
                end_ns: 70,
            },
            Span {
                name: "c",
                op: 1,
                parent: Some(2),
                start_ns: 55,
                end_ns: 60,
            },
        ];
        let t = self_times(&spans);
        let get = |n: &str| *t.iter().find(|r| r.0 == n).unwrap();
        assert_eq!(get("op"), ("op", 1, 100, 50));
        assert_eq!(get("b"), ("b", 1, 20, 15));
        assert_eq!(get("c"), ("c", 1, 5, 5));
    }

    #[test]
    fn disabled_records_nothing() {
        drop(span("x"));
        assert!(spans().is_empty());
        enable();
        begin_op();
        {
            let _outer = span("outer");
            drop(span("inner"));
        }
        let s = spans();
        assert_eq!(s.len(), 2);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[0].op, s[1].op);
        {
            let _paused = pause();
            assert!(!enabled());
            drop(span("paused"));
        }
        assert!(enabled());
        assert_eq!(spans().len(), 2);
    }
}
