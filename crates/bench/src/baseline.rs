//! The bench regression gate: compare a run's machine-stable numbers
//! against a committed baseline.
//!
//! Experiment JSON mixes two kinds of numbers. *Volatile* fields
//! (wall-clock seconds, nanosecond phase timings, MB/s throughputs) vary
//! with the machine and the scheduler — committing or gating on them
//! produces noise. *Stable* fields (compression ratios, operator
//! cardinalities, cache hit counts, container sizes) are pure functions of
//! the deterministic generators and codecs, so any change is a real
//! behavior change.
//!
//! [`strip_volatile`] removes the volatile fields by key name, recursively.
//! [`flatten`] turns the remaining tree into dotted-path `(key, value)`
//! entries over the numeric leaves (booleans count as 0/1; strings and
//! nulls carry no gateable magnitude and are skipped). [`compare`] then
//! diffs two flattened maps under a relative threshold: a key drifting by
//! more than the threshold, disappearing, or appearing fresh is a failure.
//! `repro --baseline <file>` wires this to CI.

use xquec_obs::json::Json;

/// Field names whose values are wall-clock or throughput measurements:
/// excluded from baselines and comparisons wherever they appear.
pub const VOLATILE_KEYS: &[&str] = &[
    "xquec_s",
    "galax_s",
    "speedup",
    "sequential_s",
    "parallel_s",
    "xquec_load_s",
    "galax_load_s",
    "nanos",
    "self_nanos",
    "decompress_mb_s",
];

/// One gate violation.
#[derive(Debug, Clone, PartialEq)]
pub enum Drift {
    /// A key present on both sides moved by more than the threshold.
    Changed {
        /// Dotted path of the entry.
        key: String,
        /// Baseline value.
        baseline: f64,
        /// Current value.
        current: f64,
        /// `|current - baseline| / |baseline|`.
        rel_change: f64,
    },
    /// A baseline key is absent from the current run.
    Missing {
        /// Dotted path of the entry.
        key: String,
        /// Baseline value.
        baseline: f64,
    },
    /// A current key is absent from the baseline.
    New {
        /// Dotted path of the entry.
        key: String,
        /// Current value.
        current: f64,
    },
}

impl std::fmt::Display for Drift {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Drift::Changed { key, baseline, current, rel_change } => write!(
                f,
                "{key}: {baseline} -> {current} ({:+.1}%)",
                rel_change * 100.0 * (current - baseline).signum()
            ),
            Drift::Missing { key, baseline } => {
                write!(f, "{key}: {baseline} -> (missing from current run)")
            }
            Drift::New { key, current } => write!(f, "{key}: (not in baseline) -> {current}"),
        }
    }
}

/// Outcome of one baseline comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct Comparison {
    /// Entries compared on both sides.
    pub compared: usize,
    /// Every violation, in baseline key order then new-key order.
    pub drifts: Vec<Drift>,
}

impl Comparison {
    /// `true` when the gate passes: something was compared and nothing
    /// drifted.
    pub fn passed(&self) -> bool {
        self.compared > 0 && self.drifts.is_empty()
    }

    /// Multi-line report of every violation (empty string when clean).
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for d in &self.drifts {
            let _ = writeln!(out, "  {d}");
        }
        out
    }
}

/// Recursively remove [`VOLATILE_KEYS`] fields from a JSON tree.
pub fn strip_volatile(json: &Json) -> Json {
    match json {
        Json::Obj(fields) => Json::Obj(
            fields
                .iter()
                .filter(|(k, _)| !VOLATILE_KEYS.contains(&k.as_str()))
                .map(|(k, v)| (k.clone(), strip_volatile(v)))
                .collect(),
        ),
        Json::Arr(items) => Json::Arr(items.iter().map(strip_volatile).collect()),
        other => other.clone(),
    }
}

/// Flatten the numeric leaves of a JSON tree into dotted-path entries.
/// Array elements use their index as the path segment. Volatile fields are
/// stripped first, so callers can pass raw experiment JSON.
pub fn flatten(json: &Json) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    walk(&strip_volatile(json), String::new(), &mut out);
    out
}

fn walk(json: &Json, prefix: String, out: &mut Vec<(String, f64)>) {
    let join = |prefix: &str, seg: &str| {
        if prefix.is_empty() {
            seg.to_owned()
        } else {
            format!("{prefix}.{seg}")
        }
    };
    match json {
        Json::Obj(fields) => {
            for (k, v) in fields {
                walk(v, join(&prefix, k), out);
            }
        }
        Json::Arr(items) => {
            for (i, v) in items.iter().enumerate() {
                walk(v, join(&prefix, &i.to_string()), out);
            }
        }
        Json::Num(n) => out.push((prefix, *n)),
        Json::Bool(b) => out.push((prefix, f64::from(u8::from(*b)))),
        Json::Str(_) | Json::Null => {}
    }
}

/// Compare two flattened stable-entry maps under a relative threshold.
///
/// Baselines near zero are compared absolutely (a relative change against
/// zero is undefined): the entry drifts when `|current - baseline|`
/// exceeds the threshold itself.
pub fn compare(baseline: &[(String, f64)], current: &[(String, f64)], threshold: f64) -> Comparison {
    let cur: std::collections::BTreeMap<&str, f64> =
        current.iter().map(|(k, v)| (k.as_str(), *v)).collect();
    let base: std::collections::BTreeMap<&str, f64> =
        baseline.iter().map(|(k, v)| (k.as_str(), *v)).collect();
    let mut drifts = Vec::new();
    let mut compared = 0usize;
    for (&key, &b) in &base {
        match cur.get(key) {
            None => drifts.push(Drift::Missing { key: key.to_owned(), baseline: b }),
            Some(&c) => {
                compared += 1;
                let drifted = if b.abs() < 1e-9 {
                    (c - b).abs() > threshold
                } else {
                    (c - b).abs() / b.abs() > threshold
                };
                if drifted {
                    drifts.push(Drift::Changed {
                        key: key.to_owned(),
                        baseline: b,
                        current: c,
                        rel_change: if b.abs() < 1e-9 {
                            (c - b).abs()
                        } else {
                            (c - b).abs() / b.abs()
                        },
                    });
                }
            }
        }
    }
    for (&key, &c) in &cur {
        if !base.contains_key(key) {
            drifts.push(Drift::New { key: key.to_owned(), current: c });
        }
    }
    Comparison { compared, drifts }
}

/// Serialize stable entries as a flat JSON object (the baseline file
/// format): `{"path.to.entry": 0.42, ...}` sorted by key.
pub fn entries_to_json(entries: &[(String, f64)]) -> Json {
    let mut sorted: Vec<(String, f64)> = entries.to_vec();
    sorted.sort_by(|a, b| a.0.cmp(&b.0));
    Json::Obj(sorted.into_iter().map(|(k, v)| (k, Json::Num(v))).collect())
}

/// Parse a baseline file produced by [`entries_to_json`].
pub fn entries_from_json(json: &Json) -> Vec<(String, f64)> {
    match json {
        Json::Obj(fields) => fields
            .iter()
            .filter_map(|(k, v)| v.as_num().map(|n| (k.clone(), n)))
            .collect(),
        _ => Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Json {
        Json::obj(vec![
            (
                "fig6",
                Json::Arr(vec![Json::obj(vec![
                    ("dataset", Json::Str("XMark".into())),
                    ("xquec_query", Json::Num(0.55)),
                    ("xquec_s", Json::Num(1.23)), // volatile
                ])]),
            ),
            (
                "calibration",
                Json::obj(vec![
                    ("mean_abs_rel_error", Json::Num(0.08)),
                    ("alg_matched", Json::Num(4.0)),
                    ("ok", Json::Bool(true)),
                ]),
            ),
        ])
    }

    #[test]
    fn volatile_fields_never_reach_the_baseline() {
        let entries = flatten(&sample());
        assert!(entries.iter().all(|(k, _)| !k.contains("xquec_s")), "{entries:?}");
        assert!(entries.iter().any(|(k, _)| k == "fig6.0.xquec_query"));
        // Booleans flatten to 0/1; strings are skipped.
        assert!(entries.iter().any(|(k, v)| k == "calibration.ok" && *v == 1.0));
        assert!(entries.iter().all(|(k, _)| !k.contains("dataset")));
    }

    #[test]
    fn identical_runs_pass_the_gate() {
        let entries = flatten(&sample());
        let cmp = compare(&entries, &entries, 0.20);
        assert!(cmp.passed(), "{}", cmp.render());
        assert_eq!(cmp.compared, entries.len());
    }

    /// The negative test the gate exists for: injected drift must fail.
    #[test]
    fn injected_drift_fails_the_gate() {
        let baseline = flatten(&sample());
        let mut drifted = baseline.clone();
        for (k, v) in &mut drifted {
            if k == "calibration.mean_abs_rel_error" {
                *v *= 1.5; // 50% drift against a 20% threshold
            }
        }
        let cmp = compare(&baseline, &drifted, 0.20);
        assert!(!cmp.passed());
        assert_eq!(cmp.drifts.len(), 1);
        match &cmp.drifts[0] {
            Drift::Changed { key, rel_change, .. } => {
                assert_eq!(key, "calibration.mean_abs_rel_error");
                assert!((rel_change - 0.5).abs() < 1e-9);
            }
            other => panic!("expected Changed, got {other:?}"),
        }
        // Drift below the threshold passes.
        let mut nudged = baseline.clone();
        for (k, v) in &mut nudged {
            if k == "calibration.mean_abs_rel_error" {
                *v *= 1.1;
            }
        }
        assert!(compare(&baseline, &nudged, 0.20).passed());
    }

    #[test]
    fn cardinality_changes_fail_the_gate() {
        let baseline = flatten(&sample());
        let mut shrunk = baseline.clone();
        shrunk.retain(|(k, _)| k != "calibration.alg_matched");
        let cmp = compare(&baseline, &shrunk, 0.20);
        assert!(!cmp.passed());
        assert!(matches!(cmp.drifts[0], Drift::Missing { .. }));
        // And the reverse: a fresh key the baseline never saw.
        let mut grown = baseline.clone();
        grown.push(("calibration.extra".to_owned(), 1.0));
        let cmp = compare(&baseline, &grown, 0.20);
        assert!(!cmp.passed());
        assert!(cmp.drifts.iter().any(|d| matches!(d, Drift::New { .. })));
    }

    #[test]
    fn empty_comparison_is_a_failure() {
        // A gate that compared nothing must not report success (e.g. a
        // baseline for experiments that never ran).
        let cmp = compare(&[], &[], 0.20);
        assert!(!cmp.passed());
    }

    #[test]
    fn baseline_file_round_trips() {
        let entries = flatten(&sample());
        let json = entries_to_json(&entries);
        let reparsed = Json::parse(&json.pretty()).expect("baseline JSON parses");
        let back = entries_from_json(&reparsed);
        let cmp = compare(&entries, &back, 0.0);
        assert!(cmp.passed(), "{}", cmp.render());
    }

    #[test]
    fn near_zero_baselines_compare_absolutely() {
        let baseline = vec![("x".to_owned(), 0.0)];
        let ok = vec![("x".to_owned(), 0.05)];
        let bad = vec![("x".to_owned(), 0.5)];
        assert!(compare(&baseline, &ok, 0.20).passed());
        assert!(!compare(&baseline, &bad, 0.20).passed());
    }
}
