//! Structured per-query profiles returned by [`crate::Engine::profile`].
//!
//! A [`QueryProfile`] is what one timed [`crate::Engine::run`] leaves
//! behind: wall time per pipeline phase, the result shape, the per-query
//! [`ExecStats`] counters and the observed plan with inclusive and self time
//! per operator. `profile` is the one entry point that times operators; a
//! plain `run` records the same plan with counters only. A profile
//! serializes to JSON through the workspace serde stand-in
//! ([`xquec_obs::json`]) and renders a human-readable `EXPLAIN ANALYZE`
//! report via [`QueryProfile::render`].

use super::exec::ExecStats;
use super::plan::QueryPlan;
use xquec_obs::json::{Json, ToJson};

/// The query pipeline's phases, in execution order (the last segment of the
/// matching `query.phase.*` span names).
pub const PHASES: [&str; 3] = ["parse", "execute", "serialize"];

/// Wall time of one query phase.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryPhase {
    /// Phase name, one of [`PHASES`].
    pub name: &'static str,
    /// Elapsed wall time in nanoseconds.
    pub nanos: u64,
}

/// Structured account of one profiled query run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryProfile {
    /// The query text as submitted.
    pub query: String,
    /// Per-phase wall times, in execution order.
    pub phases: Vec<QueryPhase>,
    /// Items in the result sequence.
    pub result_items: usize,
    /// Bytes of serialized XML output.
    pub output_bytes: usize,
    /// Per-query execution counters (decompressions, compressed-domain
    /// comparisons, cache traffic, value fetches).
    pub stats: ExecStats,
    /// The observed physical plan: per-operator cardinalities, wall time
    /// and decompression counters (the `EXPLAIN ANALYZE` tree).
    pub plan: QueryPlan,
}

impl QueryProfile {
    /// Total wall time across all phases, in nanoseconds.
    pub fn total_nanos(&self) -> u64 {
        self.phases.iter().map(|p| p.nanos).sum()
    }

    /// Elapsed nanoseconds of the phase named `name`, if present.
    pub fn phase_nanos(&self, name: &str) -> Option<u64> {
        self.phases.iter().find(|p| p.name == name).map(|p| p.nanos)
    }

    /// Human-readable `EXPLAIN ANALYZE` report: phase timings, counters,
    /// then the timed physical plan.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "query: {}", self.query.trim());
        for p in &self.phases {
            let _ = writeln!(out, "  phase {:<10} {:>12.3} ms", p.name, p.nanos as f64 / 1e6);
        }
        let _ = writeln!(
            out,
            "  result: {} items, {} output bytes",
            self.result_items, self.output_bytes
        );
        let _ = writeln!(out, "  counters: {}", self.stats);
        let _ = writeln!(out, "  plan:");
        for line in self.plan.render().lines() {
            let _ = writeln!(out, "    {line}");
        }
        // Ambient per-phase latency percentiles across every query this
        // process has run — context for whether *this* run was typical.
        let snap = xquec_obs::snapshot();
        let mut wrote_header = false;
        for p in &self.phases {
            let name = format!("query.phase.{}", p.name);
            let Some(h) = snap.histogram(&name) else { continue };
            let q = |q: f64| h.quantile(q).map_or("-".to_owned(), |v| v.to_string());
            if !wrote_header {
                let _ = writeln!(out, "  phase latency (all runs, ns):");
                wrote_header = true;
            }
            let _ = writeln!(
                out,
                "    {:<10} n={} p50={} p95={} p99={}",
                p.name,
                h.count,
                q(0.50),
                q(0.95),
                q(0.99)
            );
        }
        out
    }
}

impl ToJson for QueryPhase {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("name", self.name.to_json()),
            ("nanos", Json::Num(self.nanos as f64)),
        ])
    }
}

impl ToJson for QueryProfile {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("query", self.query.to_json()),
            ("phases", self.phases.to_json()),
            ("result_items", self.result_items.to_json()),
            ("output_bytes", self.output_bytes.to_json()),
            ("stats", self.stats.to_json()),
            ("plan", self.plan.to_json()),
        ])
    }
}
