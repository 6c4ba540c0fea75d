//! The physical-plan tree behind `EXPLAIN ANALYZE`.
//!
//! The evaluator in [`super::exec`] is a fused interpreter: planning
//! decisions (summary resolution, pushdown, join decorrelation) happen
//! inline during evaluation. This module extracts an *observed* physical
//! plan from that interpreter: every operator instantiation opens a
//! [`PlanNode`] on a recorder stack, runs, and closes with its measured
//! cardinalities and — when ambient instrumentation is compiled in — wall
//! time and the delta of the engine's [`ExecStats`] counters over the time
//! the operator was open.
//!
//! Two invariants make the tree useful for reports and tests:
//!
//! * **Coalescing.** An operator re-instantiated with the same name and
//!   detail as *any* sibling under the same parent (a navigation step re-run
//!   per FLWOR row, a hash-join probe per outer binding) merges into that
//!   sibling, whose `invocations` counts the repeats and whose stats
//!   accumulate. Each FLWOR `for` clause runs under its own `For[$var]`
//!   operator, so per-row operators nest under their loop and operators of
//!   different loops never merge. No two siblings share `(op, detail)`, and
//!   the tree stays bounded by the *plan shape*, not the data size.
//! * **Reconciliation.** Stats are recorded *inclusively* (a parent's
//!   counters cover its children), and every phase of a query runs under a
//!   root operator (`Execute`, `Serialize`). The sum of the root nodes'
//!   [`OpStats`] counters therefore equals the per-query `ExecStats` —
//!   asserted by `crates/core/tests/explain_golden.rs`.
//!
//! Cardinalities (`rows_in`/`rows_out`) and the tree structure are
//! deterministic and always recorded, so golden tests hold under the
//! `off` feature too; [`OpStats`] is all-zero in that build
//! ([`QueryPlan::render_stable`] prints only the deterministic fields).

use super::exec::ExecStats;
use xquec_obs::json::{Json, ToJson};

/// Measured per-operator cost, inclusive of child operators: wall time plus
/// the growth of every [`ExecStats`] counter while the operator was open.
///
/// All-zero when `xquec-obs` is built with the `off` feature: the counters
/// are never sampled, so operator instrumentation compiles down to the
/// cardinality bookkeeping alone.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct OpStats {
    /// Wall time the operator was open, in nanoseconds.
    pub nanos: u64,
    /// Counter deltas attributed to the operator.
    pub counters: ExecStats,
}

impl OpStats {
    /// Fold `other` into `self` (used when coalescing repeated operators).
    pub fn merge(&mut self, other: &OpStats) {
        self.nanos += other.nanos;
        self.counters.merge(&other.counters);
    }

    fn is_zero(&self) -> bool {
        *self == OpStats::default()
    }
}

impl ToJson for OpStats {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("nanos", Json::Num(self.nanos as f64)),
            ("counters", self.counters.to_json()),
        ])
    }
}

/// One observed physical operator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanNode {
    /// Operator name (`StructureSummaryAccess`, `ContAccess`, `HashJoin`,
    /// `For`, `StructureNav`, `Predicate`, `Sort`, `TextContent`,
    /// `Serialize`, …).
    pub op: &'static str,
    /// Operator-specific detail (path, axis/test, predicate, bound).
    /// Deterministic for a given query and document — golden-testable.
    pub detail: String,
    /// Input cardinality summed across invocations.
    pub rows_in: usize,
    /// Output cardinality summed across invocations.
    pub rows_out: usize,
    /// Times this operator was instantiated at this tree position.
    pub invocations: usize,
    /// Measured cost, inclusive of `children`.
    pub stats: OpStats,
    /// Child operators, in first-open order.
    pub children: Vec<PlanNode>,
}

impl PlanNode {
    /// Merge a repeated instantiation into this node.
    fn absorb(&mut self, other: PlanNode) {
        self.rows_in += other.rows_in;
        self.rows_out += other.rows_out;
        self.invocations += other.invocations;
        self.stats.merge(&other.stats);
        for child in other.children {
            attach(&mut self.children, child);
        }
    }

    /// Number of nodes in this subtree (self included).
    pub fn size(&self) -> usize {
        1 + self.children.iter().map(PlanNode::size).sum::<usize>()
    }

    fn render_into(&self, out: &mut String, depth: usize, stable: bool) {
        use std::fmt::Write as _;
        for _ in 0..depth {
            out.push_str("  ");
        }
        let _ = write!(out, "{}", self.op);
        if !self.detail.is_empty() {
            let _ = write!(out, "[{}]", self.detail);
        }
        let _ = write!(out, " rows={}->{}", self.rows_in, self.rows_out);
        if self.invocations > 1 {
            let _ = write!(out, " loops={}", self.invocations);
        }
        if !stable && !self.stats.is_zero() {
            let s = &self.stats.counters;
            let _ = write!(out, " time={:.3}ms", self.stats.nanos as f64 / 1e6);
            if s.value_fetches > 0 {
                let _ = write!(out, " fetches={}", s.value_fetches);
            }
            if s.cache_hits + s.cache_misses > 0 {
                let _ = write!(out, " cache={}/{}", s.cache_hits, s.cache_hits + s.cache_misses);
            }
            if s.decompressions > 0 {
                let _ = write!(
                    out,
                    " decomp={} ({} bytes)",
                    s.decompressions, s.bytes_decompressed
                );
            }
            if s.compressed_eq > 0 {
                let _ = write!(out, " compressed_eq={}", s.compressed_eq);
            }
            if s.compressed_cmp > 0 {
                let _ = write!(out, " compressed_cmp={}", s.compressed_cmp);
            }
        }
        out.push('\n');
        for c in &self.children {
            c.render_into(out, depth + 1, stable);
        }
    }
}

impl ToJson for PlanNode {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("op", self.op.to_json()),
            ("detail", self.detail.as_str().to_json()),
            ("rows_in", self.rows_in.to_json()),
            ("rows_out", self.rows_out.to_json()),
            ("invocations", self.invocations.to_json()),
            ("stats", self.stats.to_json()),
            ("children", self.children.to_json()),
        ])
    }
}

/// The observed physical plan of one query run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct QueryPlan {
    /// Root operators in phase order (`Execute`, then `Serialize` when the
    /// query was run through [`super::exec::Engine::run`]).
    pub roots: Vec<PlanNode>,
}

impl QueryPlan {
    /// Sum of the root operators' inclusive stats. Because every evaluation
    /// phase runs under a root operator, its counters equal the per-query
    /// [`ExecStats`].
    pub fn totals(&self) -> OpStats {
        let mut total = OpStats::default();
        for r in &self.roots {
            total.merge(&r.stats);
        }
        total
    }

    /// Total nodes in the plan.
    pub fn size(&self) -> usize {
        self.roots.iter().map(PlanNode::size).sum()
    }

    /// Depth-first walk over every node.
    pub fn walk(&self, f: &mut impl FnMut(&PlanNode)) {
        fn rec(n: &PlanNode, f: &mut impl FnMut(&PlanNode)) {
            f(n);
            for c in &n.children {
                rec(c, f);
            }
        }
        for r in &self.roots {
            rec(r, f);
        }
    }

    /// Annotated tree: operators, cardinalities, timings and counters.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for r in &self.roots {
            r.render_into(&mut out, 0, false);
        }
        out
    }

    /// Deterministic subset of [`QueryPlan::render`]: operators, details and
    /// cardinalities only — identical across machines and in `off` builds,
    /// so golden tests can compare it verbatim.
    pub fn render_stable(&self) -> String {
        let mut out = String::new();
        for r in &self.roots {
            r.render_into(&mut out, 0, true);
        }
        out
    }
}

impl ToJson for QueryPlan {
    fn to_json(&self) -> Json {
        Json::obj(vec![("roots", self.roots.to_json())])
    }
}

/// Append `node` under `siblings`, coalescing it into the sibling with the
/// same op and detail when there is one.
fn attach(siblings: &mut Vec<PlanNode>, node: PlanNode) {
    match siblings.iter_mut().find(|s| s.op == node.op && s.detail == node.detail) {
        Some(same) => same.absorb(node),
        None => siblings.push(node),
    }
}

// ---------------------------------------------------------------------------
// Recorder: builds the tree while the interpreter runs.
// ---------------------------------------------------------------------------

/// An operator that has been entered but not yet closed.
#[derive(Debug)]
struct OpenOp {
    op: &'static str,
    detail: String,
    rows_in: usize,
    children: Vec<PlanNode>,
}

/// Builds one [`QueryPlan`] per query. Owned by the engine behind a
/// `RefCell`; reset at every query start, so an unbalanced stack after an
/// evaluation error never leaks into the next query's plan.
#[derive(Debug, Default)]
pub(super) struct PlanRecorder {
    stack: Vec<OpenOp>,
    roots: Vec<PlanNode>,
}

impl PlanRecorder {
    /// Drop any in-flight state and start a fresh plan.
    pub fn reset(&mut self) {
        self.stack.clear();
        self.roots.clear();
    }

    pub fn enter(&mut self, op: &'static str, detail: String, rows_in: usize) {
        self.stack.push(OpenOp { op, detail, rows_in, children: Vec::new() });
    }

    /// Close the innermost open operator with its measured cost and attach
    /// it under the operator below it (or as a root).
    pub fn exit(&mut self, rows_out: usize, stats: OpStats) {
        let Some(open) = self.stack.pop() else { return };
        let node = PlanNode {
            op: open.op,
            detail: open.detail,
            rows_in: open.rows_in,
            rows_out,
            invocations: 1,
            stats,
            children: open.children,
        };
        match self.stack.last_mut() {
            Some(parent) => attach(&mut parent.children, node),
            None => attach(&mut self.roots, node),
        }
    }

    /// Revise the innermost open operator's cardinality/detail once they are
    /// actually known (a probe count computed mid-operator, say).
    pub fn annotate(&mut self, rows_in: Option<usize>, detail: Option<String>) {
        if let Some(open) = self.stack.last_mut() {
            if let Some(r) = rows_in {
                open.rows_in = r;
            }
            if let Some(d) = detail {
                open.detail = d;
            }
        }
    }

    /// The plan recorded so far (closed roots only; an operator left open by
    /// an evaluation error is not reported).
    pub fn snapshot(&self) -> QueryPlan {
        QueryPlan { roots: self.roots.clone() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn leaf(op: &'static str, detail: &str, rows_in: usize, rows_out: usize) -> PlanNode {
        PlanNode {
            op,
            detail: detail.to_owned(),
            rows_in,
            rows_out,
            invocations: 1,
            stats: OpStats::default(),
            children: Vec::new(),
        }
    }

    #[test]
    fn coalesces_repeated_siblings() {
        let mut rec = PlanRecorder::default();
        rec.enter("Execute", String::new(), 0);
        for _ in 0..100 {
            rec.enter("StructureNav", "child::name".into(), 1);
            rec.exit(1, OpStats::default());
        }
        rec.exit(100, OpStats::default());
        let plan = rec.snapshot();
        assert_eq!(plan.size(), 2, "{}", plan.render_stable());
        let nav = &plan.roots[0].children[0];
        assert_eq!(nav.invocations, 100);
        assert_eq!(nav.rows_in, 100);
        assert_eq!(nav.rows_out, 100);
    }

    #[test]
    fn distinct_details_stay_separate() {
        let mut rec = PlanRecorder::default();
        rec.enter("Execute", String::new(), 0);
        rec.enter("StructureNav", "child::a".into(), 1);
        rec.exit(2, OpStats::default());
        rec.enter("StructureNav", "child::b".into(), 2);
        rec.exit(3, OpStats::default());
        rec.exit(3, OpStats::default());
        let plan = rec.snapshot();
        assert_eq!(plan.roots[0].children.len(), 2);
    }

    /// A per-row body with two operators interleaves them; each still merges
    /// into its own first instance, not just into the last sibling.
    #[test]
    fn coalesces_interleaved_siblings() {
        let mut rec = PlanRecorder::default();
        rec.enter("For", "$p".into(), 0);
        for _ in 0..50 {
            for step in ["child::name", "child::age"] {
                rec.enter("StructureNav", step.into(), 1);
                rec.exit(1, OpStats::default());
            }
        }
        rec.exit(50, OpStats::default());
        let plan = rec.snapshot();
        assert_eq!(plan.size(), 3, "{}", plan.render_stable());
        assert!(plan.roots[0].children.iter().all(|c| c.invocations == 50));
    }

    #[test]
    fn reset_discards_unbalanced_stack() {
        let mut rec = PlanRecorder::default();
        rec.enter("Execute", String::new(), 0);
        rec.enter("StructureNav", "child::a".into(), 1);
        rec.reset();
        rec.enter("Execute", String::new(), 0);
        rec.exit(1, OpStats::default());
        let plan = rec.snapshot();
        assert_eq!(plan.roots.len(), 1);
        assert!(plan.roots[0].children.is_empty());
    }

    #[test]
    fn render_and_json_shapes() {
        let mut root = leaf("Execute", "", 0, 3);
        root.children.push(leaf("ContAccess", "//price >= 40", 5, 1));
        let plan = QueryPlan { roots: vec![root] };
        let stable = plan.render_stable();
        assert!(stable.contains("Execute rows=0->3"), "{stable}");
        assert!(stable.contains("  ContAccess[//price >= 40] rows=5->1"), "{stable}");
        // Stats are zero => full render matches stable here.
        assert_eq!(plan.render(), stable);
        let json = plan.to_json().pretty();
        let parsed = xquec_obs::json::Json::parse(&json).expect("plan JSON parses");
        assert!(parsed.get("roots").is_some());
    }

    #[test]
    fn totals_sum_roots() {
        let mut a = leaf("Execute", "", 0, 1);
        a.stats.counters.decompressions = 3;
        a.stats.counters.bytes_decompressed = 120;
        let mut b = leaf("Serialize", "", 1, 1);
        b.stats.counters.decompressions = 2;
        let plan = QueryPlan { roots: vec![a, b] };
        let t = plan.totals();
        assert_eq!(t.counters.decompressions, 5);
        assert_eq!(t.counters.bytes_decompressed, 120);
    }
}
