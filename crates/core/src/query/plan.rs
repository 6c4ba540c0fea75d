//! The physical-plan tree behind `EXPLAIN ANALYZE`.
//!
//! The evaluator in [`super::exec`] is a fused interpreter: planning
//! decisions (summary resolution, pushdown, join decorrelation) happen
//! inline during evaluation. This module extracts an *observed* physical
//! plan from that interpreter: every operator instantiation enters its
//! [`PlanNode`] on a recorder stack, runs, and exits with its measured
//! cardinalities and the delta of the engine's [`ExecStats`] counters over
//! the time the operator was open. Wall time is added only under
//! `Engine::profile`; `Engine::run` reads no clock per operator.
//!
//! The recorder builds the tree in place: an instantiation looks up its node
//! among the current parent's children by `(op, detail)` when it enters, and
//! the detail is handed over as borrowed text (`Detail`), so an operator
//! re-run per row costs a sibling scan and a few additions — the detail
//! `String` and the node are allocated only when the node is new.
//!
//! Two invariants make the tree useful for reports and tests:
//!
//! * **Coalescing.** An operator re-instantiated with the same name and
//!   detail as *any* sibling under the same parent (a navigation step re-run
//!   per FLWOR row, a hash-join probe per outer binding) runs as that
//!   sibling, whose `invocations` counts the repeats and whose stats
//!   accumulate. Each FLWOR `for` clause runs under its own `For[$var]`
//!   operator, so per-row operators nest under their loop and operators of
//!   different loops never merge. No two siblings share `(op, detail)`, and
//!   the tree stays bounded by the *plan shape*, not the data size. The
//!   row-local paths of a `for` body run once per binding batch over all
//!   the loop's rows, so on their `StructureNav` and `TextContent`
//!   operators (and on a `where` clause's `Predicate`) `loops=` counts
//!   batches, not rows.
//! * **Reconciliation.** Stats are recorded *inclusively* (a parent's
//!   counters cover its children), and every phase of a query runs under a
//!   root operator (`Execute`, `Serialize`). The sum of the root nodes'
//!   [`OpStats`] counters therefore equals the per-query `ExecStats` —
//!   asserted by `crates/core/tests/explain_golden.rs`.
//!
//! Cardinalities (`rows_in`/`rows_out`) and the tree structure are
//! deterministic; [`QueryPlan::render_stable`] prints the operators, details
//! and cardinalities only, for golden tests.
//!
//! [`QueryPlan::render`] adds the counters and, for timed operators, the
//! inclusive `time=` and the exclusive `self=` time
//! ([`PlanNode::self_nanos`]): the part of its wall time not spent inside a
//! child operator.

use super::exec::ExecStats;
use std::fmt::{self, Write as _};
use xquec_obs::json::{Json, ToJson};

/// Measured per-operator cost, inclusive of child operators: the growth of
/// every [`ExecStats`] counter while the operator was open, plus its wall
/// time when the query ran under `Engine::profile` (zero otherwise).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct OpStats {
    /// Wall time the operator was open, in nanoseconds; zero when untimed.
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
    /// Exclusive wall time: the inclusive `stats.nanos` minus the children's
    /// inclusive time, saturating at zero. Summed over a whole plan it equals
    /// the roots' inclusive time.
    pub fn self_nanos(&self) -> u64 {
        let children: u64 = self.children.iter().map(|c| c.stats.nanos).sum();
        self.stats.nanos.saturating_sub(children)
    }

    /// Number of nodes in this subtree (self included).
    pub fn size(&self) -> usize {
        1 + self.children.iter().map(PlanNode::size).sum::<usize>()
    }

    fn render_into(&self, out: &mut String, depth: usize, stable: bool) {
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
        if !stable {
            let s = &self.stats.counters;
            if self.stats.nanos > 0 {
                let _ = write!(
                    out,
                    " time={:.3}ms self={:.3}ms",
                    self.stats.nanos as f64 / 1e6,
                    self.self_nanos() as f64 / 1e6
                );
            }
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
            ("self_nanos", Json::Num(self.self_nanos() as f64)),
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

    /// Annotated tree: operators, cardinalities and counters, plus
    /// inclusive and self time for the operators that were timed.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for r in &self.roots {
            r.render_into(&mut out, 0, false);
        }
        out
    }

    /// Deterministic subset of [`QueryPlan::render`]: operators, details and
    /// cardinalities only — identical across machines and entry points, so
    /// golden tests can compare it verbatim.
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

// ---------------------------------------------------------------------------
// Recorder: builds the tree while the interpreter runs.
// ---------------------------------------------------------------------------

/// Slot of the virtual node whose children are the plan's roots.
const ROOT: usize = 0;

/// One node of the tree under construction. `node.children` stays empty;
/// the children are the slots listed in `kids`, in creation order.
#[derive(Debug)]
struct Slot {
    node: PlanNode,
    kids: Vec<usize>,
}

/// An operator instantiation that has entered but not yet exited.
#[derive(Debug)]
struct Frame {
    slot: usize,
    rows_in: usize,
    /// The node was created by this instantiation (no earlier invocation).
    fresh: bool,
}

/// An operator's detail as the evaluator hands it to the recorder. Fixed
/// and borrowed text is compared with the siblings' details in place; only
/// a detail computed from runtime values is formatted, into one reused
/// buffer. The detail is copied into a `String` only for a new node.
#[derive(Debug, Clone, Copy)]
pub(super) enum Detail<'a> {
    /// Fixed text (`where`, `text()`, or empty).
    Static(&'static str),
    /// A fixed prefix and text borrowed from the query: `$` and a variable
    /// name, `child::` and a tag.
    Prefixed(&'static str, &'a str),
    /// Text computed from runtime values (path counts, pushed-down bounds,
    /// byte counts).
    Fmt(fmt::Arguments<'a>),
}

impl<'a> Detail<'a> {
    /// The detail as a prefix and a rest, formatting into `buf` if needed.
    fn parts<'s>(self, buf: &'s mut String) -> (&'static str, &'s str)
    where
        'a: 's,
    {
        match self {
            Detail::Static(text) => (text, ""),
            Detail::Prefixed(prefix, text) => (prefix, text),
            Detail::Fmt(args) => {
                buf.clear();
                let _ = buf.write_fmt(args);
                ("", buf.as_str())
            }
        }
    }
}

/// Whether `detail` reads `prefix` followed by `rest`.
fn detail_is(detail: &str, prefix: &str, rest: &str) -> bool {
    detail.len() == prefix.len() + rest.len()
        && detail.starts_with(prefix)
        && detail.ends_with(rest)
}

/// Builds one [`QueryPlan`] per query. Owned by the engine behind a
/// `RefCell`; reset at every query start, so an unbalanced stack after an
/// evaluation error never leaks into the next query's plan.
#[derive(Debug)]
pub(super) struct PlanRecorder {
    slots: Vec<Slot>,
    frames: Vec<Frame>,
    /// Reused buffer computed details are formatted into.
    buf: String,
}

impl Default for PlanRecorder {
    fn default() -> Self {
        let mut rec = PlanRecorder { slots: Vec::new(), frames: Vec::new(), buf: String::new() };
        rec.reset();
        rec
    }
}

impl PlanRecorder {
    /// Drop any in-flight state and start a fresh plan.
    pub fn reset(&mut self) {
        self.frames.clear();
        self.slots.clear();
        self.slots.push(Slot { node: new_node("", String::new()), kids: Vec::new() });
    }

    /// Enter an operator under the innermost open one (or as a root). A node
    /// is created, and the detail copied, only when no sibling has the same
    /// `(op, detail)`.
    pub fn enter(&mut self, op: &'static str, detail: Detail<'_>, rows_in: usize) {
        let parent = self.frames.last().map_or(ROOT, |f| f.slot);
        let mut buf = std::mem::take(&mut self.buf);
        let (prefix, rest) = detail.parts(&mut buf);
        let (slot, fresh) = match self.find(parent, op, prefix, rest) {
            Some(same) => (same, false),
            None => {
                let slot = self.slots.len();
                let node = new_node(op, [prefix, rest].concat());
                self.slots.push(Slot { node, kids: Vec::new() });
                self.slots[parent].kids.push(slot);
                (slot, true)
            }
        };
        self.buf = buf;
        self.frames.push(Frame { slot, rows_in, fresh });
    }

    /// Exit the innermost open operator, adding its cardinalities and
    /// measured cost to its node.
    pub fn exit(&mut self, rows_out: usize, stats: OpStats) {
        let Some(frame) = self.frames.pop() else { return };
        let node = &mut self.slots[frame.slot].node;
        node.rows_in += frame.rows_in;
        node.rows_out += rows_out;
        node.invocations += 1;
        node.stats.merge(&stats);
    }

    /// Revise the innermost open operator's input cardinality once it is
    /// known (after pushdown, say).
    pub fn annotate_rows(&mut self, rows_in: usize) {
        if let Some(frame) = self.frames.last_mut() {
            frame.rows_in = rows_in;
        }
    }

    /// Revise the innermost open operator's detail once it is known (a
    /// serialized size, whether a join index is keyed on compressed bytes).
    /// Only an instantiation that created its node may change the detail;
    /// later instantiations enter with the final detail. When a sibling
    /// already has the new detail, the node merges into it.
    pub fn annotate_detail(&mut self, detail: Detail<'_>) {
        let Some(frame) = self.frames.last() else { return };
        let (slot, fresh) = (frame.slot, frame.fresh);
        let mut buf = std::mem::take(&mut self.buf);
        let (prefix, rest) = detail.parts(&mut buf);
        if !detail_is(&self.slots[slot].node.detail, prefix, rest) {
            debug_assert!(fresh, "detail of a shared plan node changed mid-operator");
            let parent = self.frames.len().checked_sub(2).map_or(ROOT, |i| self.frames[i].slot);
            match self.find(parent, self.slots[slot].node.op, prefix, rest) {
                None => self.slots[slot].node.detail = [prefix, rest].concat(),
                Some(same) => {
                    self.slots[parent].kids.retain(|&k| k != slot);
                    self.merge(slot, same);
                    if let Some(frame) = self.frames.last_mut() {
                        frame.slot = same;
                    }
                }
            }
        }
        self.buf = buf;
    }

    /// The child of `parent` whose op is `op` and whose detail reads
    /// `prefix` followed by `rest`, if any.
    fn find(&self, parent: usize, op: &'static str, prefix: &str, rest: &str) -> Option<usize> {
        self.slots[parent].kids.iter().copied().find(|&k| {
            let node = &self.slots[k].node;
            node.op == op && detail_is(&node.detail, prefix, rest)
        })
    }

    /// Fold node `src` (already unlinked from its parent) into `dst`,
    /// coalescing their children by `(op, detail)`.
    fn merge(&mut self, src: usize, dst: usize) {
        let from = std::mem::replace(&mut self.slots[src].node, new_node("", String::new()));
        let to = &mut self.slots[dst].node;
        to.rows_in += from.rows_in;
        to.rows_out += from.rows_out;
        to.invocations += from.invocations;
        to.stats.merge(&from.stats);
        for kid in std::mem::take(&mut self.slots[src].kids) {
            let kid_node = &self.slots[kid].node;
            match self.find(dst, kid_node.op, "", &kid_node.detail) {
                Some(same) => self.merge(kid, same),
                None => self.slots[dst].kids.push(kid),
            }
        }
    }

    /// The plan recorded so far. Operators that have not exited yet (left
    /// open by an evaluation error) are not reported.
    pub fn snapshot(&self) -> QueryPlan {
        QueryPlan { roots: self.children_of(ROOT) }
    }

    fn children_of(&self, slot: usize) -> Vec<PlanNode> {
        self.slots[slot]
            .kids
            .iter()
            .filter(|&&k| self.slots[k].node.invocations > 0)
            .map(|&k| PlanNode { children: self.children_of(k), ..self.slots[k].node.clone() })
            .collect()
    }
}

fn new_node(op: &'static str, detail: String) -> PlanNode {
    PlanNode {
        op,
        detail,
        rows_in: 0,
        rows_out: 0,
        invocations: 0,
        stats: OpStats::default(),
        children: Vec::new(),
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
        rec.enter("Execute", Detail::Static(""), 0);
        for _ in 0..100 {
            rec.enter("StructureNav", Detail::Prefixed("child::", "name"), 1);
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
        rec.enter("Execute", Detail::Static(""), 0);
        rec.enter("StructureNav", Detail::Static("child::a"), 1);
        rec.exit(2, OpStats::default());
        rec.enter("StructureNav", Detail::Prefixed("child::", "b"), 2);
        rec.exit(3, OpStats::default());
        // The same text handed over in another form is the same detail.
        rec.enter("StructureNav", Detail::Fmt(format_args!("child::{}", "a")), 1);
        rec.exit(2, OpStats::default());
        rec.exit(3, OpStats::default());
        let plan = rec.snapshot();
        let kids = &plan.roots[0].children;
        assert_eq!(kids.len(), 2, "{}", plan.render_stable());
        assert_eq!((kids[0].detail.as_str(), kids[0].invocations), ("child::a", 2));
        assert_eq!(kids[1].detail, "child::b");
    }

    /// A per-row body with two operators interleaves them; each still merges
    /// into its own first instance, not just into the last sibling.
    #[test]
    fn coalesces_interleaved_siblings() {
        let mut rec = PlanRecorder::default();
        rec.enter("For", Detail::Static("$p"), 0);
        for _ in 0..50 {
            for tag in ["name", "age"] {
                rec.enter("StructureNav", Detail::Prefixed("child::", tag), 1);
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
        rec.enter("Execute", Detail::Static(""), 0);
        rec.enter("StructureNav", Detail::Static("child::a"), 1);
        rec.reset();
        rec.enter("Execute", Detail::Static(""), 0);
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
        // Counters print on an untimed plan, time only on a timed node.
        let mut counted = plan.clone();
        counted.roots[0].stats.counters.value_fetches = 5;
        let text = counted.render();
        assert!(text.starts_with("Execute rows=0->3 fetches=5\n"), "{text}");
        counted.roots[0].stats.nanos = 2_000_000;
        let text = counted.render();
        assert!(text.starts_with("Execute rows=0->3 time=2.000ms self=2.000ms fetches=5\n"), "{text}");
        let json = plan.to_json().pretty();
        let parsed = xquec_obs::json::Json::parse(&json).expect("plan JSON parses");
        assert!(parsed.get("roots").is_some());
    }

    /// A node whose detail is only known mid-operator is renamed in place,
    /// or merged into the sibling that already has the final detail.
    #[test]
    fn late_detail_renames_or_merges() {
        let mut rec = PlanRecorder::default();
        rec.enter("For", Detail::Static("$p"), 0);
        for _ in 0..3 {
            rec.enter("HashJoin", Detail::Static(""), 0);
            rec.enter("JoinIndexBuild", Detail::Static("compressed_keys=true"), 0);
            rec.exit(4, OpStats::default());
            rec.annotate_detail(Detail::Fmt(format_args!("compressed_keys={}", true)));
            rec.exit(1, OpStats::default());
        }
        rec.exit(3, OpStats::default());
        let plan = rec.snapshot();
        assert_eq!(
            plan.render_stable(),
            "For[$p] rows=0->3\n  HashJoin[compressed_keys=true] rows=0->3 loops=3\n    \
             JoinIndexBuild[compressed_keys=true] rows=0->12 loops=3\n"
        );
    }

    #[test]
    fn self_time_excludes_children_and_saturates() {
        let timed = |op, detail, nanos| {
            let mut n = leaf(op, detail, 0, 1);
            n.stats.nanos = nanos;
            n
        };
        let mut root = timed("Execute", "", 3_000_000);
        let mut for_op = timed("For", "$x", 2_000_000);
        for_op.children.push(timed("StructureNav", "child::a", 500_000));
        root.children.push(for_op);
        root.children.push(timed("Sort", "ascending", 250_000));
        assert_eq!(root.self_nanos(), 750_000);
        assert_eq!(root.children[0].self_nanos(), 1_500_000);
        assert_eq!(root.children[0].children[0].self_nanos(), 500_000);

        // Children timed longer than their parent (clock skew, say) leave
        // the parent with zero self time, never a wrapped-around one.
        let mut skewed = timed("For", "$y", 100);
        skewed.children.push(timed("StructureNav", "child::b", 400));
        assert_eq!(skewed.self_nanos(), 0);

        let plan = QueryPlan { roots: vec![root] };
        let text = plan.render();
        assert!(text.starts_with("Execute rows=0->1 time=3.000ms self=0.750ms\n"), "{text}");
        assert!(text.contains("For[$x] rows=0->1 time=2.000ms self=1.500ms"), "{text}");
        assert!(!plan.render_stable().contains("self="));
        let json = Json::parse(&plan.to_json().pretty()).expect("plan JSON parses");
        let Some(Json::Arr(roots)) = json.get("roots") else { panic!("no roots array") };
        assert_eq!(roots[0].get("self_nanos").and_then(Json::as_num), Some(750_000.0));
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
