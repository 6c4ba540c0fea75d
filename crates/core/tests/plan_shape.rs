//! The observed plan is bounded by the plan shape, not the data size: every
//! catalog query records the same number of plan nodes on XMark documents
//! of three sizes, and no operator has two children with the same
//! `(op, detail)` — repeated instantiations always coalesce. Operator stats
//! are inclusive, so no node's children together outweigh the node.

use xquec_core::loader::{load_with, LoaderOptions};
use xquec_core::queries::{xmark_workload, XMARK_QUERIES};
use xquec_core::query::{Engine, OpStats, PlanNode};
use xquec_obs::json::{Json, ToJson};
use xquec_xml::gen::Dataset;

/// `(op, detail)` pairs that occur more than once among some node's children.
fn duplicate_siblings(siblings: &[PlanNode], out: &mut Vec<String>) {
    for (i, a) in siblings.iter().enumerate() {
        if siblings[..i].iter().any(|b| b.op == a.op && b.detail == a.detail) {
            out.push(format!("{}[{}]", a.op, a.detail));
        }
        duplicate_siblings(&a.children, out);
    }
}

/// Nodes whose children, summed, report more of some counter or more wall
/// time than the node itself. A child only runs while its parent is open,
/// so with inclusive stats this never happens.
fn children_outweigh_parent(nodes: &[PlanNode], out: &mut Vec<String>) {
    for n in nodes {
        let mut kids = OpStats::default();
        for c in &n.children {
            kids.merge(&c.stats);
        }
        let (Json::Obj(sum), Json::Obj(own)) =
            (kids.counters.to_json(), n.stats.counters.to_json())
        else {
            unreachable!("counters serialize as an object")
        };
        for ((name, k), (_, o)) in sum.iter().zip(&own) {
            if k.as_num() > o.as_num() {
                out.push(format!("{}[{}] {name}: children {k:?} > own {o:?}", n.op, n.detail));
            }
        }
        if kids.nanos > n.stats.nanos {
            out.push(format!(
                "{}[{}] nanos: children {} > own {}",
                n.op, n.detail, kids.nanos, n.stats.nanos
            ));
        }
        children_outweigh_parent(&n.children, out);
    }
}

#[test]
fn catalog_plan_size_does_not_grow_with_the_document() {
    let opts = LoaderOptions { workload: Some(xmark_workload()), ..Default::default() };
    let mut sizes: Vec<Vec<usize>> = Vec::new();
    for bytes in [200_000, 700_000, 2_000_000] {
        let xml = Dataset::Xmark.generate(bytes);
        let repo = load_with(&xml, &opts).unwrap();
        let engine = Engine::new(&repo);
        let mut row = Vec::new();
        for q in XMARK_QUERIES {
            engine.run(q.text).unwrap_or_else(|e| panic!("{}: {e}", q.id));
            let plan = engine.last_plan();
            let mut dups = Vec::new();
            duplicate_siblings(&plan.roots, &mut dups);
            assert!(
                dups.is_empty(),
                "{} at {bytes} B: siblings share (op, detail) {dups:?}\n{}",
                q.id,
                plan.render_stable()
            );
            row.push(plan.size());

            let profiled = engine.profile(q.text).unwrap_or_else(|e| panic!("{}: {e}", q.id));
            for plan in [&plan, &profiled.plan] {
                let mut heavy = Vec::new();
                children_outweigh_parent(&plan.roots, &mut heavy);
                assert!(
                    heavy.is_empty(),
                    "{} at {bytes} B: children outweigh their parent {heavy:?}\n{}",
                    q.id,
                    plan.render()
                );
            }
        }
        sizes.push(row);
    }
    for (qi, q) in XMARK_QUERIES.iter().enumerate() {
        let per_size: Vec<usize> = sizes.iter().map(|row| row[qi]).collect();
        assert!(
            per_size.iter().all(|&n| n == per_size[0]),
            "{}: plan nodes {per_size:?} across document sizes",
            q.id
        );
    }
}
