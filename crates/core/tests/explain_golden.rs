//! Golden tests for the observed plan: the *stable* rendering
//! (operators, details, cardinalities) is compared verbatim for three
//! XMark-style queries, so any change to operator naming, tree shape or
//! cardinality accounting shows up as a reviewable diff here — on every
//! machine, because the stable view excludes wall time and counter deltas.
//!
//! Also asserts the reconciliation invariant from `query::plan`: operator
//! stats are inclusive and every phase runs under a root operator, so the
//! counters of the summed root `OpStats` equal the per-query `ExecStats` —
//! after a plain `run`, which times nothing, and after `profile`, which
//! times every operator.

use xquec_core::loader::{load_with, LoaderOptions, WorkloadSpec};
use xquec_core::query::Engine;
use xquec_core::repo::Repository;
use xquec_core::workload::PredOp;

/// Fixed XMark-shaped document: every cardinality in the goldens below is
/// hand-checkable against this text.
const DOC: &str = r#"<site>
  <people>
    <person id="person0"><name>Alice Smith</name><age>31</age>
      <address><city>Orsay</city><country>France</country></address></person>
    <person id="person1"><name>Bob Jones</name><age>27</age>
      <homepage>http://b.example.com</homepage></person>
    <person id="person2"><name>Carol King</name><age>45</age></person>
  </people>
  <regions>
    <europe>
      <item id="item0"><name>old brass lamp</name>
        <description>a fine lamp of solid gold leaf</description></item>
      <item id="item1"><name>wooden chair</name>
        <description>sturdy oak chair</description></item>
    </europe>
    <asia>
      <item id="item2"><name>silk scarf</name>
        <description>golden silk from the east</description></item>
    </asia>
  </regions>
  <open_auctions>
    <open_auction id="open0"><initial>12.50</initial>
      <bidder><increase>3.00</increase></bidder>
      <bidder><increase>7.50</increase></bidder>
      <current>23.00</current><itemref item="item0"/></open_auction>
    <open_auction id="open1"><initial>5.00</initial>
      <current>5.00</current><itemref item="item2"/></open_auction>
  </open_auctions>
  <closed_auctions>
    <closed_auction><seller person="person2"/><buyer person="person0"/>
      <itemref item="item0"/><price>48.00</price></closed_auction>
    <closed_auction><seller person="person0"/><buyer person="person1"/>
      <itemref item="item1"/><price>19.99</price></closed_auction>
    <closed_auction><seller person="person1"/><buyer person="person0"/>
      <itemref item="item2"/><price>5.00</price></closed_auction>
  </closed_auctions>
</site>"#;

fn repo() -> Repository {
    let spec = WorkloadSpec::new()
        .join("//buyer/@person", "//person/@id", PredOp::Eq)
        .constant("//name/text()", PredOp::Ineq)
        .constant("//price/text()", PredOp::Ineq);
    load_with(DOC, &LoaderOptions { workload: Some(spec), ..Default::default() }).unwrap()
}

const Q_PATH: &str = "/site/people/person/name/text()";
const GOLDEN_PATH: &str = "\
Execute rows=0->3
  StructureSummaryAccess[paths=1 steps=4] rows=0->3
  TextContent[text()] rows=3->3
Serialize[32 bytes] rows=3->3
";

const Q_JOIN: &str = r#"for $c in //closed_auction
           for $p in //person
           where $c/buyer/@person = $p/@id
           return $p/name/text()"#;
const GOLDEN_JOIN: &str = "\
Execute rows=0->3
  For[$c] rows=3->3
    StructureSummaryAccess[paths=1 steps=1] rows=0->3
    For[$p] rows=9->3 loops=3
      StructureSummaryAccess[paths=1 steps=1] rows=0->9 loops=3
      Predicate[where] rows=9->3 loops=3
        StructureNav[child::buyer] rows=9->9 loops=9
        TextContent[@person] rows=9->9 loops=9
        TextContent[@id] rows=9->9 loops=3
      StructureNav[child::name] rows=3->3 loops=3
      TextContent[text()] rows=3->3 loops=3
Serialize[33 bytes] rows=3->3
";

const Q_SORT: &str = "for $p in //person order by $p/age/text() return $p/age/text()";
const GOLDEN_SORT: &str = "\
Execute rows=0->3
  For[$p] rows=3->3
    StructureSummaryAccess[paths=1 steps=1] rows=0->3
    StructureNav[child::age] rows=6->6 loops=2
    TextContent[text()] rows=6->6 loops=2
  Sort[ascending] rows=3->3
Serialize[8 bytes] rows=3->3
";

#[test]
fn explain_plans_match_goldens() {
    let r = repo();
    let e = Engine::new(&r);
    for (q, golden) in [(Q_PATH, GOLDEN_PATH), (Q_JOIN, GOLDEN_JOIN), (Q_SORT, GOLDEN_SORT)] {
        e.run(q).unwrap();
        assert_eq!(e.last_plan().render_stable(), golden, "stable plan drifted for: {q}");
    }
}

/// The profiled plan is the annotated (`EXPLAIN ANALYZE`) view of the same
/// tree: every stable line's operator appears, plus measured stats.
#[test]
fn explain_text_covers_stable_operators() {
    let r = repo();
    let e = Engine::new(&r);
    let text = e.profile(Q_JOIN).unwrap().plan.render();
    for op in ["Execute", "StructureSummaryAccess", "Predicate[where]", "StructureNav[child::name]", "Serialize"] {
        assert!(text.contains(op), "missing {op} in:\n{text}");
    }
    assert!(text.contains("fetches="), "no measured stats in:\n{text}");
    assert!(text.contains("time="), "no timings in:\n{text}");
}

/// Reconciliation: root operators cover every phase inclusively, so the
/// counters of the plan's summed `OpStats` equal the engine's per-query
/// `ExecStats` — every counter, compared as one struct. A plain `run`
/// records the counters and no time; `profile` records both.
#[test]
fn plan_totals_reconcile_with_exec_stats() {
    let r = repo();
    let e = Engine::new(&r);
    for q in [Q_PATH, Q_JOIN, Q_SORT] {
        e.run(q).unwrap();
        let plan = e.last_plan();
        let mut timed = Vec::new();
        plan.walk(&mut |n| {
            if n.stats.nanos > 0 {
                timed.push(n.op);
            }
        });
        assert!(timed.is_empty(), "{q}: run timed {timed:?}");
        assert_eq!(plan.totals().counters, *e.stats.borrow(), "{q}");
        assert!(e.stats.borrow().value_fetches > 0, "{q} fetched nothing");

        let profile = e.profile(q).unwrap();
        assert!(profile.plan.roots[0].stats.nanos > 0, "{q}: profile root untimed");
        assert_eq!(profile.plan.totals().counters, profile.stats, "{q}");
        assert!(profile.stats.value_fetches > 0, "{q} fetched nothing");
    }
}
