//! Differential tests for clause-at-a-time FLWOR evaluation.
//!
//! The engine evaluates the row-local paths of a `for` loop (paths rooted
//! at the loop variable with child, descendant or parent element steps,
//! positional predicates and a final `text()` or `@attr`, but no boolean
//! step filter) once per clause over all of the clause's rows. Each case here pairs such a query with a row-at-a-time twin: the
//! same query reading the loop variable through `let $w := $v`, which the
//! engine evaluates per row. Both must give the same answer as the Galax
//! baseline and the same [`ExecStats`], cold and warm: batching moves where
//! the work happens, not how much of it there is.

use xquec::baselines::GalaxEngine;
use xquec::core::loader::{load_with, LoaderOptions, WorkloadSpec};
use xquec::core::query::{Engine, ExecStats};
use xquec::core::repo::Repository;
use xquec::core::workload::PredOp;

const DOC: &str = r#"<site>
  <people>
    <person id="p0"><name>Ann</name><age>31</age><homepage>http://a.example</homepage>
      <address><city>Orsay</city></address><address><city>Paris</city></address>
      <description>gold ring</description></person>
    <person id="p1"><name>Bob</name><age>27</age><description>silver cup</description></person>
    <person id="p2"><name>Cy</name><age>45</age><address><city>Lyon</city></address>
      <description>oak table</description></person>
    <person id="p3"><name>Di</name><homepage>http://d.example</homepage>
      <description>brass lamp</description></person>
  </people>
  <open_auctions>
    <open_auction id="o0"><bidder><increase>1</increase><increase>2</increase></bidder>
      <bidder><increase>3</increase></bidder></open_auction>
    <open_auction id="o1"><initial>9</initial></open_auction>
    <open_auction id="o2"><bidder><increase>4</increase><increase>5</increase>
      <increase>6</increase></bidder></open_auction>
  </open_auctions>
  <closed_auctions>
    <closed_auction><buyer person="p0"/><price>10</price></closed_auction>
    <closed_auction><buyer person="p2"/><price>20</price></closed_auction>
    <closed_auction><buyer person="p0"/><price>30</price></closed_auction>
  </closed_auctions>
</site>"#;

/// Names and the join keys are individually compressed; every path the
/// workload leaves untouched, `description` among them, is a block
/// container, inflated whole on first read.
fn repo() -> Repository {
    let spec = WorkloadSpec::new()
        .join("//buyer/@person", "//person/@id", PredOp::Eq)
        .constant("//name/text()", PredOp::Eq);
    load_with(DOC, &LoaderOptions { workload: Some(spec), ..Default::default() }).unwrap()
}

/// Run `batched` and its row-at-a-time twin on fresh engines, cold and then
/// warm, and check both against each other and against Galax. Returns the
/// cold counters.
fn check(repo: &Repository, batched: &str, row_at_a_time: &str) -> ExecStats {
    let b = Engine::new(repo);
    let r = Engine::new(repo);
    let mut cold = None;
    for run in ["cold", "warm"] {
        let out_b = b.run(batched).unwrap_or_else(|e| panic!("{batched}: {e}"));
        let out_r = r.run(row_at_a_time).unwrap_or_else(|e| panic!("{row_at_a_time}: {e}"));
        assert_eq!(out_b, out_r, "{run} answers differ:\n{batched}\n{row_at_a_time}");
        let (stats_b, stats_r) = (*b.stats.borrow(), *r.stats.borrow());
        assert_eq!(stats_b, stats_r, "{run} counters differ:\n{batched}\n{row_at_a_time}");
        cold.get_or_insert(stats_b);
    }
    let galax = GalaxEngine::load(DOC).unwrap();
    let expected = galax.run(batched).unwrap_or_else(|e| panic!("galax {batched}: {e}"));
    assert_eq!(b.run(batched).unwrap(), expected, "Galax disagrees:\n{batched}");
    cold.expect("ran cold")
}

/// The largest `rows_in` of an operator `op` that ran once (a batch).
fn batched_rows(engine: &Engine, op: &str) -> usize {
    let mut most = 0;
    engine.last_plan().walk(&mut |n| {
        if n.op == op && n.invocations == 1 {
            most = most.max(n.rows_in);
        }
    });
    most
}

#[test]
fn positional_predicates_apply_per_parent_within_each_row() {
    let r = repo();
    check(
        &r,
        "for $a in //open_auction
         return <r><f>{ $a/bidder/increase[1]/text() }</f><l>{ $a/bidder/increase[last()]/text() }</l>
           <b>{ $a/bidder[last()]/increase[1]/text() }</b><s>{ $a/bidder[2]/increase/text() }</s></r>",
        "for $a in //open_auction let $w := $a
         return <r><f>{ $w/bidder/increase[1]/text() }</f><l>{ $w/bidder/increase[last()]/text() }</l>
           <b>{ $w/bidder[last()]/increase[1]/text() }</b><s>{ $w/bidder[2]/increase/text() }</s></r>",
    );
    // The batched form really ran each step once over all three rows.
    let e = Engine::new(&r);
    e.run("for $a in //open_auction return $a/bidder/increase[1]/text()").unwrap();
    assert_eq!(batched_rows(&e, "StructureNav"), 3, "{}", e.last_plan().render_stable());
}

#[test]
fn descendant_steps_run_per_row_as_one_batch() {
    let r = repo();
    check(
        &r,
        "for $a in //open_auction return <n>{ count($a//increase) }</n>",
        "for $a in //open_auction let $w := $a return <n>{ count($w//increase) }</n>",
    );
    // The position is taken among each context node's descendants.
    check(
        &r,
        "for $a in //open_auction
         return <r><f>{ $a//increase[1]/text() }</f><l>{ $a//increase[last()]/text() }</l></r>",
        "for $a in //open_auction let $w := $a
         return <r><f>{ $w//increase[1]/text() }</f><l>{ $w//increase[last()]/text() }</l></r>",
    );
    // Rows sharing a parent each keep all of its descendants.
    check(
        &r,
        "for $b in //bidder return <b>{ $b/..//increase/text() }</b>",
        "for $b in //bidder let $w := $b return <b>{ $w/..//increase/text() }</b>",
    );
    let e = Engine::new(&r);
    e.run("for $a in //open_auction return count($a//increase)").unwrap();
    assert_eq!(batched_rows(&e, "StructureNav"), 3, "{}", e.last_plan().render_stable());
}

#[test]
fn parent_steps_run_per_row_as_one_batch() {
    let r = repo();
    check(
        &r,
        "for $c in //city return $c/../name/text()",
        "for $c in //city let $w := $c return $w/../name/text()",
    );
    check(
        &r,
        "for $c in //city return <c>{ $c/../../name/text() }{ $c/../../@id }</c>",
        "for $c in //city let $w := $c return <c>{ $w/../../name/text() }{ $w/../../@id }</c>",
    );
    let e = Engine::new(&r);
    e.run("for $c in //city return $c/../../name/text()").unwrap();
    assert_eq!(batched_rows(&e, "StructureNav"), 3, "{}", e.last_plan().render_stable());
    assert_eq!(batched_rows(&e, "TextContent"), 3, "{}", e.last_plan().render_stable());
}

#[test]
fn paths_empty_for_some_rows_or_for_all() {
    let r = repo();
    check(
        &r,
        "for $p in //person
         return <p>{ $p/homepage/text() }{ $p/nosuch/text() }{ $p/name/nosuch }{ $p/address/city/text() }</p>",
        "for $p in //person let $w := $p
         return <p>{ $w/homepage/text() }{ $w/nosuch/text() }{ $w/name/nosuch }{ $w/address/city/text() }</p>",
    );
    check(
        &r,
        "for $a in //open_auction
         return <a>{ $a//increase/text() }{ $a//nosuch }{ $a//initial/text() }</a>",
        "for $a in //open_auction let $w := $a
         return <a>{ $w//increase/text() }{ $w//nosuch }{ $w//initial/text() }</a>",
    );
    check(
        &r,
        "for $p in //person return <p>{ $p//city/text() }{ $p//address//increase }</p>",
        "for $p in //person let $w := $p
         return <p>{ $w//city/text() }{ $w//address//increase }</p>",
    );
    // A descendant step empty for some rows still ran as one batch.
    let e = Engine::new(&r);
    e.run("for $p in //person return $p//city/text()").unwrap();
    assert_eq!(batched_rows(&e, "StructureNav"), 4, "{}", e.last_plan().render_stable());
}

#[test]
fn attribute_missing_from_the_dictionary() {
    let r = repo();
    check(
        &r,
        "for $p in //person return <p a={ $p/@nosuchattr } id={ $p/@id }>{ $p/@nosuchattr }</p>",
        "for $p in //person let $w := $p
         return <p a={ $w/@nosuchattr } id={ $w/@id }>{ $w/@nosuchattr }</p>",
    );
}

#[test]
fn for_over_atomic_items() {
    let r = repo();
    check(
        &r,
        "for $x in (3, 1, 2) return $x * 2",
        "for $x in (3, 1, 2) let $w := $x return $w * 2",
    );
    check(
        &r,
        "for $c in distinct-values(//person/@id) return <c>{ $c }</c>",
        "for $c in distinct-values(//person/@id) let $w := $c return <c>{ $w }</c>",
    );
}

#[test]
fn nested_flwor_rebinding_the_loop_variable() {
    let r = repo();
    check(
        &r,
        "for $p in //person
         return <p>{ for $p in $p/address return $p/city/text() }{ $p/name/text() }</p>",
        "for $p in //person let $w := $p
         return <p>{ for $p in $w/address let $v := $p return $v/city/text() }{ $w/name/text() }</p>",
    );
    // A `let` that shadows the loop variable: later paths read the `let`.
    check(
        &r,
        "for $p in //person let $p := $p/address return <a>{ $p/city/text() }</a>",
        "for $p in //person let $w := $p let $p := $w/address return <a>{ $p/city/text() }</a>",
    );
}

#[test]
fn where_after_let_and_order_by_key_paths() {
    let r = repo();
    check(
        &r,
        "for $p in //person let $n := $p/name/text() where not(empty($p/age/text()))
         return <p>{ $n }{ $p/age/text() }</p>",
        "for $p in //person let $w := $p let $n := $w/name/text() where not(empty($w/age/text()))
         return <p>{ $n }{ $w/age/text() }</p>",
    );
    check(
        &r,
        "for $p in //person order by $p/name/text() descending return <p>{ $p/age/text() }</p>",
        "for $p in //person let $w := $p order by $w/name/text() descending
         return <p>{ $w/age/text() }</p>",
    );
}

#[test]
fn hash_join_matches_run_their_return_paths_as_one_batch() {
    let r = repo();
    check(
        &r,
        "for $p in //person
         let $a := for $t in //closed_auction where $t/buyer/@person = $p/@id return $t/price/text()
         return <p n={ count($a) }>{ $a }</p>",
        "for $p in //person
         let $a := for $t in //closed_auction let $w := $t where $t/buyer/@person = $p/@id
                   return $w/price/text()
         return <p n={ count($a) }>{ $a }</p>",
    );
}

#[test]
fn rows_rejected_by_where_never_read_their_return_paths() {
    let r = repo();
    let description = r.container_by_path("//person/description/text()").unwrap();
    assert!(!r.container(description).is_individual(), "description must be block-stored");
    let rejected = check(
        &r,
        r#"for $p in //person where contains($p/name/text(), "zzz") return $p/description/text()"#,
        r#"for $p in //person let $w := $p where contains($w/name/text(), "zzz")
           return $w/description/text()"#,
    );
    // The same filter with a return that reads no container: the rejected
    // rows' description paths inflated no block and hit no cache.
    let e = Engine::new(&r);
    e.run(r#"for $p in //person where contains($p/name/text(), "zzz") return "x""#).unwrap();
    let baseline = *e.stats.borrow();
    assert_eq!(rejected.decompressions, baseline.decompressions, "{rejected:?}");
    assert_eq!(rejected.cache_hits, baseline.cache_hits, "{rejected:?}");
    assert_eq!(rejected.cache_misses, baseline.cache_misses, "{rejected:?}");
    // Rows that pass do read it, and still as the row-at-a-time twin does.
    let passed = check(
        &r,
        r#"for $p in //person where contains($p/name/text(), "n") return $p/description/text()"#,
        r#"for $p in //person let $w := $p where contains($w/name/text(), "n")
           return $w/description/text()"#,
    );
    assert!(passed.decompressions > baseline.decompressions, "{passed:?}");
}

/// An inner `for` whose `where` conjunct it pushes down to the index does
/// so again for every row of the outer `for`: the conjunct is skipped only
/// for the rows that one pushdown filtered.
#[test]
fn an_inner_pushdown_filters_every_outer_row() {
    let r = repo();
    let names = r.container_by_path("//person/name/text()").unwrap();
    assert!(r.container(names).is_individual(), "names must be individually compressed");
    let q = r#"for $a in //closed_auction for $p in //person where $p/name/text() = "Ann"
               return $p/name/text()"#;
    let expected = GalaxEngine::load(DOC).unwrap().run(q).unwrap();
    assert_eq!(expected, "Ann Ann Ann");
    let e = Engine::new(&r);
    for run in ["cold", "warm"] {
        assert_eq!(e.run(q).unwrap(), expected, "{run}");
        let mut pushdowns = 0;
        e.last_plan().walk(&mut |n| {
            if n.op == "ContAccess" {
                pushdowns += n.invocations;
            }
        });
        assert_eq!(pushdowns, 3, "{run}: one pushdown per closed auction");
    }
}
