//! Differential tests for clause-at-a-time FLWOR evaluation.
//!
//! The engine evaluates the row-local paths of a `for` loop (paths rooted
//! at the loop variable with child, descendant or parent element steps,
//! positional predicates and a final `text()` or `@attr`, but no boolean
//! step filter) once per clause over all of the clause's rows. Each case
//! here pairs such a query with a row-at-a-time twin: the same query
//! reading the loop variable through `let $w := $v`, which the engine
//! evaluates per row. Both must give the same answer as the Galax baseline
//! and the same [`ExecStats`], cold and warm: batching moves where the work
//! happens, not how much of it there is.
//!
//! A FLWOR the engine decorrelates into a hash join runs once per clause
//! too, over all of the clause's rows. The join cases check the answer
//! against Galax and that every `HashJoin` of the plan ran exactly once.

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

#[test]
fn step_predicates_apply_in_query_order() {
    let r = repo();
    let galax = GalaxEngine::load(DOC).unwrap();
    let e = Engine::new(&r);
    for (q, expected) in [
        ("/site/people/person[age/text() > 40][1]/name/text()", "Cy"),
        ("/site/people/person[1][age/text() > 40]/name/text()", ""),
        ("//person[age/text() > 28][last()]/name/text()", "Cy"),
        // Positions after a filter count per context node: per bidder.
        ("//bidder/increase[. > 1][1]/text()", "2 3 4"),
        ("//bidder/increase[1][. > 1]/text()", "3 4"),
        ("//open_auction/bidder[increase/text() > 2][last()]/increase[1]/text()", "3 4"),
        (
            "for $a in //open_auction return <a>{ $a/bidder/increase[. > 1][1]/text() }</a>",
            "<a>2 3</a><a/><a>4</a>",
        ),
    ] {
        assert_eq!(galax.run(q).unwrap(), expected, "Galax: {q}");
        assert_eq!(e.run(q).unwrap(), expected, "{q}");
    }
}

const JOIN_DOC: &str = r#"<site>
  <people>
    <person id="p0"><name>Ann</name><age>31</age></person>
    <person id="p1"><name>Bob</name><age>27</age></person>
    <person id="p2"><name>Cy</name><age>45</age></person>
    <person id="p0"><name>Ann2</name><age>52</age></person>
    <person id="p3"><name>Di</name></person>
  </people>
  <pairs><pair><key>p1</key><key>p3</key></pair><pair><key>p9</key></pair></pairs>
  <closed_auctions>
    <closed_auction id="c0"><buyer person="p0"/><seller person="p2"/><price>30</price>
      <itemref item="i1"/></closed_auction>
    <closed_auction id="c1"><buyer person="p2"/><seller person="p0"/><price>20</price>
      <itemref item="i0"/></closed_auction>
    <closed_auction id="c2"><buyer person="p0"/><seller person="p0"/><price>10</price>
      <itemref item="i1"/></closed_auction>
    <closed_auction id="c3"><buyer person="p0"/><seller person="p1"/><price>25</price>
      <itemref item="i9"/></closed_auction>
    <closed_auction id="c4"><buyer person="p1"/><buyer person="p3"/><price>5</price>
      <itemref item="i0"/></closed_auction>
  </closed_auctions>
  <regions><europe><item id="i0"><name>lamp</name></item><item id="i1"><name>ring</name></item>
  </europe></regions>
</site>"#;

/// Buyers and person ids share one source model, so their join is keyed on
/// compressed bytes; sellers are compressed apart.
fn join_repo() -> Repository {
    let spec = WorkloadSpec::new().join("//buyer/@person", "//person/@id", PredOp::Eq);
    let spec = spec.join("//itemref/@item", "//item/@id", PredOp::Eq);
    load_with(JOIN_DOC, &LoaderOptions { workload: Some(spec), ..Default::default() }).unwrap()
}

/// Run `q`, cold and then warm on one engine, against Galax, and check
/// that each of its `HashJoin`s ran once: one probe pass for all the rows
/// of its clause. Returns the answer.
fn check_join(r: &Repository, q: &str) -> String {
    let expected =
        GalaxEngine::load(JOIN_DOC).unwrap().run(q).unwrap_or_else(|e| panic!("{q}: {e}"));
    let e = Engine::new(r);
    for run in ["cold", "warm"] {
        assert_eq!(e.run(q).unwrap_or_else(|e| panic!("{q}: {e}")), expected, "{run}: {q}");
        let plan = e.last_plan();
        let mut joins = Vec::new();
        plan.walk(&mut |n| {
            if n.op == "HashJoin" {
                joins.push(n.invocations);
            }
        });
        assert!(!joins.is_empty(), "{run}: no HashJoin in\n{}", plan.render_stable());
        assert!(joins.iter().all(|&n| n == 1), "{run}: {joins:?} in\n{}", plan.render_stable());
    }
    expected
}

#[test]
fn joins_with_zero_one_or_several_matches_and_duplicate_keys() {
    let r = join_repo();
    let out = check_join(
        &r,
        "for $p in //person
         let $a := for $t in //closed_auction where $t/buyer/@person = $p/@id return $t/price/text()
         return <p n={ count($a) }>{ $a }</p>",
    );
    assert_eq!(
        out,
        r#"<p n="3">30 10 25</p><p n="1">5</p><p n="1">20</p><p n="3">30 10 25</p><p n="1">5</p>"#
    );
    // Two probe keys of one row hit one inner row (c4) once; a key with no
    // match leaves its row empty.
    let out = check_join(
        &r,
        "for $x in //pair
         let $a := for $t in //closed_auction where $t/buyer/@person = $x/key/text() return $t/@id
         return <x>{ $a }</x>",
    );
    assert_eq!(out, "<x>c4</x><x/>");
}

#[test]
fn join_returns_and_conjuncts_read_the_outer_row() {
    let r = join_repo();
    check_join(
        &r,
        "for $p in //person
         let $a := for $t in //closed_auction where $t/buyer/@person = $p/@id
                   return <x a={ $p/name/text() }>{ $t/price/text() }</x>
         return <p>{ $a }</p>",
    );
    // An outer `let`, and a non-join conjunct reading the outer row.
    check_join(
        &r,
        "for $p in //person let $n := $p/name/text()
         let $a := for $t in //closed_auction
                   where $t/buyer/@person = $p/@id and $p/age/text() > 40 and $t/price/text() > 15
                   return <x n={ $n }>{ $t/price/text() }</x>
         return <p>{ $a }</p>",
    );
    // An inner `for` that rebinds the outer variable's name.
    check_join(
        &r,
        "for $p in //person
         let $a := for $t in //closed_auction where $t/buyer/@person = $p/@id
                   return <x n={ $p/name/text() }>{ for $p in $t/price return $p/text() }</x>
         return <p>{ $a }{ $p/name/text() }</p>",
    );
}

#[test]
fn joins_in_a_return_clause_and_nested_two_levels() {
    let r = join_repo();
    check_join(
        &r,
        "for $p in //person
         return <p n={ $p/name/text() }>{
           for $t in //closed_auction where $t/buyer/@person = $p/@id return $t/price/text()
         }</p>",
    );
    // The Q9 shape: the inner join runs once over all the outer matches.
    check_join(
        &r,
        "for $p in //person
         let $a := for $t in //closed_auction
                   let $n := for $t2 in //europe/item where $t/itemref/@item = $t2/@id return $t2
                   where $p/@id = $t/buyer/@person
                   return <item>{ $n/name/text() }</item>
         return <person name={ $p/name/text() }>{ $a }</person>",
    );
}

#[test]
fn joins_on_keys_from_several_source_models() {
    let r = join_repo();
    // Buyers and sellers are compressed apart: the index is keyed on
    // decompressed strings.
    let out = check_join(
        &r,
        "for $p in //person
         let $a := for $t in /site/closed_auctions/closed_auction/* where $t/@person = $p/@id
                   return $t/../@id
         return <p>{ $a }</p>",
    );
    // c2's buyer and seller are both p0: two matches.
    let (ann, bob) = ("<p>c0 c1 c2 c2 c3</p>", "<p>c3 c4</p>");
    assert_eq!(out, format!("{ann}{bob}<p>c0 c1</p>{ann}<p>c4</p>"));
}

#[test]
fn joins_keep_their_order_by() {
    let r = join_repo();
    let q = |dir: &str| {
        format!(
            "for $p in //person
             let $s := for $t in //closed_auction where $t/buyer/@person = $p/@id
                       order by $t/price/text() {dir} return $t/price/text()
             return <p n={{ $p/name/text() }}>{{ $s }}</p>"
        )
    };
    let up = check_join(&r, &q("ascending"));
    assert!(up.starts_with(r#"<p n="Ann">10 25 30</p>"#), "{up}");
    let down = check_join(&r, &q("descending"));
    assert!(down.starts_with(r#"<p n="Ann">30 25 10</p>"#), "{down}");
}
