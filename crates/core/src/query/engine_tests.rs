//! End-to-end tests of the query engine over a small compressed repository.

use super::exec::{Engine, ExecStats};
use super::plan::QueryPlan;
use crate::loader::{load, load_with, LoaderOptions, WorkloadSpec};
use crate::repo::Repository;
use crate::workload::PredOp;

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
    load(DOC).unwrap()
}

fn repo_with_workload() -> Repository {
    let spec = WorkloadSpec::new()
        .join("//buyer/@person", "//person/@id", PredOp::Eq)
        .join("//itemref/@item", "//item/@id", PredOp::Eq)
        .constant("//name/text()", PredOp::Ineq)
        .constant("//price/text()", PredOp::Ineq);
    load_with(DOC, &LoaderOptions { workload: Some(spec), ..Default::default() }).unwrap()
}

#[test]
fn simple_absolute_path() {
    let r = repo();
    let e = Engine::new(&r);
    let out = e.run("/site/people/person/name/text()").unwrap();
    assert_eq!(out, "Alice Smith Bob Jones Carol King");
}

#[test]
fn q1_style_equality_where() {
    let r = repo();
    let e = Engine::new(&r);
    let out = e
        .run(
            r#"FOR $b IN document("auction.xml")/site/people/person
               WHERE $b/@id = "person0"
               RETURN $b/name/text()"#,
        )
        .unwrap();
    assert_eq!(out, "Alice Smith");
    // The predicate must have been answered by a container range.
    let plan = e.last_plan().render_stable();
    assert!(plan.contains("ContAccess"), "{plan}");
}

#[test]
fn step_predicate_filter() {
    let r = repo();
    let e = Engine::new(&r);
    let out = e.run(r#"/site/people/person[@id = "person1"]/name/text()"#).unwrap();
    assert_eq!(out, "Bob Jones");
}

#[test]
fn descendant_axis_via_summary() {
    let r = repo();
    let e = Engine::new(&r);
    let out = e.run("count(/site//item)").unwrap();
    assert_eq!(out, "3");
    let out = e.run("count(//item)").unwrap();
    assert_eq!(out, "3");
    // Relative descendant from a bound variable.
    let out = e
        .run("for $r in /site/regions/europe return count($r//item)")
        .unwrap();
    assert_eq!(out, "2");
}

#[test]
fn numeric_range_predicate() {
    let r = repo();
    let e = Engine::new(&r);
    // Q5 shape: how many sold items cost >= 40.
    let out = e
        .run(
            r#"count(for $i in /site/closed_auctions/closed_auction
                     where $i/price/text() >= 40
                     return $i/price)"#,
        )
        .unwrap();
    assert_eq!(out, "1");
    let plan = e.last_plan().render_stable();
    assert!(plan.contains("ContAccess"), "index expected: {plan}");
}

#[test]
fn numeric_compare_in_compressed_domain() {
    let r = repo();
    let e = Engine::new(&r);
    let out = e
        .run("for $p in //person where $p/age/text() > 30 return $p/name/text()")
        .unwrap();
    assert_eq!(out, "Alice Smith Carol King");
}

#[test]
fn positional_predicates() {
    let r = repo();
    let e = Engine::new(&r);
    let out = e.run("/site/open_auctions/open_auction[1]/bidder[1]/increase/text()").unwrap();
    assert_eq!(out, "3.00");
    let out = e.run("/site/open_auctions/open_auction[1]/bidder[last()]/increase/text()").unwrap();
    assert_eq!(out, "7.50");
    // Per-context grouping: first bidder of *each* auction.
    let out = e.run("for $a in //open_auction return count($a/bidder[1])").unwrap();
    assert_eq!(out, "1 0");
}

#[test]
fn q8_style_join_uses_hash_join() {
    let r = repo_with_workload();
    let e = Engine::new(&r);
    let out = e
        .run(
            r#"for $p in /site/people/person
               let $a := for $t in /site/closed_auctions/closed_auction
                         where $t/buyer/@person = $p/@id
                         return $t
               return <item person=$p/name/text()>{ count($a) }</item>"#,
        )
        .unwrap();
    assert_eq!(
        out,
        "<item person=\"Alice Smith\">2</item>\
         <item person=\"Bob Jones\">1</item>\
         <item person=\"Carol King\">0</item>"
    );
    let plan = e.last_plan().render_stable();
    assert!(plan.contains("HashJoin"), "{plan}");
    let stats = e.stats.borrow();
    // Join keys shared one source model => probes on compressed bytes.
    assert!(stats.compressed_eq > 0, "{stats:?}");
}

#[test]
fn q9_style_three_way_join() {
    let r = repo_with_workload();
    let e = Engine::new(&r);
    let out = e
        .run(
            r#"for $p in /site/people/person
               let $a := for $t in /site/closed_auctions/closed_auction
                         let $n := for $t2 in /site/regions/europe/item
                                   where $t/itemref/@item = $t2/@id
                                   return $t2
                         where $p/@id = $t/buyer/@person
                         return <item>{ $n/name/text() }</item>
               return <person name=$p/name/text()>{ $a }</person>"#,
        )
        .unwrap();
    assert!(out.contains("<person name=\"Alice Smith\">"), "{out}");
    assert!(out.contains("old brass lamp"), "{out}");
    // Bob bought item1 (wooden chair, Europe).
    assert!(out.contains("<person name=\"Bob Jones\"><item>wooden chair</item></person>"), "{out}");
    // Carol bought nothing.
    assert!(out.contains("<person name=\"Carol King\"/>"), "{out}");
}

#[test]
fn contains_decompresses() {
    let r = repo();
    let e = Engine::new(&r);
    // Q14 shape.
    let out = e
        .run(
            r#"FOR $i IN /site//item
               WHERE contains($i/description, "gold")
               RETURN $i/name/text()"#,
        )
        .unwrap();
    assert_eq!(out, "old brass lamp silk scarf");
    assert!(e.stats.borrow().decompressions > 0);
}

#[test]
fn empty_function_q17_shape() {
    let r = repo();
    let e = Engine::new(&r);
    let out = e
        .run(
            r#"for $p in /site/people/person
               where empty($p/homepage/text())
               return <person name=$p/name/text()/>"#,
        )
        .unwrap();
    assert_eq!(out, "<person name=\"Alice Smith\"/><person name=\"Carol King\"/>");
}

#[test]
fn aggregates() {
    let r = repo();
    let e = Engine::new(&r);
    assert_eq!(e.run("count(//person)").unwrap(), "3");
    assert_eq!(e.run("sum(//closed_auction/price/text())").unwrap(), "72.99");
    assert_eq!(e.run("min(//person/age/text())").unwrap(), "27");
    assert_eq!(e.run("max(//person/age/text())").unwrap(), "45");
    assert_eq!(e.run("avg(//person/age/text()) > 34").unwrap(), "true");
}

#[test]
fn arithmetic_and_if() {
    let r = repo();
    let e = Engine::new(&r);
    assert_eq!(e.run("1 + 2 * 3").unwrap(), "7");
    assert_eq!(e.run("10 div 4").unwrap(), "2.5");
    assert_eq!(e.run("7 mod 3").unwrap(), "1");
    assert_eq!(e.run("if (count(//person) = 3) then \"yes\" else \"no\"").unwrap(), "yes");
}

#[test]
fn quantifier() {
    let r = repo();
    let e = Engine::new(&r);
    assert_eq!(
        e.run("some $p in //person satisfies $p/age/text() > 40").unwrap(),
        "true"
    );
    assert_eq!(
        e.run("some $p in //person satisfies $p/age/text() > 99").unwrap(),
        "false"
    );
}

#[test]
fn order_by() {
    let r = repo();
    let e = Engine::new(&r);
    let out = e
        .run("for $p in //person order by $p/age/text() return $p/age/text()")
        .unwrap();
    assert_eq!(out, "27 31 45");
    let out = e
        .run("for $p in //person order by $p/age/text() descending return $p/age/text()")
        .unwrap();
    assert_eq!(out, "45 31 27");
}

#[test]
fn distinct_values_stays_compressed() {
    let r = repo();
    let e = Engine::new(&r);
    let out = e.run("count(distinct-values(//itemref/@item))").unwrap();
    assert_eq!(out, "3");
}

#[test]
fn string_functions() {
    let r = repo();
    let e = Engine::new(&r);
    assert_eq!(e.run(r#"starts-with(//person[1]/name/text(), "Alice")"#).unwrap(), "true");
    assert_eq!(e.run(r#"concat("a", "-", "b")"#).unwrap(), "a-b");
    assert_eq!(e.run(r#"string-length("hello")"#).unwrap(), "5");
    assert_eq!(e.run("string(//person[1]/age/text())").unwrap(), "31");
    assert_eq!(e.run("number(//person[1]/age/text()) + 1").unwrap(), "32");
}

#[test]
fn element_construction_nested() {
    let r = repo();
    let e = Engine::new(&r);
    let out = e
        .run(r#"<summary count={count(//item)}><first>{ //item[1]/name/text() }</first></summary>"#)
        .unwrap();
    assert_eq!(out, "<summary count=\"3\"><first>old brass lamp</first></summary>");
}

#[test]
fn node_serialization_reconstructs_subtree() {
    let r = repo();
    let e = Engine::new(&r);
    let out = e.run(r#"//person[@id = "person1"]/homepage"#).unwrap();
    assert_eq!(out, "<homepage>http://b.example.com</homepage>");
    let out = e.run(r#"//europe/item[1]"#).unwrap();
    assert!(out.starts_with("<item id=\"item0\">"), "{out}");
    assert!(out.contains("<name>old brass lamp</name>"), "{out}");
}

#[test]
fn lazy_decompression_for_counts() {
    let r = repo();
    let e = Engine::new(&r);
    // A pure count touches no values at all.
    e.run("count(//person)").unwrap();
    assert_eq!(e.stats.borrow().decompressions, 0);
}

#[test]
fn equality_join_stays_compressed_with_shared_model() {
    let r = repo_with_workload();
    let e = Engine::new(&r);
    e.run(
        r#"for $t in /site/closed_auctions/closed_auction
           where $t/buyer/@person = "person0"
           return $t/price/text()"#,
    )
    .unwrap();
    let stats = e.stats.borrow();
    // Result serialization decompresses the two prices; the predicate itself
    // ran as a ContAccess range or compressed equality.
    assert!(stats.decompressions <= 4, "{stats:?}");
}

#[test]
fn wildcard_star_step() {
    let r = repo();
    let e = Engine::new(&r);
    assert_eq!(e.run("count(/site/regions/*)").unwrap(), "2");
    assert_eq!(e.run("count(/site/regions/*/item)").unwrap(), "3");
}

#[test]
fn errors_are_reported() {
    let r = repo();
    let e = Engine::new(&r);
    assert!(e.run("$nope").is_err());
    assert!(e.run("unknown-fn(1)").is_err());
    assert!(e.run("for $x in").is_err());
    // Unknown tags yield empty results, not errors.
    assert_eq!(e.run("count(//nonexistent)").unwrap(), "0");
}

#[test]
fn sequences_and_parens() {
    let r = repo();
    let e = Engine::new(&r);
    assert_eq!(e.run("(1, 2, 3)").unwrap(), "1 2 3");
    assert_eq!(e.run("count((//person, //item))").unwrap(), "6");
    assert_eq!(e.run("count(())").unwrap(), "0");
}

#[test]
fn comparison_between_two_containers() {
    let r = repo();
    let e = Engine::new(&r);
    // Existential semantics across two node sets.
    assert_eq!(
        e.run("//closed_auction/itemref/@item = //open_auction/itemref/@item").unwrap(),
        "true"
    );
}

#[test]
fn explain_shows_summary_access() {
    let r = repo();
    let e = Engine::new(&r);
    let plan = e.profile("/site/people/person/name/text()").unwrap().plan.render();
    assert!(plan.contains("StructureSummaryAccess"), "{plan}");
}

#[test]
fn union_and_parent_axis() {
    let r = repo();
    let e = Engine::new(&r);
    assert_eq!(e.run("count(//person | //item)").unwrap(), "6");
    assert_eq!(e.run("count(//person | //person)").unwrap(), "3");
    // Parent axis: from names back up to persons.
    assert_eq!(e.run("count(//name/../@id)").unwrap(), "6"); // persons + items
    assert_eq!(e.run("//person/name/../@id").unwrap(), "person0 person1 person2");
}

#[test]
fn every_quantifier() {
    let r = repo();
    let e = Engine::new(&r);
    assert_eq!(e.run("every $p in //person satisfies $p/age/text() > 20").unwrap(), "true");
    assert_eq!(e.run("every $p in //person satisfies $p/age/text() > 30").unwrap(), "false");
    assert_eq!(e.run("every $p in //nonexistent satisfies 1 = 2").unwrap(), "true");
}

#[test]
fn string_function_extensions() {
    let r = repo();
    let e = Engine::new(&r);
    assert_eq!(e.run(r#"substring("hello world", 7)"#).unwrap(), "world");
    assert_eq!(e.run(r#"substring("hello world", 1, 5)"#).unwrap(), "hello");
    assert_eq!(e.run(r#"upper-case("aBc")"#).unwrap(), "ABC");
    assert_eq!(e.run(r#"lower-case("aBc")"#).unwrap(), "abc");
    assert_eq!(e.run(r#"normalize-space("  a   b  ")"#).unwrap(), "a b");
    assert_eq!(e.run(r#"string-join(("a","b","c"), "-")"#).unwrap(), "a-b-c");
    assert_eq!(e.run("floor(2.7)").unwrap(), "2");
    assert_eq!(e.run("ceiling(2.2)").unwrap(), "3");
    assert_eq!(e.run("abs(-5)").unwrap(), "5");
    assert_eq!(e.run("string-join(//person/name/text(), \", \")").unwrap(),
        "Alice Smith, Bob Jones, Carol King");
}

#[test]
fn repeated_value_reads_hit_decompression_cache() {
    let r = repo();
    let e = Engine::new(&r);
    // Every person's name is read once per closed auction (9 reads over 3
    // distinct values): the memo decodes each value at most once.
    e.run(
        r#"for $t in //closed_auction
           for $p in //person
           return $p/name/text()"#,
    )
    .unwrap();
    let stats = e.stats.borrow();
    assert!(stats.cache_hits > 0, "{stats:?}");
    assert!(
        stats.decompressions <= 3,
        "3 distinct names decode at most once each: {stats:?}"
    );
}

#[test]
fn block_container_decompressed_once_across_reads() {
    // Workload touching only names: every other container is block storage.
    let spec = WorkloadSpec::new().constant("//name/text()", PredOp::Eq);
    let r = load_with(DOC, &LoaderOptions { workload: Some(spec), ..Default::default() })
        .unwrap();
    let ids = r.container_by_path("//person/@id").unwrap();
    assert!(!r.container(ids).is_individual(), "untouched => block storage");

    let e = Engine::new(&r);
    e.run("//person/@id").unwrap();
    let first = *e.stats.borrow();
    assert!(first.decompressions > 0, "{first:?}");
    assert_eq!(first.cache_misses, 1, "one wholesale inflation: {first:?}");

    // Second query over the same block container: the LRU survives across
    // queries, so no further decompression happens at all.
    e.run("//person/@id").unwrap();
    let second = *e.stats.borrow();
    assert_eq!(second.decompressions, 0, "{second:?}");
    assert!(second.cache_hits > 0, "{second:?}");
}

#[test]
fn zero_capacity_block_cache_reinflates() {
    let spec = WorkloadSpec::new().constant("//name/text()", PredOp::Eq);
    let r = load_with(DOC, &LoaderOptions { workload: Some(spec), ..Default::default() })
        .unwrap();
    let e = Engine::with_block_cache_capacity(&r, 0);
    e.run("//person/@id").unwrap();
    let first = e.stats.borrow().decompressions;
    assert!(first > 0);
    e.run("//person/@id").unwrap();
    assert_eq!(e.stats.borrow().decompressions, first, "re-inflated: no retention");
}

/// The documented counter semantics, asserted: a cache hit does NOT count
/// as a decompression. Reads that hit the memo/LRU increment `cache_hits`
/// only; `decompressions` counts codec work alone.
#[test]
fn cache_hit_is_not_a_decompression() {
    let r = repo();
    let e = Engine::new(&r);
    // 3 distinct names are read 3 times each (9 fetches): 3 decodes + 6 hits.
    e.run(
        r#"for $t in //closed_auction
           for $p in //person
           return $p/name/text()"#,
    )
    .unwrap();
    let stats = *e.stats.borrow();
    assert!(stats.cache_hits > 0, "{stats:?}");
    assert!(stats.decompressions > 0, "{stats:?}");
    // Every fetch is either codec work or a hit — hits are not double
    // counted into decompressions, so the two sum to the fetch count.
    assert_eq!(
        stats.decompressions + stats.cache_hits,
        stats.value_fetches,
        "a hit must not also count as a decompression: {stats:?}"
    );
    assert_eq!(stats.cache_misses, stats.decompressions, "{stats:?}");
}

#[test]
fn exec_stats_merge_display_json() {
    let r = repo();
    let e = Engine::new(&r);
    e.run("//person/name/text()").unwrap();
    let a = *e.stats.borrow();
    e.run("sum(//closed_auction/price/text())").unwrap();
    let b = *e.stats.borrow();
    let mut merged = a;
    merged.merge(&b);
    assert_eq!(merged.decompressions, a.decompressions + b.decompressions);
    assert_eq!(merged.value_fetches, a.value_fetches + b.value_fetches);
    assert_eq!(merged.since(&b), a);
    // Display is a single line naming every counter.
    let line = merged.to_string();
    for key in ["decompressions=", "cache_hits=", "value_fetches="] {
        assert!(line.contains(key), "{line}");
    }
    // ToJson carries the same numbers.
    use xquec_obs::json::ToJson;
    let json = merged.to_json();
    assert_eq!(
        json.get("decompressions").and_then(|j| j.as_num()),
        Some(merged.decompressions as f64)
    );
}

/// Per-query resets fold into the engine-lifetime accumulator instead of
/// silently dropping cross-query cache statistics.
#[test]
fn lifetime_stats_survive_per_query_resets() {
    let spec = WorkloadSpec::new().constant("//name/text()", PredOp::Eq);
    let r = load_with(DOC, &LoaderOptions { workload: Some(spec), ..Default::default() })
        .unwrap();
    let e = Engine::new(&r);
    e.run("//person/@id").unwrap();
    let first = *e.stats.borrow();
    assert!(first.decompressions > 0);
    e.run("//person/@id").unwrap();
    // The per-query view forgot the first query's work...
    assert_eq!(e.stats.borrow().decompressions, 0);
    // ...but the lifetime view did not.
    let lifetime = e.lifetime_stats();
    assert!(lifetime.decompressions >= first.decompressions, "{lifetime:?}");
    assert!(lifetime.cache_hits > 0, "cross-query LRU hits visible: {lifetime:?}");
    assert!(lifetime.value_fetches >= 2 * first.value_fetches, "{lifetime:?}");
}

#[test]
fn profile_reports_phases_and_counters_for_distinct_queries() {
    let r = repo_with_workload();
    let e = Engine::new(&r);
    let queries = [
        "/site/people/person/name/text()",
        r#"for $c in //closed_auction
           for $p in //person
           where $c/buyer/@person = $p/@id
           return $p/name/text()"#,
        "for $p in //person order by $p/age/text() return $p/age/text()",
    ];
    for q in queries {
        let profile = e.profile(q).unwrap();
        assert_eq!(profile.query, q);
        let names: Vec<&str> = profile.phases.iter().map(|p| p.name).collect();
        assert_eq!(names, ["parse", "execute", "serialize"], "{q}");
        assert!(profile.phase_nanos("execute").unwrap() > 0, "{q}");
        assert!(profile.total_nanos() > 0, "{q}");
        assert!(profile.output_bytes > 0, "{q}");
        assert!(profile.result_items > 0, "{q}");
        assert!(profile.stats.value_fetches > 0, "{q}");
        // The profiled run and a plain run agree on the output.
        assert_eq!(e.run(q).unwrap().len(), profile.output_bytes, "{q}");
        // The text report mentions every phase.
        let report = profile.render();
        for phase in ["parse", "execute", "serialize"] {
            assert!(report.contains(phase), "{report}");
        }
        // The report also carries cross-run phase-latency percentiles from
        // the registry histograms.
        assert!(report.contains("phase latency"), "{report}");
        assert!(report.contains("p95="), "{report}");
    }
}

#[test]
fn query_results_unchanged_by_caching() {
    let r = repo();
    let cached = Engine::new(&r);
    let uncached = Engine::with_block_cache_capacity(&r, 0);
    for q in [
        "/site/people/person/name/text()",
        "for $p in //person order by $p/age/text() return $p/age/text()",
        r#"for $i in //item where contains($i/description, "gold") return $i/name/text()"#,
        "sum(//closed_auction/price/text())",
    ] {
        assert_eq!(cached.run(q).unwrap(), uncached.run(q).unwrap(), "{q}");
        // Run twice: warm-cache results identical too.
        assert_eq!(cached.run(q).unwrap(), uncached.run(q).unwrap(), "{q} (warm)");
    }
}

/// A long-running engine keeps no per-query state beyond fixed-size
/// counters: over 10,000 runs of one query, the lifetime counters are
/// exactly the sum of the per-query counters, and the plan of the last run
/// is the plan of the second (the first warms the block cache). A `run`
/// reads no clock per operator, so the plans compare whole.
#[test]
fn ten_thousand_queries_keep_counters_and_plan_steady() {
    let r = repo_with_workload();
    let e = Engine::new(&r);
    let q = r#"for $p in /site/people/person
               let $a := for $t in /site/closed_auctions/closed_auction
                         where $t/buyer/@person = $p/@id
                         return $t
               where count($a) > 0
               return <buyer name=$p/name/text()>{ $a/price/text() }</buyer>"#;
    let mut summed = ExecStats::default();
    let mut second = QueryPlan::default();
    for run in 1..=10_000 {
        e.run(q).unwrap();
        summed.merge(&e.stats.borrow());
        let plan = e.last_plan();
        if run == 2 {
            second = plan;
        } else if run == 10_000 {
            assert_eq!(plan, second, "plan drifted:\n{}", plan.render_stable());
        }
    }
    assert_eq!(e.lifetime_stats(), summed);
    assert!(summed.compressed_eq > 0 && summed.value_fetches > 0, "{summed:?}");
}

/// Exclusive times telescope: over every node of a real plan, the `self`
/// times sum to the roots' inclusive time (no child is timed outside its
/// parent, so no self time saturates), and `EXPLAIN ANALYZE` prints them.
/// The nested hash join builds its index under `JoinIndexBuild`.
#[test]
fn self_times_sum_to_root_time() {
    let r = repo_with_workload();
    let e = Engine::new(&r);
    for q in [
        "/site/people/person/name/text()",
        "for $p in //person order by $p/age/text() return $p/age/text()",
        r#"for $c in //closed_auction for $p in //person
           where $c/buyer/@person = $p/@id return <b>{ $p/name/text() }</b>"#,
        r#"for $p in /site/people/person
           let $a := for $t in /site/closed_auctions/closed_auction
                     where $t/buyer/@person = $p/@id
                     return $t
           where count($a) > 0
           return <buyer name=$p/name/text()>{ $a/price/text() }</buyer>"#,
    ] {
        let plan = e.profile(q).unwrap().plan;
        let text = plan.render();
        let mut self_sum = 0;
        plan.walk(&mut |n| self_sum += n.self_nanos());
        assert_eq!(self_sum, plan.totals().nanos, "{q}\n{text}");
        assert!(plan.totals().nanos > 0, "{q}");
        assert!(text.contains(" self="), "{text}");
    }
}

/// Callers hold an `Option<&Engine>` next to a `&Repository` of a shorter
/// borrow, so an engine over a longer-lived repository must stand in for a
/// shorter-lived one: `Engine` stays covariant in its repository's
/// lifetime. This compiles only while that holds.
#[test]
fn engine_is_covariant_in_the_repository_lifetime() {
    fn shorten<'a, 'b: 'a>(e: &'a Engine<'b>) -> &'a Engine<'a> {
        e
    }
    let repo = repo();
    let engine = Engine::new(&repo);
    assert_eq!(shorten(&engine).run("count(//person)").unwrap(), "3");
}

/// Effective boolean values through `not()`: empty, booleans, numbers,
/// strings, nodes, a compressed value and a sequence of several items.
#[test]
fn effective_boolean_rules() {
    let r = repo();
    let e = Engine::new(&r);
    for (expr, ebv) in [
        ("()", false),
        ("1 = 2", false),
        ("1 = 1", true),
        ("0", false),
        ("2", true),
        (r#""""#, false),
        (r#""x""#, true),
        ("/site/people", true),
        (r#"/site/people/person[@id = "person0"]/name/text()"#, true),
        ("/site/people/person/name/text()", true),
    ] {
        assert_eq!(e.run(&format!("not({expr})")).unwrap(), (!ebv).to_string(), "{expr}");
    }
}
