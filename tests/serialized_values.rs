//! Serialization of container values: the serializer decodes each value
//! straight into the output and escapes it there. Markup characters and
//! multi-byte UTF-8, in text and in attributes, must come out as the
//! uncompressed Galax baseline writes them, whichever codec stored the
//! value (ALM, Huffman or the numeric codec), for stored element nodes,
//! values returned as items, and attributes of constructed elements.

use xquec::baselines::GalaxEngine;
use xquec::core::loader::{load_with, LoaderOptions, WorkloadSpec};
use xquec::core::query::Engine;
use xquec::core::repo::Repository;
use xquec::core::workload::PredOp;
use xquec_compress::CodecKind;

const DOC: &str = r#"<site>
  <people>
    <person id="p&amp;0" note="a &lt; b &gt; c &quot;q&quot; 'é'"><name>Ann &amp; Bob &lt;é&gt;</name>
      <city>日本 "Tōkyō" 'x' &gt; 1</city><age>31</age></person>
    <person id="p&lt;1&gt;" note="日本 &amp; &apos;it&apos;"><name>Cy "日本" 'z'</name>
      <city>Orsay &amp; Paris</city><age>7</age></person>
    <person id="p2" note="plain"><name>Di é &gt; &lt; &amp;</name><city>Lyon</city><age>45</age></person>
  </people>
</site>"#;

/// Names and notes are compared with `<` (ALM), ids and cities by prefix
/// (Huffman); ages are numbers (the numeric codec).
fn repo() -> Repository {
    let spec = WorkloadSpec::new()
        .constant("//person/name/text()", PredOp::Ineq)
        .constant("//person/@note", PredOp::Ineq)
        .constant("//person/@id", PredOp::Wild)
        .constant("//person/city/text()", PredOp::Wild)
        .constant("//person/age/text()", PredOp::Ineq);
    load_with(DOC, &LoaderOptions { workload: Some(spec), ..Default::default() }).unwrap()
}

#[test]
fn escaped_values_match_galax_under_every_codec() {
    let r = repo();
    for (path, kind) in [
        ("//person/name/text()", CodecKind::Alm),
        ("//person/@note", CodecKind::Alm),
        ("//person/@id", CodecKind::Huffman),
        ("//person/city/text()", CodecKind::Huffman),
        ("//person/age/text()", CodecKind::Numeric),
    ] {
        let c = r.container(r.container_by_path(path).unwrap());
        assert!(c.is_individual(), "{path} must be individually compressed");
        assert_eq!(c.codec().kind(), kind, "{path}");
    }
    let galax = GalaxEngine::load(DOC).unwrap();
    let engine = Engine::new(&r);
    for q in [
        // Stored element nodes: attributes and text.
        "//person",
        "//people",
        // Values returned as items.
        "for $p in //person return $p/name/text()",
        "for $p in //person return ($p/city/text(), $p/age/text(), $p/name/text())",
        // Constructed attributes and content.
        "for $p in //person
         return <r n={$p/name/text()} c={$p/city/text()} a={$p/age/text()}>{ $p/city/text() }</r>",
        "for $p in //person return <r n={$p/name/text()}>{ $p/name/text() }</r>",
    ] {
        let expected = galax.run(q).unwrap_or_else(|e| panic!("galax {q}: {e}"));
        for run in ["cold", "warm"] {
            assert_eq!(engine.run(q).unwrap(), expected, "{run}: {q}");
        }
    }
    let people = engine.run("//people").unwrap();
    assert!(people.contains(r#"note="a &lt; b &gt; c &quot;q&quot; &apos;é&apos;""#), "{people}");
    assert!(people.contains("<name>Ann &amp; Bob &lt;é&gt;</name>"), "{people}");
    assert!(people.contains(r#"<city>日本 "Tōkyō" 'x' &gt; 1</city>"#), "{people}");
}
