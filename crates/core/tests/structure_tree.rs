//! The structure tree's pre-order arrays against a reference built apart
//! from them: element order, parents, tags, rooted paths and subtree
//! shape from the DOM of the same document, and each element's value refs
//! from the containers' parent lists (container order, then record order,
//! the order the loader attaches them in).
//!
//! Seeded documents of all four generators: XMark (loaded with the XMark
//! workload, so block containers take part), Shakespeare, Courses and
//! Baseball. The generated documents hold no mixed content and almost no
//! element with two attributes, so a written document adds both: elements
//! whose text values share one container, in an order that sorting the
//! container changes, and elements with several attributes. Every node is
//! checked on the loaded repository and again on the one reopened from its
//! saved image, and the reopened repository must equal the loaded one
//! array for array: the image stores neither paths, extents nor value
//! refs, so open derives them.

use std::collections::HashMap;
use std::sync::Arc;
use xquec_core::ids::{ElemId, TagCode};
use xquec_core::loader::{load_with, LoaderOptions};
use xquec_core::persist::{load_from_pager, save_to_pager};
use xquec_core::queries::xmark_workload;
use xquec_core::structure::ValueRef;
use xquec_core::ContainerLeaf;
use xquec_core::Repository;
use xquec_storage::MemPager;
use xquec_xml::dom::{Document, NodeId, NodeKind};
use xquec_xml::gen::{BaseballGen, CoursesGen, ShakespeareGen, XmarkGen};

/// One element of the reference, in document order.
struct RefNode {
    dom: NodeId,
    parent: Option<u32>,
    tag: String,
    path: String,
    /// Last element id of the subtree.
    end: u32,
    children: Vec<u32>,
}

/// The elements of `doc` in pre-order, numbered as the loader numbers them.
fn reference(doc: &Document) -> Vec<RefNode> {
    let root = doc.root().expect("a root element");
    let order: Vec<NodeId> = doc.descendants(root).filter(|&n| doc.is_element(n)).collect();
    let id_of: HashMap<NodeId, u32> =
        order.iter().enumerate().map(|(i, &n)| (n, i as u32)).collect();
    let mut nodes: Vec<RefNode> = Vec::with_capacity(order.len());
    for (i, &n) in order.iter().enumerate() {
        let tag = doc.tag(n).expect("element").to_owned();
        let parent = doc.parent(n).and_then(|p| id_of.get(&p).copied());
        let path = match parent {
            Some(p) => format!("{}/{tag}", nodes[p as usize].path),
            None => format!("/{tag}"),
        };
        let children: Vec<u32> =
            doc.children(n).iter().filter_map(|c| id_of.get(c).copied()).collect();
        nodes.push(RefNode { dom: n, parent, tag, path, end: i as u32, children });
    }
    // A subtree ends where its last child's subtree ends.
    for i in (0..nodes.len()).rev() {
        if let Some(&last) = nodes[i].children.last() {
            nodes[i].end = nodes[last as usize].end;
        }
    }
    nodes
}

/// Shapes of value lists the documents must contain for the check to
/// cover them.
#[derive(Debug, Default, PartialEq)]
struct Shapes {
    /// Elements holding two or more values of one container.
    repeated_container: usize,
    /// Elements holding two or more attribute values.
    multi_attribute: usize,
    /// Value refs into block containers.
    block_values: usize,
}

/// Check every node of `repo.tree` against the reference of `doc`.
fn check(repo: &Repository, doc: &Document, what: &str) -> Shapes {
    let nodes = reference(doc);
    let tree = &repo.tree;
    assert_eq!(tree.len(), nodes.len(), "{what}: node count");

    // Each element's value refs, inverted from the containers' parent lists.
    let mut want_values: Vec<Vec<ValueRef>> = vec![Vec::new(); nodes.len()];
    for c in &repo.containers {
        for (index, parent) in c.scan() {
            want_values[parent.0 as usize].push(ValueRef { container: c.id, index });
        }
    }
    let plain: Vec<Vec<String>> =
        repo.containers.iter().map(|c| c.decompress_all().expect("decode")).collect();
    let name = |t: TagCode| repo.dict.name(t);
    let mut shapes = Shapes::default();

    for (i, node) in nodes.iter().enumerate() {
        let id = ElemId(i as u32);
        let at = format!("{what}: node {i} ({})", node.path);
        assert_eq!(tree.parent(id).map(|p| p.0), node.parent, "{at}: parent");
        assert_eq!(name(tree.tag(id)), node.tag, "{at}: tag");
        assert_eq!(repo.summary.path(tree.path(id), name).to_string(), node.path, "{at}: path");
        assert_eq!(tree.subtree_end(id).0, node.end, "{at}: subtree end");

        let kids: Vec<u32> = tree.children(id, None).map(|c| c.0).collect();
        assert_eq!(kids, node.children, "{at}: children");
        // Per tag: every child tag, and this node's own tag (often absent).
        let mut tags: Vec<TagCode> = kids.iter().map(|&c| tree.tag(ElemId(c))).collect();
        tags.push(tree.tag(id));
        for t in tags {
            let got: Vec<u32> = tree.children(id, Some(t)).map(|c| c.0).collect();
            let want: Vec<u32> = node
                .children
                .iter()
                .copied()
                .filter(|&c| nodes[c as usize].tag == name(t))
                .collect();
            assert_eq!(got, want, "{at}: children named {}", name(t));
        }

        let desc: Vec<u32> = tree.descendants(id).map(|d| d.0).collect();
        let mut want_desc = Vec::new();
        let mut stack: Vec<u32> = node.children.iter().rev().copied().collect();
        while let Some(d) = stack.pop() {
            want_desc.push(d);
            stack.extend(nodes[d as usize].children.iter().rev());
        }
        assert_eq!(desc, want_desc, "{at}: descendants");

        let values = tree.values(id);
        assert_eq!(values, &want_values[i][..], "{at}: value refs");
        let containers: Vec<u32> = values.iter().map(|v| v.container.0).collect();
        shapes.repeated_container += usize::from(containers.windows(2).any(|w| w[0] == w[1]));
        let attributes = values
            .iter()
            .filter(|v| matches!(repo.container(v.container).leaf, ContainerLeaf::Attribute(_)))
            .count();
        shapes.multi_attribute += usize::from(attributes >= 2);
        shapes.block_values +=
            values.iter().filter(|v| !repo.container(v.container).is_individual()).count();
        // The values are this element's attribute values and text children.
        let mut got: Vec<&str> = tree
            .values(id)
            .iter()
            .map(|v| plain[v.container.0 as usize][v.index as usize].as_str())
            .collect();
        let mut want: Vec<&str> = doc
            .children(node.dom)
            .iter()
            .filter_map(|&c| match doc.kind(c) {
                NodeKind::Attribute(_, v) | NodeKind::Text(v) => Some(v.as_str()),
                _ => None,
            })
            .collect();
        got.sort_unstable();
        want.sort_unstable();
        assert_eq!(got, want, "{at}: values");
    }
    shapes
}

/// The image stores only tags, parent deltas, the summary skeleton and the
/// containers; open derives paths, subtree ends, extents, container
/// pointers and value refs. The reopened repository must equal the loaded
/// one array for array.
fn assert_reopened_equals_loaded(loaded: &Repository, reopened: &Repository, what: &str) {
    let (a, b) = (&loaded.tree, &reopened.tree);
    assert_eq!(a.len(), b.len(), "{what}: node count");
    for i in 0..a.len() as u32 {
        let id = ElemId(i);
        assert_eq!(
            (a.tag(id), a.parent(id), a.path(id), a.subtree_end(id), a.values(id)),
            (b.tag(id), b.parent(id), b.path(id), b.subtree_end(id), b.values(id)),
            "{what}: node {i}"
        );
    }
    let (a, b) = (&loaded.summary, &reopened.summary);
    assert_eq!(a.len(), b.len(), "{what}: summary nodes");
    for p in a.ids() {
        let (x, y) = (a.node(p), b.node(p));
        assert_eq!(
            (x.kind, x.parent, &x.children, x.container, &x.extent),
            (y.kind, y.parent, &y.children, y.container, &y.extent),
            "{what}: summary node {}",
            p.0
        );
    }
    assert_eq!(loaded.containers.len(), reopened.containers.len(), "{what}: containers");
    for (x, y) in loaded.containers.iter().zip(&reopened.containers) {
        assert_eq!(
            (x.id, x.path, x.leaf, x.vtype, x.is_individual()),
            (y.id, y.path, y.leaf, y.vtype, y.is_individual()),
            "{what}: container {}",
            x.id.0
        );
        assert!(x.scan().eq(y.scan()), "{what}: container {} parents", x.id.0);
    }
}

/// Check `xml` loaded with `opts`, then saved and reopened; the shapes of
/// value lists met.
fn check_loaded_and_reopened(xml: &str, opts: &LoaderOptions, what: &str) -> Shapes {
    let doc = Document::parse(xml).expect("parse");
    let repo = load_with(xml, opts).expect("load");
    let shapes = check(&repo, &doc, &format!("{what}, loaded"));
    let pager = Arc::new(MemPager::new());
    save_to_pager(&repo, pager.clone()).expect("save");
    let reopened = load_from_pager(pager).expect("open");
    assert_reopened_equals_loaded(&repo, &reopened, what);
    assert_eq!(check(&reopened, &doc, &format!("{what}, reopened")), shapes, "{what}");
    shapes
}

#[test]
fn xmark_tree_matches_its_dom() {
    let opts = LoaderOptions { workload: Some(xmark_workload()), ..Default::default() };
    for seed in [1, 7] {
        let xml = XmarkGen::with_target_size(60_000).seed(seed).generate();
        let shapes = check_loaded_and_reopened(&xml, &opts, &format!("XMark seed {seed}"));
        assert!(shapes.block_values > 0, "{shapes:?}");
        let what = format!("XMark seed {seed}, no workload");
        check_loaded_and_reopened(&xml, &LoaderOptions::default(), &what);
    }
}

#[test]
fn shakespeare_tree_matches_its_dom() {
    for seed in [1, 7] {
        let xml = ShakespeareGen::with_target_size(40_000).seed(seed).generate();
        check_loaded_and_reopened(
            &xml,
            &LoaderOptions::default(),
            &format!("Shakespeare seed {seed}"),
        );
    }
}

#[test]
fn courses_tree_matches_its_dom() {
    for seed in [1, 7] {
        let xml = CoursesGen::with_target_size(40_000).seed(seed).generate();
        check_loaded_and_reopened(&xml, &LoaderOptions::default(), &format!("Courses seed {seed}"));
    }
}

#[test]
fn baseball_tree_matches_its_dom() {
    for seed in [1, 7] {
        let xml = BaseballGen::with_target_size(40_000).seed(seed).generate();
        check_loaded_and_reopened(
            &xml,
            &LoaderOptions::default(),
            &format!("Baseball seed {seed}"),
        );
    }
}

/// Elements with mixed content (several text values in one container,
/// stored in value order, not document order) and with several
/// attributes.
fn mixed_document() -> String {
    let words = ["pear", "apple", "fig", "kiwi", "date", "lime"];
    let w = |i: usize| words[i % words.len()];
    let mut xml = String::from("<doc>");
    for i in 0..60 {
        xml += &format!(
            r#"<p z="{}" a="{}" m="{i}">{} <b>{}</b> {} <i c="{}" b="{}"/>{}</p>"#,
            w(i),
            w(i * 5 + 1),
            w(i * 7 + 2),
            w(i + 3),
            w(i * 11 + 4),
            w(i + 5),
            w(i * 3),
            w(i * 13 + 1),
        );
    }
    xml + "</doc>"
}

#[test]
fn mixed_content_and_multi_attribute_elements_match_their_dom() {
    let shapes = check_loaded_and_reopened(&mixed_document(), &LoaderOptions::default(), "mixed");
    assert!(shapes.repeated_container > 0 && shapes.multi_attribute > 0, "{shapes:?}");
}
