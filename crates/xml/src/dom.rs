//! An arena-based DOM for XML documents.
//!
//! The tree is held in a flat `Vec` of nodes addressed by [`NodeId`], with
//! element/attribute names interned in a per-document name table. This is the
//! representation used by the Galax-like baseline engine (which loads whole
//! documents uncompressed) and by round-trip tests.

use crate::error::Result;
use crate::escape::{escape_attr, escape_text};
use crate::reader::{Event, Reader};
use std::collections::HashMap;
use std::fmt::Write as _;

/// Index of a node inside a [`Document`] arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

/// Index of an interned element/attribute name inside a [`Document`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct NameId(pub u32);

/// The kind and payload of a DOM node.
#[derive(Debug, Clone, PartialEq)]
pub enum NodeKind {
    /// The document node; parent of the root element.
    Document,
    /// An element with an interned tag name.
    Element(NameId),
    /// An attribute (interned name, value). Attributes are children of their
    /// element, ordered before any element/text children.
    Attribute(NameId, String),
    /// A text node.
    Text(String),
}

/// One node in the arena.
#[derive(Debug, Clone)]
pub struct Node {
    pub kind: NodeKind,
    pub parent: Option<NodeId>,
    pub children: Vec<NodeId>,
}

/// An XML document held as an arena of nodes plus an interned name table.
#[derive(Debug, Clone)]
pub struct Document {
    nodes: Vec<Node>,
    names: Vec<String>,
    name_ids: HashMap<String, NameId>,
}

impl Default for Document {
    fn default() -> Self {
        Self::new()
    }
}

impl Document {
    /// Create an empty document containing only the document node.
    pub fn new() -> Self {
        Document {
            nodes: vec![Node { kind: NodeKind::Document, parent: None, children: Vec::new() }],
            names: Vec::new(),
            name_ids: HashMap::new(),
        }
    }

    /// Parse a document from its textual form.
    pub fn parse(src: &str) -> Result<Self> {
        let mut doc = Document::new();
        let mut stack = vec![doc.document_node()];
        let mut reader = Reader::new(src);
        while let Some(ev) = reader.next_event()? {
            match ev {
                Event::StartElement { name, attributes } => {
                    let parent = *stack.last().expect("stack never empty");
                    let el = doc.add_element(parent, &name);
                    for (an, av) in attributes {
                        doc.add_attribute(el, &an, av);
                    }
                    stack.push(el);
                }
                Event::EndElement { .. } => {
                    stack.pop();
                }
                Event::Text(t) => {
                    let parent = *stack.last().expect("stack never empty");
                    doc.add_text(parent, t);
                }
            }
        }
        Ok(doc)
    }

    /// The id of the document node (always `NodeId(0)`).
    pub fn document_node(&self) -> NodeId {
        NodeId(0)
    }

    /// The root element, if the document has one.
    pub fn root(&self) -> Option<NodeId> {
        self.nodes[0].children.iter().copied().find(|&c| self.is_element(c))
    }

    /// Number of nodes in the arena (including the document node).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True if the document contains no nodes besides the document node.
    pub fn is_empty(&self) -> bool {
        self.nodes.len() <= 1
    }

    /// Intern a name, returning its id.
    pub fn intern(&mut self, name: &str) -> NameId {
        if let Some(&id) = self.name_ids.get(name) {
            return id;
        }
        let id = NameId(self.names.len() as u32);
        self.names.push(name.to_owned());
        self.name_ids.insert(name.to_owned(), id);
        id
    }

    /// Look up an already-interned name.
    pub fn name_id(&self, name: &str) -> Option<NameId> {
        self.name_ids.get(name).copied()
    }

    /// The string for an interned name id.
    pub fn name(&self, id: NameId) -> &str {
        &self.names[id.0 as usize]
    }

    fn push_node(&mut self, parent: NodeId, kind: NodeKind) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(Node { kind, parent: Some(parent), children: Vec::new() });
        self.nodes[parent.0 as usize].children.push(id);
        id
    }

    /// Append a new element under `parent`.
    pub fn add_element(&mut self, parent: NodeId, tag: &str) -> NodeId {
        let name = self.intern(tag);
        self.push_node(parent, NodeKind::Element(name))
    }

    /// Append an attribute to an element.
    pub fn add_attribute(&mut self, element: NodeId, name: &str, value: String) -> NodeId {
        debug_assert!(self.is_element(element));
        let name = self.intern(name);
        self.push_node(element, NodeKind::Attribute(name, value))
    }

    /// Append a text node under `parent`.
    pub fn add_text(&mut self, parent: NodeId, text: String) -> NodeId {
        self.push_node(parent, NodeKind::Text(text))
    }

    /// Borrow a node.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.0 as usize]
    }

    /// The node's kind.
    pub fn kind(&self, id: NodeId) -> &NodeKind {
        &self.nodes[id.0 as usize].kind
    }

    /// Parent of a node (None for the document node).
    pub fn parent(&self, id: NodeId) -> Option<NodeId> {
        self.nodes[id.0 as usize].parent
    }

    /// All children (attributes, elements, text) in insertion order.
    pub fn children(&self, id: NodeId) -> &[NodeId] {
        &self.nodes[id.0 as usize].children
    }

    /// True if `id` is an element node.
    pub fn is_element(&self, id: NodeId) -> bool {
        matches!(self.nodes[id.0 as usize].kind, NodeKind::Element(_))
    }

    /// The tag name of an element node.
    pub fn tag(&self, id: NodeId) -> Option<&str> {
        match self.nodes[id.0 as usize].kind {
            NodeKind::Element(n) => Some(self.name(n)),
            _ => None,
        }
    }

    /// Child *elements* of a node, optionally filtered by tag.
    pub fn child_elements<'a>(
        &'a self,
        id: NodeId,
        tag: Option<&'a str>,
    ) -> impl Iterator<Item = NodeId> + 'a {
        let want = tag.and_then(|t| self.name_id(t));
        let filter_on = tag.is_some();
        self.children(id).iter().copied().filter(move |&c| match self.nodes[c.0 as usize].kind {
            NodeKind::Element(n) => !filter_on || Some(n) == want,
            _ => false,
        })
    }

    /// Value of the named attribute on an element, if present.
    pub fn attribute(&self, id: NodeId, name: &str) -> Option<&str> {
        let want = self.name_id(name)?;
        self.children(id).iter().find_map(|&c| match &self.nodes[c.0 as usize].kind {
            NodeKind::Attribute(n, v) if *n == want => Some(v.as_str()),
            _ => None,
        })
    }

    /// All attributes of an element as (name, value) pairs.
    pub fn attributes(&self, id: NodeId) -> impl Iterator<Item = (&str, &str)> {
        self.children(id).iter().filter_map(move |&c| match &self.nodes[c.0 as usize].kind {
            NodeKind::Attribute(n, v) => Some((self.name(*n), v.as_str())),
            _ => None,
        })
    }

    /// Concatenated text of the node's *immediate* text children.
    pub fn immediate_text(&self, id: NodeId) -> String {
        let mut out = String::new();
        for &c in self.children(id) {
            if let NodeKind::Text(t) = &self.nodes[c.0 as usize].kind {
                out.push_str(t);
            }
        }
        out
    }

    /// Concatenated text of the whole subtree (the XPath `string()` value).
    pub fn text_content(&self, id: NodeId) -> String {
        let mut out = String::new();
        self.collect_text(id, &mut out);
        out
    }

    fn collect_text(&self, id: NodeId, out: &mut String) {
        match &self.nodes[id.0 as usize].kind {
            NodeKind::Text(t) => out.push_str(t),
            NodeKind::Attribute(_, v) => out.push_str(v),
            _ => {
                for &c in self.children(id) {
                    if !matches!(self.nodes[c.0 as usize].kind, NodeKind::Attribute(..)) {
                        self.collect_text(c, out);
                    }
                }
            }
        }
    }

    /// Pre-order iterator over the subtree rooted at `id` (inclusive),
    /// skipping attribute nodes.
    pub fn descendants(&self, id: NodeId) -> Descendants<'_> {
        Descendants { doc: self, stack: vec![id] }
    }

    /// All descendant elements (including `id` itself if it matches) with the
    /// given tag, in document order.
    pub fn descendant_elements(&self, id: NodeId, tag: &str) -> Vec<NodeId> {
        let Some(want) = self.name_id(tag) else { return Vec::new() };
        self.descendants(id)
            .filter(|&n| matches!(self.nodes[n.0 as usize].kind, NodeKind::Element(m) if m == want))
            .collect()
    }

    /// Serialize the subtree rooted at `id` to XML text.
    pub fn serialize_node(&self, id: NodeId, out: &mut String) {
        match &self.nodes[id.0 as usize].kind {
            NodeKind::Document => {
                for &c in self.children(id) {
                    self.serialize_node(c, out);
                }
            }
            NodeKind::Text(t) => out.push_str(&escape_text(t)),
            NodeKind::Attribute(n, v) => {
                let _ = write!(out, " {}=\"{}\"", self.name(*n), escape_attr(v));
            }
            NodeKind::Element(n) => {
                let tag = self.name(*n);
                out.push('<');
                out.push_str(tag);
                let mut content = Vec::new();
                for &c in self.children(id) {
                    if matches!(self.nodes[c.0 as usize].kind, NodeKind::Attribute(..)) {
                        self.serialize_node(c, out);
                    } else {
                        content.push(c);
                    }
                }
                if content.is_empty() {
                    out.push_str("/>");
                } else {
                    out.push('>');
                    for c in content {
                        self.serialize_node(c, out);
                    }
                    out.push_str("</");
                    out.push_str(tag);
                    out.push('>');
                }
            }
        }
    }

    /// Serialize the whole document.
    pub fn to_xml(&self) -> String {
        let mut out = String::new();
        self.serialize_node(self.document_node(), &mut out);
        out
    }
}

/// Pre-order traversal iterator; see [`Document::descendants`].
pub struct Descendants<'a> {
    doc: &'a Document,
    stack: Vec<NodeId>,
}

impl<'a> Iterator for Descendants<'a> {
    type Item = NodeId;

    fn next(&mut self) -> Option<NodeId> {
        let id = self.stack.pop()?;
        let children = self.doc.children(id);
        // Push in reverse so the leftmost child is visited first.
        for &c in children.iter().rev() {
            if !matches!(self.doc.kind(c), NodeKind::Attribute(..)) {
                self.stack.push(c);
            }
        }
        Some(id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const DOC: &str = r#"<site><people><person id="p0"><name>Ann</name></person><person id="p1"><name>Bob</name><age>31</age></person></people></site>"#;

    #[test]
    fn parse_and_navigate() {
        let doc = Document::parse(DOC).unwrap();
        let root = doc.root().unwrap();
        assert_eq!(doc.tag(root), Some("site"));
        let people = doc.child_elements(root, Some("people")).next().unwrap();
        let persons: Vec<_> = doc.child_elements(people, Some("person")).collect();
        assert_eq!(persons.len(), 2);
        assert_eq!(doc.attribute(persons[0], "id"), Some("p0"));
        assert_eq!(doc.text_content(persons[1]), "Bob31");
        let name = doc.child_elements(persons[1], Some("name")).next().unwrap();
        assert_eq!(doc.immediate_text(name), "Bob");
    }

    #[test]
    fn descendant_search() {
        let doc = Document::parse(DOC).unwrap();
        let names = doc.descendant_elements(doc.document_node(), "name");
        assert_eq!(names.len(), 2);
        assert_eq!(doc.immediate_text(names[0]), "Ann");
        assert_eq!(doc.immediate_text(names[1]), "Bob");
    }

    #[test]
    fn serialize_roundtrip() {
        let doc = Document::parse(DOC).unwrap();
        let ser = doc.to_xml();
        let doc2 = Document::parse(&ser).unwrap();
        assert_eq!(doc2.to_xml(), ser);
        assert_eq!(doc.len(), doc2.len());
    }

    #[test]
    fn roundtrip_with_escapes() {
        let src = "<a x=\"a&amp;b\">1 &lt; 2</a>";
        let doc = Document::parse(src).unwrap();
        assert_eq!(doc.attribute(doc.root().unwrap(), "x"), Some("a&b"));
        assert_eq!(doc.text_content(doc.root().unwrap()), "1 < 2");
        let doc2 = Document::parse(&doc.to_xml()).unwrap();
        assert_eq!(doc2.text_content(doc2.root().unwrap()), "1 < 2");
    }

    #[test]
    fn document_order_traversal() {
        let doc = Document::parse("<a><b><c/></b><d/></a>").unwrap();
        let tags: Vec<_> =
            doc.descendants(doc.root().unwrap()).filter_map(|n| doc.tag(n)).collect();
        assert_eq!(tags, vec!["a", "b", "c", "d"]);
    }

    #[test]
    fn empty_element_serialization() {
        let doc = Document::parse("<a><b/></a>").unwrap();
        assert_eq!(doc.to_xml(), "<a><b/></a>");
    }
}
