//! The structure summary (§2.2): a dataguide of all distinct rooted paths.
//!
//! "For tree-structured XML documents, it will always have less nodes than
//! the document (typically by several orders of magnitude)." Every summary
//! node stores the list of element ids reachable by its path (the *extent*,
//! in document order), and leaf value nodes point to their container — this
//! is the redundant access-support structure behind the
//! `StructureSummaryAccess` operator and the paper's Q14 discussion (§2.3):
//! descendant queries touch the summary, not the whole structure tree.

use crate::ids::{ContainerId, ElemId, PathId, TagCode};
use std::fmt;

/// What a summary node denotes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PathKind {
    /// Virtual root above the document element.
    Root,
    /// An element path step with the given tag.
    Element(TagCode),
    /// An attribute leaf with the given name.
    Attribute(TagCode),
    /// A text-content leaf.
    Text,
}

/// One node of the summary.
#[derive(Debug, Clone)]
pub struct SummaryNode {
    /// What this path step is.
    pub kind: PathKind,
    /// Parent path (None only for the root).
    pub parent: Option<PathId>,
    /// Child paths in first-encountered order.
    pub children: Vec<PathId>,
    /// Element ids reachable by this path, in document order (element nodes
    /// only; value leaves keep the extent of their parent element).
    pub extent: Vec<ElemId>,
    /// Container holding this path's values (value leaves only).
    pub container: Option<ContainerId>,
}

/// The structure summary / dataguide.
#[derive(Debug, Clone)]
pub struct StructureSummary {
    nodes: Vec<SummaryNode>,
}

impl Default for StructureSummary {
    fn default() -> Self {
        Self::new()
    }
}

impl StructureSummary {
    /// A summary containing only the virtual root.
    pub fn new() -> Self {
        StructureSummary {
            nodes: vec![SummaryNode {
                kind: PathKind::Root,
                parent: None,
                children: Vec::new(),
                extent: Vec::new(),
                container: None,
            }],
        }
    }

    /// The virtual root path.
    pub fn root(&self) -> PathId {
        PathId(0)
    }

    /// Number of summary nodes (the paper's "summary is very small" claim is
    /// measured against this).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when only the virtual root exists.
    pub fn is_empty(&self) -> bool {
        self.nodes.len() <= 1
    }

    /// Get-or-create the child of `parent` with the given kind.
    pub fn intern_child(&mut self, parent: PathId, kind: PathKind) -> PathId {
        if let Some(&c) =
            self.nodes[parent.0 as usize].children.iter().find(|&&c| self.nodes[c.0 as usize].kind == kind)
        {
            return c;
        }
        let id = PathId(self.nodes.len() as u32);
        self.nodes.push(SummaryNode {
            kind,
            parent: Some(parent),
            children: Vec::new(),
            extent: Vec::new(),
            container: None,
        });
        self.nodes[parent.0 as usize].children.push(id);
        id
    }

    /// Record an element in its path's extent (call in document order).
    pub fn record(&mut self, path: PathId, elem: ElemId) {
        self.nodes[path.0 as usize].extent.push(elem);
    }

    /// Bind a value leaf to its container.
    pub fn set_container(&mut self, path: PathId, container: ContainerId) {
        self.nodes[path.0 as usize].container = Some(container);
    }

    /// Borrow a node.
    pub fn node(&self, id: PathId) -> &SummaryNode {
        &self.nodes[id.0 as usize]
    }

    /// All node ids.
    pub fn ids(&self) -> impl Iterator<Item = PathId> {
        (0..self.nodes.len() as u32).map(PathId)
    }

    /// Find the child element-path of `parent` with tag `tag`.
    pub fn child_element(&self, parent: PathId, tag: TagCode) -> Option<PathId> {
        self.nodes[parent.0 as usize]
            .children
            .iter()
            .copied()
            .find(|&c| self.nodes[c.0 as usize].kind == PathKind::Element(tag))
    }

    /// All element-path descendants of `from` (inclusive) with tag `tag` —
    /// the summary-level resolution of a `//tag` step.
    pub fn descendant_elements(&self, from: PathId, tag: TagCode) -> Vec<PathId> {
        let mut out = Vec::new();
        let mut stack = vec![from];
        while let Some(p) = stack.pop() {
            let node = &self.nodes[p.0 as usize];
            if node.kind == PathKind::Element(tag) {
                out.push(p);
            }
            // Push in reverse to keep document-ish order.
            stack.extend(node.children.iter().rev().copied());
        }
        out
    }

    /// The human-readable path, e.g. `/site/people/person/@id`, written
    /// when displayed (no `String` is built for it).
    pub fn path<'a, F: Fn(TagCode) -> &'a str>(
        &'a self,
        id: PathId,
        name_of: F,
    ) -> PathText<'a, F> {
        PathText { summary: self, id, name_of }
    }

    /// Serialized size estimate: the skeleton plus the extent lists.
    /// Extents are ascending element ids, so they serialize as varint
    /// deltas (~2 bytes per entry on the evaluation documents).
    pub fn serialized_size(&self) -> usize {
        self.nodes
            .iter()
            .map(|n| 3 + 4 + 4 * n.children.len() + 4 + 2 * n.extent.len())
            .sum()
    }

    /// Size without extents — the pure dataguide skeleton.
    pub fn skeleton_size(&self) -> usize {
        self.nodes.iter().map(|n| 3 + 4 + 4 * n.children.len() + 4).sum()
    }
}

/// A summary path rendered on demand; see [`StructureSummary::path`].
pub struct PathText<'a, F> {
    summary: &'a StructureSummary,
    id: PathId,
    name_of: F,
}

impl<'a, F: Fn(TagCode) -> &'a str> PathText<'a, F> {
    /// Write the steps from the root down to `id`.
    fn write_steps(&self, f: &mut fmt::Formatter<'_>, id: PathId) -> fmt::Result {
        let node = self.summary.node(id);
        if let Some(parent) = node.parent {
            self.write_steps(f, parent)?;
        }
        match node.kind {
            PathKind::Root => Ok(()),
            PathKind::Element(t) => write!(f, "/{}", (self.name_of)(t)),
            PathKind::Attribute(t) => write!(f, "/@{}", (self.name_of)(t)),
            PathKind::Text => f.write_str("/text()"),
        }
    }
}

impl<'a, F: Fn(TagCode) -> &'a str> fmt::Display for PathText<'a, F> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.summary.node(self.id).kind == PathKind::Root {
            return f.write_str("/");
        }
        self.write_steps(f, self.id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn build() -> (StructureSummary, PathId, PathId, PathId) {
        let mut s = StructureSummary::new();
        let site = s.intern_child(s.root(), PathKind::Element(TagCode(0)));
        let people = s.intern_child(site, PathKind::Element(TagCode(1)));
        let person = s.intern_child(people, PathKind::Element(TagCode(2)));
        let _id_attr = s.intern_child(person, PathKind::Attribute(TagCode(3)));
        let regions = s.intern_child(site, PathKind::Element(TagCode(4)));
        let item = s.intern_child(regions, PathKind::Element(TagCode(5)));
        let _item2 = s.intern_child(item, PathKind::Element(TagCode(5)));
        (s, site, person, item)
    }

    #[test]
    fn intern_is_idempotent() {
        let mut s = StructureSummary::new();
        let a = s.intern_child(s.root(), PathKind::Element(TagCode(0)));
        let b = s.intern_child(s.root(), PathKind::Element(TagCode(0)));
        assert_eq!(a, b);
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn extents_record_document_order() {
        let (mut s, _, person, _) = build();
        s.record(person, ElemId(5));
        s.record(person, ElemId(9));
        assert_eq!(s.node(person).extent, vec![ElemId(5), ElemId(9)]);
    }

    #[test]
    fn descendant_search_finds_nested() {
        let (s, site, _, _) = build();
        // Two nested `item` paths exist under site.
        let items = s.descendant_elements(site, TagCode(5));
        assert_eq!(items.len(), 2);
        // Nothing for an unknown tag.
        assert!(s.descendant_elements(site, TagCode(99)).is_empty());
    }

    #[test]
    fn path_strings() {
        let (s, _, person, _) = build();
        let names = ["site", "people", "person", "id", "regions", "item"];
        let f = |t: TagCode| names[t.0 as usize];
        assert_eq!(s.path(person, f).to_string(), "/site/people/person");
        let attr = s.node(person).children[0];
        assert_eq!(s.path(attr, f).to_string(), "/site/people/person/@id");
        assert_eq!(s.path(s.root(), f).to_string(), "/");
    }
}
