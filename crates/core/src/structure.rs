//! The structure tree (§2.2), stored column by column in pre-order.
//!
//! Node ids are assigned in document (pre-) order, so every subtree is the
//! contiguous id range from its root to the last node it contains. The tree
//! is a set of parallel arrays indexed by [`ElemId`] — tag code, parent,
//! path-summary node and that subtree end — plus the nodes' value pointers
//! in compressed-sparse-row form: node `i`'s values are
//! `values[value_starts[i]..value_starts[i + 1]]`. No node owns a heap
//! block. These are exactly the access structures the paper's `Parent` /
//! `Child` / `TextContent` operators need: a parent is one array read, a
//! node's children are a walk from `id + 1` that jumps over each child's
//! subtree, and its descendants are an id range.
//!
//! The loader and open build the tree through a `TreeBuilder`, which
//! appends nodes in pre-order and checks that each new node's parent is on
//! the root path of the node before it.

use crate::ids::{ContainerId, ElemId, PathId, TagCode};

/// Pointer from an element to one of its values inside a container.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ValueRef {
    /// The container holding the value.
    pub container: ContainerId,
    /// Record index within that container.
    pub index: u32,
}

/// `parents` entry of a node with no parent.
const NO_PARENT: u32 = u32::MAX;

/// The structure tree: pre-order arrays indexed by [`ElemId`].
#[derive(Debug, Default, Clone)]
pub struct StructureTree {
    tags: Vec<TagCode>,
    /// Parent id of each node, [`NO_PARENT`] for a root.
    parents: Vec<u32>,
    paths: Vec<PathId>,
    /// Last id inside each node's subtree (the node itself for a leaf).
    ends: Vec<u32>,
    /// CSR offsets into `values`: one per node, then the total.
    value_starts: Vec<u32>,
    values: Vec<ValueRef>,
}

impl StructureTree {
    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.tags.len()
    }

    /// True when the tree has no nodes.
    pub fn is_empty(&self) -> bool {
        self.tags.is_empty()
    }

    /// Tag code of a node.
    pub fn tag(&self, id: ElemId) -> TagCode {
        self.tags[id.0 as usize]
    }

    /// Parent of a node (the paper's `Parent` operator primitive).
    pub fn parent(&self, id: ElemId) -> Option<ElemId> {
        let p = self.parents[id.0 as usize];
        (p != NO_PARENT).then_some(ElemId(p))
    }

    /// Path-summary node of an element.
    pub fn path(&self, id: ElemId) -> PathId {
        self.paths[id.0 as usize]
    }

    /// The last node of `id`'s subtree in pre-order (`id` itself for a
    /// leaf): the subtree is the id range `id..=subtree_end(id)`.
    pub fn subtree_end(&self, id: ElemId) -> ElemId {
        ElemId(self.ends[id.0 as usize])
    }

    /// Children of a node, optionally filtered by tag (`Child` operator
    /// primitive), in document order: a walk from `id + 1` that jumps over
    /// each child's subtree.
    pub fn children(&self, id: ElemId, tag: Option<TagCode>) -> impl Iterator<Item = ElemId> + '_ {
        let end = self.ends[id.0 as usize];
        let mut next = id.0 + 1;
        std::iter::from_fn(move || {
            while next <= end {
                let c = next as usize;
                next = self.ends[c] + 1;
                if tag.is_none_or(|t| self.tags[c] == t) {
                    return Some(ElemId(c as u32));
                }
            }
            None
        })
    }

    /// Descendant elements of `id` (excluding `id`), in document order: the
    /// id range of its subtree.
    pub fn descendants(&self, id: ElemId) -> impl Iterator<Item = ElemId> {
        (id.0 + 1..=self.ends[id.0 as usize]).map(ElemId)
    }

    /// Value pointers of an element, in the order they were attached.
    pub fn values(&self, id: ElemId) -> &[ValueRef] {
        let i = id.0 as usize;
        &self.values[self.value_starts[i] as usize..self.value_starts[i + 1] as usize]
    }

    /// Replace every node's values by `refs`, grouped per node with a stable
    /// counting sort: each node keeps its values in the order `refs` lists
    /// them. `refs` is walked twice, once to count and once to place.
    pub(crate) fn set_values<I>(&mut self, refs: I)
    where
        I: IntoIterator<Item = (ElemId, ValueRef)>,
        I::IntoIter: Clone,
    {
        let refs = refs.into_iter();
        let n = self.len();
        // Count per node, then turn the counts into start offsets.
        let mut starts = vec![0u32; n + 1];
        for (e, _) in refs.clone() {
            starts[e.0 as usize] += 1;
        }
        let mut total = 0u32;
        for s in &mut starts {
            let count = *s;
            *s = total;
            total += count;
        }
        // Place each value at its node's cursor; afterwards `starts[i]` is
        // where node `i`'s values end, so shift the offsets back by one.
        let mut values = vec![ValueRef { container: ContainerId(0), index: 0 }; total as usize];
        for (e, v) in refs {
            let cursor = &mut starts[e.0 as usize];
            values[*cursor as usize] = v;
            *cursor += 1;
        }
        starts.copy_within(0..n, 1);
        starts[0] = 0;
        self.value_starts = starts;
        self.values = values;
    }

    /// Serialized size estimate in bytes of the node records.
    ///
    /// The on-disk layout stores, per node, the dictionary-coded tag (one
    /// byte for the usual <=256 distinct names), plus parent and
    /// next-sibling links as varint deltas against the pre-order id (ids
    /// are dense pre-order, so deltas are small — ~2 bytes each); the child
    /// list is recoverable from first-child/next-sibling. Value refs cost a
    /// varint container code (~1) plus a varint record index (~3).
    pub fn serialized_size(&self) -> usize {
        (1 + 2 + 2) * self.len() + 4 * self.values.len()
    }
}

/// Appends nodes in pre-order and yields the finished [`StructureTree`].
///
/// The subtrees still open are those on the root path of the last node
/// appended. Appending a node closes every open subtree below its parent,
/// and [`TreeBuilder::finish`] closes the rest, so each node's subtree end
/// is written once.
#[derive(Debug, Default)]
pub(crate) struct TreeBuilder {
    tree: StructureTree,
}

impl TreeBuilder {
    /// A builder holding no nodes.
    pub fn new() -> Self {
        Self::default()
    }

    /// Reserve room for `nodes` more nodes.
    pub fn reserve(&mut self, nodes: usize) {
        let t = &mut self.tree;
        t.tags.reserve(nodes);
        t.parents.reserve(nodes);
        t.paths.reserve(nodes);
        t.ends.reserve(nodes);
        t.value_starts.reserve(nodes);
    }

    /// Append the next node in pre-order. `parent` must be the last node
    /// appended or one of its ancestors (`None` starts a new root); the
    /// subtrees below `parent` are closed. Returns `None` when `parent` is
    /// not on that root path, i.e. when the nodes are not in pre-order:
    /// nothing is appended, but subtrees on the way may have been closed,
    /// so the builder is then only fit to be dropped.
    pub fn push(&mut self, tag: TagCode, parent: Option<ElemId>, path: PathId) -> Option<ElemId> {
        let t = &mut self.tree;
        let id = t.tags.len() as u32;
        let stop = parent.map_or(NO_PARENT, |p| p.0);
        if let Some(last) = id.checked_sub(1) {
            let mut a = last;
            while a != stop {
                if a == NO_PARENT {
                    return None;
                }
                t.ends[a as usize] = last;
                a = t.parents[a as usize];
            }
        } else if parent.is_some() {
            return None;
        }
        t.tags.push(tag);
        t.parents.push(stop);
        t.paths.push(path);
        t.ends.push(id);
        t.value_starts.push(t.values.len() as u32);
        Some(ElemId(id))
    }

    /// Attach a value to the node appended last.
    pub fn push_value(&mut self, v: ValueRef) {
        self.tree.values.push(v);
    }

    /// Close the subtrees still open and return the tree, its arrays
    /// trimmed to their lengths.
    pub fn finish(mut self) -> StructureTree {
        let t = &mut self.tree;
        if let Some(last) = (t.tags.len() as u32).checked_sub(1) {
            let mut a = last;
            while a != NO_PARENT {
                t.ends[a as usize] = last;
                a = t.parents[a as usize];
            }
        }
        t.value_starts.push(t.values.len() as u32);
        t.tags.shrink_to_fit();
        t.parents.shrink_to_fit();
        t.paths.shrink_to_fit();
        t.ends.shrink_to_fit();
        t.value_starts.shrink_to_fit();
        t.values.shrink_to_fit();
        self.tree
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> (StructureTree, Vec<ElemId>) {
        // site(e0) -> people(e1) -> person(e2), person(e3); regions(e4)
        let mut b = TreeBuilder::new();
        let site = b.push(TagCode(0), None, PathId(0)).unwrap();
        let people = b.push(TagCode(1), Some(site), PathId(1)).unwrap();
        let p1 = b.push(TagCode(2), Some(people), PathId(2)).unwrap();
        let p2 = b.push(TagCode(2), Some(people), PathId(2)).unwrap();
        let regions = b.push(TagCode(3), Some(site), PathId(3)).unwrap();
        (b.finish(), vec![site, people, p1, p2, regions])
    }

    #[test]
    fn parent_child_navigation() {
        let (t, ids) = sample();
        assert_eq!(t.parent(ids[2]), Some(ids[1]));
        assert_eq!(t.parent(ids[0]), None);
        let kids: Vec<_> = t.children(ids[1], Some(TagCode(2))).collect();
        assert_eq!(kids, vec![ids[2], ids[3]]);
        let none: Vec<_> = t.children(ids[1], Some(TagCode(9))).collect();
        assert!(none.is_empty());
        let site_kids: Vec<_> = t.children(ids[0], None).collect();
        assert_eq!(site_kids, vec![ids[1], ids[4]]);
        assert_eq!(t.children(ids[4], None).count(), 0);
    }

    #[test]
    fn ids_are_document_order() {
        let (t, ids) = sample();
        // Pre-order property: parent id < child id.
        for &id in &ids {
            if let Some(p) = t.parent(id) {
                assert!(p < id);
            }
        }
    }

    #[test]
    fn subtree_ends_close_at_the_last_descendant() {
        let (t, ids) = sample();
        let ends: Vec<u32> = ids.iter().map(|&i| t.subtree_end(i).0).collect();
        assert_eq!(ends, vec![4, 3, 2, 3, 4]);
    }

    #[test]
    fn descendants_in_document_order() {
        let (t, ids) = sample();
        let d: Vec<_> = t.descendants(ids[0]).collect();
        assert_eq!(d, vec![ids[1], ids[2], ids[3], ids[4]]);
        assert_eq!(t.descendants(ids[2]).count(), 0);
    }

    #[test]
    fn a_parent_off_the_root_path_is_refused() {
        let mut b = TreeBuilder::new();
        assert_eq!(
            b.push(TagCode(0), Some(ElemId(0)), PathId(0)),
            None,
            "first node with a parent"
        );
        let root = b.push(TagCode(0), None, PathId(0)).unwrap();
        let a = b.push(TagCode(1), Some(root), PathId(1)).unwrap();
        let _b = b.push(TagCode(1), Some(root), PathId(1)).unwrap();
        // `a`'s subtree closed when its sibling arrived.
        assert_eq!(b.push(TagCode(2), Some(a), PathId(2)), None);
        assert_eq!(b.finish().len(), 3);
    }

    #[test]
    fn value_refs_keep_their_order_per_node() {
        let (mut t, ids) = sample();
        let v = |c, index| ValueRef { container: ContainerId(c), index };
        t.set_values([(ids[2], v(1, 7)), (ids[4], v(0, 1)), (ids[2], v(0, 3)), (ids[0], v(2, 0))]);
        assert_eq!(t.values(ids[2]), &[v(1, 7), v(0, 3)]);
        assert_eq!(t.values(ids[4]), &[v(0, 1)]);
        assert_eq!(t.values(ids[0]), &[v(2, 0)]);
        assert!(t.values(ids[3]).is_empty());

        let mut b = TreeBuilder::new();
        let r = b.push(TagCode(0), None, PathId(0)).unwrap();
        b.push_value(v(0, 0));
        b.push(TagCode(1), Some(r), PathId(1)).unwrap();
        b.push(TagCode(1), Some(r), PathId(1)).unwrap();
        b.push_value(v(1, 0));
        b.push_value(v(1, 1));
        let t = b.finish();
        assert_eq!(t.values(ElemId(0)), &[v(0, 0)]);
        assert!(t.values(ElemId(1)).is_empty());
        assert_eq!(t.values(ElemId(2)), &[v(1, 0), v(1, 1)]);
        assert_eq!(t.serialized_size(), 3 * 5 + 3 * 4);
    }
}
