//! Runtime values for the query engine.
//!
//! The key type is [`Item::Comp`]: a *still-compressed* string, named by its
//! container and record index; its bytes stay in the container's record
//! arena and are read in place when used. Predicates, joins and construction pass these around
//! untouched; decompression happens only when an operator genuinely needs
//! the plaintext (wildcards, cross-model comparisons, final serialization) —
//! the paper's lazy decompression principle (§4, Fig. 5).

use crate::ids::{ContainerId, ElemId};
use std::rc::Rc;

/// One item of a sequence.
#[derive(Debug, Clone)]
pub enum Item {
    /// An element node of the repository's structure tree.
    Node(ElemId),
    /// A compressed string value: one record of an individual container.
    Comp {
        /// The container holding the record.
        container: ContainerId,
        /// The record's index in the container.
        index: u32,
    },
    /// A plain string.
    Str(Rc<str>),
    /// A double.
    Num(f64),
    /// A boolean.
    Bool(bool),
    /// A constructed XML fragment.
    Tree(Rc<Fragment>),
}

/// A constructed element (result of a direct constructor), flat: the
/// elements constructed directly in its content, and in theirs, are
/// [`Nested`] entries of the same fragment, not fragments of their own.
#[derive(Debug)]
pub struct Fragment {
    /// Element name (shared with the constructor's AST node).
    pub tag: Rc<str>,
    /// Attributes: name and the evaluated value sequence.
    pub attrs: Vec<(Rc<str>, Sequence)>,
    /// Child content in document order: the child expressions' sequences,
    /// concatenated, with each nested element's content at its place.
    pub children: Sequence,
    /// Positions in `children` where an atomic item of one child expression
    /// follows an atomic item of an earlier one of the same element.
    /// Serialization separates adjacent atomic items with a space, but not
    /// across these seams.
    pub seams: Vec<u32>,
    /// The nested elements in document order (empty for a single element).
    pub nested: Vec<Nested>,
}

/// An element constructed directly in the content of another constructor,
/// stored inside the outermost one's [`Fragment`].
#[derive(Debug)]
pub struct Nested {
    /// Element name.
    pub tag: Rc<str>,
    /// Attributes: name and the evaluated value sequence.
    pub attrs: Vec<(Rc<str>, Sequence)>,
    /// Its content is `children[start..end]`, the nested elements inside it
    /// included.
    pub start: u32,
    /// End of its content in `children`.
    pub end: u32,
    /// Index in `nested` of the first element after its subtree.
    pub next: u32,
}

/// A sequence of items (the XQuery data model's only collection).
pub type Sequence = Vec<Item>;

impl Item {
    /// True for node-ish items (element or constructed fragment).
    pub fn is_node(&self) -> bool {
        matches!(self, Item::Node(_) | Item::Tree(_))
    }
}
