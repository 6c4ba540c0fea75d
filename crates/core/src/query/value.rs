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

/// A constructed element (result of a direct constructor).
#[derive(Debug)]
pub struct Fragment {
    /// Element name (shared with the constructor's AST node).
    pub tag: Rc<str>,
    /// Attributes: name and the evaluated value sequence.
    pub attrs: Vec<(Rc<str>, Sequence)>,
    /// Child content sequences, in order.
    pub children: Vec<Sequence>,
}

/// A sequence of items (the XQuery data model's only collection).
pub type Sequence = Vec<Item>;

impl Item {
    /// True for node-ish items (element or constructed fragment).
    pub fn is_node(&self) -> bool {
        matches!(self, Item::Node(_) | Item::Tree(_))
    }
}
