//! Runtime values for the query engine.
//!
//! The key type is [`Item::Comp`]: a *still-compressed* string carrying its
//! container id. Predicates, joins and construction pass these around
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
    /// A compressed string value from a container.
    Comp {
        /// The container whose source model encodes `bytes`.
        container: ContainerId,
        /// The compressed bytes.
        bytes: Rc<[u8]>,
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

/// Effective boolean value of a sequence (XPath rules, simplified to the
/// types we have).
pub fn effective_boolean(seq: &Sequence) -> bool {
    match seq.len() {
        0 => false,
        1 => match &seq[0] {
            Item::Bool(b) => *b,
            Item::Num(n) => *n != 0.0 && !n.is_nan(),
            Item::Str(s) => !s.is_empty(),
            // Untyped value: true unless it encodes the empty string. An
            // empty value compresses to empty bytes under the dictionary and
            // identity codecs; bit-level codecs emit a small header for "",
            // making this a (documented, rare) approximation.
            Item::Comp { bytes, .. } => !bytes.is_empty(),
            Item::Node(_) | Item::Tree(_) => true,
        },
        _ => true,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn effective_boolean_rules() {
        assert!(!effective_boolean(&vec![]));
        assert!(!effective_boolean(&vec![Item::Bool(false)]));
        assert!(effective_boolean(&vec![Item::Bool(true)]));
        assert!(!effective_boolean(&vec![Item::Num(0.0)]));
        assert!(effective_boolean(&vec![Item::Num(2.0)]));
        assert!(!effective_boolean(&vec![Item::Str("".into())]));
        assert!(effective_boolean(&vec![Item::Str("x".into())]));
        assert!(effective_boolean(&vec![Item::Node(ElemId(3))]));
        assert!(effective_boolean(&vec![Item::Bool(false), Item::Bool(false)]));
    }
}
