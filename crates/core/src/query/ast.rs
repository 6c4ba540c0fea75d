//! Abstract syntax for the XQuery subset XQueC evaluates.
//!
//! The subset covers what the paper's evaluation exercises: FLWOR (with
//! multiple `for`/`let` clauses, `where`, `order by`), rooted and relative
//! path expressions with child/descendant/attribute steps and positional or
//! boolean predicates, general comparisons, arithmetic, the usual first-
//! order functions (`count`, `sum`, `avg`, `min`, `max`, `contains`,
//! `starts-with`, `empty`, `not`, `zero-or-one`, `distinct-values`),
//! quantified `some … satisfies`, `if/then/else`, and direct element
//! constructors with embedded expressions.

use std::rc::Rc;

/// Comparison operators (general comparison semantics).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    /// `=`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

impl CmpOp {
    /// Textual form.
    pub fn as_str(self) -> &'static str {
        match self {
            CmpOp::Eq => "=",
            CmpOp::Ne => "!=",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        }
    }

    /// Mirror image (swap the operand sides).
    pub fn flip(self) -> CmpOp {
        match self {
            CmpOp::Lt => CmpOp::Gt,
            CmpOp::Le => CmpOp::Ge,
            CmpOp::Gt => CmpOp::Lt,
            CmpOp::Ge => CmpOp::Le,
            other => other,
        }
    }
}

/// Arithmetic operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArithOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `div`
    Div,
    /// `mod`
    Mod,
}

/// Path step axis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Axis {
    /// `/child`
    Child,
    /// `//descendant-or-self` then the test.
    Descendant,
    /// `/..` — the parent element.
    Parent,
}

/// Node test of a step.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NodeTest {
    /// Element with this tag.
    Tag(String),
    /// Any element (`*`).
    AnyElement,
    /// `text()`.
    Text,
    /// `@name`.
    Attr(String),
}

/// A step predicate.
#[derive(Debug, Clone, PartialEq)]
pub enum StepPredicate {
    /// Boolean filter `[expr]` evaluated with the step result as context.
    Filter(Box<Expr>),
    /// Positional `[n]` (1-based, per context node group).
    Position(i64),
    /// `[last()]`.
    Last,
}

/// One path step.
#[derive(Debug, Clone, PartialEq)]
pub struct Step {
    /// Axis.
    pub axis: Axis,
    /// Node test.
    pub test: NodeTest,
    /// Predicates applied in order.
    pub predicates: Vec<StepPredicate>,
}

/// Where a path starts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PathRoot {
    /// `document("…")/…` or an absolute `/…` path.
    Document,
    /// `$var/…`.
    Var(String),
    /// A relative path inside a predicate (context item).
    Context,
}

/// A path expression.
#[derive(Debug, Clone, PartialEq)]
pub struct PathExpr {
    /// Root of the path.
    pub root: PathRoot,
    /// The steps.
    pub steps: Vec<Step>,
}

/// FLWOR clause.
#[derive(Debug, Clone, PartialEq)]
pub enum Clause {
    /// `for $v in expr`
    For(String, Expr),
    /// `let $v := expr`
    Let(String, Expr),
    /// `where expr`
    Where(Expr),
    /// `order by expr [descending]`
    OrderBy(Expr, bool),
}

/// Direct element constructor. Names are shared with every fragment the
/// constructor builds.
#[derive(Debug, Clone, PartialEq)]
pub struct ElemCtor {
    /// Element name.
    pub tag: Rc<str>,
    /// Attributes (name, value expression).
    pub attrs: Vec<(Rc<str>, Expr)>,
    /// Content expressions in order.
    pub children: Vec<Expr>,
}

/// An expression.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// FLWOR block.
    Flwor(Vec<Clause>, Box<Expr>),
    /// `if (c) then t else e`
    If(Box<Expr>, Box<Expr>, Box<Expr>),
    /// `some $v in s satisfies p` / `every $v in s satisfies p`
    Some {
        /// Bound variable.
        var: String,
        /// Source sequence.
        source: Box<Expr>,
        /// Condition.
        satisfies: Box<Expr>,
        /// True for the universal (`every`) form.
        every: bool,
    },
    /// Sequence union `a | b` (node union with dedup).
    Union(Box<Expr>, Box<Expr>),
    /// Logical or.
    Or(Box<Expr>, Box<Expr>),
    /// Logical and.
    And(Box<Expr>, Box<Expr>),
    /// Comparison.
    Cmp(CmpOp, Box<Expr>, Box<Expr>),
    /// Arithmetic.
    Arith(ArithOp, Box<Expr>, Box<Expr>),
    /// Unary minus.
    Neg(Box<Expr>),
    /// Path expression.
    Path(PathExpr),
    /// Bare variable reference.
    Var(String),
    /// Function call (lower-cased name).
    Call(String, Vec<Expr>),
    /// String literal.
    Str(String),
    /// Numeric literal.
    Num(f64),
    /// Element constructor.
    Elem(ElemCtor),
    /// Comma sequence.
    Seq(Vec<Expr>),
}

impl Expr {
    /// Convenience: is this a path rooted at the given variable?
    pub fn as_var_path(&self) -> Option<(&str, &[Step])> {
        match self {
            Expr::Path(PathExpr { root: PathRoot::Var(v), steps }) => Some((v, steps)),
            _ => None,
        }
    }
}
