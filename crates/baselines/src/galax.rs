//! Galax-like in-memory XQuery engine over the *uncompressed* DOM — the
//! comparator of the paper's Fig. 7.
//!
//! Galax (as of 2003) loads the entire document into memory and evaluates
//! queries navigationally: every path step walks the tree, nested FLWOR
//! blocks are re-evaluated per outer binding (no join decorrelation, no
//! value indexes), and values are plain strings. This reproduces exactly the
//! behaviours the paper measures against: high memory footprint, full-
//! document loading, and quadratic nested-query evaluation (Q8 took 126 s
//! in Galax vs 2.1 s in XQueC on XMark11).
//!
//! The engine shares the parser/AST with `xquec-core`, so both systems run
//! *identical query texts* — only the storage and evaluation differ.

use std::cell::Cell;
use std::collections::HashMap;
use std::rc::Rc;
use std::time::Instant;
use xquec_core::query::ast::*;
use xquec_core::query::parser::parse;
use xquec_core::query::QueryError;
use xquec_xml::{Document, NodeId, NodeKind};

/// Runtime item for the DOM engine.
#[derive(Debug, Clone)]
pub enum GItem {
    /// A DOM node.
    Node(NodeId),
    /// String.
    Str(Rc<str>),
    /// Number.
    Num(f64),
    /// Boolean.
    Bool(bool),
    /// Constructed fragment, kept as serialized text for simplicity.
    Frag(Rc<GFragment>),
}

/// A constructed element.
#[derive(Debug)]
pub struct GFragment {
    /// Tag name.
    pub tag: String,
    /// Attribute name/value pairs (values stringified eagerly).
    pub attrs: Vec<(String, String)>,
    /// Children sequences.
    pub children: Vec<Vec<GItem>>,
}

type GSeq = Vec<GItem>;
type Env = Vec<(String, GSeq)>;

fn err<T>(msg: impl Into<String>) -> Result<T, QueryError> {
    Err(QueryError { message: msg.into() })
}

/// The Galax-like engine.
pub struct GalaxEngine {
    doc: Document,
    /// Cooperative wall-clock deadline: evaluation aborts with an error once
    /// it passes (the paper could not measure Galax Q9 at all; this lets the
    /// harness report a DNF instead of hanging).
    deadline: Cell<Option<Instant>>,
    ticks: Cell<u32>,
}

impl GalaxEngine {
    /// Load a document (full in-memory DOM — the footprint the paper
    /// contrasts with XQueC's compressed containers).
    pub fn load(xml: &str) -> Result<Self, QueryError> {
        let doc = Document::parse(xml)
            .map_err(|e| QueryError { message: format!("galax load: {e}") })?;
        Ok(GalaxEngine { doc, deadline: Cell::new(None), ticks: Cell::new(0) })
    }

    /// Abort any evaluation running longer than `seconds` from now.
    pub fn set_timeout(&self, seconds: f64) {
        self.deadline
            .set(Some(Instant::now() + std::time::Duration::from_secs_f64(seconds)));
    }

    /// Approximate resident size of the DOM in bytes.
    pub fn memory_footprint(&self) -> usize {
        // nodes * (kind + parent + children vec headers) + text payloads.
        let mut bytes = self.doc.len() * 48;
        for id in 0..self.doc.len() as u32 {
            match self.doc.kind(xquec_xml::NodeId(id)) {
                NodeKind::Text(t) => bytes += t.len(),
                NodeKind::Attribute(_, v) => bytes += v.len(),
                _ => {}
            }
        }
        bytes
    }

    /// Parse, evaluate, serialize.
    pub fn run(&self, query: &str) -> Result<String, QueryError> {
        let ast = parse(query)?;
        let mut env = Env::new();
        let seq = self.eval(&ast, &mut env)?;
        Ok(self.serialize(&seq))
    }

    fn eval(&self, expr: &Expr, env: &mut Env) -> Result<GSeq, QueryError> {
        // Cheap cooperative timeout check.
        let t = self.ticks.get().wrapping_add(1);
        self.ticks.set(t);
        if t.is_multiple_of(8192) {
            if let Some(d) = self.deadline.get() {
                if Instant::now() > d {
                    return err("galax timeout exceeded");
                }
            }
        }
        match expr {
            Expr::Str(s) => Ok(vec![GItem::Str(Rc::from(s.as_str()))]),
            Expr::Num(n) => Ok(vec![GItem::Num(*n)]),
            Expr::Var(v) => self.lookup(env, v),
            Expr::Seq(es) => {
                let mut out = Vec::new();
                for e in es {
                    out.extend(self.eval(e, env)?);
                }
                Ok(out)
            }
            Expr::Or(a, b) => {
                let l = self.ebv(a, env)?;
                Ok(vec![GItem::Bool(l || self.ebv(b, env)?)])
            }
            Expr::And(a, b) => {
                let l = self.ebv(a, env)?;
                Ok(vec![GItem::Bool(l && self.ebv(b, env)?)])
            }
            Expr::Cmp(op, a, b) => {
                let l = self.eval(a, env)?;
                let r = self.eval(b, env)?;
                Ok(vec![GItem::Bool(self.compare(*op, &l, &r))])
            }
            Expr::Arith(op, a, b) => {
                let l = self.eval(a, env)?;
                let r = self.eval(b, env)?;
                if l.is_empty() || r.is_empty() {
                    return Ok(vec![]);
                }
                let x = self.num(&l[0]);
                let y = self.num(&r[0]);
                Ok(vec![GItem::Num(match op {
                    ArithOp::Add => x + y,
                    ArithOp::Sub => x - y,
                    ArithOp::Mul => x * y,
                    ArithOp::Div => x / y,
                    ArithOp::Mod => x % y,
                })])
            }
            Expr::Neg(e) => {
                let v = self.eval(e, env)?;
                if v.is_empty() {
                    return Ok(vec![]);
                }
                Ok(vec![GItem::Num(-self.num(&v[0]))])
            }
            Expr::If(c, t, e) => {
                if self.ebv(c, env)? {
                    self.eval(t, env)
                } else {
                    self.eval(e, env)
                }
            }
            Expr::Some { var, source, satisfies, every } => {
                let src = self.eval(source, env)?;
                for item in src {
                    env.push((var.clone(), vec![item]));
                    let ok = self.ebv(satisfies, env);
                    env.pop();
                    if ok? != *every {
                        return Ok(vec![GItem::Bool(!every)]);
                    }
                }
                Ok(vec![GItem::Bool(*every)])
            }
            Expr::Union(a, b) => {
                let mut out = self.eval(a, env)?;
                out.extend(self.eval(b, env)?);
                if out.iter().all(|i| matches!(i, GItem::Node(_))) {
                    let mut nodes: Vec<NodeId> = out
                        .iter()
                        .map(|i| match i {
                            GItem::Node(n) => *n,
                            _ => unreachable!(),
                        })
                        .collect();
                    nodes.sort();
                    nodes.dedup();
                    out = nodes.into_iter().map(GItem::Node).collect();
                }
                Ok(out)
            }
            Expr::Call(name, args) => self.call(name, args, env),
            Expr::Elem(c) => {
                let mut attrs = Vec::new();
                for (n, e) in &c.attrs {
                    let v = self.eval(e, env)?;
                    let text: Vec<String> = v.iter().map(|i| self.string(i)).collect();
                    attrs.push((n.to_string(), text.join(" ")));
                }
                let mut children = Vec::new();
                for e in &c.children {
                    children.push(self.eval(e, env)?);
                }
                let tag = c.tag.to_string();
                Ok(vec![GItem::Frag(Rc::new(GFragment { tag, attrs, children }))])
            }
            Expr::Path(p) => self.eval_path(p, env),
            Expr::Flwor(clauses, ret) => {
                // Naive evaluation: no decorrelation, no index pushdown.
                let order = clauses.iter().find_map(|c| match c {
                    Clause::OrderBy(e, d) => Some((e, *d)),
                    _ => None,
                });
                let plain: Vec<&Clause> =
                    clauses.iter().filter(|c| !matches!(c, Clause::OrderBy(..))).collect();
                let mut rows: Vec<(Option<String>, GSeq)> = Vec::new();
                self.flwor(&plain, 0, ret, order.map(|(e, _)| e), env, &mut rows)?;
                if let Some((_, desc)) = order {
                    rows.sort_by(|a, b| {
                        let c = match (&a.0, &b.0) {
                            (Some(x), Some(y)) => match (x.parse::<f64>(), y.parse::<f64>()) {
                                (Ok(nx), Ok(ny)) => {
                                    nx.partial_cmp(&ny).unwrap_or(std::cmp::Ordering::Equal)
                                }
                                _ => x.cmp(y),
                            },
                            (None, None) => std::cmp::Ordering::Equal,
                            (None, _) => std::cmp::Ordering::Less,
                            (_, None) => std::cmp::Ordering::Greater,
                        };
                        if desc {
                            c.reverse()
                        } else {
                            c
                        }
                    });
                }
                Ok(rows.into_iter().flat_map(|(_, s)| s).collect())
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn flwor(
        &self,
        clauses: &[&Clause],
        idx: usize,
        ret: &Expr,
        order_key: Option<&Expr>,
        env: &mut Env,
        rows: &mut Vec<(Option<String>, GSeq)>,
    ) -> Result<(), QueryError> {
        if idx == clauses.len() {
            let key = match order_key {
                Some(e) => {
                    let k = self.eval(e, env)?;
                    Some(k.first().map(|i| self.string(i)).unwrap_or_default())
                }
                None => None,
            };
            let v = self.eval(ret, env)?;
            rows.push((key, v));
            return Ok(());
        }
        match clauses[idx] {
            Clause::For(v, src) => {
                let seq = self.eval(src, env)?;
                for item in seq {
                    env.push((v.clone(), vec![item]));
                    let r = self.flwor(clauses, idx + 1, ret, order_key, env, rows);
                    env.pop();
                    r?;
                }
                Ok(())
            }
            Clause::Let(v, src) => {
                let seq = self.eval(src, env)?;
                env.push((v.clone(), seq));
                let r = self.flwor(clauses, idx + 1, ret, order_key, env, rows);
                env.pop();
                r
            }
            Clause::Where(w) => {
                if self.ebv(w, env)? {
                    self.flwor(clauses, idx + 1, ret, order_key, env, rows)
                } else {
                    Ok(())
                }
            }
            Clause::OrderBy(..) => self.flwor(clauses, idx + 1, ret, order_key, env, rows),
        }
    }

    fn lookup(&self, env: &Env, var: &str) -> Result<GSeq, QueryError> {
        env.iter()
            .rev()
            .find(|(n, _)| n == var)
            .map(|(_, s)| s.clone())
            .ok_or_else(|| QueryError { message: format!("unbound variable ${var}") })
    }

    fn ebv(&self, e: &Expr, env: &mut Env) -> Result<bool, QueryError> {
        let s = self.eval(e, env)?;
        Ok(match s.len() {
            0 => false,
            1 => match &s[0] {
                GItem::Bool(b) => *b,
                GItem::Num(n) => *n != 0.0 && !n.is_nan(),
                GItem::Str(x) => !x.is_empty(),
                _ => true,
            },
            _ => true,
        })
    }

    // ---- paths ----------------------------------------------------------

    fn eval_path(&self, p: &PathExpr, env: &mut Env) -> Result<GSeq, QueryError> {
        let start: Vec<NodeId> = match &p.root {
            PathRoot::Document => vec![self.doc.document_node()],
            PathRoot::Var(v) => {
                let bound = self.lookup(env, v)?;
                self.nodes_of(&bound)?
            }
            PathRoot::Context => {
                let bound = self.lookup(env, ".")?;
                self.nodes_of(&bound)?
            }
        };
        self.steps(start, &p.steps, env)
    }

    fn nodes_of(&self, seq: &GSeq) -> Result<Vec<NodeId>, QueryError> {
        seq.iter()
            .map(|i| match i {
                GItem::Node(n) => Ok(*n),
                _ => err("path step on non-node"),
            })
            .collect()
    }

    fn steps(&self, mut nodes: Vec<NodeId>, steps: &[Step], env: &mut Env) -> Result<GSeq, QueryError> {
        for (si, step) in steps.iter().enumerate() {
            let last = si + 1 == steps.len();
            match &step.test {
                NodeTest::Text => {
                    if !last {
                        return err("text() must be final");
                    }
                    let mut out = Vec::new();
                    for n in nodes {
                        for &c in self.doc.children(n) {
                            if let NodeKind::Text(t) = self.doc.kind(c) {
                                out.push(GItem::Str(Rc::from(t.as_str())));
                            }
                        }
                    }
                    return Ok(out);
                }
                NodeTest::Attr(a) => {
                    if !last {
                        return err("attribute step must be final");
                    }
                    let mut out = Vec::new();
                    for n in nodes {
                        if let Some(v) = self.doc.attribute(n, a) {
                            out.push(GItem::Str(Rc::from(v)));
                        }
                    }
                    return Ok(out);
                }
                NodeTest::Tag(_) | NodeTest::AnyElement => {
                    nodes = self.element_step(&nodes, step, env)?;
                }
            }
        }
        Ok(nodes.into_iter().map(GItem::Node).collect())
    }

    fn element_step(
        &self,
        input: &[NodeId],
        step: &Step,
        env: &mut Env,
    ) -> Result<Vec<NodeId>, QueryError> {
        let mut out = Vec::new();
        for &n in input {
            let mut matches: Vec<NodeId> = match (&step.axis, &step.test) {
                (Axis::Child, NodeTest::Tag(t)) => self.doc.child_elements(n, Some(t)).collect(),
                (Axis::Child, NodeTest::AnyElement) => self.doc.child_elements(n, None).collect(),
                (Axis::Descendant, NodeTest::Tag(t)) => {
                    // Navigational walk of the whole subtree — no summary.
                    let mut v = self.doc.descendant_elements(n, t);
                    v.retain(|&d| d != n);
                    v
                }
                (Axis::Descendant, NodeTest::AnyElement) => self
                    .doc
                    .descendants(n)
                    .filter(|&d| d != n && self.doc.is_element(d))
                    .collect(),
                (Axis::Parent, _) => self
                    .doc
                    .parent(n)
                    .into_iter()
                    .filter(|&p| self.doc.is_element(p))
                    .filter(|&p| match &step.test {
                        NodeTest::Tag(t) => self.doc.tag(p) == Some(t.as_str()),
                        _ => true,
                    })
                    .collect(),
                _ => unreachable!(),
            };
            for pred in &step.predicates {
                match pred {
                    StepPredicate::Position(k) => {
                        matches = if *k >= 1 && (*k as usize) <= matches.len() {
                            vec![matches[*k as usize - 1]]
                        } else {
                            vec![]
                        };
                    }
                    StepPredicate::Last => {
                        matches = matches.last().map(|&l| vec![l]).unwrap_or_default();
                    }
                    StepPredicate::Filter(f) => {
                        let mut kept = Vec::new();
                        for &c in &matches {
                            env.push((".".into(), vec![GItem::Node(c)]));
                            let ok = self.ebv(f, env);
                            env.pop();
                            if ok? {
                                kept.push(c);
                            }
                        }
                        matches = kept;
                    }
                }
            }
            out.extend(matches);
        }
        let mut seen = HashMap::new();
        out.retain(|&n| seen.insert(n, ()).is_none());
        out.sort();
        Ok(out)
    }

    // ---- comparisons, functions, strings ----------------------------------

    fn atomize(&self, seq: &GSeq) -> GSeq {
        seq.iter()
            .map(|i| match i {
                GItem::Node(_) | GItem::Frag(_) => GItem::Str(Rc::from(self.string(i).as_str())),
                other => other.clone(),
            })
            .collect()
    }

    fn compare(&self, op: CmpOp, l: &GSeq, r: &GSeq) -> bool {
        use std::cmp::Ordering;
        let ok = |ord: Ordering| match op {
            CmpOp::Eq => ord == Ordering::Equal,
            CmpOp::Ne => ord != Ordering::Equal,
            CmpOp::Lt => ord == Ordering::Less,
            CmpOp::Le => ord != Ordering::Greater,
            CmpOp::Gt => ord == Ordering::Greater,
            CmpOp::Ge => ord != Ordering::Less,
        };
        for a in self.atomize(l) {
            for b in self.atomize(r) {
                let hit = if matches!(a, GItem::Num(_)) || matches!(b, GItem::Num(_)) {
                    let x = self.num(&a);
                    let y = self.num(&b);
                    !x.is_nan() && !y.is_nan() && ok(x.partial_cmp(&y).expect("no NaN"))
                } else {
                    ok(self.string(&a).cmp(&self.string(&b)))
                };
                if hit {
                    return true;
                }
            }
        }
        false
    }

    fn call(&self, name: &str, args: &[Expr], env: &mut Env) -> Result<GSeq, QueryError> {
        let arg = |i: usize, env: &mut Env| -> Result<GSeq, QueryError> {
            args.get(i)
                .map(|e| self.eval(e, env))
                .unwrap_or_else(|| err(format!("{name}() missing argument")))
        };
        match name {
            "document" | "doc" => Ok(vec![GItem::Node(self.doc.document_node())]),
            "count" => Ok(vec![GItem::Num(arg(0, env)?.len() as f64)]),
            "sum" | "avg" | "min" | "max" => {
                let nums: Vec<f64> = arg(0, env)?.iter().map(|i| self.num(i)).collect();
                if nums.is_empty() {
                    return Ok(if name == "sum" { vec![GItem::Num(0.0)] } else { vec![] });
                }
                let v = match name {
                    "sum" => nums.iter().sum(),
                    "avg" => nums.iter().sum::<f64>() / nums.len() as f64,
                    "min" => nums.iter().copied().fold(f64::INFINITY, f64::min),
                    _ => nums.iter().copied().fold(f64::NEG_INFINITY, f64::max),
                };
                Ok(vec![GItem::Num(v)])
            }
            "not" => {
                let s = arg(0, env)?;
                let b = match s.len() {
                    0 => false,
                    1 => match &s[0] {
                        GItem::Bool(b) => *b,
                        GItem::Num(n) => *n != 0.0,
                        GItem::Str(x) => !x.is_empty(),
                        _ => true,
                    },
                    _ => true,
                };
                Ok(vec![GItem::Bool(!b)])
            }
            "empty" => Ok(vec![GItem::Bool(arg(0, env)?.is_empty())]),
            "exists" => Ok(vec![GItem::Bool(!arg(0, env)?.is_empty())]),
            "contains" => {
                let hay = arg(0, env)?;
                let needle = arg(1, env)?;
                let n = needle.first().map(|i| self.string(i)).unwrap_or_default();
                Ok(vec![GItem::Bool(hay.iter().any(|h| self.string(h).contains(&n)))])
            }
            "starts-with" => {
                let s = arg(0, env)?;
                let p = arg(1, env)?;
                let prefix = p.first().map(|i| self.string(i)).unwrap_or_default();
                Ok(vec![GItem::Bool(
                    s.first().map(|i| self.string(i).starts_with(&prefix)).unwrap_or(false),
                )])
            }
            "zero-or-one" => {
                let s = arg(0, env)?;
                if s.len() > 1 {
                    return err("zero-or-one() with more than one item");
                }
                Ok(s)
            }
            "string" => {
                let s = arg(0, env)?;
                Ok(s.first().map(|i| GItem::Str(Rc::from(self.string(i).as_str()))).into_iter().collect())
            }
            "number" => {
                let s = arg(0, env)?;
                Ok(vec![GItem::Num(s.first().map(|i| self.num(i)).unwrap_or(f64::NAN))])
            }
            "string-length" => {
                let s = arg(0, env)?;
                Ok(vec![GItem::Num(
                    s.first().map(|i| self.string(i).chars().count()).unwrap_or(0) as f64,
                )])
            }
            "concat" => {
                let mut out = String::new();
                for i in 0..args.len() {
                    if let Some(item) = arg(i, env)?.first() {
                        out.push_str(&self.string(item));
                    }
                }
                Ok(vec![GItem::Str(Rc::from(out.as_str()))])
            }
            "round" => {
                let s = arg(0, env)?;
                Ok(s.first().map(|i| GItem::Num(self.num(i).round())).into_iter().collect())
            }
            "distinct-values" => {
                let s = arg(0, env)?;
                let mut seen = std::collections::HashSet::new();
                let mut out = Vec::new();
                for i in self.atomize(&s) {
                    if seen.insert(self.string(&i)) {
                        out.push(i);
                    }
                }
                Ok(out)
            }
            "substring" => {
                let s = arg(0, env)?;
                let text = s.first().map(|i| self.string(i)).unwrap_or_default();
                let start = arg(1, env)?.first().map(|i| self.num(i)).unwrap_or(1.0);
                let len = if args.len() > 2 {
                    arg(2, env)?.first().map(|i| self.num(i)).unwrap_or(0.0)
                } else {
                    f64::INFINITY
                };
                let chars: Vec<char> = text.chars().collect();
                let from = (start.round().max(1.0) as usize).saturating_sub(1);
                let take = if len.is_finite() {
                    ((start.round() + len.round()).max(1.0) as usize).saturating_sub(from + 1)
                } else {
                    usize::MAX
                };
                let out: String = chars.into_iter().skip(from).take(take).collect();
                Ok(vec![GItem::Str(Rc::from(out.as_str()))])
            }
            "upper-case" | "lower-case" => {
                let s = arg(0, env)?;
                let text = s.first().map(|i| self.string(i)).unwrap_or_default();
                let out =
                    if name == "upper-case" { text.to_uppercase() } else { text.to_lowercase() };
                Ok(vec![GItem::Str(Rc::from(out.as_str()))])
            }
            "normalize-space" => {
                let s = arg(0, env)?;
                let text = s.first().map(|i| self.string(i)).unwrap_or_default();
                let out = text.split_whitespace().collect::<Vec<_>>().join(" ");
                Ok(vec![GItem::Str(Rc::from(out.as_str()))])
            }
            "string-join" => {
                let s = arg(0, env)?;
                let sep = if args.len() > 1 {
                    arg(1, env)?.first().map(|i| self.string(i)).unwrap_or_default()
                } else {
                    String::new()
                };
                let parts: Vec<String> = s.iter().map(|i| self.string(i)).collect();
                Ok(vec![GItem::Str(Rc::from(parts.join(&sep).as_str()))])
            }
            "abs" | "floor" | "ceiling" => {
                let s = arg(0, env)?;
                Ok(s.first()
                    .map(|i| {
                        let n = self.num(i);
                        GItem::Num(match name {
                            "abs" => n.abs(),
                            "floor" => n.floor(),
                            _ => n.ceil(),
                        })
                    })
                    .into_iter()
                    .collect())
            }
            "name" => {
                let s = arg(0, env)?;
                match s.first() {
                    Some(GItem::Node(n)) => {
                        Ok(self.doc.tag(*n).map(|t| GItem::Str(Rc::from(t))).into_iter().collect())
                    }
                    Some(GItem::Frag(f)) => Ok(vec![GItem::Str(Rc::from(f.tag.as_str()))]),
                    _ => Ok(vec![]),
                }
            }
            other => err(format!("unknown function {other}()")),
        }
    }

    fn string(&self, item: &GItem) -> String {
        match item {
            GItem::Str(s) => s.to_string(),
            GItem::Num(n) => {
                if n.fract() == 0.0 && n.abs() < 1e15 {
                    format!("{}", *n as i64)
                } else {
                    format!("{n}")
                }
            }
            GItem::Bool(b) => b.to_string(),
            GItem::Node(n) => self.doc.text_content(*n),
            GItem::Frag(f) => {
                let mut out = String::new();
                for c in &f.children {
                    for i in c {
                        out.push_str(&self.string(i));
                    }
                }
                out
            }
        }
    }

    fn num(&self, item: &GItem) -> f64 {
        match item {
            GItem::Num(n) => *n,
            GItem::Bool(b) => f64::from(*b),
            other => self.string(other).trim().parse().unwrap_or(f64::NAN),
        }
    }

    /// Serialize a result sequence.
    pub fn serialize(&self, seq: &GSeq) -> String {
        let mut out = String::new();
        let mut prev_atomic = false;
        for item in seq {
            let atomic = !matches!(item, GItem::Node(_) | GItem::Frag(_));
            if atomic && prev_atomic {
                out.push(' ');
            }
            self.serialize_item(item, &mut out);
            prev_atomic = atomic;
        }
        out
    }

    fn serialize_item(&self, item: &GItem, out: &mut String) {
        match item {
            GItem::Node(n) => self.doc.serialize_node(*n, out),
            GItem::Frag(f) => {
                out.push('<');
                out.push_str(&f.tag);
                for (n, v) in &f.attrs {
                    out.push(' ');
                    out.push_str(n);
                    out.push_str("=\"");
                    out.push_str(&xquec_xml::escape::escape_attr(v));
                    out.push('"');
                }
                if f.children.iter().all(|c| c.is_empty()) {
                    out.push_str("/>");
                    return;
                }
                out.push('>');
                for c in &f.children {
                    let mut prev_atomic = false;
                    for i in c {
                        let atomic = !matches!(i, GItem::Node(_) | GItem::Frag(_));
                        if atomic && prev_atomic {
                            out.push(' ');
                        }
                        self.serialize_item(i, out);
                        prev_atomic = atomic;
                    }
                }
                out.push_str("</");
                out.push_str(&f.tag);
                out.push('>');
            }
            other => out.push_str(&xquec_xml::escape::escape_text(&self.string(other))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const DOC: &str = r#"<site><people>
        <person id="p0"><name>Alice</name><age>31</age></person>
        <person id="p1"><name>Bob</name><age>27</age></person>
    </people></site>"#;

    #[test]
    fn basic_paths_and_flwor() {
        let g = GalaxEngine::load(DOC).unwrap();
        assert_eq!(g.run("/site/people/person/name/text()").unwrap(), "Alice Bob");
        assert_eq!(
            g.run(r#"for $p in /site/people/person where $p/@id = "p1" return $p/name/text()"#)
                .unwrap(),
            "Bob"
        );
        assert_eq!(g.run("count(//person)").unwrap(), "2");
        assert_eq!(g.run("sum(//age/text())").unwrap(), "58");
    }

    #[test]
    fn constructors() {
        let g = GalaxEngine::load(DOC).unwrap();
        let out = g
            .run(r#"for $p in //person return <p name=$p/name/text()/>"#)
            .unwrap();
        assert_eq!(out, r#"<p name="Alice"/><p name="Bob"/>"#);
    }

    #[test]
    fn memory_footprint_positive() {
        let g = GalaxEngine::load(DOC).unwrap();
        assert!(g.memory_footprint() > DOC.len() / 2);
    }
}
