//! The query evaluation engine (§4).
//!
//! Evaluation works directly over the compressed repository through the
//! paper's physical operators:
//!
//! * `StructureSummaryAccess` — the structural prefix of an absolute path is
//!   resolved entirely in the summary and answered from extents (document
//!   order for free);
//! * `Child` / `Parent` — structure-tree navigation;
//! * `ContAccess` — value predicates are pushed down to a binary-searched
//!   range over the value-ordered container, then mapped *bottom-up* to the
//!   loop variable through parent steps (the hybrid strategies of §2.1);
//! * `TextContent` — elements are paired with their values through the node
//!   records' value pointers;
//! * `HashJoin` — correlated FLWOR subqueries with an equality on container
//!   values are decorrelated into a hash join keyed on *compressed* bytes
//!   when both sides share a source model (the Q8/Q9 plan shape of Fig. 5);
//! * `Decompress` — placed implicitly at the last possible moment: wildcard
//!   matches, cross-model comparisons, and final serialization.
//!
//! [`ExecStats`] counts decompressions and compressed-domain comparisons so
//! tests and benchmarks can verify lazy decompression actually happens.
//!
//! Decompression is additionally *memoized*: a per-query cache maps a
//! container's compressed bytes to an interned `Rc<str>`, so each distinct
//! compressed value is decoded at most once per query however many operators
//! touch it, and inflated block containers sit in a capacity-bounded LRU
//! that survives across queries ([`Engine::with_block_cache_capacity`]).
//! Cache traffic is visible through [`ExecStats::cache_hits`] /
//! [`ExecStats::cache_misses`]; a hit does not count as a decompression.
//!
//! How values are owned on the per-row path:
//!
//! * A decoded value is an `Rc<str>` from the cache it is decoded into (the
//!   per-query memo, or a block container's shared `Rc<[Rc<str>]>` in the
//!   LRU) to the serializer, which escapes it straight into the output;
//!   `Item::Str` shares that `Rc` and no operator copies it into a `String`.
//! * The environment binds variable names borrowed from the query's AST,
//!   and a path rooted at `$v` or `.` reads the bound nodes in place.
//! * Constructed elements share their tag and attribute names with the AST.
//! * Plan details are borrowed text the recorder copies only when it creates
//!   a plan node (see [`super::plan`]).

use super::ast::*;
use super::parser::{parse, ParseError};
use super::plan::{Detail, OpStats, PlanRecorder, QueryPlan};
use super::profile::{QueryPhase, QueryProfile, PHASES};
use super::value::{Fragment, Item, Sequence};
use crate::container::{ContainerLeaf, ValueType};
use crate::ids::{ContainerId, ElemId, PathId, TagCode};
use crate::repo::Repository;
use crate::summary::PathKind;
use std::cell::{Cell, RefCell};
use std::collections::{HashMap, HashSet};
use std::fmt::Write as _;
use std::rc::Rc;
use std::sync::Arc;
use std::time::Instant;
use xquec_compress::ValueCodec;
use xquec_obs::json::{Json, ToJson};
use xquec_obs::{counter, span, Span};
use xquec_xml::escape::{escape_attr, escape_text};

/// Query-evaluation error.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryError {
    /// Description.
    pub message: String,
}

impl std::fmt::Display for QueryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "query error: {}", self.message)
    }
}

impl std::error::Error for QueryError {}

impl From<ParseError> for QueryError {
    fn from(e: ParseError) -> Self {
        QueryError { message: e.to_string() }
    }
}

impl From<crate::container::ContainerError> for QueryError {
    fn from(e: crate::container::ContainerError) -> Self {
        QueryError { message: e.to_string() }
    }
}

impl From<xquec_compress::CodecError> for QueryError {
    fn from(e: xquec_compress::CodecError) -> Self {
        QueryError { message: e.to_string() }
    }
}

fn err<T>(msg: impl Into<String>) -> Result<T, QueryError> {
    Err(QueryError { message: msg.into() })
}

/// Execution counters (lazy-decompression instrumentation).
///
/// Counter semantics: `decompressions` counts codec work only. A read
/// served from the per-query value memo or the cross-query block LRU
/// increments `cache_hits` and **not** `decompressions` — asserted by
/// `cache_hit_is_not_a_decompression` in the engine tests.
///
/// This is the engine's one counter set: per query in [`Engine::stats`],
/// accumulated in [`Engine::lifetime_stats`], and as per-operator deltas in
/// the plan's [`OpStats`].
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ExecStats {
    /// Values decompressed.
    pub decompressions: usize,
    /// Plaintext bytes produced by those decompressions.
    pub bytes_decompressed: usize,
    /// Equality comparisons resolved on compressed bytes.
    pub compressed_eq: usize,
    /// Order comparisons resolved on compressed bytes.
    pub compressed_cmp: usize,
    /// Reads served from the decompression caches (no codec work done).
    pub cache_hits: usize,
    /// Reads that had to decompress and then populated a cache.
    pub cache_misses: usize,
    /// Container-value fetches requested by operators (hit or miss).
    pub value_fetches: usize,
}

impl ExecStats {
    /// Fold `other` into `self`: every counter adds.
    pub fn merge(&mut self, other: &ExecStats) {
        self.decompressions += other.decompressions;
        self.bytes_decompressed += other.bytes_decompressed;
        self.compressed_eq += other.compressed_eq;
        self.compressed_cmp += other.compressed_cmp;
        self.cache_hits += other.cache_hits;
        self.cache_misses += other.cache_misses;
        self.value_fetches += other.value_fetches;
    }

    /// Counter-wise `self - earlier`: the work done since `earlier` was
    /// sampled (counters only grow within a query).
    pub(crate) fn since(&self, earlier: &ExecStats) -> ExecStats {
        ExecStats {
            decompressions: self.decompressions - earlier.decompressions,
            bytes_decompressed: self.bytes_decompressed - earlier.bytes_decompressed,
            compressed_eq: self.compressed_eq - earlier.compressed_eq,
            compressed_cmp: self.compressed_cmp - earlier.compressed_cmp,
            cache_hits: self.cache_hits - earlier.cache_hits,
            cache_misses: self.cache_misses - earlier.cache_misses,
            value_fetches: self.value_fetches - earlier.value_fetches,
        }
    }
}

impl std::fmt::Display for ExecStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "decompressions={} bytes_decompressed={} compressed_eq={} compressed_cmp={} \
             cache_hits={} cache_misses={} value_fetches={}",
            self.decompressions,
            self.bytes_decompressed,
            self.compressed_eq,
            self.compressed_cmp,
            self.cache_hits,
            self.cache_misses,
            self.value_fetches
        )
    }
}

impl ToJson for ExecStats {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("decompressions", self.decompressions.to_json()),
            ("bytes_decompressed", self.bytes_decompressed.to_json()),
            ("compressed_eq", self.compressed_eq.to_json()),
            ("compressed_cmp", self.compressed_cmp.to_json()),
            ("cache_hits", self.cache_hits.to_json()),
            ("cache_misses", self.cache_misses.to_json()),
            ("value_fetches", self.value_fetches.to_json()),
        ])
    }
}

/// Variable bindings, innermost last; names are borrowed from the AST.
type Env<'q> = Vec<(&'q str, Bound)>;

/// A variable's value. A `for` row binds a single item, which needs no
/// `Vec` of its own.
enum Bound {
    One(Item),
    Seq(Sequence),
}

impl Bound {
    fn items(&self) -> &[Item] {
        match self {
            Bound::One(item) => std::slice::from_ref(item),
            Bound::Seq(seq) => seq,
        }
    }
}

struct JoinIndex<'r> {
    rows: Vec<Item>,
    /// Rows by compressed key bytes, borrowed from the record arenas.
    by_bytes: HashMap<&'r [u8], Vec<u32>>,
    codec: Option<Arc<ValueCodec>>,
    by_str: RefCell<Option<HashMap<String, Vec<u32>>>>,
}

struct Ctx<'r> {
    join_cache: RefCell<HashMap<usize, Rc<JoinIndex<'r>>>>,
}

/// Inflated block containers retained by default (see
/// [`Engine::with_block_cache_capacity`]). Sized to hold every block
/// container of the evaluation documents at once — a scan query that
/// cycles through more containers than the capacity would otherwise
/// re-inflate all of them on every pass.
pub const DEFAULT_BLOCK_CACHE_CAPACITY: usize = 64;

/// The values of one inflated block container, in record order, shared by
/// the LRU and every item read from it.
type BlockValues = Rc<[Rc<str>]>;

/// LRU of wholesale-inflated block containers. `capacity` bounds how many
/// containers stay inflated; `0` disables retention entirely (every read
/// re-inflates, the literal XMill cost model).
struct BlockLru {
    capacity: usize,
    tick: u64,
    entries: HashMap<ContainerId, (BlockValues, u64)>,
}

impl BlockLru {
    fn new(capacity: usize) -> Self {
        BlockLru { capacity, tick: 0, entries: HashMap::new() }
    }

    fn get(&mut self, cid: ContainerId) -> Option<BlockValues> {
        self.tick += 1;
        let tick = self.tick;
        self.entries.get_mut(&cid).map(|e| {
            e.1 = tick;
            e.0.clone()
        })
    }

    fn insert(&mut self, cid: ContainerId, values: BlockValues) {
        if self.capacity == 0 {
            return;
        }
        if self.entries.len() >= self.capacity && !self.entries.contains_key(&cid) {
            if let Some(&evict) =
                self.entries.iter().min_by_key(|(_, (_, t))| *t).map(|(c, _)| c)
            {
                self.entries.remove(&evict);
            }
        }
        self.tick += 1;
        self.entries.insert(cid, (values, self.tick));
    }
}

/// The XQueC query engine over one repository.
pub struct Engine<'r> {
    repo: &'r Repository,
    /// Execution counters for the most recent run (per-query: reset at the
    /// start of every query after being folded into `lifetime`).
    pub stats: RefCell<ExecStats>,
    /// Engine-lifetime accumulation of every retired per-query [`ExecStats`].
    /// The block LRU survives across queries, so cross-query cache traffic
    /// is only visible here — resetting `stats` alone would silently drop
    /// it. Read through [`Engine::lifetime_stats`].
    lifetime: RefCell<ExecStats>,
    /// Decompressed block containers (an XMill-style container must be
    /// inflated wholesale the first time any of its values is touched).
    block_cache: RefCell<BlockLru>,
    /// Per-query memo: compressed bytes of an individual container record →
    /// interned plaintext. Cleared at the start of every query. Its keys are
    /// owned, not borrowed from the repository, because a `RefCell` holding
    /// `'r` would make `Engine` invariant in `'r`.
    value_cache: RefCell<HashMap<ContainerId, ValueMemo>>,
    /// Observed-physical-plan recorder for the current query (reset at every
    /// query start; read through [`Engine::last_plan`]).
    plan: RefCell<PlanRecorder>,
    /// Wall time of the most recent query's phases, in [`PHASES`] order.
    phase_nanos: Cell<[u64; 3]>,
    /// Set while [`Engine::profile`] runs: plan operators read the clock
    /// only then.
    timed: Cell<bool>,
}

/// Interned plaintexts of one container, keyed by compressed bytes.
type ValueMemo = HashMap<Box<[u8]>, Rc<str>>;

impl<'r> Engine<'r> {
    /// Build an engine. It allocates nothing per node: subtree ranges come
    /// from the repository's structure tree.
    pub fn new(repo: &'r Repository) -> Self {
        Self::with_block_cache_capacity(repo, DEFAULT_BLOCK_CACHE_CAPACITY)
    }

    /// Build an engine retaining at most `capacity` inflated block
    /// containers across queries (`0` = re-inflate on every touch).
    pub fn with_block_cache_capacity(repo: &'r Repository, capacity: usize) -> Self {
        Engine {
            repo,
            stats: RefCell::new(ExecStats::default()),
            lifetime: RefCell::new(ExecStats::default()),
            block_cache: RefCell::new(BlockLru::new(capacity)),
            value_cache: RefCell::new(HashMap::new()),
            plan: RefCell::new(PlanRecorder::default()),
            phase_nanos: Cell::new([0; 3]),
            timed: Cell::new(false),
        }
    }

    /// Fold the current per-query counters into the lifetime accumulator,
    /// publish them to the metrics registry, and reset them for the next
    /// query. Per-query `stats` resets therefore never lose information.
    fn retire_stats(&self) {
        let done = std::mem::take(&mut *self.stats.borrow_mut());
        counter!("query.exec.decompressions").add(done.decompressions as u64);
        counter!("query.exec.bytes_decompressed").add(done.bytes_decompressed as u64);
        counter!("query.exec.compressed_eq").add(done.compressed_eq as u64);
        counter!("query.exec.compressed_cmp").add(done.compressed_cmp as u64);
        counter!("query.exec.cache_hits").add(done.cache_hits as u64);
        counter!("query.exec.cache_misses").add(done.cache_misses as u64);
        counter!("query.exec.value_fetches").add(done.value_fetches as u64);
        self.lifetime.borrow_mut().merge(&done);
    }

    /// Counters accumulated across every query this engine has run,
    /// including the (not yet retired) current ones. Cross-query block-LRU
    /// traffic shows up here even after per-query resets.
    pub fn lifetime_stats(&self) -> ExecStats {
        let mut total = *self.lifetime.borrow();
        total.merge(&self.stats.borrow());
        total
    }

    // ---- plan recording -------------------------------------------------

    /// The observed physical plan of the most recent successfully evaluated
    /// query (empty before any query has run). Every operator carries its
    /// cardinalities and counter deltas; wall times are recorded only by
    /// [`Engine::profile`] and are zero after [`Engine::run`].
    pub fn last_plan(&self) -> QueryPlan {
        self.plan.borrow().snapshot()
    }

    /// Counters, and under [`Engine::profile`] the clock, at operator entry.
    fn mark(&self) -> (Option<Instant>, ExecStats) {
        (self.timed.get().then(Instant::now), *self.stats.borrow())
    }

    /// The cost of the work done since `mark`: the growth of every counter,
    /// and the wall time when the mark read the clock (zero otherwise).
    fn cost_since(&self, (start, base): (Option<Instant>, ExecStats)) -> OpStats {
        OpStats { nanos: start.map_or(0, elapsed_ns), counters: self.stats.borrow().since(&base) }
    }

    /// Run `f` under an open plan operator. The operator is closed whether
    /// `f` succeeds or fails (`rows_out = 0` on failure), so `?` inside `f`
    /// can never unbalance the recorder stack.
    fn traced<T>(
        &self,
        op: &'static str,
        detail: Detail<'_>,
        rows_in: usize,
        f: impl FnOnce() -> Result<T, QueryError>,
        rows_out: impl FnOnce(&T) -> usize,
    ) -> Result<T, QueryError> {
        let mark = self.mark();
        self.plan.borrow_mut().enter(op, detail, rows_in);
        let result = f();
        let rows = match &result {
            Ok(t) => rows_out(t),
            Err(_) => 0,
        };
        self.plan.borrow_mut().exit(rows, self.cost_since(mark));
        result
    }

    /// Record an already-finished leaf operator whose detail and presence
    /// are decided after its work (summary access, per-container pushdown
    /// ranges): the work since `mark` is attributed to it.
    fn op_leaf(
        &self,
        op: &'static str,
        detail: Detail<'_>,
        rows_in: usize,
        rows_out: usize,
        mark: (Option<Instant>, ExecStats),
    ) {
        let stats = self.cost_since(mark);
        let mut plan = self.plan.borrow_mut();
        plan.enter(op, detail, rows_in);
        plan.exit(rows_out, stats);
    }

    /// Run one pipeline phase under its `query.phase.*` span, opened by the
    /// caller, recording the span's time as phase `i` of [`PHASES`].
    fn phase<T>(&self, i: usize, span: Span, f: impl FnOnce() -> T) -> T {
        let out = f();
        let mut nanos = self.phase_nanos.get();
        nanos[i] = span.close();
        self.phase_nanos.set(nanos);
        out
    }

    /// Read one value of a block container, inflating the whole container on
    /// first touch (the deliberate cost of XMill-style storage).
    fn block_value(&self, cid: ContainerId, idx: u32) -> Result<Rc<str>, QueryError> {
        let fetch = |all: &BlockValues| -> Result<Rc<str>, QueryError> {
            all.get(idx as usize).cloned().ok_or_else(|| QueryError {
                message: format!("value {idx} out of range in container {}", cid.0),
            })
        };
        if let Some(all) = self.block_cache.borrow_mut().get(cid) {
            self.stats.borrow_mut().cache_hits += 1;
            return fetch(&all);
        }
        let c = self.repo.container(cid);
        {
            let mut st = self.stats.borrow_mut();
            st.cache_misses += 1;
            st.decompressions += c.len();
        }
        let all: BlockValues = c.decompress_all_with(|v| Rc::from(v))?.into();
        self.stats.borrow_mut().bytes_decompressed += all.iter().map(|v| v.len()).sum::<usize>();
        self.block_cache.borrow_mut().insert(cid, all.clone());
        fetch(&all)
    }

    /// Read one container value as plaintext, going through the block cache
    /// for block containers and the per-value memo otherwise.
    fn read_value(&self, cid: ContainerId, idx: u32) -> Result<Rc<str>, QueryError> {
        self.stats.borrow_mut().value_fetches += 1;
        let c = self.repo.container(cid);
        if c.is_individual() {
            self.decompress_interned(cid, self.comp_bytes(cid, idx)?)
        } else {
            self.block_value(cid, idx)
        }
    }

    /// Parse, evaluate and serialize a query.
    pub fn run(&self, query: &str) -> Result<String, QueryError> {
        let seq = self.eval_query(query)?;
        self.phase(2, span!("query.phase.serialize"), || {
            self.traced(
                "Serialize",
                Detail::Static(""),
                seq.len(),
                || {
                    let out = self.serialize(&seq)?;
                    let bytes = Detail::Fmt(format_args!("{} bytes", out.len()));
                    self.plan.borrow_mut().annotate_detail(bytes);
                    Ok(out)
                },
                |_| seq.len(),
            )
        })
    }

    /// Parse and evaluate a query, returning the raw sequence. Starts a new
    /// query: the previous one's counters retire into the lifetime totals,
    /// and its plan and phase times are discarded.
    pub fn eval_query(&self, query: &str) -> Result<Sequence, QueryError> {
        self.retire_stats();
        counter!("query.exec.queries").inc();
        self.value_cache.borrow_mut().clear();
        self.plan.borrow_mut().reset();
        self.phase_nanos.set([0; 3]);
        let ast = self.phase(0, span!("query.phase.parse"), || parse(query))?;
        let ctx = Ctx { join_cache: RefCell::new(HashMap::new()) };
        let mut env: Env = Vec::new();
        self.phase(1, span!("query.phase.execute"), || {
            self.traced(
                "Execute",
                Detail::Static(""),
                0,
                || self.eval(&ast, &mut env, &ctx),
                Vec::len,
            )
        })
    }

    /// [`Engine::run`] a query with every plan operator timed and return its
    /// [`QueryProfile`]: per-phase wall times, result shape, counters and
    /// the plan with inclusive and self time per operator — the
    /// `EXPLAIN ANALYZE` view is `profile(q)?.plan.render()`.
    pub fn profile(&self, query: &str) -> Result<QueryProfile, QueryError> {
        self.timed.set(true);
        let output = self.run(query);
        self.timed.set(false);
        let output = output?;
        let plan = self.last_plan();
        Ok(QueryProfile {
            query: query.to_owned(),
            phases: PHASES
                .iter()
                .zip(self.phase_nanos.get())
                .map(|(&name, nanos)| QueryPhase { name, nanos })
                .collect(),
            result_items: plan.roots.first().map_or(0, |execute| execute.rows_out),
            output_bytes: output.len(),
            stats: *self.stats.borrow(),
            plan,
        })
    }

    // ---- core evaluation ------------------------------------------------

    fn eval<'q>(
        &self,
        expr: &'q Expr,
        env: &mut Env<'q>,
        ctx: &Ctx<'r>,
    ) -> Result<Sequence, QueryError> {
        match expr {
            Expr::Str(s) => Ok(vec![Item::Str(Rc::from(s.as_str()))]),
            Expr::Num(n) => Ok(vec![Item::Num(*n)]),
            Expr::Var(v) => self.lookup(env, v).map(<[Item]>::to_vec),
            Expr::Seq(items) => {
                let mut out = Vec::new();
                for e in items {
                    out.extend(self.eval(e, env, ctx)?);
                }
                Ok(out)
            }
            Expr::Or(a, b) => {
                let l = self.ebv(a, env, ctx)?;
                Ok(vec![Item::Bool(l || self.ebv(b, env, ctx)?)])
            }
            Expr::And(a, b) => {
                let l = self.ebv(a, env, ctx)?;
                Ok(vec![Item::Bool(l && self.ebv(b, env, ctx)?)])
            }
            Expr::Cmp(op, a, b) => {
                let l = self.eval(a, env, ctx)?;
                let r = self.eval(b, env, ctx)?;
                Ok(vec![Item::Bool(self.general_compare(*op, &l, &r)?)])
            }
            Expr::Arith(op, a, b) => {
                let l = self.eval(a, env, ctx)?;
                let r = self.eval(b, env, ctx)?;
                if l.is_empty() || r.is_empty() {
                    return Ok(vec![]);
                }
                let x = self.num_value(&l[0])?;
                let y = self.num_value(&r[0])?;
                let v = match op {
                    ArithOp::Add => x + y,
                    ArithOp::Sub => x - y,
                    ArithOp::Mul => x * y,
                    ArithOp::Div => x / y,
                    ArithOp::Mod => x % y,
                };
                Ok(vec![Item::Num(v)])
            }
            Expr::Neg(e) => {
                let v = self.eval(e, env, ctx)?;
                if v.is_empty() {
                    return Ok(vec![]);
                }
                Ok(vec![Item::Num(-self.num_value(&v[0])?)])
            }
            Expr::If(c, t, e) => {
                if self.ebv(c, env, ctx)? {
                    self.eval(t, env, ctx)
                } else {
                    self.eval(e, env, ctx)
                }
            }
            Expr::Some { var, source, satisfies, every } => {
                let src = self.eval(source, env, ctx)?;
                for item in src {
                    env.push((var, Bound::One(item)));
                    let ok = self.ebv(satisfies, env, ctx);
                    env.pop();
                    if ok? != *every {
                        // some: first true wins; every: first false loses.
                        return Ok(vec![Item::Bool(!every)]);
                    }
                }
                Ok(vec![Item::Bool(*every)])
            }
            Expr::Union(a, b) => {
                let mut out = self.eval(a, env, ctx)?;
                out.extend(self.eval(b, env, ctx)?);
                // Node union: document order with duplicates removed; other
                // items keep their order of appearance.
                if out.iter().all(|i| matches!(i, Item::Node(_))) {
                    let mut nodes: Vec<ElemId> = out
                        .iter()
                        .map(|i| match i {
                            Item::Node(n) => *n,
                            _ => unreachable!(),
                        })
                        .collect();
                    nodes.sort();
                    nodes.dedup();
                    out = nodes.into_iter().map(Item::Node).collect();
                }
                Ok(out)
            }
            Expr::Call(name, args) => self.call(name, args, env, ctx),
            Expr::Elem(ctor) => {
                let mut attrs = Vec::with_capacity(ctor.attrs.len());
                for (n, e) in &ctor.attrs {
                    attrs.push((Rc::clone(n), self.eval(e, env, ctx)?));
                }
                let mut children = Vec::with_capacity(ctor.children.len());
                for e in &ctor.children {
                    children.push(self.eval(e, env, ctx)?);
                }
                let tag = Rc::clone(&ctor.tag);
                Ok(vec![Item::Tree(Rc::new(Fragment { tag, attrs, children }))])
            }
            Expr::Path(p) => self.eval_path(p, env, ctx),
            Expr::Flwor(clauses, ret) => {
                self.eval_flwor(expr as *const Expr as usize, clauses, ret, env, ctx)
            }
        }
    }

    fn lookup<'e>(&self, env: &'e Env, var: &str) -> Result<&'e [Item], QueryError> {
        env.iter()
            .rev()
            .find(|(n, _)| *n == var)
            .map(|(_, b)| b.items())
            .ok_or_else(|| QueryError { message: format!("unbound variable ${var}") })
    }

    fn ebv<'q>(
        &self,
        expr: &'q Expr,
        env: &mut Env<'q>,
        ctx: &Ctx<'r>,
    ) -> Result<bool, QueryError> {
        let seq = self.eval(expr, env, ctx)?;
        self.effective_boolean(&seq)
    }

    // ---- FLWOR ------------------------------------------------------------

    fn eval_flwor<'q>(
        &self,
        key: usize,
        clauses: &'q [Clause],
        ret: &'q Expr,
        env: &mut Env<'q>,
        ctx: &Ctx<'r>,
    ) -> Result<Sequence, QueryError> {
        // Hash-join decorrelation for the Q8/Q9 pattern.
        if let Some(out) = self.try_hash_join(key, clauses, ret, env, ctx)? {
            return Ok(out);
        }
        let order: Option<(&'q Expr, bool)> = clauses.iter().find_map(|c| match c {
            Clause::OrderBy(e, desc) => Some((e, *desc)),
            _ => None,
        });
        let consumed = RefCell::new(HashSet::new());
        let mut rows: Vec<(Option<Rc<str>>, Sequence)> = Vec::new();
        self.flwor_rec(clauses, 0, ret, order.map(|(e, _)| e), env, ctx, &consumed, &mut rows)?;
        if let Some((_, desc)) = order {
            let n = rows.len();
            self.traced(
                "Sort",
                Detail::Static(if desc { "descending" } else { "ascending" }),
                n,
                || {
                    rows.sort_by(|a, b| {
                        let cmp = compare_order_keys(a.0.as_deref(), b.0.as_deref());
                        if desc {
                            cmp.reverse()
                        } else {
                            cmp
                        }
                    });
                    Ok(n)
                },
                |out| *out,
            )?;
        }
        Ok(rows.into_iter().flat_map(|(_, s)| s).collect())
    }

    #[allow(clippy::too_many_arguments)]
    fn flwor_rec<'q>(
        &self,
        clauses: &'q [Clause],
        idx: usize,
        ret: &'q Expr,
        order_key: Option<&'q Expr>,
        env: &mut Env<'q>,
        ctx: &Ctx<'r>,
        consumed: &RefCell<HashSet<usize>>,
        rows: &mut Vec<(Option<Rc<str>>, Sequence)>,
    ) -> Result<(), QueryError> {
        if idx == clauses.len() {
            let key = match order_key {
                Some(e) => {
                    let k = self.eval(e, env, ctx)?;
                    Some(match k.first() {
                        Some(i) => self.text_value(i)?,
                        None => Rc::from(""),
                    })
                }
                None => None,
            };
            let val = self.eval(ret, env, ctx)?;
            rows.push((key, val));
            return Ok(());
        }
        match &clauses[idx] {
            // The loop runs under its own `For` operator: the source, any
            // pushed-down conjuncts and every per-row operator nest beneath
            // it (rows: bindings in -> FLWOR rows out).
            Clause::For(v, src) => self.traced(
                "For",
                Detail::Prefixed("$", v),
                0,
                || {
                    let mut seq = self.eval(src, env, ctx)?;
                    // Index pushdown: apply indexable Where conjuncts that
                    // constrain this variable before iterating.
                    if seq.iter().all(|i| matches!(i, Item::Node(_))) {
                        let mut nodes: Vec<ElemId> = seq
                            .iter()
                            .map(|i| match i {
                                Item::Node(n) => *n,
                                _ => unreachable!(),
                            })
                            .collect();
                        for clause in &clauses[idx + 1..] {
                            let Clause::Where(w) = clause else { continue };
                            for conj in conjuncts(w) {
                                if consumed.borrow().contains(&(conj as *const Expr as usize)) {
                                    continue;
                                }
                                if let Some(filtered) = self.try_index_conjunct(&nodes, v, conj)? {
                                    nodes = filtered;
                                    consumed.borrow_mut().insert(conj as *const Expr as usize);
                                }
                            }
                        }
                        seq = nodes.into_iter().map(Item::Node).collect();
                    }
                    self.plan.borrow_mut().annotate_rows(seq.len());
                    let before = rows.len();
                    for item in seq {
                        env.push((v, Bound::One(item)));
                        let r = self
                            .flwor_rec(clauses, idx + 1, ret, order_key, env, ctx, consumed, rows);
                        env.pop();
                        r?;
                    }
                    Ok(rows.len() - before)
                },
                |n| *n,
            )
            .map(drop),
            Clause::Let(v, src) => {
                let seq = self.eval(src, env, ctx)?;
                env.push((v, Bound::Seq(seq)));
                let r = self.flwor_rec(clauses, idx + 1, ret, order_key, env, ctx, consumed, rows);
                env.pop();
                r
            }
            Clause::Where(w) => {
                if !self.where_holds(w, env, ctx, consumed)? {
                    return Ok(());
                }
                self.flwor_rec(clauses, idx + 1, ret, order_key, env, ctx, consumed, rows)
            }
            Clause::OrderBy(..) => {
                self.flwor_rec(clauses, idx + 1, ret, order_key, env, ctx, consumed, rows)
            }
        }
    }

    /// Evaluate a `where` clause's conjuncts left to right, each under its
    /// own `Predicate` operator, stopping at the first false one; conjuncts
    /// already answered by index pushdown are skipped.
    fn where_holds<'q>(
        &self,
        w: &'q Expr,
        env: &mut Env<'q>,
        ctx: &Ctx<'r>,
        consumed: &RefCell<HashSet<usize>>,
    ) -> Result<bool, QueryError> {
        if let Expr::And(a, b) = w {
            return Ok(self.where_holds(a, env, ctx, consumed)?
                && self.where_holds(b, env, ctx, consumed)?);
        }
        if consumed.borrow().contains(&(w as *const Expr as usize)) {
            return Ok(true);
        }
        self.traced(
            "Predicate",
            Detail::Static("where"),
            1,
            || self.ebv(w, env, ctx),
            |b| usize::from(*b),
        )
    }

    // ---- hash-join decorrelation ---------------------------------------

    /// Detect `for $t in <independent path> … where <$t-path> = <outer expr>`
    /// and evaluate it as a hash join: the inner side is materialized and
    /// indexed once (cached across re-evaluations of this sub-FLWOR), keyed
    /// on compressed bytes when possible.
    fn try_hash_join<'q>(
        &self,
        key: usize,
        clauses: &'q [Clause],
        ret: &'q Expr,
        env: &mut Env<'q>,
        ctx: &Ctx<'r>,
    ) -> Result<Option<Sequence>, QueryError> {
        let Some(Clause::For(v2, src2)) = clauses.first() else { return Ok(None) };
        if !matches!(src2, Expr::Path(PathExpr { root: PathRoot::Document, .. })) {
            return Ok(None);
        }
        // Find the correlated equality conjunct: one side depends only on
        // $v2 (the inner key), the other references an outer binding.
        let mut join: Option<(&Expr, &Expr, &Expr)> = None; // (conjunct, inner side, outer side)
        'outer: for clause in &clauses[1..] {
            let Clause::Where(w) = clause else { continue };
            for conj in conjuncts(w) {
                let Expr::Cmp(CmpOp::Eq, a, b) = conj else { continue };
                let inner_ok = |e: &Expr| refs_var(e, v2) && !refs_any_free(e, v2);
                let outer_ok = |e: &Expr| !refs_var(e, v2) && refs_env(e, env);
                if inner_ok(a) && outer_ok(b) {
                    join = Some((conj, a, b));
                    break 'outer;
                }
                if inner_ok(b) && outer_ok(a) {
                    join = Some((conj, b, a));
                    break 'outer;
                }
            }
        }
        let Some((conj, inner_side, outer_side)) = join else { return Ok(None) };

        // The index is built on the first probe; later probes enter the
        // operator with its final detail.
        let cached = ctx.join_cache.borrow().get(&key).cloned();
        let out = self.traced(
            "HashJoin",
            compressed_keys(cached.as_ref().map(|i| i.codec.is_some())),
            0,
            || {
                let index = match cached {
                    Some(i) => i,
                    None => {
                        // The key operators the build runs nest under it.
                        let built = self.traced(
                            "JoinIndexBuild",
                            compressed_keys(None),
                            0,
                            || {
                                let built = self.build_join_index(src2, v2, inner_side, ctx)?;
                                let keys = compressed_keys(Some(built.codec.is_some()));
                                self.plan.borrow_mut().annotate_detail(keys);
                                Ok(built)
                            },
                            |built| built.rows.len(),
                        )?;
                        let rc = Rc::new(built);
                        ctx.join_cache.borrow_mut().insert(key, rc.clone());
                        rc
                    }
                };

                // Probe with the outer side under the current environment.
                let probe_keys = self.eval(outer_side, env, ctx)?;
                let mut match_rows: Vec<u32> = Vec::new();
                for pk in &probe_keys {
                    self.probe_join_index(&index, pk, &mut match_rows)?;
                }
                match_rows.sort_unstable();
                match_rows.dedup();
                {
                    let mut plan = self.plan.borrow_mut();
                    plan.annotate_rows(match_rows.len());
                    plan.annotate_detail(compressed_keys(Some(index.codec.is_some())));
                }

                // Evaluate the remaining clauses + return for every matching row.
                let consumed = RefCell::new(HashSet::new());
                consumed.borrow_mut().insert(conj as *const Expr as usize);
                let mut rows: Vec<(Option<Rc<str>>, Sequence)> = Vec::new();
                for &ri in &match_rows {
                    env.push((v2, Bound::One(index.rows[ri as usize].clone())));
                    let r =
                        self.flwor_rec(&clauses[1..], 0, ret, None, env, ctx, &consumed, &mut rows);
                    env.pop();
                    r?;
                }
                Ok(rows.into_iter().flat_map(|(_, s)| s).collect::<Sequence>())
            },
            Vec::len,
        )?;
        Ok(Some(out))
    }

    fn build_join_index<'q>(
        &self,
        src: &'q Expr,
        var: &'q str,
        key_expr: &'q Expr,
        ctx: &Ctx<'r>,
    ) -> Result<JoinIndex<'r>, QueryError> {
        let mut env: Env = Vec::new();
        let items = self.eval(src, &mut env, ctx)?;
        // First pass: gather raw key items per row.
        let mut rows = Vec::with_capacity(items.len());
        let mut keyed: Vec<(u32, Item)> = Vec::new();
        let mut codec: Option<Arc<ValueCodec>> = None;
        let mut uniform = true;
        for item in items {
            env.push((var, Bound::One(item.clone())));
            let keys = self.eval(key_expr, &mut env, ctx)?;
            env.pop();
            let row = rows.len() as u32;
            rows.push(item);
            for k in self.atomize_all(&keys)? {
                if let Item::Comp { container, .. } = &k {
                    let c = self.repo.container(*container).codec().clone();
                    match &codec {
                        None => codec = Some(c),
                        Some(prev) if Arc::ptr_eq(prev, &c) => {}
                        _ => uniform = false,
                    }
                } else {
                    uniform = false;
                }
                keyed.push((row, k));
            }
        }
        if uniform && codec.is_some() {
            // All keys come from one source model: index compressed bytes.
            let mut by_bytes: HashMap<&[u8], Vec<u32>> = HashMap::new();
            for (row, k) in keyed {
                let Item::Comp { container, index } = k else { unreachable!("uniform") };
                by_bytes.entry(self.comp_bytes(container, index)?).or_default().push(row);
            }
            return Ok(JoinIndex { rows, by_bytes, codec, by_str: RefCell::new(None) });
        }
        // Mixed key sources: index decompressed strings.
        let mut by_str: HashMap<String, Vec<u32>> = HashMap::new();
        for (row, k) in keyed {
            by_str.entry(self.string_value(&k)?).or_default().push(row);
        }
        Ok(JoinIndex {
            rows,
            by_bytes: HashMap::new(),
            codec: None,
            by_str: RefCell::new(Some(by_str)),
        })
    }

    fn probe_join_index(
        &self,
        index: &JoinIndex<'r>,
        probe: &Item,
        out: &mut Vec<u32>,
    ) -> Result<(), QueryError> {
        for atom in self.atomize_all(std::slice::from_ref(probe))? {
            match (&atom, &index.codec) {
                (&Item::Comp { container, index: idx }, Some(codec))
                    if Arc::ptr_eq(self.repo.container(container).codec(), codec) =>
                {
                    // Same source model: probe on compressed bytes.
                    self.stats.borrow_mut().compressed_eq += 1;
                    if let Some(rows) = index.by_bytes.get(self.comp_bytes(container, idx)?) {
                        out.extend(rows.iter().copied());
                    }
                }
                _ => {
                    // Fall back to a lazily built decompressed-key index.
                    let s = self.string_value(&atom)?;
                    let mut by_str = index.by_str.borrow_mut();
                    if by_str.is_none() {
                        let mut m: HashMap<String, Vec<u32>> = HashMap::new();
                        if let Some(codec) = &index.codec {
                            for (k, rows) in &index.by_bytes {
                                let raw = codec.decompress(k)?;
                                {
                                    let mut st = self.stats.borrow_mut();
                                    st.decompressions += 1;
                                    st.bytes_decompressed += raw.len();
                                }
                                let plain = String::from_utf8_lossy(&raw).into_owned();
                                m.entry(plain).or_default().extend(rows.iter().copied());
                            }
                        }
                        *by_str = Some(m);
                    }
                    if let Some(rows) = by_str.as_ref().expect("just built").get(&s) {
                        out.extend(rows.iter().copied());
                    }
                }
            }
        }
        Ok(())
    }

    // ---- paths ------------------------------------------------------------

    fn eval_path<'q>(
        &self,
        p: &'q PathExpr,
        env: &mut Env<'q>,
        ctx: &Ctx<'r>,
    ) -> Result<Sequence, QueryError> {
        let var = match &p.root {
            PathRoot::Document => return self.eval_absolute_path(&p.steps, env, ctx),
            PathRoot::Var(v) => v.as_str(),
            PathRoot::Context => ".",
        };
        // Read the bound nodes in place; a single bound node (every `for`
        // row) needs no node list at all.
        let bound = self.lookup(env, var)?;
        if let [Item::Node(n)] = bound {
            let n = *n;
            return self.apply_steps(&[n], &p.steps, env, ctx);
        }
        let mut nodes = Vec::with_capacity(bound.len());
        for i in bound {
            match i {
                Item::Node(n) => nodes.push(*n),
                _ => return err("path step applied to a non-node item"),
            }
        }
        self.apply_steps(&nodes, &p.steps, env, ctx)
    }

    /// Absolute path: resolve the structural prefix in the summary
    /// (`StructureSummaryAccess`), then navigate the rest per node.
    fn eval_absolute_path<'q>(
        &self,
        steps: &'q [Step],
        env: &mut Env<'q>,
        ctx: &Ctx<'r>,
    ) -> Result<Sequence, QueryError> {
        let mark = self.mark();
        let mut spaths: Vec<PathId> = vec![self.repo.summary.root()];
        let mut i = 0usize;
        while i < steps.len() {
            let step = &steps[i];
            if !step.predicates.is_empty() {
                break;
            }
            let next: Vec<PathId> = match (&step.axis, &step.test) {
                (Axis::Child, NodeTest::Tag(t)) => {
                    let Some(code) = self.repo.dict.code(t) else {
                        return Ok(vec![]); // tag absent from the document
                    };
                    spaths
                        .iter()
                        .filter_map(|&p| self.repo.summary.child_element(p, code))
                        .collect()
                }
                (Axis::Child, NodeTest::AnyElement) => spaths
                    .iter()
                    .flat_map(|&p| {
                        self.repo.summary.node(p).children.iter().copied().filter(|&c| {
                            matches!(self.repo.summary.node(c).kind, PathKind::Element(_))
                        })
                    })
                    .collect(),
                (Axis::Descendant, NodeTest::Tag(t)) => {
                    let Some(code) = self.repo.dict.code(t) else { return Ok(vec![]) };
                    let mut v: Vec<PathId> = spaths
                        .iter()
                        .flat_map(|&p| self.repo.summary.descendant_elements(p, code))
                        .collect();
                    v.sort();
                    v.dedup();
                    v
                }
                _ => break, // value test / parent axis: handled from extents
            };
            if next.is_empty() {
                return Ok(vec![]);
            }
            spaths = next;
            i += 1;
        }
        // Materialize extents (merged in document order).
        let mut nodes: Vec<ElemId> = Vec::new();
        for &p in &spaths {
            if matches!(self.repo.summary.node(p).kind, PathKind::Root) {
                // Virtual root: its "extent" is the document root element.
                if let Some(r) = self.repo.root() {
                    nodes.push(r);
                }
            } else {
                nodes.extend(self.repo.summary.node(p).extent.iter().copied());
            }
        }
        nodes.sort();
        nodes.dedup();
        if i > 0 {
            self.op_leaf(
                "StructureSummaryAccess",
                Detail::Fmt(format_args!("paths={} steps={}", spaths.len(), i)),
                0,
                nodes.len(),
                mark,
            );
        }
        self.apply_steps(&nodes, &steps[i..], env, ctx)
    }

    /// Apply steps to a node set, node-navigation style.
    fn apply_steps<'q>(
        &self,
        input: &[ElemId],
        steps: &'q [Step],
        env: &mut Env<'q>,
        ctx: &Ctx<'r>,
    ) -> Result<Sequence, QueryError> {
        let mut nodes = input;
        let mut owned: Vec<ElemId>;
        for (si, step) in steps.iter().enumerate() {
            let last = si + 1 == steps.len();
            match &step.test {
                NodeTest::Text => {
                    if !last {
                        return err("text() must be the final step");
                    }
                    return self.traced(
                        "TextContent",
                        Detail::Static("text()"),
                        nodes.len(),
                        || {
                            let mut out = Vec::new();
                            self.values_of(nodes, None, &mut out)?;
                            Ok(out)
                        },
                        Vec::len,
                    );
                }
                NodeTest::Attr(name) => {
                    if !last {
                        return err("attribute step must be the final step");
                    }
                    let Some(code) = self.repo.dict.code(name) else { return Ok(vec![]) };
                    return self.traced(
                        "TextContent",
                        Detail::Prefixed("@", name),
                        nodes.len(),
                        || {
                            let mut out = Vec::new();
                            self.values_of(nodes, Some(code), &mut out)?;
                            Ok(out)
                        },
                        Vec::len,
                    );
                }
                NodeTest::Tag(_) | NodeTest::AnyElement => {
                    let next = self.traced(
                        "StructureNav",
                        step_detail(step),
                        nodes.len(),
                        || self.element_step(nodes, step, env, ctx),
                        Vec::len,
                    )?;
                    if next.is_empty() {
                        return Ok(vec![]);
                    }
                    owned = next;
                    nodes = &owned;
                }
            }
        }
        Ok(nodes.iter().map(|&n| Item::Node(n)).collect())
    }

    /// `TextContent`: pair elements with their values through value refs,
    /// appending the values to `out`.
    fn values_of(
        &self,
        nodes: &[ElemId],
        attr: Option<TagCode>,
        out: &mut Sequence,
    ) -> Result<(), QueryError> {
        for &n in nodes {
            for vr in self.repo.tree.values(n) {
                let c = self.repo.container(vr.container);
                let keep = match (attr, c.leaf) {
                    (None, ContainerLeaf::Text) => true,
                    (Some(a), ContainerLeaf::Attribute(t)) => a == t,
                    _ => false,
                };
                if keep {
                    if c.is_individual() {
                        out.push(Item::Comp { container: vr.container, index: vr.index });
                    } else {
                        // Block container: whole-container decompression.
                        out.push(Item::Str(self.block_value(vr.container, vr.index)?));
                    }
                }
            }
        }
        Ok(())
    }

    fn element_step<'q>(
        &self,
        input: &[ElemId],
        step: &'q Step,
        env: &mut Env<'q>,
        ctx: &Ctx<'r>,
    ) -> Result<Vec<ElemId>, QueryError> {
        let tag = match &step.test {
            NodeTest::Tag(t) => match self.repo.dict.code(t) {
                Some(c) => Some(c),
                None => return Ok(vec![]),
            },
            NodeTest::AnyElement => None,
            _ => unreachable!("value tests handled by caller"),
        };
        // Each input node's matches are appended to `out`, where positional
        // predicates then narrow them down in place.
        let mut out: Vec<ElemId> = Vec::new();
        for &n in input {
            let start = out.len();
            match step.axis {
                Axis::Child => out.extend(self.repo.tree.children(n, tag)),
                Axis::Descendant => out.extend(self.descendants_via_summary(n, tag)),
                Axis::Parent => out.extend(
                    self.repo
                        .tree
                        .parent(n)
                        .filter(|&p| tag.is_none_or(|t| self.repo.tree.tag(p) == t)),
                ),
            }
            for pred in &step.predicates {
                let keep = match pred {
                    StepPredicate::Position(k) => usize::try_from(*k)
                        .ok()
                        .filter(|&k| k >= 1 && k <= out.len() - start)
                        .map(|k| out[start + k - 1]),
                    StepPredicate::Last => out[start..].last().copied(),
                    StepPredicate::Filter(_) => continue,
                };
                out.truncate(start);
                out.extend(keep);
            }
        }
        out.sort();
        out.dedup();
        // Boolean filters, with the ContAccess pushdown attempt first.
        for pred in &step.predicates {
            let StepPredicate::Filter(f) = pred else { continue };
            if let Some(filtered) = self.try_filter_index(&out, f)? {
                out = filtered;
                continue;
            }
            let rows_in = out.len();
            out = self.traced(
                "Predicate",
                Detail::Static("scan"),
                rows_in,
                || {
                    let mut kept = Vec::with_capacity(out.len());
                    for &c in &out {
                        env.push((".", Bound::One(Item::Node(c))));
                        let ok = self.ebv(f, env, ctx);
                        env.pop();
                        if ok? {
                            kept.push(c);
                        }
                    }
                    Ok(kept)
                },
                Vec::len,
            )?;
        }
        Ok(out)
    }

    /// Descendant step through the summary: find matching descendant paths,
    /// then binary-search each extent for the subtree id range — no tree
    /// walk (the §2.3 Q14 access pattern).
    fn descendants_via_summary(&self, n: ElemId, tag: Option<TagCode>) -> Vec<ElemId> {
        let end = self.repo.tree.subtree_end(n).0;
        let mut out = Vec::new();
        match tag {
            Some(code) => {
                let p = self.repo.tree.path(n);
                for s in self.repo.summary.descendant_elements(p, code) {
                    let extent = &self.repo.summary.node(s).extent;
                    let lo = extent.partition_point(|&e| e <= n);
                    let hi = extent.partition_point(|&e| e.0 <= end);
                    out.extend(extent[lo..hi].iter().copied());
                }
                out.sort();
                out.dedup();
            }
            None => out = self.repo.tree.descendants(n).collect(),
        }
        out
    }

    // ---- ContAccess pushdown --------------------------------------------

    /// Try to answer a step filter `[relpath op const]` via container ranges.
    /// `Ok(None)` means "not indexable, fall back to a scan".
    fn try_filter_index(
        &self,
        candidates: &[ElemId],
        filter: &Expr,
    ) -> Result<Option<Vec<ElemId>>, QueryError> {
        let Some((op, rel, konst)) = split_cmp_const(filter) else { return Ok(None) };
        let PathExpr { root: PathRoot::Context, steps } = rel else { return Ok(None) };
        self.index_candidates(candidates, steps, op, konst)
    }

    /// Try to answer a FLWOR conjunct `$v/relpath op const` via container
    /// ranges, filtering the node set bound to `$v`.
    fn try_index_conjunct(
        &self,
        candidates: &[ElemId],
        var: &str,
        conj: &Expr,
    ) -> Result<Option<Vec<ElemId>>, QueryError> {
        let Some((op, rel, konst)) = split_cmp_const(conj) else { return Ok(None) };
        match &rel.root {
            PathRoot::Var(v) if v == var => {}
            _ => return Ok(None),
        }
        self.index_candidates(candidates, &rel.steps, op, konst)
    }

    fn index_candidates(
        &self,
        candidates: &[ElemId],
        rel_steps: &[Step],
        op: CmpOp,
        konst: &Expr,
    ) -> Result<Option<Vec<ElemId>>, QueryError> {
        if candidates.is_empty() {
            return Ok(Some(vec![]));
        }
        if op == CmpOp::Ne {
            return Ok(None); // != is not a range
        }
        // Relative path must be structural child steps ending in a value test.
        let Some(split) = rel_steps.len().checked_sub(1) else { return Ok(None) };
        let (elem_steps, value_test) = rel_steps.split_at(split);
        let value_test = &value_test[0];
        if rel_steps.iter().any(|s| !s.predicates.is_empty() || s.axis != Axis::Child) {
            return Ok(None);
        }
        if elem_steps.iter().any(|s| !matches!(s.test, NodeTest::Tag(_))) {
            return Ok(None);
        }
        // Resolve the candidates' summary paths down the relative steps.
        let mut cpaths: Vec<PathId> = candidates.iter().map(|&c| self.repo.tree.path(c)).collect();
        cpaths.sort();
        cpaths.dedup();
        let mut leafs: Vec<PathId> = Vec::new();
        for mut p in cpaths {
            let mut ok = true;
            for s in elem_steps {
                let NodeTest::Tag(t) = &s.test else { return Ok(None) };
                let Some(code) = self.repo.dict.code(t) else { return Ok(None) };
                match self.repo.summary.child_element(p, code) {
                    Some(next) => p = next,
                    None => {
                        ok = false;
                        break;
                    }
                }
            }
            if !ok {
                continue;
            }
            let leaf = match &value_test.test {
                NodeTest::Text => self
                    .repo
                    .summary
                    .node(p)
                    .children
                    .iter()
                    .copied()
                    .find(|&c| self.repo.summary.node(c).kind == PathKind::Text),
                NodeTest::Attr(a) => {
                    let Some(code) = self.repo.dict.code(a) else { return Ok(None) };
                    self.repo
                        .summary
                        .node(p)
                        .children
                        .iter()
                        .copied()
                        .find(|&c| self.repo.summary.node(c).kind == PathKind::Attribute(code))
                }
                _ => return Ok(None),
            };
            if let Some(l) = leaf {
                leafs.push(l);
            }
        }
        let up = elem_steps.len();
        let mut hits: HashSet<ElemId> = HashSet::new();
        for leaf in leafs {
            let Some(cid) = self.repo.summary.node(leaf).container else { return Ok(None) };
            let c = self.repo.container(cid);
            if !c.is_individual() {
                return Ok(None);
            }
            let Some(bound) = self.bound_string(c, konst) else { return Ok(None) };
            let mark = self.mark();
            let range = match op {
                CmpOp::Eq => c.equal_range(bound.as_bytes())?,
                CmpOp::Lt => 0..c.lower_bound(bound.as_bytes())?,
                CmpOp::Le => 0..c.upper_bound(bound.as_bytes())?,
                CmpOp::Gt => c.upper_bound(bound.as_bytes())?..c.len() as u32,
                CmpOp::Ge => c.lower_bound(bound.as_bytes())?..c.len() as u32,
                CmpOp::Ne => return Ok(None),
            };
            let range_len = range.len();
            for idx in range {
                let mut owner = c.parent_of(idx);
                for _ in 0..up {
                    match self.repo.tree.parent(owner) {
                        Some(p) => owner = p,
                        None => return Ok(None),
                    }
                }
                hits.insert(owner);
            }
            self.op_leaf(
                "ContAccess",
                Detail::Fmt(format_args!(
                    "{} {} {bound:?}",
                    self.repo.container_path(cid),
                    op.as_str()
                )),
                candidates.len(),
                range_len,
                mark,
            );
        }
        Ok(Some(candidates.iter().copied().filter(|c| hits.contains(c)).collect()))
    }

    /// Render a constant for binary search in `c`'s value order; `None` when
    /// the constant cannot be represented exactly (falls back to scans).
    fn bound_string(&self, c: &crate::container::Container, konst: &Expr) -> Option<String> {
        match (konst, c.vtype) {
            (Expr::Str(s), ValueType::Str) => Some(s.clone()),
            (Expr::Num(n), ValueType::Int) => {
                (n.fract() == 0.0).then(|| format!("{}", *n as i64))
            }
            (Expr::Num(n), ValueType::Decimal(s)) => {
                let scaled = n * 10f64.powi(s as i32);
                (scaled.fract().abs() < 1e-9).then(|| format!("{:.*}", s as usize, n))
            }
            (Expr::Str(s), ValueType::Int | ValueType::Decimal(_)) => {
                // A string constant against a numeric container: accept it
                // only if it is already in canonical numeric form.
                let n: f64 = s.parse().ok()?;
                self.bound_string(c, &Expr::Num(n))
            }
            (Expr::Num(n), ValueType::Str) => Some(format_number(*n)),
            _ => None,
        }
    }

    // ---- comparisons ------------------------------------------------------

    /// General (existential) comparison.
    fn general_compare(&self, op: CmpOp, l: &Sequence, r: &Sequence) -> Result<bool, QueryError> {
        let la = self.atomize_all(l)?;
        let ra = self.atomize_all(r)?;
        for a in &la {
            for b in &ra {
                if self.compare_pair(op, a, b)? {
                    return Ok(true);
                }
            }
        }
        Ok(false)
    }

    /// Atomization: nodes become their (still compressed) text values.
    fn atomize_all(&self, seq: &[Item]) -> Result<Sequence, QueryError> {
        let mut out = Vec::with_capacity(seq.len());
        for item in seq {
            match item {
                Item::Node(n) => {
                    let start = out.len();
                    self.values_of(std::slice::from_ref(n), None, &mut out)?;
                    if out.len() == start {
                        out.push(Item::Str(Rc::from(self.string_value(item)?)));
                    }
                }
                Item::Tree(_) => out.push(Item::Str(Rc::from(self.string_value(item)?))),
                other => out.push(other.clone()),
            }
        }
        Ok(out)
    }

    fn compare_pair(&self, op: CmpOp, a: &Item, b: &Item) -> Result<bool, QueryError> {
        use std::cmp::Ordering;
        let ord_ok = |ord: Ordering| match op {
            CmpOp::Eq => ord == Ordering::Equal,
            CmpOp::Ne => ord != Ordering::Equal,
            CmpOp::Lt => ord == Ordering::Less,
            CmpOp::Le => ord != Ordering::Greater,
            CmpOp::Gt => ord == Ordering::Greater,
            CmpOp::Ge => ord != Ordering::Less,
        };
        // Numeric comparison when either side is a number.
        if matches!(a, Item::Num(_)) || matches!(b, Item::Num(_)) {
            // Number vs numeric container value: compare compressed.
            let (num, comp, flipped) = match (a, b) {
                (Item::Num(n), &Item::Comp { container, index }) => {
                    (*n, Some((container, index)), true)
                }
                (&Item::Comp { container, index }, Item::Num(n)) => {
                    (*n, Some((container, index)), false)
                }
                _ => (0.0, None, false),
            };
            if let Some((cid, idx)) = comp {
                let c = self.repo.container(cid);
                if c.vtype != ValueType::Str && c.is_individual() {
                    if let Some(bound) = self.bound_string(c, &Expr::Num(num)) {
                        if let Some(cb) = c.codec().compress(bound.as_bytes()) {
                            let bytes = self.comp_bytes(cid, idx)?;
                            if let Some(ord) = c.codec().cmp_compressed(bytes, &cb)? {
                                self.stats.borrow_mut().compressed_cmp += 1;
                                let ord = if flipped { ord.reverse() } else { ord };
                                return Ok(ord_ok(ord));
                            }
                        }
                    }
                }
            }
            let x = self.num_value(a)?;
            let y = self.num_value(b)?;
            if x.is_nan() || y.is_nan() {
                return Ok(false);
            }
            return Ok(ord_ok(x.partial_cmp(&y).expect("no NaN")));
        }
        // Boolean comparison.
        if matches!(a, Item::Bool(_)) || matches!(b, Item::Bool(_)) {
            let x = self.effective_boolean(std::slice::from_ref(a))?;
            let y = self.effective_boolean(std::slice::from_ref(b))?;
            return Ok(ord_ok(x.cmp(&y)));
        }
        // String-ish comparisons — the compressed-domain cases of §2.1.
        match (a, b) {
            (
                &Item::Comp { container: ca, index: ia },
                &Item::Comp { container: cb, index: ib },
            ) => {
                let cca = self.repo.container(ca).codec();
                let ccb = self.repo.container(cb).codec();
                if Arc::ptr_eq(cca, ccb) {
                    let (ba, bb) = (self.comp_bytes(ca, ia)?, self.comp_bytes(cb, ib)?);
                    if matches!(op, CmpOp::Eq | CmpOp::Ne) {
                        self.stats.borrow_mut().compressed_eq += 1;
                        return Ok(ord_ok(ba.cmp(bb)));
                    }
                    if let Some(ord) = cca.cmp_compressed(ba, bb)? {
                        self.stats.borrow_mut().compressed_cmp += 1;
                        return Ok(ord_ok(ord));
                    }
                }
                let x = self.string_value(a)?;
                let y = self.string_value(b)?;
                Ok(ord_ok(x.cmp(&y)))
            }
            (&Item::Comp { container, index }, Item::Str(s))
            | (Item::Str(s), &Item::Comp { container, index }) => {
                let flipped = matches!(a, Item::Str(_));
                let c = self.repo.container(container);
                if c.is_individual() {
                    if let Some(cb) = c.codec().compress(s.as_bytes()) {
                        let bytes = self.comp_bytes(container, index)?;
                        if matches!(op, CmpOp::Eq | CmpOp::Ne) {
                            self.stats.borrow_mut().compressed_eq += 1;
                            let ord = bytes.cmp(cb.as_slice());
                            let ord = if flipped { ord.reverse() } else { ord };
                            return Ok(ord_ok(ord));
                        }
                        if let Some(ord) = c.codec().cmp_compressed(bytes, &cb)? {
                            self.stats.borrow_mut().compressed_cmp += 1;
                            let ord = if flipped { ord.reverse() } else { ord };
                            return Ok(ord_ok(ord));
                        }
                    }
                }
                let x = self.string_value(a)?;
                let y = self.string_value(b)?;
                Ok(ord_ok(x.cmp(&y)))
            }
            _ => {
                let x = self.string_value(a)?;
                let y = self.string_value(b)?;
                Ok(ord_ok(x.cmp(&y)))
            }
        }
    }

    // ---- functions ----------------------------------------------------

    fn call<'q>(
        &self,
        name: &str,
        args: &'q [Expr],
        env: &mut Env<'q>,
        ctx: &Ctx<'r>,
    ) -> Result<Sequence, QueryError> {
        let eval_arg = |n: usize, env: &mut Env<'q>| -> Result<Sequence, QueryError> {
            args.get(n)
                .map(|e| self.eval(e, env, ctx))
                .unwrap_or_else(|| err(format!("{name}() missing argument {n}")))
        };
        match name {
            "document" | "doc" => {
                // Single-document engine: document(*) is the root.
                Ok(self.repo.root().map(Item::Node).into_iter().collect())
            }
            "count" => {
                let s = eval_arg(0, env)?;
                Ok(vec![Item::Num(s.len() as f64)])
            }
            "sum" | "avg" | "min" | "max" => {
                let s = eval_arg(0, env)?;
                let mut nums: Vec<f64> = Vec::new();
                for i in self.atomize_all(&s)? {
                    nums.push(self.num_value(&i)?);
                }
                if nums.is_empty() {
                    return Ok(if name == "sum" { vec![Item::Num(0.0)] } else { vec![] });
                }
                let v = match name {
                    "sum" => nums.iter().sum(),
                    "avg" => nums.iter().sum::<f64>() / nums.len() as f64,
                    "min" => nums.iter().copied().fold(f64::INFINITY, f64::min),
                    _ => nums.iter().copied().fold(f64::NEG_INFINITY, f64::max),
                };
                Ok(vec![Item::Num(v)])
            }
            "not" => {
                let s = eval_arg(0, env)?;
                Ok(vec![Item::Bool(!self.effective_boolean(&s)?)])
            }
            "empty" => {
                let s = eval_arg(0, env)?;
                Ok(vec![Item::Bool(s.is_empty())])
            }
            "exists" => {
                let s = eval_arg(0, env)?;
                Ok(vec![Item::Bool(!s.is_empty())])
            }
            "contains" => {
                let hay = eval_arg(0, env)?;
                let needle = eval_arg(1, env)?;
                let n = match needle.first() {
                    Some(i) => self.string_value(i)?,
                    None => String::new(),
                };
                // Substring match requires plaintext (§2.1: wildcard
                // operations decompress).
                let mut found = false;
                for h in &hay {
                    if self.string_value(h)?.contains(&n) {
                        found = true;
                        break;
                    }
                }
                Ok(vec![Item::Bool(found)])
            }
            "starts-with" => {
                let s = eval_arg(0, env)?;
                let p = eval_arg(1, env)?;
                let prefix = match p.first() {
                    Some(i) => self.string_value(i)?,
                    None => String::new(),
                };
                let atoms = self.atomize_all(&s)?;
                let Some(first) = atoms.first() else { return Ok(vec![Item::Bool(false)]) };
                // Prefix match in the compressed domain when supported
                // (Huffman's `wild` property).
                if let &Item::Comp { container, index } = first {
                    let c = self.repo.container(container);
                    let bytes = self.comp_bytes(container, index)?;
                    if let Some(m) = c.codec().prefix_match(bytes, prefix.as_bytes()) {
                        self.stats.borrow_mut().compressed_cmp += 1;
                        return Ok(vec![Item::Bool(m)]);
                    }
                }
                Ok(vec![Item::Bool(self.string_value(first)?.starts_with(&prefix))])
            }
            "zero-or-one" => {
                let s = eval_arg(0, env)?;
                if s.len() > 1 {
                    return err("zero-or-one() with more than one item");
                }
                Ok(s)
            }
            "string" => {
                let s = eval_arg(0, env)?;
                Ok(match s.first() {
                    Some(i) => vec![Item::Str(Rc::from(self.string_value(i)?.as_str()))],
                    None => vec![],
                })
            }
            "number" => {
                let s = eval_arg(0, env)?;
                let v = match s.first() {
                    Some(i) => self.num_value(i)?,
                    None => f64::NAN,
                };
                Ok(vec![Item::Num(v)])
            }
            "string-length" => {
                let s = eval_arg(0, env)?;
                let len = match s.first() {
                    Some(i) => self.string_value(i)?.chars().count(),
                    None => 0,
                };
                Ok(vec![Item::Num(len as f64)])
            }
            "concat" => {
                let mut out = String::new();
                for i in 0..args.len() {
                    let s = eval_arg(i, env)?;
                    if let Some(item) = s.first() {
                        out.push_str(&self.string_value(item)?);
                    }
                }
                Ok(vec![Item::Str(Rc::from(out.as_str()))])
            }
            "round" => {
                let s = eval_arg(0, env)?;
                Ok(match s.first() {
                    Some(i) => vec![Item::Num(self.num_value(i)?.round())],
                    None => vec![],
                })
            }
            "distinct-values" => {
                let s = eval_arg(0, env)?;
                let atoms = self.atomize_all(&s)?;
                // Pass 1: deduplicate compressed values on their bytes —
                // identical strings from one source model compress
                // identically, so no decompression is needed yet.
                let mut seen_bytes: HashSet<(ContainerId, &[u8])> = HashSet::new();
                let mut survivors: Vec<Item> = Vec::new();
                let mut sources: HashSet<ContainerId> = HashSet::new();
                let mut any_plain = false;
                for item in atoms {
                    match &item {
                        &Item::Comp { container, index } => {
                            sources.insert(container);
                            if seen_bytes.insert((container, self.comp_bytes(container, index)?)) {
                                survivors.push(item);
                            }
                        }
                        other => {
                            any_plain = true;
                            survivors.push(other.clone());
                        }
                    }
                }
                if sources.len() <= 1 && !any_plain {
                    return Ok(survivors);
                }
                // Pass 2: values drawn from several models (or mixed with
                // plain strings) must be compared decompressed — but only
                // one decompression per *distinct* compressed value.
                let mut seen_str: HashSet<String> = HashSet::new();
                let mut out = Vec::new();
                for item in survivors {
                    if seen_str.insert(self.string_value(&item)?) {
                        out.push(item);
                    }
                }
                Ok(out)
            }
            "substring" => {
                let s = eval_arg(0, env)?;
                let text = match s.first() {
                    Some(i) => self.string_value(i)?,
                    None => String::new(),
                };
                let start = match eval_arg(1, env)?.first() {
                    Some(i) => self.num_value(i)?,
                    None => 1.0,
                };
                let len = if args.len() > 2 {
                    match eval_arg(2, env)?.first() {
                        Some(i) => self.num_value(i)?,
                        None => 0.0,
                    }
                } else {
                    f64::INFINITY
                };
                let chars: Vec<char> = text.chars().collect();
                let from = (start.round().max(1.0) as usize).saturating_sub(1);
                let take = if len.is_finite() {
                    // XPath: positions in [round(start), round(start)+round(len)).
                    ((start.round() + len.round()).max(1.0) as usize).saturating_sub(from + 1)
                } else {
                    usize::MAX
                };
                let out: String = chars.into_iter().skip(from).take(take).collect();
                Ok(vec![Item::Str(Rc::from(out.as_str()))])
            }
            "upper-case" | "lower-case" => {
                let s = eval_arg(0, env)?;
                let text = match s.first() {
                    Some(i) => self.string_value(i)?,
                    None => String::new(),
                };
                let out =
                    if name == "upper-case" { text.to_uppercase() } else { text.to_lowercase() };
                Ok(vec![Item::Str(Rc::from(out.as_str()))])
            }
            "normalize-space" => {
                let s = eval_arg(0, env)?;
                let text = match s.first() {
                    Some(i) => self.string_value(i)?,
                    None => String::new(),
                };
                let out = text.split_whitespace().collect::<Vec<_>>().join(" ");
                Ok(vec![Item::Str(Rc::from(out.as_str()))])
            }
            "string-join" => {
                let s = eval_arg(0, env)?;
                let sep = if args.len() > 1 {
                    match eval_arg(1, env)?.first() {
                        Some(i) => self.string_value(i)?,
                        None => String::new(),
                    }
                } else {
                    String::new()
                };
                let mut parts: Vec<String> = Vec::with_capacity(s.len());
                for i in &s {
                    parts.push(self.string_value(i)?);
                }
                Ok(vec![Item::Str(Rc::from(parts.join(&sep).as_str()))])
            }
            "abs" | "floor" | "ceiling" => {
                let s = eval_arg(0, env)?;
                Ok(match s.first() {
                    Some(i) => {
                        let n = self.num_value(i)?;
                        vec![Item::Num(match name {
                            "abs" => n.abs(),
                            "floor" => n.floor(),
                            _ => n.ceil(),
                        })]
                    }
                    None => vec![],
                })
            }
            "name" => {
                let s = eval_arg(0, env)?;
                match s.first() {
                    Some(Item::Node(n)) => Ok(vec![Item::Str(Rc::from(
                        self.repo.dict.name(self.repo.tree.tag(*n)),
                    ))]),
                    Some(Item::Tree(t)) => Ok(vec![Item::Str(Rc::clone(&t.tag))]),
                    _ => Ok(vec![]),
                }
            }
            other => err(format!("unknown function {other}()")),
        }
    }

    // ---- string/number views -------------------------------------------

    /// The compressed bytes of an individual container's record, borrowed
    /// from the container's record arena.
    fn comp_bytes(&self, container: ContainerId, index: u32) -> Result<&'r [u8], QueryError> {
        Ok(self.repo.container(container).compressed(index)?)
    }

    /// The plaintext of a compressed item (a counted fetch, memoized per
    /// query).
    fn comp_value(&self, container: ContainerId, index: u32) -> Result<Rc<str>, QueryError> {
        self.stats.borrow_mut().value_fetches += 1;
        self.decompress_interned(container, self.comp_bytes(container, index)?)
    }

    /// Decompress a container value through the per-query memo: each
    /// distinct compressed byte string decodes at most once per query, and
    /// repeated readers share one interned `Rc<str>`. Only a miss counts as
    /// a decompression.
    fn decompress_interned(
        &self,
        container: ContainerId,
        bytes: &[u8],
    ) -> Result<Rc<str>, QueryError> {
        if let Some(hit) = self
            .value_cache
            .borrow()
            .get(&container)
            .and_then(|m| m.get(bytes))
            .cloned()
        {
            self.stats.borrow_mut().cache_hits += 1;
            return Ok(hit);
        }
        {
            let mut st = self.stats.borrow_mut();
            st.cache_misses += 1;
            st.decompressions += 1;
        }
        let raw = self.repo.container(container).codec().decompress(bytes)?;
        self.stats.borrow_mut().bytes_decompressed += raw.len();
        let plain: Rc<str> = Rc::from(String::from_utf8_lossy(&raw).into_owned());
        self.value_cache
            .borrow_mut()
            .entry(container)
            .or_default()
            .insert(bytes.into(), plain.clone());
        Ok(plain)
    }

    /// Effective boolean value of a sequence (XPath rules, simplified to the
    /// types we have).
    fn effective_boolean(&self, seq: &[Item]) -> Result<bool, QueryError> {
        Ok(match seq {
            [] => false,
            [Item::Bool(b)] => *b,
            [Item::Num(n)] => *n != 0.0 && !n.is_nan(),
            [Item::Str(s)] => !s.is_empty(),
            // Untyped value: true unless it encodes the empty string. An
            // empty value compresses to empty bytes under the dictionary and
            // identity codecs; bit-level codecs emit a small header for "",
            // making this a (documented, rare) approximation.
            [Item::Comp { container, index }] => !self.comp_bytes(*container, *index)?.is_empty(),
            [Item::Node(_) | Item::Tree(_)] | [_, _, ..] => true,
        })
    }

    /// The XPath string value of an item.
    pub fn string_value(&self, item: &Item) -> Result<String, QueryError> {
        Ok(match item {
            Item::Str(s) => s.to_string(),
            Item::Num(n) => format_number(*n),
            Item::Bool(b) => b.to_string(),
            Item::Comp { container, index } => self.comp_value(*container, *index)?.to_string(),
            Item::Node(n) => {
                let mut out = String::new();
                self.node_text(*n, &mut out)?;
                out
            }
            Item::Tree(f) => {
                let mut out = String::new();
                self.fragment_text(f, &mut out)?;
                out
            }
        })
    }

    /// The string value of an item as a shared string: strings and
    /// decompressed values are shared, not copied.
    fn text_value(&self, item: &Item) -> Result<Rc<str>, QueryError> {
        match item {
            Item::Str(s) => Ok(Rc::clone(s)),
            Item::Comp { container, index } => self.comp_value(*container, *index),
            other => Ok(Rc::from(self.string_value(other)?)),
        }
    }

    fn node_text(&self, n: ElemId, out: &mut String) -> Result<(), QueryError> {
        for vr in self.repo.tree.values(n) {
            let c = self.repo.container(vr.container);
            if matches!(c.leaf, ContainerLeaf::Text) {
                out.push_str(&self.read_value(vr.container, vr.index)?);
            }
        }
        for child in self.repo.tree.children(n, None) {
            self.node_text(child, out)?;
        }
        Ok(())
    }

    fn fragment_text(&self, f: &Fragment, out: &mut String) -> Result<(), QueryError> {
        for child in &f.children {
            for item in child {
                match item {
                    Item::Tree(t) => self.fragment_text(t, out)?,
                    Item::Node(n) => self.node_text(*n, out)?,
                    other => out.push_str(&self.string_value(other)?),
                }
            }
        }
        Ok(())
    }

    /// Numeric value of an item (NaN when not a number).
    pub fn num_value(&self, item: &Item) -> Result<f64, QueryError> {
        Ok(match item {
            Item::Num(n) => *n,
            Item::Bool(b) => f64::from(*b),
            other => self.string_value(other)?.trim().parse().unwrap_or(f64::NAN),
        })
    }

    // ---- serialization (XMLSerialize + final Decompress) ----------------

    /// Serialize a result sequence to XML text.
    pub fn serialize(&self, seq: &Sequence) -> Result<String, QueryError> {
        let mut out = String::new();
        let mut prev_atomic = false;
        for item in seq {
            let atomic = !item.is_node();
            if atomic && prev_atomic {
                out.push(' ');
            }
            self.serialize_item(item, &mut out)?;
            prev_atomic = atomic;
        }
        Ok(out)
    }

    fn serialize_item(&self, item: &Item, out: &mut String) -> Result<(), QueryError> {
        match item {
            Item::Node(n) => self.serialize_element(*n, out)?,
            Item::Tree(f) => self.serialize_fragment(f, out)?,
            Item::Str(s) => out.push_str(&escape_text(s)),
            Item::Comp { container, index } => {
                out.push_str(&escape_text(&self.comp_value(*container, *index)?))
            }
            other => out.push_str(&escape_text(&self.string_value(other)?)),
        }
        Ok(())
    }

    /// Reconstruct an element subtree from the compressed repository.
    pub fn serialize_element(&self, n: ElemId, out: &mut String) -> Result<(), QueryError> {
        let tag = self.repo.dict.name(self.repo.tree.tag(n));
        out.push('<');
        out.push_str(tag);
        let mut texts: Vec<Rc<str>> = Vec::new();
        for vr in self.repo.tree.values(n) {
            let c = self.repo.container(vr.container);
            match c.leaf {
                ContainerLeaf::Attribute(code) => {
                    let _ = write!(
                        out,
                        " {}=\"{}\"",
                        self.repo.dict.name(code),
                        escape_attr(&self.read_value(vr.container, vr.index)?)
                    );
                }
                ContainerLeaf::Text => {
                    texts.push(self.read_value(vr.container, vr.index)?);
                }
            }
        }
        if texts.is_empty() && self.repo.tree.children(n, None).next().is_none() {
            out.push_str("/>");
            return Ok(());
        }
        out.push('>');
        for t in &texts {
            out.push_str(&escape_text(t));
        }
        for c in self.repo.tree.children(n, None) {
            self.serialize_element(c, out)?;
        }
        out.push_str("</");
        out.push_str(tag);
        out.push('>');
        Ok(())
    }

    fn serialize_fragment(&self, f: &Fragment, out: &mut String) -> Result<(), QueryError> {
        out.push('<');
        out.push_str(&f.tag);
        for (name, value) in &f.attrs {
            let _ = write!(out, " {name}=\"");
            for (i, item) in value.iter().enumerate() {
                if i > 0 {
                    out.push(' ');
                }
                out.push_str(&escape_attr(&self.text_value(item)?));
            }
            out.push('"');
        }
        if f.children.iter().all(|c| c.is_empty()) {
            out.push_str("/>");
            return Ok(());
        }
        out.push('>');
        for child in &f.children {
            let mut prev_atomic = false;
            for item in child {
                let atomic = !item.is_node();
                if atomic && prev_atomic {
                    out.push(' ');
                }
                self.serialize_item(item, out)?;
                prev_atomic = atomic;
            }
        }
        out.push_str("</");
        out.push_str(&f.tag);
        out.push('>');
        Ok(())
    }
}

/// Flush the never-retired counters of the last query into the registry so
/// engine teardown does not lose the tail of the instrumentation.
impl Drop for Engine<'_> {
    fn drop(&mut self) {
        self.retire_stats();
    }
}

// ---- helpers -------------------------------------------------------------

/// Nanoseconds since `start`, saturating.
fn elapsed_ns(start: Instant) -> u64 {
    start.elapsed().as_nanos().min(u64::MAX as u128) as u64
}

/// `axis::test` detail of an element step (deterministic for a given query,
/// so golden explain tests can compare it verbatim).
fn step_detail(step: &Step) -> Detail<'_> {
    let (prefix, any) = match step.axis {
        Axis::Child => ("child::", "child::*"),
        Axis::Descendant => ("descendant::", "descendant::*"),
        Axis::Parent => ("parent::", "parent::*"),
    };
    match &step.test {
        NodeTest::Tag(t) => Detail::Prefixed(prefix, t),
        NodeTest::AnyElement => Detail::Static(any),
        NodeTest::Text | NodeTest::Attr(_) => unreachable!("value tests run as TextContent"),
    }
}

/// Hash-join detail: whether the index is keyed on compressed bytes, empty
/// until the index exists.
fn compressed_keys(compressed: Option<bool>) -> Detail<'static> {
    Detail::Static(match compressed {
        Some(true) => "compressed_keys=true",
        Some(false) => "compressed_keys=false",
        None => "",
    })
}

/// Split an `and`-tree into conjuncts.
fn conjuncts(e: &Expr) -> Vec<&Expr> {
    match e {
        Expr::And(a, b) => {
            let mut v = conjuncts(a);
            v.extend(conjuncts(b));
            v
        }
        other => vec![other],
    }
}

/// Decompose `path op const` (either orientation) for index pushdown.
fn split_cmp_const(e: &Expr) -> Option<(CmpOp, &PathExpr, &Expr)> {
    let Expr::Cmp(op, l, r) = e else { return None };
    match (&**l, &**r) {
        (Expr::Path(p), k @ (Expr::Str(_) | Expr::Num(_))) => Some((*op, p, k)),
        (k @ (Expr::Str(_) | Expr::Num(_)), Expr::Path(p)) => Some((op.flip(), p, k)),
        _ => None,
    }
}

/// Does the expression reference the given variable?
fn refs_var(e: &Expr, var: &str) -> bool {
    let mut found = false;
    walk(e, &mut |x| {
        match x {
            Expr::Var(v) if v == var => found = true,
            Expr::Path(PathExpr { root: PathRoot::Var(v), .. }) if v == var => found = true,
            _ => {}
        }
    });
    found
}

/// Does the expression reference any variable currently bound in `env`?
fn refs_env(e: &Expr, env: &Env) -> bool {
    let mut found = false;
    walk(e, &mut |x| {
        let name = match x {
            Expr::Var(v) => Some(v),
            Expr::Path(PathExpr { root: PathRoot::Var(v), .. }) => Some(v),
            _ => None,
        };
        if let Some(v) = name {
            if env.iter().any(|(n, _)| *n == v) {
                found = true;
            }
        }
    });
    found
}

/// Does the expression reference any free variable other than `var`?
fn refs_any_free(e: &Expr, var: &str) -> bool {
    let mut found = false;
    walk(e, &mut |x| {
        let name = match x {
            Expr::Var(v) => Some(v),
            Expr::Path(PathExpr { root: PathRoot::Var(v), .. }) => Some(v),
            _ => None,
        };
        if let Some(v) = name {
            if v != var {
                found = true;
            }
        }
    });
    found
}

fn walk(e: &Expr, f: &mut impl FnMut(&Expr)) {
    f(e);
    match e {
        Expr::Flwor(clauses, ret) => {
            for c in clauses {
                match c {
                    Clause::For(_, x) | Clause::Let(_, x) | Clause::Where(x) => walk(x, f),
                    Clause::OrderBy(x, _) => walk(x, f),
                }
            }
            walk(ret, f);
        }
        Expr::If(a, b, c) => {
            walk(a, f);
            walk(b, f);
            walk(c, f);
        }
        Expr::Some { source, satisfies, .. } => {
            walk(source, f);
            walk(satisfies, f);
        }
        Expr::Or(a, b)
        | Expr::And(a, b)
        | Expr::Cmp(_, a, b)
        | Expr::Arith(_, a, b)
        | Expr::Union(a, b) => {
            walk(a, f);
            walk(b, f);
        }
        Expr::Neg(a) => walk(a, f),
        Expr::Call(_, args) | Expr::Seq(args) => {
            for a in args {
                walk(a, f);
            }
        }
        Expr::Elem(c) => {
            for (_, a) in &c.attrs {
                walk(a, f);
            }
            for ch in &c.children {
                walk(ch, f);
            }
        }
        Expr::Path(p) => {
            for s in &p.steps {
                for pred in &s.predicates {
                    if let StepPredicate::Filter(x) = pred {
                        walk(x, f);
                    }
                }
            }
        }
        Expr::Var(_) | Expr::Str(_) | Expr::Num(_) => {}
    }
}

/// XPath-style number formatting (integers without a decimal point).
fn format_number(n: f64) -> String {
    if n.fract() == 0.0 && n.abs() < 1e15 {
        format!("{}", n as i64)
    } else {
        format!("{n}")
    }
}

fn compare_order_keys(a: Option<&str>, b: Option<&str>) -> std::cmp::Ordering {
    match (a, b) {
        (Some(x), Some(y)) => match (x.parse::<f64>(), y.parse::<f64>()) {
            (Ok(nx), Ok(ny)) => nx.partial_cmp(&ny).unwrap_or(std::cmp::Ordering::Equal),
            _ => x.cmp(y),
        },
        (None, None) => std::cmp::Ordering::Equal,
        (None, _) => std::cmp::Ordering::Less,
        (_, None) => std::cmp::Ordering::Greater,
    }
}
