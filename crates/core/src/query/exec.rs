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
//!   when both sides share a source model (the Q8/Q9 plan shape of Fig. 5),
//!   and probed once per clause with all of the clause's outer rows;
//! * `Decompress` — placed implicitly at the last possible moment: wildcard
//!   matches, cross-model comparisons, and final serialization. The
//!   serializer decodes each value it writes straight from the container's
//!   record arena into one reused buffer and escapes it from there into the
//!   output.
//!
//! [`ExecStats`] counts decompressions and compressed-domain comparisons so
//! tests and benchmarks can verify lazy decompression actually happens.
//!
//! Every container value an operator reads goes through one counted read,
//! `Engine::with_value`, whichever operator asks (`TextContent`,
//! atomization, comparisons, string functions, order keys, join keys or the
//! serializer), and counts one [`ExecStats::value_fetches`]. An individual
//! record is decoded again on every read: one decompression each. Inflated
//! block containers sit in a bounded LRU that survives across queries, the
//! engine's one cache: [`ExecStats::cache_hits`] /
//! [`ExecStats::cache_misses`] count its touches only, and a hit does not
//! count as a decompression.
//!
//! How values are owned on the per-row path:
//!
//! * An individual record is decoded into the engine's one decode buffer
//!   and validated as UTF-8 in place (a lossy copy only when it is not).
//!   Readers that only look at the text — the serializer, numbers,
//!   `contains`, `starts-with`, `string-length`, a node's string value —
//!   borrow it from there; readers that keep it (`string()`, order keys,
//!   join keys) copy it once into an `Rc<str>` or a `String`.
//! * A block container's value is the LRU's shared `Rc<str>`: `TextContent`
//!   puts a clone of it in an `Item::Str`, and the other readers borrow it.
//! * The environment binds variable names borrowed from the query's AST,
//!   and a path rooted at `$v` or `.` reads the bound nodes in place.
//! * A `for` loop's clauses run a clause at a time over all its rows, and a
//!   row-local path of the loop variable, or a join FLWOR, runs once per
//!   clause for all of them (set-at-a-time, as in MonetDB/X100); a row
//!   reads its slice of the result (`RowBatch`).
//! * Constructed elements share their tag and attribute names with the AST,
//!   and their content is one flat sequence the child expressions
//!   evaluate into; a constructor directly in another's content is an
//!   entry of the outer one's fragment, not a fragment of its own.
//! * Plan details are borrowed text the recorder copies only when it creates
//!   a plan node (see [`super::plan`]).

use super::ast::*;
use super::parser::{parse, ParseError};
use super::plan::{Detail, OpStats, PlanRecorder, QueryPlan};
use super::profile::{QueryPhase, QueryProfile, PHASES};
use super::value::{Fragment, Item, Nested, Sequence};
use crate::container::{ContainerLeaf, ValueType};
use crate::ids::{ContainerId, ElemId, PathId, TagCode};
use crate::repo::Repository;
use crate::summary::PathKind;
use std::cell::{Cell, RefCell};
use std::collections::{HashMap, HashSet};
use std::rc::Rc;
use std::sync::Arc;
use std::time::Instant;
use xquec_compress::ValueCodec;
use xquec_obs::json::{Json, ToJson};
use xquec_obs::{counter, span, Span};
use xquec_xml::escape::escape_into;

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
/// Counter semantics: every container-value read counts one
/// `value_fetches`. `decompressions` counts codec work only: one per
/// individual record read, and a block container's values when it is
/// inflated. `cache_hits` and `cache_misses` count touches of the block
/// cache only; a hit is not a decompression. So `cache_hits + cache_misses
/// <= value_fetches`, and a query that reads no block container decodes
/// each value it fetches: `decompressions == value_fetches`.
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
    /// Block-container reads served from the block cache (no codec work
    /// done).
    pub cache_hits: usize,
    /// Block-container reads that inflated the container into the cache.
    pub cache_misses: usize,
    /// Container values read by operators, individual or block.
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
type Env<'q> = Vec<(&'q str, Bound<'q>)>;

/// A variable's value. A single item needs no `Vec` of its own.
enum Bound<'q> {
    One(Item),
    Seq(Sequence),
    /// Row `i` of a `for` loop: the batch's `items[i]`.
    Row(Rc<RowBatch<'q>>, u32),
}

impl Bound<'_> {
    fn items(&self) -> &[Item] {
        match self {
            Bound::One(item) => std::slice::from_ref(item),
            Bound::Seq(seq) => seq,
            Bound::Row(batch, i) => std::slice::from_ref(&batch.items[*i as usize]),
        }
    }
}

/// The rows of one `for` loop (or of a hash join's matches), and the
/// row-local paths and join FLWORs of the clause being evaluated over them.
///
/// A row-local path is rooted at the loop variable and takes child,
/// descendant or parent element steps with at most positional predicates
/// (no boolean filter), optionally ending in `text()` or `@attr`
/// ([`is_row_local`]). When a clause runs over two or more rows, the first
/// row that reads one evaluates it for every row of the clause at once,
/// each row one row of context nodes for `Engine::steps_over_rows`: one
/// `StructureNav` per step and one `TextContent`, each over the whole
/// batch. A FLWOR that `Engine::hash_join` decorrelates is evaluated for
/// every row of the clause before the first row runs: one `HashJoin` per
/// clause. Every row of the clause reaches every such path and join exactly
/// once, so the operators see the same nodes as a row-at-a-time evaluation
/// would, and do the same work.
struct RowBatch<'q> {
    /// The loop variable's item in each row.
    items: Vec<Item>,
    clause: RefCell<ClauseBatch<'q>>,
}

#[derive(Default)]
struct ClauseBatch<'q> {
    /// The rows (indices into `items`, ascending) that evaluate the clause.
    rows: Vec<u32>,
    /// The clause's row-local paths no row has read yet.
    pending: Vec<&'q PathExpr>,
    /// The paths read so far and the clause's joins, by address: row `i`'s
    /// items are `items[starts[i]..starts[i + 1]]`, with `starts` one longer
    /// than the batch; rows outside the clause have empty slices.
    done: Vec<(usize, Sequence, Vec<u32>)>,
}

impl ClauseBatch<'_> {
    /// Append row `row`'s items of the done path or join at address `key`
    /// to `out`; false when the clause has none.
    fn read(&self, key: usize, row: u32, out: &mut Sequence) -> bool {
        let Some((_, items, starts)) = self.done.iter().find(|d| d.0 == key) else { return false };
        let row = row as usize;
        out.extend_from_slice(&items[starts[row] as usize..starts[row + 1] as usize]);
        true
    }
}

/// The rows of a batch as the clauses after its `for` see them.
struct Rows<'q> {
    /// The variable each row binds, if any.
    var: Option<&'q str>,
    /// `var` when every row binds a node: its row-local paths are batched.
    nodes: Option<&'q str>,
    batch: Rc<RowBatch<'q>>,
    /// Each `let` so far, with its value in every row.
    lets: Vec<(&'q str, Vec<Sequence>)>,
}

impl<'q> Rows<'q> {
    fn new(var: Option<&'q str>, items: Vec<Item>) -> Self {
        let nodes = var.filter(|_| items.iter().all(|i| matches!(i, Item::Node(_))));
        let batch = Rc::new(RowBatch { items, clause: RefCell::default() });
        Rows { var, nodes, batch, lets: Vec::new() }
    }

    /// Does a row bind `name`?
    fn binds(&self, name: &str) -> bool {
        self.var == Some(name) || self.lets.iter().any(|(n, _)| *n == name)
    }

    /// Row `i`'s value of `name`, which a row binds.
    fn value(&self, name: &str, i: u32) -> Sequence {
        match self.lets.iter().rev().find(|(n, _)| *n == name) {
            Some((_, values)) => values[i as usize].clone(),
            None => vec![self.batch.items[i as usize].clone()],
        }
    }

    /// Bind row `i` (the variable to its item, each `let` to its value in
    /// that row), run `f`, and unbind the row again.
    fn bind<T>(
        &mut self,
        i: u32,
        env: &mut Env<'q>,
        f: impl FnOnce(&mut Env<'q>) -> Result<T, QueryError>,
    ) -> Result<T, QueryError> {
        let depth = env.len();
        if let Some(var) = self.var {
            env.push((var, Bound::Row(Rc::clone(&self.batch), i)));
        }
        for (name, values) in &mut self.lets {
            env.push((name, Bound::Seq(std::mem::take(&mut values[i as usize]))));
        }
        let result = f(env);
        for (_, values) in self.lets.iter_mut().rev() {
            if let Some((_, Bound::Seq(value))) = env.pop() {
                values[i as usize] = value;
            }
        }
        env.truncate(depth);
        result
    }
}

/// What the clauses of one FLWOR evaluation share.
struct Flwor<'q> {
    ret: &'q Expr,
    order_key: Option<&'q Expr>,
    /// `where` conjuncts already applied to the rows being evaluated, by
    /// address: a join's conjunct, and the conjuncts a `for` pushed down
    /// while its rows run (it removes them afterwards).
    consumed: RefCell<Vec<usize>>,
}

/// The rows a FLWOR's clauses produce, in order: the return clause's items,
/// flat, and per row the batch row it came from, its order key and the end
/// of its items.
#[derive(Default)]
struct FlworOut {
    items: Sequence,
    rows: Vec<(u32, Option<Rc<str>>, u32)>,
}

/// A FLWOR that `Engine::hash_join` decorrelates: `for $var in <absolute
/// path>` followed by a `where` conjunct `inner = outer`, where `inner`
/// reads `$var` alone and `outer` reads no variable of the FLWOR but one
/// bound outside it (the Q8/Q9 pattern).
struct Join<'q> {
    /// The FLWOR's address: the key of its cached index.
    key: usize,
    var: &'q str,
    src: &'q Expr,
    /// The clauses after the `for`.
    rest: &'q [Clause],
    ret: &'q Expr,
    conj: &'q Expr,
    inner: &'q Expr,
    outer: &'q Expr,
    order: Option<(&'q Expr, bool)>,
}

struct JoinIndex<'r> {
    rows: Vec<Item>,
    /// Rows by compressed key bytes, borrowed from the record arenas.
    by_bytes: HashMap<&'r [u8], KeyRows>,
    codec: Option<Arc<ValueCodec>>,
    by_str: RefCell<Option<HashMap<String, Vec<u32>>>>,
}

/// Where the first key with given compressed bytes is stored, and the rows
/// of every key with those bytes.
type KeyRows = ((ContainerId, u32), Vec<u32>);

struct Ctx<'r> {
    join_cache: RefCell<HashMap<usize, Rc<JoinIndex<'r>>>>,
}

/// Inflated block containers retained across queries. Sized to hold every
/// block container of the evaluation documents at once — a scan query that
/// cycles through more containers than the capacity would otherwise
/// re-inflate all of them on every pass.
const BLOCK_CACHE_CAPACITY: usize = 64;

/// The values of one inflated block container, in record order, shared by
/// the LRU and every item read from it.
type BlockValues = Rc<[Rc<str>]>;

/// A container value lent by `Engine::with_value`: decoded into the
/// engine's decode buffer, or shared with the block LRU.
enum Lent<'a> {
    Decoded(&'a str),
    Block(&'a Rc<str>),
}

impl Lent<'_> {
    /// The value as a shared string: a block value's `Rc` is shared, a
    /// decoded one is copied once.
    fn to_rc(&self) -> Rc<str> {
        match self {
            Lent::Decoded(s) => Rc::from(*s),
            Lent::Block(rc) => Rc::clone(rc),
        }
    }
}

impl std::ops::Deref for Lent<'_> {
    type Target = str;

    fn deref(&self) -> &str {
        match self {
            Lent::Decoded(s) => s,
            Lent::Block(rc) => rc,
        }
    }
}

/// LRU of wholesale-inflated block containers, at most
/// [`BLOCK_CACHE_CAPACITY`] of them.
#[derive(Default)]
struct BlockLru {
    tick: u64,
    entries: HashMap<ContainerId, (BlockValues, u64)>,
}

impl BlockLru {
    fn get(&mut self, cid: ContainerId) -> Option<BlockValues> {
        self.tick += 1;
        let tick = self.tick;
        self.entries.get_mut(&cid).map(|e| {
            e.1 = tick;
            e.0.clone()
        })
    }

    fn insert(&mut self, cid: ContainerId, values: BlockValues) {
        if self.entries.len() >= BLOCK_CACHE_CAPACITY && !self.entries.contains_key(&cid) {
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
    /// The one buffer every individual value is decoded into, reused
    /// across values and queries.
    decode_buf: RefCell<Vec<u8>>,
    /// Observed-physical-plan recorder for the current query (reset at every
    /// query start; read through [`Engine::last_plan`]).
    plan: RefCell<PlanRecorder>,
    /// Wall time of the most recent query's phases, in [`PHASES`] order.
    phase_nanos: Cell<[u64; 3]>,
    /// Set while [`Engine::profile`] runs: plan operators read the clock
    /// only then.
    timed: Cell<bool>,
}

impl<'r> Engine<'r> {
    /// Build an engine. It allocates nothing per node: subtree ranges come
    /// from the repository's structure tree.
    pub fn new(repo: &'r Repository) -> Self {
        Engine {
            repo,
            stats: RefCell::new(ExecStats::default()),
            lifetime: RefCell::new(ExecStats::default()),
            block_cache: RefCell::default(),
            decode_buf: RefCell::new(Vec::new()),
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

    /// Every value of a block container, from the LRU (a hit) or inflated
    /// into it on first touch (a miss: the deliberate cost of XMill-style
    /// storage).
    fn block_values(&self, cid: ContainerId) -> Result<BlockValues, QueryError> {
        if let Some(all) = self.block_cache.borrow_mut().get(cid) {
            self.stats.borrow_mut().cache_hits += 1;
            return Ok(all);
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
        Ok(all)
    }

    /// Read one container value and lend its text to `f`: the engine's one
    /// counted read, one `value_fetches` per call. An individual record is
    /// decoded into the engine's decode buffer (one decompression) and lent
    /// from there, validated as UTF-8 in place (a lossy copy when it is
    /// not); a block container's value is lent from the LRU (one cache hit
    /// or miss). `f` runs while the decode buffer is borrowed, so it must
    /// not read another value.
    fn with_value<T>(
        &self,
        cid: ContainerId,
        idx: u32,
        f: impl FnOnce(Lent<'_>) -> T,
    ) -> Result<T, QueryError> {
        self.stats.borrow_mut().value_fetches += 1;
        let c = self.repo.container(cid);
        if !c.is_individual() {
            let all = self.block_values(cid)?;
            return Ok(f(Lent::Block(all.get(idx as usize).ok_or_else(|| value_range(cid, idx))?)));
        }
        let mut buf = self.decode_buf.borrow_mut();
        buf.clear();
        c.codec().decompress_into(c.compressed(idx)?, &mut buf)?;
        {
            let mut st = self.stats.borrow_mut();
            st.decompressions += 1;
            st.bytes_decompressed += buf.len();
        }
        Ok(f(Lent::Decoded(&String::from_utf8_lossy(&buf))))
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
            Expr::Var(_) | Expr::Seq(_) | Expr::Elem(_) | Expr::Path(_) | Expr::Flwor(..) => {
                let mut out = Vec::new();
                self.eval_into(expr, env, ctx, &mut out)?;
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
                if let Some(mut nodes) = node_ids(&out) {
                    nodes.sort();
                    nodes.dedup();
                    out = nodes.into_iter().map(Item::Node).collect();
                }
                Ok(out)
            }
            Expr::Call(name, args) => self.call(name, args, env, ctx),
        }
    }

    /// Evaluate `expr`, appending its items to `out`. Variables, sequences,
    /// constructors, paths and FLWORs write straight into `out`, so a
    /// constructed element's content is built in one sequence.
    fn eval_into<'q>(
        &self,
        expr: &'q Expr,
        env: &mut Env<'q>,
        ctx: &Ctx<'r>,
        out: &mut Sequence,
    ) -> Result<(), QueryError> {
        match expr {
            Expr::Var(v) => out.extend_from_slice(self.lookup(env, v)?),
            Expr::Seq(items) => {
                for e in items {
                    self.eval_into(e, env, ctx, out)?;
                }
            }
            Expr::Elem(ctor) => {
                // A single element's content may take over the buffer of
                // its one child expression's result (`append`).
                let (nested, exprs) = flat_size(ctor);
                let mut f = Fragment {
                    tag: Rc::clone(&ctor.tag),
                    attrs: self.attrs_of(ctor, env, ctx)?,
                    children: Vec::with_capacity(if nested > 0 { exprs } else { 0 }),
                    seams: Vec::new(),
                    nested: Vec::with_capacity(nested),
                };
                self.content_into(ctor, env, ctx, &mut f)?;
                out.push(Item::Tree(Rc::new(f)));
            }
            Expr::Path(p) => self.eval_path(p, env, ctx, out)?,
            Expr::Flwor(..) => {
                if !precomputed(expr, env, out) {
                    self.eval_flwor(expr, env, ctx, out)?;
                }
            }
            other => append(out, self.eval(other, env, ctx)?),
        }
        Ok(())
    }

    fn attrs_of<'q>(
        &self,
        ctor: &'q ElemCtor,
        env: &mut Env<'q>,
        ctx: &Ctx<'r>,
    ) -> Result<Vec<(Rc<str>, Sequence)>, QueryError> {
        let mut attrs = Vec::with_capacity(ctor.attrs.len());
        for (n, e) in &ctor.attrs {
            attrs.push((Rc::clone(n), self.eval(e, env, ctx)?));
        }
        Ok(attrs)
    }

    /// Evaluate a constructor's content into `f.children`. A constructor
    /// directly in the content becomes one of `f`'s nested elements, its
    /// content evaluated in place.
    fn content_into<'q>(
        &self,
        ctor: &'q ElemCtor,
        env: &mut Env<'q>,
        ctx: &Ctx<'r>,
        f: &mut Fragment,
    ) -> Result<(), QueryError> {
        let first = f.children.len();
        // Where the last nested element ended: the item before it is not
        // this element's own.
        let mut after_nested = None;
        for e in &ctor.children {
            let start = f.children.len();
            if let Expr::Elem(inner) = e {
                let attrs = self.attrs_of(inner, env, ctx)?;
                let k = f.nested.len();
                let tag = Rc::clone(&inner.tag);
                f.nested.push(Nested { tag, attrs, start: start as u32, end: 0, next: 0 });
                self.content_into(inner, env, ctx, f)?;
                f.nested[k].end = f.children.len() as u32;
                f.nested[k].next = f.nested.len() as u32;
                after_nested = Some(f.children.len());
                continue;
            }
            self.eval_into(e, env, ctx, &mut f.children)?;
            let atomic = |i: usize| f.children.get(i).is_some_and(|i| !i.is_node());
            if start > first && after_nested != Some(start) && atomic(start - 1) && atomic(start) {
                f.seams.push(start as u32);
            }
        }
        Ok(())
    }

    fn bound<'e, 'q>(&self, env: &'e Env<'q>, var: &str) -> Result<&'e Bound<'q>, QueryError> {
        env.iter()
            .rev()
            .find(|(n, _)| *n == var)
            .map(|(_, b)| b)
            .ok_or_else(|| QueryError { message: format!("unbound variable ${var}") })
    }

    fn lookup<'e>(&self, env: &'e Env, var: &str) -> Result<&'e [Item], QueryError> {
        self.bound(env, var).map(Bound::items)
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

    /// Evaluate the FLWOR `e`, appending its items to `out`. A join runs as
    /// the one-row case of [`Engine::hash_join`].
    fn eval_flwor<'q>(
        &self,
        e: &'q Expr,
        env: &mut Env<'q>,
        ctx: &Ctx<'r>,
        out: &mut Sequence,
    ) -> Result<(), QueryError> {
        if let Some(join) = join_of(e, |v| env.iter().any(|(n, _)| *n == v)) {
            append(out, self.hash_join(&join, None, env, ctx)?.0);
            return Ok(());
        }
        let Expr::Flwor(clauses, ret) = e else { unreachable!("eval_flwor takes a FLWOR") };
        let order = order_of(clauses);
        let flwor = Flwor { ret, order_key: order.map(|(e, _)| e), consumed: RefCell::default() };
        let mut rows = FlworOut::default();
        match &clauses[..] {
            [Clause::For(v, src), rest @ ..] => {
                self.for_clause(v, src, rest, &flwor, env, ctx, &mut rows)?
            }
            // Clauses before the first `for` run over one row that binds
            // no variable.
            _ => {
                let unit = Rows::new(None, vec![Item::Bool(true)]);
                self.eval_rows(unit, clauses, &flwor, env, ctx, &mut rows)?
            }
        }
        if let Some((_, desc)) = order {
            self.sort_rows(&mut rows, desc, |_| 0)?;
        }
        append(out, rows.items);
        Ok(())
    }

    /// `Sort`: order the rows by their order keys, stably, within each run
    /// of rows of one `group`.
    fn sort_rows(
        &self,
        out: &mut FlworOut,
        desc: bool,
        group: impl Fn(u32) -> u32,
    ) -> Result<(), QueryError> {
        let n = out.rows.len();
        let sort = || {
            let FlworOut { items, rows } = std::mem::take(out);
            let mut order: Vec<usize> = (0..n).collect();
            order.sort_by(|&a, &b| {
                let cmp = compare_order_keys(rows[a].1.as_deref(), rows[b].1.as_deref());
                group(rows[a].0).cmp(&group(rows[b].0)).then(if desc { cmp.reverse() } else { cmp })
            });
            out.items.reserve(items.len());
            for k in order {
                let start = if k == 0 { 0 } else { rows[k - 1].2 as usize };
                out.items.extend_from_slice(&items[start..rows[k].2 as usize]);
                out.rows.push((rows[k].0, rows[k].1.clone(), out.items.len() as u32));
            }
            Ok(n)
        };
        let detail = Detail::Static(if desc { "descending" } else { "ascending" });
        self.traced("Sort", detail, n, sort, |n| *n).map(drop)
    }

    /// `for $v in src` and the clauses after it, under the loop's own `For`
    /// operator: the source, any pushed-down conjuncts and every operator
    /// the rows run nest beneath it (rows: bindings in -> FLWOR rows out).
    #[allow(clippy::too_many_arguments)]
    fn for_clause<'q>(
        &self,
        v: &'q str,
        src: &'q Expr,
        rest: &'q [Clause],
        flwor: &Flwor<'q>,
        env: &mut Env<'q>,
        ctx: &Ctx<'r>,
        out: &mut FlworOut,
    ) -> Result<(), QueryError> {
        self.traced(
            "For",
            Detail::Prefixed("$", v),
            0,
            || {
                let mut seq = self.eval(src, env, ctx)?;
                // Index pushdown: apply indexable Where conjuncts that
                // constrain this variable before iterating. They are
                // consumed for these rows only: the next evaluation of this
                // `for` (the next outer row) pushes them down again.
                let mut pushed: Vec<usize> = Vec::new();
                if let Some(mut nodes) = node_ids(&seq) {
                    for clause in rest {
                        let Clause::Where(w) = clause else { continue };
                        for conj in conjuncts(w) {
                            let id = conj as *const Expr as usize;
                            if flwor.consumed.borrow().contains(&id) {
                                continue;
                            }
                            let var = |r: &PathRoot| matches!(r, PathRoot::Var(x) if x == v);
                            if let Some(hits) = self.try_index(&nodes, conj, var)? {
                                nodes.retain(|n| hits.contains(n));
                                flwor.consumed.borrow_mut().push(id);
                                pushed.push(id);
                            }
                        }
                    }
                    seq = nodes.into_iter().map(Item::Node).collect();
                }
                self.plan.borrow_mut().annotate_rows(seq.len());
                let before = out.rows.len();
                let done = if seq.is_empty() {
                    Ok(())
                } else {
                    self.eval_rows(Rows::new(Some(v), seq), rest, flwor, env, ctx, out)
                };
                flwor.consumed.borrow_mut().retain(|id| !pushed.contains(id));
                done?;
                Ok(out.rows.len() - before)
            },
            |n| *n,
        )
        .map(drop)
    }

    /// Evaluate `clauses`, then the order key and the return clause, over
    /// `rows`, appending the FLWOR's rows to `out`.
    ///
    /// Evaluation goes a clause at a time, over exactly the rows a
    /// row-at-a-time evaluation would take through it: each `where`
    /// conjunct runs as one `Predicate` over the rows that passed the
    /// conjuncts before it; each `let`, the order key and the return clause
    /// over the rows that passed every `where` before them; a nested `for`
    /// row by row. The row-local paths of the loop variable and the join
    /// FLWORs in a clause are evaluated once over all of its rows (see
    /// [`RowBatch`]).
    fn eval_rows<'q>(
        &self,
        mut rows: Rows<'q>,
        clauses: &'q [Clause],
        flwor: &Flwor<'q>,
        env: &mut Env<'q>,
        ctx: &Ctx<'r>,
        out: &mut FlworOut,
    ) -> Result<(), QueryError> {
        let mut live: Vec<u32> = (0..rows.batch.items.len() as u32).collect();
        for (k, clause) in clauses.iter().enumerate() {
            if live.is_empty() {
                return Ok(());
            }
            match clause {
                Clause::For(v, src) => {
                    self.start_clause(&mut rows, &live, &[], env, ctx)?;
                    for &i in &live {
                        let before = out.rows.len();
                        rows.bind(i, env, |env| {
                            self.for_clause(v, src, &clauses[k + 1..], flwor, env, ctx, out)
                        })?;
                        for row in &mut out.rows[before..] {
                            row.0 = i;
                        }
                    }
                    return Ok(());
                }
                Clause::Let(v, src) => {
                    self.start_clause(&mut rows, &live, &[src], env, ctx)?;
                    let mut values = vec![Vec::new(); rows.batch.items.len()];
                    for &i in &live {
                        values[i as usize] = rows.bind(i, env, |env| self.eval(src, env, ctx))?;
                    }
                    rows.lets.push((v, values));
                }
                Clause::Where(w) => live = self.where_rows(w, &mut rows, live, flwor, env, ctx)?,
                Clause::OrderBy(..) => {}
            }
        }
        match flwor.order_key {
            Some(key) => self.start_clause(&mut rows, &live, &[key, flwor.ret], env, ctx)?,
            None => self.start_clause(&mut rows, &live, &[flwor.ret], env, ctx)?,
        }
        for &i in &live {
            let key = rows.bind(i, env, |env| {
                let key = match flwor.order_key {
                    Some(e) => {
                        let k = self.eval(e, env, ctx)?;
                        Some(match k.first() {
                            Some(i) => self.text_value(i)?,
                            None => Rc::from(""),
                        })
                    }
                    None => None,
                };
                self.eval_into(flwor.ret, env, ctx, &mut out.items)?;
                Ok(key)
            })?;
            out.rows.push((i, key, out.items.len() as u32));
        }
        Ok(())
    }

    /// Start evaluating a clause's expressions `exprs` over the rows in
    /// `live`. With two or more rows, each join FLWOR the expressions
    /// evaluate once per row runs now as one `HashJoin` for all the rows,
    /// and the row-local paths of the loop variable become pending; each
    /// row then reads its slice of either (see [`RowBatch`]). A single row
    /// evaluates both in place.
    fn start_clause<'q>(
        &self,
        rows: &mut Rows<'q>,
        live: &[u32],
        exprs: &[&'q Expr],
        env: &mut Env<'q>,
        ctx: &Ctx<'r>,
    ) -> Result<(), QueryError> {
        let mut joins = Vec::new();
        if live.len() > 1 {
            for e in exprs {
                once_per_eval(e, &mut |x| {
                    joins.extend(join_of(x, |v| rows.binds(v) || env.iter().any(|(n, _)| *n == v)))
                });
            }
        }
        let mut done = Vec::with_capacity(joins.len());
        for join in &joins {
            let (items, starts) = self.hash_join(join, Some((rows, live)), env, ctx)?;
            done.push((join.key, items, starts));
        }
        let mut clause = rows.batch.clause.borrow_mut();
        let clause = &mut *clause;
        clause.pending.clear();
        clause.done.clear();
        clause.done.extend(done);
        if let Some(var) = rows.nodes.filter(|_| live.len() > 1) {
            for e in exprs {
                once_per_eval(e, &mut |x| match x {
                    Expr::Path(p) if is_row_local(p, var) => clause.pending.push(p),
                    _ => {}
                });
            }
        }
        clause.rows.clear();
        if !clause.pending.is_empty() {
            clause.rows.extend_from_slice(live);
        }
        Ok(())
    }

    /// Apply a `where` clause's conjuncts to the rows in `live`, left to
    /// right, each under one `Predicate` operator over the rows that passed
    /// the conjuncts before it; conjuncts already answered by index
    /// pushdown or a join are skipped.
    fn where_rows<'q>(
        &self,
        w: &'q Expr,
        rows: &mut Rows<'q>,
        live: Vec<u32>,
        flwor: &Flwor<'q>,
        env: &mut Env<'q>,
        ctx: &Ctx<'r>,
    ) -> Result<Vec<u32>, QueryError> {
        if let Expr::And(a, b) = w {
            let live = self.where_rows(a, rows, live, flwor, env, ctx)?;
            return self.where_rows(b, rows, live, flwor, env, ctx);
        }
        if live.is_empty() || flwor.consumed.borrow().contains(&(w as *const Expr as usize)) {
            return Ok(live);
        }
        let n = live.len();
        self.traced(
            "Predicate",
            Detail::Static("where"),
            n,
            || {
                self.start_clause(rows, &live, &[w], env, ctx)?;
                let mut live = live;
                let mut kept = 0;
                for j in 0..live.len() {
                    let i = live[j];
                    if rows.bind(i, env, |env| self.ebv(w, env, ctx))? {
                        live[kept] = i;
                        kept += 1;
                    }
                }
                live.truncate(kept);
                Ok(live)
            },
            Vec::len,
        )
    }

    // ---- hash-join decorrelation ---------------------------------------

    /// `HashJoin`: evaluate the decorrelated FLWOR `join` for the rows of
    /// `outer`, a batch and its rows in the clause being evaluated, or once
    /// under the current bindings when `outer` is `None`. The inner side is
    /// materialized and indexed once per query, keyed on compressed bytes
    /// when possible. The outer side runs as one clause over all the rows,
    /// and each row's matches are probed, sorted into inner order and
    /// deduplicated. The clauses after the `for` and the return clause then
    /// run once over every row's matches together, each match binding the
    /// outer variables they read to its row's values, and each row's
    /// results are sorted by the order key. Returns the items with per-row
    /// offsets as in [`ClauseBatch::done`] (one row when `outer` is `None`).
    fn hash_join<'q>(
        &self,
        join: &Join<'q>,
        mut outer: Option<(&mut Rows<'q>, &[u32])>,
        env: &mut Env<'q>,
        ctx: &Ctx<'r>,
    ) -> Result<(Sequence, Vec<u32>), QueryError> {
        // The index is built by the first join; later ones enter the
        // operator with its final detail.
        let cached = ctx.join_cache.borrow().get(&join.key).cloned();
        let detail = compressed_keys(cached.as_ref().map(|i| i.codec.is_some()));
        let run = || {
            let index = match cached {
                Some(i) => i,
                None => {
                    // The key operators the build runs nest under it.
                    let built = self.traced(
                        "JoinIndexBuild",
                        compressed_keys(None),
                        0,
                        || {
                            let built = self.build_join_index(join, ctx)?;
                            let keys = compressed_keys(Some(built.codec.is_some()));
                            self.plan.borrow_mut().annotate_detail(keys);
                            Ok(built)
                        },
                        |built| built.rows.len(),
                    )?;
                    let rc = Rc::new(built);
                    ctx.join_cache.borrow_mut().insert(join.key, rc.clone());
                    rc
                }
            };
            // Each row's probe keys: `(row, end of its keys)`.
            let (mut keys, mut key_rows) = (Vec::new(), Vec::new());
            match &mut outer {
                Some((rows, live)) => {
                    self.start_clause(rows, live, &[join.outer], env, ctx)?;
                    for &i in live.iter() {
                        rows.bind(i, env, |env| self.eval_into(join.outer, env, ctx, &mut keys))?;
                        key_rows.push((i, keys.len()));
                    }
                }
                None => {
                    self.eval_into(join.outer, env, ctx, &mut keys)?;
                    key_rows.push((0, keys.len()));
                }
            }
            let (mut matched, mut origin) = (Vec::new(), Vec::new());
            let (mut atoms, mut hits) = (Vec::new(), Vec::new());
            let mut start = 0;
            for (row, end) in key_rows {
                atoms.clear();
                self.atomize_into(&keys[start..end], &mut atoms)?;
                start = end;
                hits.clear();
                for atom in &atoms {
                    self.probe_join_index(&index, atom, &mut hits)?;
                }
                hits.sort_unstable();
                hits.dedup();
                matched.extend(hits.iter().map(|&h| index.rows[h as usize].clone()));
                origin.resize(matched.len(), row);
            }
            {
                let mut plan = self.plan.borrow_mut();
                plan.annotate_rows(matched.len());
                plan.annotate_detail(compressed_keys(Some(index.codec.is_some())));
            }
            let n = outer.as_ref().map_or(1, |(rows, _)| rows.batch.items.len());
            let mut starts = vec![0; n + 1];
            if matched.is_empty() {
                return Ok((Vec::new(), starts));
            }
            let mut matches = Rows::new(Some(join.var), matched);
            if let Some((rows, _)) = &outer {
                let names = rows.var.into_iter().chain(rows.lets.iter().map(|(n, _)| *n));
                for name in names {
                    if name != join.var && !matches.binds(name) && reads(join, name) {
                        let values = origin.iter().map(|&o| rows.value(name, o)).collect();
                        matches.lets.push((name, values));
                    }
                }
            }
            let consumed = RefCell::new(vec![join.conj as *const Expr as usize]);
            let flwor = Flwor { ret: join.ret, order_key: join.order.map(|(e, _)| e), consumed };
            let mut out = FlworOut::default();
            self.eval_rows(matches, join.rest, &flwor, env, ctx, &mut out)?;
            if let Some((_, desc)) = join.order {
                self.sort_rows(&mut out, desc, |m| origin[m as usize])?;
            }
            // Each row's results end where its last match's do.
            for &(m, _, end) in &out.rows {
                starts[origin[m as usize] as usize + 1] = end;
            }
            for i in 1..=n {
                starts[i] = starts[i].max(starts[i - 1]);
            }
            Ok((out.items, starts))
        };
        self.traced("HashJoin", detail, 0, run, |(items, _)| items.len())
    }

    fn build_join_index(
        &self,
        join: &Join<'_>,
        ctx: &Ctx<'r>,
    ) -> Result<JoinIndex<'r>, QueryError> {
        let mut env: Env = Vec::new();
        let rows = self.eval(join.src, &mut env, ctx)?;
        // First pass: gather raw key items per row, the key being one
        // clause over all the rows.
        let mut keyed: Vec<(u32, Item)> = Vec::new();
        let mut codec: Option<Arc<ValueCodec>> = None;
        let mut uniform = true;
        let mut build = Rows::new(Some(join.var), rows.clone());
        let all: Vec<u32> = (0..rows.len() as u32).collect();
        self.start_clause(&mut build, &all, &[join.inner], &mut env, ctx)?;
        let (mut keys, mut atoms) = (Vec::new(), Vec::new());
        for row in all {
            keys.clear();
            build.bind(row, &mut env, |env| self.eval_into(join.inner, env, ctx, &mut keys))?;
            atoms.clear();
            self.atomize_into(&keys, &mut atoms)?;
            for k in atoms.drain(..) {
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
            let mut by_bytes: HashMap<&[u8], KeyRows> = HashMap::new();
            for (row, k) in keyed {
                let Item::Comp { container, index } = k else { unreachable!("uniform") };
                let key = self.comp_bytes(container, index)?;
                by_bytes.entry(key).or_insert_with(|| ((container, index), Vec::new())).1.push(row);
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

    /// Append the index rows whose key equals the atomic item `atom`.
    fn probe_join_index(
        &self,
        index: &JoinIndex<'r>,
        atom: &Item,
        out: &mut Vec<u32>,
    ) -> Result<(), QueryError> {
        match (atom, &index.codec) {
            (&Item::Comp { container, index: idx }, Some(codec))
                if Arc::ptr_eq(self.repo.container(container).codec(), codec) =>
            {
                // Same source model: probe on compressed bytes.
                self.stats.borrow_mut().compressed_eq += 1;
                if let Some((_, rows)) = index.by_bytes.get(self.comp_bytes(container, idx)?) {
                    out.extend(rows.iter().copied());
                }
            }
            _ => {
                // Fall back to a lazily built decompressed-key index.
                let s = self.string_value(atom)?;
                let mut by_str = index.by_str.borrow_mut();
                if by_str.is_none() {
                    let mut m: HashMap<String, Vec<u32>> = HashMap::new();
                    for &((cid, idx), ref rows) in index.by_bytes.values() {
                        let plain = self.with_value(cid, idx, |v| String::from(&*v))?;
                        m.entry(plain).or_default().extend(rows.iter().copied());
                    }
                    *by_str = Some(m);
                }
                if let Some(rows) = by_str.as_ref().expect("just built").get(&s) {
                    out.extend(rows.iter().copied());
                }
            }
        }
        Ok(())
    }

    // ---- paths ------------------------------------------------------------

    /// Evaluate a path, appending its items to `out`.
    fn eval_path<'q>(
        &self,
        p: &'q PathExpr,
        env: &mut Env<'q>,
        ctx: &Ctx<'r>,
        out: &mut Sequence,
    ) -> Result<(), QueryError> {
        let var = match &p.root {
            PathRoot::Document => {
                append(out, self.eval_absolute_path(&p.steps, env, ctx)?);
                return Ok(());
            }
            PathRoot::Var(v) => v.as_str(),
            PathRoot::Context => ".",
        };
        if let Bound::Row(batch, row) = self.bound(env, var)? {
            let (batch, row) = (Rc::clone(batch), *row);
            if self.batched_path(&batch, row, p, env, ctx, out)? {
                return Ok(());
            }
        }
        // Read the bound nodes in place as one row; a single bound node
        // needs no node list at all.
        let bound = self.bound(env, var)?.items();
        let items = if let [Item::Node(n)] = bound {
            let n = *n;
            self.steps_over_rows(&[n], &mut [0, 1], &p.steps, env, ctx)?
        } else {
            let Some(nodes) = node_ids(bound) else {
                return err("path step applied to a non-node item");
            };
            self.steps_over_rows(&nodes, &mut [0, nodes.len() as u32], &p.steps, env, ctx)?
        };
        append(out, items);
        Ok(())
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
        self.steps_over_rows(&nodes, &mut [0, nodes.len() as u32], &steps[i..], env, ctx)
    }

    /// Append row `row`'s result of `p` to `out` when `p` is a row-local
    /// path of the batch's current clause, evaluating it for all the
    /// clause's rows on its first read; false when `p` is not batched.
    fn batched_path<'q>(
        &self,
        batch: &RowBatch<'q>,
        row: u32,
        p: &'q PathExpr,
        env: &mut Env<'q>,
        ctx: &Ctx<'r>,
        out: &mut Sequence,
    ) -> Result<bool, QueryError> {
        let mut clause = batch.clause.borrow_mut();
        let key = p as *const PathExpr as usize;
        if clause.read(key, row, out) {
            return Ok(true);
        }
        let Some(j) = clause.pending.iter().position(|&q| std::ptr::eq(q, p)) else {
            return Ok(false);
        };
        clause.pending.swap_remove(j);
        // One row per item; the rows outside the clause are empty.
        let mut nodes = Vec::with_capacity(clause.rows.len());
        let mut starts = Vec::with_capacity(batch.items.len() + 1);
        let mut next_row = clause.rows.iter().copied().peekable();
        for (i, item) in batch.items.iter().enumerate() {
            starts.push(nodes.len() as u32);
            if next_row.next_if_eq(&(i as u32)).is_some() {
                let &Item::Node(n) = item else { unreachable!("batched rows bind nodes") };
                nodes.push(n);
            }
        }
        starts.push(nodes.len() as u32);
        // A row-local path has no step filter, so evaluating it reads no
        // other path of the batch.
        let seq = self.steps_over_rows(&nodes, &mut starts, &p.steps, env, ctx)?;
        clause.done.push((key, seq, starts));
        Ok(clause.read(key, row, out))
    }

    /// The path-step evaluator: apply `steps` to rows of context nodes, row
    /// `i` being `nodes[starts[i]..starts[i + 1]]`; a node set is one row.
    /// Each element step is one `StructureNav` over every row's nodes and a
    /// final `text()` or `@attr` one `TextContent`. Returns the items in row
    /// order and rewrites `starts` to delimit each row's items in them.
    ///
    /// An element step applies its predicates in query order. It navigates
    /// from each context node and narrows that node's matches by the
    /// positional predicates before the first boolean filter, sorts each
    /// row's matches into document order without duplicates, then applies
    /// the rest: a filter to every row's matches at once, a positional
    /// predicate to each row's. Positions after a filter count per context
    /// node too: each context node then runs as a row of its own, and each
    /// row's nodes merge afterwards.
    fn steps_over_rows<'q>(
        &self,
        nodes: &[ElemId],
        starts: &mut [u32],
        steps: &'q [Step],
        env: &mut Env<'q>,
        ctx: &Ctx<'r>,
    ) -> Result<Sequence, QueryError> {
        let none = |starts: &mut [u32]| {
            starts.fill(0);
            Ok(Vec::new())
        };
        let (value_step, element_steps) = match steps.split_last() {
            Some((last, rest)) if matches!(last.test, NodeTest::Text | NodeTest::Attr(_)) => {
                (Some(last), rest)
            }
            _ => (None, steps),
        };
        let mut nodes = nodes;
        let mut owned: Vec<ElemId>;
        for step in element_steps {
            match &step.test {
                NodeTest::Text => return err("text() must be the final step"),
                NodeTest::Attr(_) => return err("attribute step must be the final step"),
                NodeTest::Tag(_) | NodeTest::AnyElement => {}
            }
            let navigate = || {
                let tag = match &step.test {
                    NodeTest::Tag(t) => match self.repo.dict.code(t) {
                        Some(c) => Some(c),
                        None => return Ok(Vec::new()), // tag absent from the document
                    },
                    _ => None,
                };
                let lead =
                    step.predicates.iter().take_while(|p| !matches!(p, StepPredicate::Filter(_)));
                let (lead, rest) = step.predicates.split_at(lead.count());
                let per_node = rest.iter().any(|p| !matches!(p, StepPredicate::Filter(_)))
                    && starts.windows(2).any(|w| w[1] - w[0] > 1);
                let mut each = Vec::new();
                let rows: &mut [u32] = if per_node {
                    each.extend(0..=nodes.len() as u32);
                    &mut each
                } else {
                    starts
                };
                let mut out = Vec::new();
                per_row(rows, &mut out, |r, out| {
                    let row = out.len();
                    for &n in &nodes[r] {
                        let start = out.len();
                        match step.axis {
                            Axis::Child => out.extend(self.repo.tree.children(n, tag)),
                            Axis::Descendant => self.descendants_via_summary(n, tag, out),
                            Axis::Parent => out.extend(
                                self.repo
                                    .tree
                                    .parent(n)
                                    .filter(|&p| tag.is_none_or(|t| self.repo.tree.tag(p) == t)),
                            ),
                        }
                        keep_positions(lead, out, start);
                    }
                    sort_dedup_from(out, row);
                    Ok(())
                })?;
                for pred in rest {
                    let mut kept = Vec::with_capacity(out.len());
                    let StepPredicate::Filter(f) = pred else {
                        per_row(rows, &mut kept, |r, kept| {
                            let start = kept.len();
                            kept.extend_from_slice(&out[r]);
                            keep_positions(std::slice::from_ref(pred), kept, start);
                            Ok(())
                        })?;
                        out = kept;
                        continue;
                    };
                    // A boolean filter over every row at once, with the
                    // ContAccess pushdown attempt first.
                    if let Some(hits) = self.try_index(&out, f, |r| *r == PathRoot::Context)? {
                        per_row(rows, &mut kept, |r, kept| {
                            kept.extend(out[r].iter().filter(|&c| hits.contains(c)));
                            Ok(())
                        })?;
                    } else {
                        let scan = || {
                            per_row(rows, &mut kept, |r, kept| {
                                for &c in &out[r] {
                                    env.push((".", Bound::One(Item::Node(c))));
                                    let ok = self.ebv(f, env, ctx);
                                    env.pop();
                                    if ok? {
                                        kept.push(c);
                                    }
                                }
                                Ok(())
                            })?;
                            Ok(kept.len())
                        };
                        self.traced("Predicate", Detail::Static("scan"), out.len(), scan, |n| *n)?;
                    }
                    out = kept;
                }
                if per_node {
                    for s in starts.iter_mut() {
                        *s = each[*s as usize];
                    }
                    let mut merged = Vec::with_capacity(out.len());
                    per_row(starts, &mut merged, |r, merged| {
                        let row = merged.len();
                        merged.extend_from_slice(&out[r]);
                        sort_dedup_from(merged, row);
                        Ok(())
                    })?;
                    out = merged;
                }
                Ok(out)
            };
            let next =
                self.traced("StructureNav", step_detail(step), nodes.len(), navigate, Vec::len)?;
            if next.is_empty() {
                return none(starts);
            }
            owned = next;
            nodes = &owned;
        }
        let (attr, detail) = match value_step.map(|s| &s.test) {
            None => return Ok(nodes.iter().map(|&n| Item::Node(n)).collect()),
            Some(NodeTest::Attr(name)) => match self.repo.dict.code(name) {
                Some(code) => (Some(code), Detail::Prefixed("@", name)),
                None => return none(starts),
            },
            Some(_) => (None, Detail::Static("text()")),
        };
        self.traced(
            "TextContent",
            detail,
            nodes.len(),
            || {
                let mut out = Vec::new();
                per_row(starts, &mut out, |r, out| self.values_of(&nodes[r], attr, out))?;
                Ok(out)
            },
            Vec::len,
        )
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
                    out.push(if c.is_individual() {
                        Item::Comp { container: vr.container, index: vr.index }
                    } else {
                        // Block container: the LRU's shared value.
                        Item::Str(self.with_value(vr.container, vr.index, |v| v.to_rc())?)
                    });
                }
            }
        }
        Ok(())
    }

    /// Descendant step through the summary: find matching descendant paths,
    /// then binary-search each extent for the subtree id range — no tree
    /// walk (the §2.3 Q14 access pattern). Appends the matches to `out` in
    /// document order.
    fn descendants_via_summary(&self, n: ElemId, tag: Option<TagCode>, out: &mut Vec<ElemId>) {
        let Some(code) = tag else { return out.extend(self.repo.tree.descendants(n)) };
        let start = out.len();
        let end = self.repo.tree.subtree_end(n).0;
        for s in self.repo.summary.descendant_elements(self.repo.tree.path(n), code) {
            let extent = &self.repo.summary.node(s).extent;
            let lo = extent.partition_point(|&e| e <= n);
            let hi = extent.partition_point(|&e| e.0 <= end);
            out.extend(extent[lo..hi].iter().copied());
        }
        sort_dedup_from(out, start);
    }

    // ---- ContAccess pushdown --------------------------------------------

    /// Try to answer `relpath op const` via container ranges, for a step
    /// filter (`relpath` rooted at `.`) or a FLWOR conjunct (at the loop
    /// variable), as `root` accepts: the candidates that pass are among the
    /// returned nodes. `Ok(None)` means "not indexable, fall back to a scan".
    fn try_index(
        &self,
        candidates: &[ElemId],
        e: &Expr,
        root: impl Fn(&PathRoot) -> bool,
    ) -> Result<Option<HashSet<ElemId>>, QueryError> {
        let Some((op, rel, konst)) = split_cmp_const(e) else { return Ok(None) };
        if !root(&rel.root) {
            return Ok(None);
        }
        let rel_steps = &rel.steps;
        if candidates.is_empty() {
            return Ok(Some(HashSet::new()));
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
        'paths: for mut p in cpaths {
            for s in elem_steps {
                let NodeTest::Tag(t) = &s.test else { return Ok(None) };
                let Some(code) = self.repo.dict.code(t) else { return Ok(None) };
                match self.repo.summary.child_element(p, code) {
                    Some(next) => p = next,
                    None => continue 'paths,
                }
            }
            let leaf = match &value_test.test {
                NodeTest::Text => PathKind::Text,
                NodeTest::Attr(a) => match self.repo.dict.code(a) {
                    Some(code) => PathKind::Attribute(code),
                    None => return Ok(None),
                },
                _ => return Ok(None),
            };
            let kids = &self.repo.summary.node(p).children;
            leafs.extend(kids.iter().copied().find(|&c| self.repo.summary.node(c).kind == leaf));
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
        Ok(Some(hits))
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
        self.atomize_into(seq, &mut out)?;
        Ok(out)
    }

    /// Append the atomization of `seq` to `out`.
    fn atomize_into(&self, seq: &[Item], out: &mut Sequence) -> Result<(), QueryError> {
        for item in seq {
            match item {
                Item::Node(n) => {
                    let start = out.len();
                    self.values_of(std::slice::from_ref(n), None, out)?;
                    if out.len() == start {
                        out.push(Item::Str(Rc::from(self.string_value(item)?)));
                    }
                }
                Item::Tree(_) => out.push(Item::Str(Rc::from(self.string_value(item)?))),
                other => out.push(other.clone()),
            }
        }
        Ok(())
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
            }
            _ => {}
        }
        // Otherwise compare the plaintexts: the first operand is copied out,
        // since both may be values read through the one decode buffer.
        let x = self.string_value(a)?;
        self.with_text(b, |y| ord_ok(x.as_str().cmp(y)))
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
        // The string value of argument `n`'s first item, "" when it is empty.
        let str_arg = |n: usize, env: &mut Env<'q>| match eval_arg(n, env)?.first() {
            Some(i) => self.string_value(i),
            None => Ok(String::new()),
        };
        match name {
            "document" | "doc" => {
                // Single-document engine: document(*) is the root.
                Ok(self.repo.root().map(Item::Node).into_iter().collect())
            }
            "count" => {
                let n = match args {
                    [Expr::Var(v)] => self.lookup(env, v)?.len(),
                    _ => eval_arg(0, env)?.len(),
                };
                Ok(vec![Item::Num(n as f64)])
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
            "not" => Ok(vec![Item::Bool(!self.effective_boolean(&eval_arg(0, env)?)?)]),
            "empty" => Ok(vec![Item::Bool(eval_arg(0, env)?.is_empty())]),
            "exists" => Ok(vec![Item::Bool(!eval_arg(0, env)?.is_empty())]),
            "contains" => {
                let hay = eval_arg(0, env)?;
                let n = str_arg(1, env)?;
                // Substring match requires plaintext (§2.1: wildcard
                // operations decompress).
                let mut found = false;
                for h in &hay {
                    if self.with_text(h, |t| t.contains(n.as_str()))? {
                        found = true;
                        break;
                    }
                }
                Ok(vec![Item::Bool(found)])
            }
            "starts-with" => {
                let s = eval_arg(0, env)?;
                let prefix = str_arg(1, env)?;
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
                Ok(vec![Item::Bool(self.with_text(first, |t| t.starts_with(prefix.as_str()))?)])
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
                let n = match eval_arg(0, env)?.first() {
                    Some(i) => self.with_text(i, |t| t.chars().count())?,
                    None => 0,
                };
                Ok(vec![Item::Num(n as f64)])
            }
            "concat" => {
                let mut out = String::new();
                for i in 0..args.len() {
                    out.push_str(&str_arg(i, env)?);
                }
                Ok(vec![Item::Str(Rc::from(out.as_str()))])
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
                let text = str_arg(0, env)?;
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
                let text = str_arg(0, env)?;
                let out =
                    if name == "upper-case" { text.to_uppercase() } else { text.to_lowercase() };
                Ok(vec![Item::Str(Rc::from(out.as_str()))])
            }
            "normalize-space" => {
                let text = str_arg(0, env)?;
                let out = text.split_whitespace().collect::<Vec<_>>().join(" ");
                Ok(vec![Item::Str(Rc::from(out.as_str()))])
            }
            "string-join" => {
                let s = eval_arg(0, env)?;
                let sep = if args.len() > 1 { str_arg(1, env)? } else { String::new() };
                let mut parts: Vec<String> = Vec::with_capacity(s.len());
                for i in &s {
                    parts.push(self.string_value(i)?);
                }
                Ok(vec![Item::Str(Rc::from(parts.join(&sep).as_str()))])
            }
            "abs" | "floor" | "ceiling" | "round" => {
                let s = eval_arg(0, env)?;
                Ok(match s.first() {
                    Some(i) => {
                        let n = self.num_value(i)?;
                        vec![Item::Num(match name {
                            "abs" => n.abs(),
                            "floor" => n.floor(),
                            "round" => n.round(),
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
            &Item::Comp { container, index } => {
                self.with_value(container, index, |v| String::from(&*v))?
            }
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

    /// The string value of an item as a shared string: strings are shared,
    /// a decoded value is copied once.
    fn text_value(&self, item: &Item) -> Result<Rc<str>, QueryError> {
        match item {
            Item::Str(s) => Ok(Rc::clone(s)),
            &Item::Comp { container, index } => self.with_value(container, index, |v| v.to_rc()),
            other => Ok(Rc::from(self.string_value(other)?)),
        }
    }

    /// Lend an item's string value to `f`: strings and container values are
    /// borrowed, other items are built first. `f` must not read a value (see
    /// [`Engine::with_value`]).
    fn with_text<T>(&self, item: &Item, f: impl FnOnce(&str) -> T) -> Result<T, QueryError> {
        match item {
            Item::Str(s) => Ok(f(s)),
            &Item::Comp { container, index } => self.with_value(container, index, |v| f(&v)),
            other => Ok(f(&self.string_value(other)?)),
        }
    }

    fn node_text(&self, n: ElemId, out: &mut String) -> Result<(), QueryError> {
        for vr in self.repo.tree.values(n) {
            let c = self.repo.container(vr.container);
            if matches!(c.leaf, ContainerLeaf::Text) {
                self.with_value(vr.container, vr.index, |v| out.push_str(&v))?;
            }
        }
        for child in self.repo.tree.children(n, None) {
            self.node_text(child, out)?;
        }
        Ok(())
    }

    fn fragment_text(&self, f: &Fragment, out: &mut String) -> Result<(), QueryError> {
        for item in &f.children {
            match item {
                Item::Tree(t) => self.fragment_text(t, out)?,
                Item::Node(n) => self.node_text(*n, out)?,
                other => out.push_str(&self.string_value(other)?),
            }
        }
        Ok(())
    }

    /// Numeric value of an item (NaN when not a number).
    pub fn num_value(&self, item: &Item) -> Result<f64, QueryError> {
        Ok(match item {
            Item::Num(n) => *n,
            Item::Bool(b) => f64::from(*b),
            other => self.with_text(other, |t| t.trim().parse().unwrap_or(f64::NAN))?,
        })
    }

    // ---- serialization (XMLSerialize + final Decompress) ----------------

    /// Serialize a result sequence to XML text.
    pub fn serialize(&self, seq: &Sequence) -> Result<String, QueryError> {
        let mut out = String::new();
        self.serialize_items(seq, 0, &[], &mut out)?;
        Ok(out)
    }

    /// Serialize `items`, the ones from position `at` of a sequence,
    /// separating adjacent atomic items with a space except at the
    /// positions listed in `seams` (ascending).
    fn serialize_items(
        &self,
        items: &[Item],
        at: usize,
        seams: &[u32],
        out: &mut String,
    ) -> Result<(), QueryError> {
        let mut prev_atomic = false;
        for (i, item) in items.iter().enumerate() {
            let atomic = !item.is_node();
            if atomic && prev_atomic && seams.binary_search(&((at + i) as u32)).is_err() {
                out.push(' ');
            }
            self.serialize_item(item, out)?;
            prev_atomic = atomic;
        }
        Ok(())
    }

    fn serialize_item(&self, item: &Item, out: &mut String) -> Result<(), QueryError> {
        match item {
            Item::Node(n) => self.serialize_element(*n, out),
            Item::Tree(f) => self.serialize_fragment(f, out),
            other => self.write_text(other, false, out),
        }
    }

    /// Write an item's string value escaped as text, or as an attribute
    /// value when `attr`.
    fn write_text(&self, item: &Item, attr: bool, out: &mut String) -> Result<(), QueryError> {
        match item {
            &Item::Comp { container, index } => {
                self.with_value(container, index, |v| escape_into(&v, attr, out))?
            }
            Item::Str(s) => escape_into(s, attr, out),
            other => escape_into(&self.string_value(other)?, attr, out),
        }
        Ok(())
    }

    /// Reconstruct an element subtree from the compressed repository. Its
    /// values are walked twice: attributes into the start tag, then text.
    pub fn serialize_element(&self, n: ElemId, out: &mut String) -> Result<(), QueryError> {
        let tag = self.repo.dict.name(self.repo.tree.tag(n));
        out.push('<');
        out.push_str(tag);
        let mut has_text = false;
        for vr in self.repo.tree.values(n) {
            match self.repo.container(vr.container).leaf {
                ContainerLeaf::Attribute(code) => {
                    out.push(' ');
                    out.push_str(self.repo.dict.name(code));
                    out.push_str("=\"");
                    self.with_value(vr.container, vr.index, |v| escape_into(&v, true, out))?;
                    out.push('"');
                }
                ContainerLeaf::Text => has_text = true,
            }
        }
        if !has_text && self.repo.tree.children(n, None).next().is_none() {
            out.push_str("/>");
            return Ok(());
        }
        out.push('>');
        for vr in self.repo.tree.values(n) {
            if matches!(self.repo.container(vr.container).leaf, ContainerLeaf::Text) {
                self.with_value(vr.container, vr.index, |v| escape_into(&v, false, out))?;
            }
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
        self.write_constructed(f, &f.tag, &f.attrs, 0..f.children.len(), 0..f.nested.len(), out)
    }

    /// Write one element of the flat fragment `f`: its content is
    /// `f.children[content]`, with the nested elements `f.nested[nested]`
    /// (its subtree) at their places in it.
    fn write_constructed(
        &self,
        f: &Fragment,
        tag: &str,
        attrs: &[(Rc<str>, Sequence)],
        content: std::ops::Range<usize>,
        nested: std::ops::Range<usize>,
        out: &mut String,
    ) -> Result<(), QueryError> {
        out.push('<');
        out.push_str(tag);
        for (name, value) in attrs {
            out.push(' ');
            out.push_str(name);
            out.push_str("=\"");
            for (i, item) in value.iter().enumerate() {
                if i > 0 {
                    out.push(' ');
                }
                self.write_text(item, true, out)?;
            }
            out.push('"');
        }
        if content.is_empty() && nested.is_empty() {
            out.push_str("/>");
            return Ok(());
        }
        out.push('>');
        let (mut at, mut k) = (content.start, nested.start);
        while k < nested.end {
            let n = &f.nested[k];
            let (start, end) = (n.start as usize, n.end as usize);
            self.serialize_items(&f.children[at..start], at, &f.seams, out)?;
            self.write_constructed(f, &n.tag, &n.attrs, start..end, k + 1..n.next as usize, out)?;
            (at, k) = (end, n.next as usize);
        }
        self.serialize_items(&f.children[at..content.end], at, &f.seams, out)?;
        out.push_str("</");
        out.push_str(tag);
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

/// The error of a value index beyond its block container.
fn value_range(cid: ContainerId, idx: u32) -> QueryError {
    QueryError { message: format!("value {idx} out of range in container {}", cid.0) }
}

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

/// The element ids of `seq` when every item is a node.
fn node_ids(seq: &[Item]) -> Option<Vec<ElemId>> {
    seq.iter()
        .map(|i| match i {
            Item::Node(n) => Some(*n),
            _ => None,
        })
        .collect()
}

/// Append `items` to `out`, taking over their buffer when `out` has none.
fn append(out: &mut Sequence, items: Sequence) {
    if out.capacity() == 0 {
        *out = items;
    } else {
        out.extend(items);
    }
}

/// Rebuild a row-delimited sequence a row at a time: `f` appends to `out`
/// what row `i`, the input range `starts[i]..starts[i + 1]`, produces, and
/// `starts` is rewritten to delimit the rows in `out`.
fn per_row<T>(
    starts: &mut [u32],
    out: &mut Vec<T>,
    mut f: impl FnMut(std::ops::Range<usize>, &mut Vec<T>) -> Result<(), QueryError>,
) -> Result<(), QueryError> {
    let mut lo = starts[0] as usize;
    for i in 1..starts.len() {
        let hi = starts[i] as usize;
        starts[i - 1] = out.len() as u32;
        f(lo..hi, out)?;
        lo = hi;
    }
    if let Some(end) = starts.last_mut() {
        *end = out.len() as u32;
    }
    Ok(())
}

/// Sort `out[start..]` into document order and drop its duplicates.
fn sort_dedup_from(out: &mut Vec<ElemId>, start: usize) {
    let tail = &mut out[start..];
    // One context node's matches usually are in order already.
    if tail.is_sorted_by(|a, b| a < b) {
        return;
    }
    tail.sort_unstable();
    let mut kept = 1;
    for j in 1..tail.len() {
        if tail[j] != tail[kept - 1] {
            tail[kept] = tail[j];
            kept += 1;
        }
    }
    out.truncate(start + kept);
}

/// Narrow `out[start..]`, one context node's matches for a step, to what
/// the positional predicates in `predicates` select, in order; filters
/// apply elsewhere.
fn keep_positions(predicates: &[StepPredicate], out: &mut Vec<ElemId>, start: usize) {
    for pred in predicates {
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

/// Visit the paths and FLWORs that each evaluation of `e` evaluates exactly
/// once. Parts of `e` that run a varying number of times per evaluation are
/// skipped: `if` branches, the right operand of `and` and `or`,
/// `some`/`every` conditions, step filters and the insides of FLWORs.
fn once_per_eval<'q>(e: &'q Expr, f: &mut impl FnMut(&'q Expr)) {
    walk(e, &mut |x| match x {
        Expr::Path(_) | Expr::Flwor(..) => {
            f(x);
            false
        }
        Expr::If(once, ..) | Expr::And(once, _) | Expr::Or(once, _) => {
            once_per_eval(once, f);
            false
        }
        Expr::Some { source, .. } => {
            once_per_eval(source, f);
            false
        }
        _ => true,
    });
}

/// How many nested elements and other content expressions the flat
/// fragment of `ctor` holds.
fn flat_size(ctor: &ElemCtor) -> (usize, usize) {
    ctor.children.iter().fold((0, 0), |(nested, exprs), c| match c {
        Expr::Elem(inner) => {
            let (n, e) = flat_size(inner);
            (nested + 1 + n, exprs + e)
        }
        _ => (nested, exprs + 1),
    })
}

/// Append row `i`'s items of the FLWOR `e` to `out` when the clause being
/// evaluated over the innermost row batch, row `i` among its rows, ran `e`
/// as a join for all of them; false when it did not.
fn precomputed(e: &Expr, env: &Env, out: &mut Sequence) -> bool {
    let key = e as *const Expr as usize;
    env.iter().rev().find_map(|(_, b)| match b {
        Bound::Row(batch, row) => Some(batch.clause.borrow().read(key, *row, out)),
        _ => None,
    }) == Some(true)
}

/// The join of the FLWOR `e` when [`Engine::hash_join`] decorrelates it;
/// `bound` tells the variables bound outside `e`.
fn join_of<'q>(e: &'q Expr, bound: impl Fn(&str) -> bool) -> Option<Join<'q>> {
    let Expr::Flwor(clauses, ret) = e else { return None };
    let [Clause::For(var, src), rest @ ..] = &clauses[..] else { return None };
    if !matches!(src, Expr::Path(PathExpr { root: PathRoot::Document, .. })) {
        return None;
    }
    // The equality conjunct: one side reads only `$var` (the inner key),
    // the other no variable of the FLWOR but one bound outside it.
    let local = |v: &str| {
        v == var
            || rest.iter().any(|c| matches!(c, Clause::For(n, _) | Clause::Let(n, _) if n == v))
    };
    let inner_ok = |e: &Expr| refs(e, |v| v == var) && !refs(e, |v| v != var);
    let outer_ok = |e: &Expr| !refs(e, local) && refs(e, &bound);
    let (conj, inner, outer) = rest
        .iter()
        .filter_map(|c| match c {
            Clause::Where(w) => Some(w),
            _ => None,
        })
        .flat_map(conjuncts)
        .find_map(|conj| {
            let Expr::Cmp(CmpOp::Eq, a, b) = conj else { return None };
            if inner_ok(a) && outer_ok(b) {
                Some((conj, &**a, &**b))
            } else if inner_ok(b) && outer_ok(a) {
                Some((conj, &**b, &**a))
            } else {
                None
            }
        })?;
    let key = e as *const Expr as usize;
    Some(Join { key, var, src, rest, ret, conj, inner, outer, order: order_of(clauses) })
}

/// Do a join's clauses after its `for`, its conjunct aside, or its return
/// clause read the variable `name`?
fn reads(join: &Join, name: &str) -> bool {
    let read = |e: &Expr| refs(e, |v| v == name);
    read(join.ret)
        || join.rest.iter().any(|c| match c {
            Clause::Where(w) => {
                conjuncts(w).into_iter().any(|c| !std::ptr::eq(c, join.conj) && read(c))
            }
            Clause::For(_, e) | Clause::Let(_, e) | Clause::OrderBy(e, _) => read(e),
        })
}

/// A FLWOR's `order by` key and whether it is descending.
fn order_of(clauses: &[Clause]) -> Option<(&Expr, bool)> {
    clauses.iter().find_map(|c| match c {
        Clause::OrderBy(e, desc) => Some((e, *desc)),
        _ => None,
    })
}

/// Is `p` rooted at `$var` with element steps on any axis, each with at
/// most positional predicates (no boolean filter), optionally ending in
/// `text()` or `@attr`?
fn is_row_local(p: &PathExpr, var: &str) -> bool {
    matches!(&p.root, PathRoot::Var(v) if v == var)
        && p.steps.iter().enumerate().all(|(i, s)| match &s.test {
            NodeTest::Tag(_) | NodeTest::AnyElement => {
                s.predicates.iter().all(|p| !matches!(p, StepPredicate::Filter(_)))
            }
            NodeTest::Text | NodeTest::Attr(_) => i + 1 == p.steps.len() && s.predicates.is_empty(),
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

/// Does the expression reference a variable whose name satisfies `hit`?
fn refs(e: &Expr, mut hit: impl FnMut(&str) -> bool) -> bool {
    let mut found = false;
    walk(e, &mut |x| {
        if let Expr::Var(v) | Expr::Path(PathExpr { root: PathRoot::Var(v), .. }) = x {
            found |= hit(v);
        }
        !found
    });
    found
}

/// Visit `e` and, where `f` returns true, its subexpressions, in
/// evaluation order.
fn walk<'q>(e: &'q Expr, f: &mut impl FnMut(&'q Expr) -> bool) {
    if !f(e) {
        return;
    }
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
