//! Batch-pull executors.
//!
//! Every operator is a pull-based iterator with one method,
//! [`Executor::next_batch`]: operators exchange [`Batch`]es of up to
//! `batch_size` rows (default 1024, `SET batch_size`, max
//! [`MAX_BATCH_ROWS`]), and row-at-a-time execution is simply the
//! degenerate `batch_size = 1`.  Scans and filters evaluate predicates
//! through [`Expr::eval_batch`], which dispatches ψ/Ω once per batch
//! instead of once per row.

use crate::catalog::{Catalog, PreparedOperands, SessionVars, TableMeta};
use crate::error::{Error, Result};
use crate::expr::{and_batch, EvalCtx, Expr};
use crate::plan::{AggFunc, NodeActuals, PhysNode, PhysOp};
use crate::schema::{Row, Schema};
use crate::storage::{
    decode_row, read_field, read_tuple, split_version, BufferPool, HeapFile, TupleId,
    VERSION_HEADER_LEN,
};
use crate::txn::TxnVisibility;
use crate::value::{Datum, DatumRef};
use std::collections::{HashMap, VecDeque};
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// A relaxed atomic counter: the statistics cells are written from
/// whichever thread runs the executor tree, so plans stay `Send` and many
/// sessions can execute concurrently.  Relaxed ordering suffices — the
/// values are monotone tallies read after the query completes.
#[derive(Debug, Default)]
pub struct StatCell(AtomicU64);

impl StatCell {
    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }

    /// Overwrite the value.
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed)
    }

    /// Add to the value.
    pub fn add(&self, delta: u64) {
        self.0.fetch_add(delta, Ordering::Relaxed);
    }
}

/// Runtime counters outside the buffer pool (index traffic, operator calls).
#[derive(Debug, Default)]
pub struct ExecStats {
    /// Index nodes visited (charged as page reads in reporting).
    pub index_node_visits: StatCell,
    /// Extension-operator invocations, counted where they happen — in
    /// `Expr::eval`'s ExtOp arm — so the total reconciles with the cost
    /// model's per-tuple charge no matter which operator evaluates the
    /// predicate.
    pub ext_op_calls: StatCell,
    /// Batches produced by the plan root (equals the row count at
    /// `batch_size = 1`).
    pub batches_out: StatCell,
}

/// Execution context shared by all executors of one query, and by the
/// worker threads of its parallel scans (hence `Sync`).
pub struct ExecCtx<'a> {
    /// The catalog.
    pub catalog: &'a Catalog,
    /// The buffer pool.
    pub pool: &'a BufferPool,
    /// Session variables.
    pub session: &'a SessionVars,
    /// Runtime counters.
    pub stats: &'a ExecStats,
    /// MVCC visibility: which heap tuple versions this statement sees.
    pub vis: TxnVisibility,
}

impl<'a> ExecCtx<'a> {
    fn eval_ctx(&self) -> EvalCtx<'a> {
        EvalCtx {
            catalog: self.catalog,
            session: self.session,
            stats: Some(self.stats),
        }
    }
}

/// Per-operator runtime actuals, filled in by `InstrumentedExec`.
///
/// All figures are **inclusive of children** (like PostgreSQL's
/// `EXPLAIN (ANALYZE, BUFFERS)`): a node's time and page counts cover
/// everything beneath it.  Atomic cells so instrumented trees stay
/// `Send` like their uninstrumented counterparts.
#[derive(Debug, Default)]
pub struct OpStats {
    /// Rows this node produced.
    pub rows: StatCell,
    /// Wall-clock nanoseconds spent inside this node and its children.
    pub time_ns: StatCell,
    /// Buffer-pool page requests attributed to this subtree.
    pub logical_reads: StatCell,
    /// Buffer-pool misses attributed to this subtree.
    pub physical_reads: StatCell,
    /// Index nodes visited in this subtree.
    pub index_node_visits: StatCell,
    /// Extension-operator (ψ/Ω) evaluations in this subtree.
    pub ext_op_calls: StatCell,
    /// Batches this node produced.
    pub batches: StatCell,
}

/// Per-node stats for an instrumented executor tree, in the same
/// pre-order as [`PhysNode::explain`] lines (node before children,
/// outer/left child before inner/right).
pub struct Instrumentation {
    /// One entry per plan node, pre-order.
    pub per_node: Vec<Arc<OpStats>>,
    /// Per-worker actuals of each parallel scan in the tree, in the
    /// pre-order the scans appear in the plan.
    pub parallel: Vec<Arc<ParallelScanActuals>>,
}

impl Instrumentation {
    /// Snapshot of every node's actuals, pre-order.
    pub fn actuals(&self) -> Vec<NodeActuals> {
        self.per_node
            .iter()
            .map(|s| NodeActuals {
                rows: s.rows.get(),
                batches: s.batches.get(),
                time: Duration::from_nanos(s.time_ns.get()),
                pages: s.logical_reads.get(),
                pages_read: s.physical_reads.get(),
                index_node_visits: s.index_node_visits.get(),
                ext_op_calls: s.ext_op_calls.get(),
            })
            .collect()
    }
}

/// Runtime actuals of one morsel-driven parallel scan, split per worker
/// (`EXPLAIN ANALYZE` renders them as extra trailer lines so the
/// one-entry-per-node pre-order of [`NodeActuals`] is undisturbed).
#[derive(Debug)]
pub struct ParallelScanActuals {
    /// Worker count the scan was planned with.
    pub workers: usize,
    /// Rounds of workers spawned and joined: one per pull that found the
    /// buffer empty and pages left.
    pub rounds: StatCell,
    /// Morsels (fixed-size page ranges) claimed across all workers.
    pub morsels: StatCell,
    /// Nanoseconds the query thread spent joining its workers.
    pub gather_wait_ns: StatCell,
    /// Rows each worker emitted (post-filter).
    pub worker_rows: Vec<StatCell>,
    /// Busy nanoseconds per worker.
    pub worker_busy_ns: Vec<StatCell>,
}

impl ParallelScanActuals {
    fn new(workers: usize) -> Self {
        ParallelScanActuals {
            workers,
            rounds: StatCell::default(),
            morsels: StatCell::default(),
            gather_wait_ns: StatCell::default(),
            worker_rows: (0..workers).map(|_| StatCell::default()).collect(),
            worker_busy_ns: (0..workers).map(|_| StatCell::default()).collect(),
        }
    }
}

// ------------------------------------------------------------------ Batch

/// Session variable naming the per-batch row capacity (`SET batch_size`,
/// clamped to `[1, MAX_BATCH_ROWS]`; `batch_size = 1` degenerates to
/// row-at-a-time pulls through the batch ABI).
pub const BATCH_SIZE_VAR: &str = "batch_size";

/// Hard upper bound on rows per batch: batches stay cache-friendly slabs
/// of a few thousand rows, never unbounded materializations.
pub const MAX_BATCH_ROWS: usize = 4096;

/// The process default batch size: `$MLQL_BATCH_SIZE` if set (clamped to
/// `[1, MAX_BATCH_ROWS]`), else 1024.
pub fn default_batch_size() -> usize {
    static DEFAULT: OnceLock<usize> = OnceLock::new();
    *DEFAULT.get_or_init(|| {
        std::env::var("MLQL_BATCH_SIZE")
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .map(|n| n.clamp(1, MAX_BATCH_ROWS))
            .unwrap_or(1024)
    })
}

/// The batch size a session's queries run with: `batch_size` if set, else
/// [`default_batch_size`], clamped to `[1, MAX_BATCH_ROWS]`.
pub fn effective_batch_size(session: &SessionVars) -> usize {
    (session
        .get_int(BATCH_SIZE_VAR, default_batch_size() as i64)
        .max(1) as usize)
        .min(MAX_BATCH_ROWS)
}

/// A slab of rows flowing between operators.
///
/// Rows are stored in producer order.  Producers never emit empty batches
/// — end-of-stream is `None` from [`Executor::next_batch`] — and never
/// more than the `max` the consumer asked for, so LIMIT and `max_rows`
/// keep exact semantics.
#[derive(Debug, Default)]
pub struct Batch {
    /// The rows, in producer order.
    pub rows: Vec<Row>,
}

impl Batch {
    /// Wrap rows into a batch.
    pub fn new(rows: Vec<Row>) -> Batch {
        Batch { rows }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when the batch holds no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }
}

/// Evaluate `filter` over the rows of `items` via [`Expr::eval_batch`],
/// keeping only the passing items (order preserved).
fn filter_batch<T>(
    filter: &Expr,
    items: Vec<T>,
    row_of: impl Fn(&T) -> &[Datum],
    eval: &EvalCtx<'_>,
) -> Result<Vec<T>> {
    if items.is_empty() {
        return Ok(items);
    }
    let refs: Vec<&[Datum]> = items.iter().map(row_of).collect();
    let mask = filter.eval_batch(&refs, eval)?;
    Ok(items
        .into_iter()
        .zip(mask)
        .filter_map(|(item, v)| v.is_true().then_some(item))
        .collect())
}

/// Drain `input` to exhaustion, feeding every row to `sink`.  The bulk
/// drains (aggregate/sort input, hash-join build, materialized
/// nested-loops inner) all funnel through here.
fn drain_input(
    input: &mut dyn Executor,
    ctx: &ExecCtx<'_>,
    mut sink: impl FnMut(Row) -> Result<()>,
) -> Result<()> {
    let max = effective_batch_size(ctx.session);
    while let Some(batch) = input.next_batch(ctx, max)? {
        for row in batch.rows {
            sink(row)?;
        }
    }
    Ok(())
}

/// Hand out up to `max` rows of a materialized result by move
/// (aggregate and sort output).
fn emit_buffered(buf: &mut std::vec::IntoIter<Row>, max: usize) -> Option<Batch> {
    let rows: Vec<Row> = buf.by_ref().take(max).collect();
    (!rows.is_empty()).then(|| Batch::new(rows))
}

/// Append `outer ++ inner` to `out` for every inner row that passes the
/// join predicate, `bound` being that predicate bound to `outer`
/// ([`Expr::bind_outer`]).  The bound predicate runs once over the whole
/// inner slice, so the operator's per-batch setup is paid once per outer
/// row — ψ converts the outer name's phonemes and compiles one Myers
/// matcher, then runs it over every inner name — and a joined row is
/// built only for a pair that passes.  With `prepared` — the inner side's
/// operands prepared once, and where `inners` starts among the inner
/// rows — the predicate's leading conjunct runs over those
/// ([`PreparedInner::verdicts`]); otherwise the whole predicate runs
/// through [`Expr::eval_batch`].
fn join_rows(
    outer: &Row,
    inners: &[Row],
    bound: Option<&Expr>,
    prepared: Option<(&PreparedInner, usize)>,
    eval: &EvalCtx<'_>,
    out: &mut Vec<Row>,
) -> Result<()> {
    let joined = |inner: &Row| {
        let mut row = Row::with_capacity(outer.len() + inner.len());
        row.extend_from_slice(outer);
        row.extend_from_slice(inner);
        row
    };
    let Some(p) = bound else {
        out.extend(inners.iter().map(joined));
        return Ok(());
    };
    if inners.is_empty() {
        return Ok(());
    }
    // ext_op_calls is counted inside `BatchExtOp::verdicts_by`.
    let mask = match prepared {
        Some((prepared, start)) => prepared.verdicts(p, inners, start, eval)?,
        None => {
            let refs: Vec<&[Datum]> = inners.iter().map(Vec::as_slice).collect();
            p.eval_batch(&refs, eval)?
        }
    };
    // By reference: consuming the mask by value (`zip(mask)`) cost
    // ~10 ns an inner row, 5× this loop (2-vCPU host).
    for (inner, v) in inners.iter().zip(&mask) {
        if v.is_true() {
            out.push(joined(inner));
        }
    }
    Ok(())
}

/// A nested loop's inner operands for the join predicate's leading
/// conjunct, prepared once per execution by its operator's
/// `prepare_batch` hook, so that work depending only on an inner value
/// (ψ's phonemes and phone sets) is not redone for every outer row.
struct PreparedInner {
    /// The inner column the leading conjunct reads.
    col: usize,
    /// That column's non-NULL values, in row order.
    operands: Box<dyn PreparedOperands>,
    /// `first[i]`: how many of the inner rows before row `i` hold a
    /// non-NULL value, i.e. where row `i`'s value (or the next one) sits
    /// among `operands`; `first[rows]` is their count.
    first: Vec<usize>,
}

impl PreparedInner {
    /// Prepare `inner` for `bound`, the join predicate bound to an outer
    /// row, when its leading conjunct ([`leading_conjunct`], as the page
    /// step splits a scan filter) is `const OP inner_col` (or
    /// `inner_col OP const`) and OP has a `prepare_batch` hook.  Every
    /// outer row binds to the same shape, so one check serves the join.
    fn new(bound: &Expr, inner: &[Row], eval: &EvalCtx<'_>) -> Result<Option<PreparedInner>> {
        let Some(lead) = leading_conjunct(bound).0.batch_ext_op(eval)? else {
            return Ok(None);
        };
        let (Some(col), Some(prepare)) = (lead.column(), lead.prepare_hook()) else {
            return Ok(None);
        };
        let mut first = Vec::with_capacity(inner.len() + 1);
        let mut operands = Vec::with_capacity(inner.len());
        for row in inner {
            first.push(operands.len());
            let v = row
                .get(col)
                .ok_or_else(|| Error::Execution(format!("column {col} out of range")))?;
            if !v.is_null() {
                operands.push(v.as_ref());
            }
        }
        first.push(operands.len());
        Ok(Some(PreparedInner {
            col,
            operands: prepare(&operands, eval.session)?,
            first,
        }))
    }

    /// `bound`'s verdicts over `rows`, the inner rows from `start` on:
    /// the leading conjunct through the prepared operands, then the rest
    /// AND-ed on ([`and_batch`]) — the same values and counters as
    /// [`Expr::eval_batch`] over `rows`.
    fn verdicts(
        &self,
        bound: &Expr,
        rows: &[Row],
        start: usize,
        eval: &EvalCtx<'_>,
    ) -> Result<Vec<Datum>> {
        let (lead, rest) = leading_conjunct(bound);
        let lead = lead
            .batch_ext_op(eval)?
            .expect("every outer row binds the shape that was prepared");
        let vals: Vec<DatumRef<'_>> = rows.iter().map(|r| r[self.col].as_ref()).collect();
        let at = self.first[start];
        let mut acc = lead.verdicts_by(&vals, eval, |operands, constant| {
            self.operands
                .verdicts(at..at + operands.len(), constant, eval.session)
        })?;
        if !rest.is_empty() {
            let refs: Vec<&[Datum]> = rows.iter().map(Vec::as_slice).collect();
            for conjunct in rest {
                and_batch(&mut acc, &refs, conjunct, eval)?;
            }
        }
        Ok(acc)
    }
}

/// Wraps an executor, attributing per-`next_batch` deltas of the shared
/// query counters (pool I/O, index visits, ext-op calls) to this node.
struct InstrumentedExec {
    inner: Box<dyn Executor>,
    stats: Arc<OpStats>,
}

impl Executor for InstrumentedExec {
    fn schema(&self) -> &Schema {
        self.inner.schema()
    }

    fn next_batch(&mut self, ctx: &ExecCtx<'_>, max: usize) -> Result<Option<Batch>> {
        let io_before = ctx.pool.stats();
        let inv_before = ctx.stats.index_node_visits.get();
        let ext_before = ctx.stats.ext_op_calls.get();
        let start = Instant::now();
        let out = self.inner.next_batch(ctx, max);
        let elapsed = start.elapsed().as_nanos() as u64;
        let io = ctx.pool.stats().since(&io_before);
        let s = &self.stats;
        s.time_ns.add(elapsed);
        s.logical_reads.add(io.logical_reads);
        s.physical_reads.add(io.physical_reads);
        s.index_node_visits
            .add(ctx.stats.index_node_visits.get() - inv_before);
        s.ext_op_calls
            .add(ctx.stats.ext_op_calls.get() - ext_before);
        if let Ok(Some(b)) = &out {
            s.rows.add(b.len() as u64);
            s.batches.add(1);
        }
        out
    }
}

/// A pull-based operator.
///
/// `Send` so a built executor tree can run on whichever thread owns the
/// session — the cached-plan execution path hands trees across threads.
pub trait Executor: Send {
    /// Output schema.
    fn schema(&self) -> &Schema;
    /// Produce the next batch of up to `max` rows (`max ≥ 1`), or `None`
    /// at end of stream.
    ///
    /// Contract: a returned batch is never empty and never longer than
    /// `max`, and rows arrive in the operator's one production order
    /// whatever sequence of `max` values the consumer asks with — which
    /// is what lets LIMIT and `max_rows` stay exact.  Once `None` is
    /// returned, further calls keep returning `None`.
    fn next_batch(&mut self, ctx: &ExecCtx<'_>, max: usize) -> Result<Option<Batch>>;
}

/// Build an executor tree from a physical plan.
pub fn build_executor(node: &PhysNode, ctx: &ExecCtx<'_>) -> Result<Box<dyn Executor>> {
    build_executor_impl(node, ctx, None)
}

/// Build an executor tree where every node is wrapped for per-operator
/// actuals (rows / time / pages).  The returned
/// [`Instrumentation`] holds one [`OpStats`] per plan node, in the same
/// pre-order as `EXPLAIN` output lines.
pub fn build_instrumented(
    node: &PhysNode,
    ctx: &ExecCtx<'_>,
) -> Result<(Box<dyn Executor>, Instrumentation)> {
    let mut instr = Instrumentation {
        per_node: Vec::new(),
        parallel: Vec::new(),
    };
    let exec = build_executor_impl(node, ctx, Some(&mut instr))?;
    Ok((exec, instr))
}

fn build_executor_impl(
    node: &PhysNode,
    ctx: &ExecCtx<'_>,
    mut instr: Option<&mut Instrumentation>,
) -> Result<Box<dyn Executor>> {
    // Register this node BEFORE building children so `per_node` matches
    // the pre-order of `explain` lines.
    let op_stats = instr.as_deref_mut().map(|i| {
        let s = Arc::new(OpStats::default());
        i.per_node.push(Arc::clone(&s));
        s
    });
    let exec: Box<dyn Executor> = match &node.op {
        PhysOp::SeqScan {
            table,
            filter,
            workers,
            ..
        } => {
            let meta = ctx.catalog.table(table)?;
            let actuals = instr.as_deref_mut().filter(|_| *workers > 1).map(|i| {
                let a = Arc::new(ParallelScanActuals::new(*workers));
                i.parallel.push(Arc::clone(&a));
                a
            });
            Box::new(SeqScanExec::new(meta, filter.clone(), *workers, actuals))
        }
        PhysOp::IndexScan {
            table,
            index,
            strategy,
            probe,
            extra,
            residual,
        } => {
            let meta = ctx.catalog.table(table)?;
            let idx = index_of(ctx.catalog, &meta, index)?;
            Box::new(IndexScanExec::new(
                meta,
                idx,
                strategy.clone(),
                probe.clone(),
                extra.clone(),
                residual.clone(),
            ))
        }
        PhysOp::Filter { input, predicate } => Box::new(FilterExec {
            input: build_executor_impl(input, ctx, instr.as_deref_mut())?,
            predicate: predicate.clone(),
        }),
        PhysOp::Project { input, exprs } => Box::new(ProjectExec {
            input: build_executor_impl(input, ctx, instr.as_deref_mut())?,
            exprs: exprs.clone(),
            schema: node.schema.clone(),
        }),
        PhysOp::NlJoin {
            outer,
            inner,
            predicate,
        } => Box::new(NlJoinExec {
            outer: build_executor_impl(outer, ctx, instr.as_deref_mut())?,
            inner: build_executor_impl(inner, ctx, instr.as_deref_mut())?,
            predicate: predicate.clone(),
            schema: node.schema.clone(),
            inner_rows: None,
            prepared: None,
            outer_rows: Vec::new(),
            outer_pos: 0,
            bound: None,
            inner_pos: 0,
        }),
        PhysOp::HashJoin {
            left,
            right,
            left_key,
            right_key,
            residual,
        } => Box::new(HashJoinExec {
            left: build_executor_impl(left, ctx, instr.as_deref_mut())?,
            right: build_executor_impl(right, ctx, instr.as_deref_mut())?,
            left_key: left_key.clone(),
            right_key: right_key.clone(),
            residual: residual.clone(),
            schema: node.schema.clone(),
            table: None,
            probe_rows: Vec::new(),
            probe_pos: 0,
            bound: None,
            match_pos: 0,
        }),
        PhysOp::Aggregate {
            input,
            group_by,
            aggs,
        } => Box::new(AggregateExec {
            input: build_executor_impl(input, ctx, instr.as_deref_mut())?,
            group_by: group_by.clone(),
            aggs: aggs.clone(),
            schema: node.schema.clone(),
            output: None,
        }),
        PhysOp::Sort { input, keys } => Box::new(SortExec {
            input: build_executor_impl(input, ctx, instr.as_deref_mut())?,
            keys: keys.clone(),
            buffered: None,
        }),
        PhysOp::Limit { input, n } => Box::new(LimitExec {
            input: build_executor_impl(input, ctx, instr)?,
            remaining: *n,
        }),
        PhysOp::Values { rows } => Box::new(ValuesExec {
            rows: rows.clone(),
            schema: node.schema.clone(),
            pos: 0,
        }),
    };
    Ok(match op_stats {
        Some(stats) => Box::new(InstrumentedExec { inner: exec, stats }),
        None => exec,
    })
}

/// The index `name` of `meta`'s table.
fn index_of(
    catalog: &Catalog,
    meta: &TableMeta,
    name: &str,
) -> Result<Arc<crate::catalog::IndexMeta>> {
    catalog
        .indexes_of(meta.id)
        .into_iter()
        .find(|i| i.name == name)
        .ok_or_else(|| Error::Execution(format!("no index {name:?}")))
}

/// Session variable bounding how many rows a statement may materialize.
pub const MAX_ROWS_VAR: &str = "max_rows";

/// Run a plan to completion, collecting all rows.
pub fn run_to_vec(node: &PhysNode, ctx: &ExecCtx<'_>) -> Result<Vec<Row>> {
    drain_to_vec(build_executor(node, ctx)?.as_mut(), ctx)
}

/// Pull a built executor tree to exhaustion — the one root driver, shared
/// by plain execution and `EXPLAIN ANALYZE` (which builds an instrumented
/// tree first).
///
/// Honors the `max_rows` session variable (0 or unset = unlimited): a
/// runaway SELECT fails with [`Error::MaxRows`] instead of materializing
/// an unbounded `Vec<Row>`.
pub fn drain_to_vec(exec: &mut dyn Executor, ctx: &ExecCtx<'_>) -> Result<Vec<Row>> {
    let max_rows = ctx.session.get_int(MAX_ROWS_VAR, 0).max(0) as u64;
    // Resolve the activity slot once; the per-batch cost is then a single
    // relaxed fetch_add on the owning session's slot.
    let slot = crate::obs::current().and_then(|c| c.slot.clone());
    let max = effective_batch_size(ctx.session);
    let mut out = Vec::new();
    let mut batches = 0u64;
    while let Some(batch) = exec.next_batch(ctx, max)? {
        debug_assert!(!batch.is_empty() && batch.len() <= max);
        batches += 1;
        if max_rows > 0 && (out.len() + batch.len()) as u64 > max_rows {
            return Err(Error::MaxRows { limit: max_rows });
        }
        if let Some(slot) = &slot {
            slot.add_rows(batch.len() as u64);
        }
        out.extend(batch.rows);
    }
    ctx.stats.batches_out.set(batches);
    Ok(out)
}

// ---------------------------------------------------------------- SeqScan

/// Session variable naming the worker count for parallel plans.
pub const PARALLEL_WORKERS_VAR: &str = "parallel_workers";

/// Hard ceiling on a parallel scan's worker count, whatever
/// `parallel_workers` asks for.
const MAX_WORKERS: usize = 64;

/// Pages per morsel.  Small enough that a 4-worker scan of a few dozen
/// pages still load-balances, large enough that a claim on the shared
/// cursor is amortized over hundreds of rows.
pub(crate) const MORSEL_PAGES: u32 = 4;

/// Default worker count for sessions that never `SET parallel_workers`:
/// the `MLQL_PARALLEL_WORKERS` environment variable if set (CI pins it
/// to surface scheduling-dependent flakes), else the machine's CPU
/// parallelism.
fn default_workers() -> usize {
    if let Ok(v) = std::env::var("MLQL_PARALLEL_WORKERS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            return n.clamp(1, MAX_WORKERS);
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(MAX_WORKERS)
}

/// The worker count a session's parallel plans run with: the
/// `parallel_workers` variable if set, else `default_workers`,
/// clamped to `[1, MAX_WORKERS]`.
pub fn effective_workers(session: &SessionVars) -> usize {
    let n = session
        .get_int(PARALLEL_WORKERS_VAR, default_workers() as i64)
        .max(1) as usize;
    n.min(MAX_WORKERS)
}

/// The page step every heap scan runs: one heap page's image and the
/// tuples on it that the snapshot sees, waiting for the filter.  Nothing
/// is decoded on load.  When the filter leads with an extension predicate
/// `col OP const` whose operator has a batch hook, that conjunct runs on
/// the column's fields borrowed from the image ([`read_field`]), and only
/// the rows it passes are decoded; any other filter decodes first.  The
/// image's buffer is reused page after page: a fresh page-sized
/// allocation per page cost a 2-worker ψ scan of 50k rows ~20 % of its
/// CPU (2-vCPU host).
#[derive(Default)]
struct HeapPage {
    img: Vec<u8>,
    arity: usize,
    /// `(slot, xmax, row bytes)` of the visible tuples, the row bytes as
    /// a range of `img`; those from `next` on are not filtered yet.
    visible: Vec<(u16, u64, Range<usize>)>,
    next: usize,
}

impl HeapPage {
    /// Read heap page `page` and note the tuples on it the snapshot sees.
    /// The image is copied out under the pool mutex and read outside it,
    /// so a scan never holds the (pool-wide) lock while it filters.
    fn load(&mut self, meta: &TableMeta, page: u32, ctx: &ExecCtx<'_>) -> Result<()> {
        self.visible.clear();
        self.next = 0;
        self.arity = meta.schema.len();
        let img = &mut self.img;
        ctx.pool.with_page(meta.heap.file_id(), page, |buf| {
            img.clear();
            img.extend_from_slice(buf);
        })?;
        for (slot, at) in HeapFile::page_tuple_ranges(img) {
            let (xmin, xmax, _) = split_version(&img[at.clone()])?;
            if ctx.vis.sees(xmin, xmax) {
                let row = at.start + VERSION_HEADER_LEN..at.end;
                self.visible.push((slot, xmax, row));
            }
        }
        Ok(())
    }

    /// Run `filter` over the next `room` visible tuples (at most) and
    /// return the `(slot, xmax, row)` of each survivor.
    fn filter(
        &mut self,
        filter: Option<&Expr>,
        room: usize,
        eval: &EvalCtx<'_>,
    ) -> Result<Vec<(u16, u64, Row)>> {
        let end = self.visible.len().min(self.next.saturating_add(room));
        let candidates = &self.visible[self.next..end];
        self.next = end;
        let (img, arity) = (&self.img, self.arity);
        let decode = |(slot, xmax, at): &(u16, u64, Range<usize>)| -> Result<(u16, u64, Row)> {
            Ok((*slot, *xmax, decode_row(&img[at.clone()], arity)?))
        };
        let decode_all = || {
            let mut rows = Vec::with_capacity(candidates.len());
            for c in candidates {
                rows.push(decode(c)?);
            }
            Ok(rows)
        };
        let Some(filter) = filter else {
            return decode_all();
        };
        let (lead, rest) = leading_conjunct(filter);
        let on_image = lead
            .batch_ext_op(eval)?
            .and_then(|p| Some((p.column()?, p)));
        let Some((col, lead)) = on_image else {
            return filter_batch(filter, decode_all()?, |t| &t.2, eval);
        };
        let mut fields = Vec::with_capacity(candidates.len());
        for (_, _, at) in candidates {
            fields.push(read_field(&img[at.clone()], arity, col)?);
        }
        let verdicts = lead.verdicts(&fields, eval)?;
        // Decode the rows the leading conjunct passes — and, when more
        // conjuncts follow, those it leaves NULL: AND still evaluates the
        // next conjunct on them.
        let mut rows = Vec::new();
        let mut acc = Vec::new();
        for (c, v) in candidates.iter().zip(verdicts) {
            if v.is_true() || (!rest.is_empty() && !matches!(v, Datum::Bool(false))) {
                rows.push(decode(c)?);
                acc.push(v);
            }
        }
        if !rest.is_empty() {
            let refs: Vec<&[Datum]> = rows.iter().map(|t| t.2.as_slice()).collect();
            for conjunct in rest {
                and_batch(&mut acc, &refs, conjunct, eval)?;
            }
        }
        Ok(rows
            .into_iter()
            .zip(acc)
            .filter_map(|(t, v)| v.is_true().then_some(t))
            .collect())
    }

    /// The stored bytes, version header included, of the tuple at `slot`.
    fn stored(&self, slot: u16) -> &[u8] {
        read_tuple(&self.img, slot).expect("a slot read from this image")
    }
}

/// A filter split at its first conjunct: `((a AND b) AND c)` is `a`, then
/// `[b, c]` in evaluation order.  AND-ing the rest onto `a`'s verdicts one
/// by one ([`and_batch`]) evaluates every conjunct on the same rows, and
/// gives the same values, as `eval_batch` over the whole filter.
fn leading_conjunct(filter: &Expr) -> (&Expr, Vec<&Expr>) {
    let mut lead = filter;
    let mut rest = Vec::new();
    while let Expr::And(l, r) = lead {
        rest.push(&**r);
        lead = l;
    }
    rest.reverse();
    (lead, rest)
}

/// Heap scan with a pushed-down filter, morsel-driven at two or more
/// workers.
///
/// At one worker the scan runs on the calling thread.  It claims one
/// page at a time off the cursor and filters only as many visible tuples
/// as the batch still has room for, so every batch but the last is full
/// and a `LIMIT` above pays the filter for no row it does not take.  The
/// filter runs per batch via `eval_batch`: this is where ψ's per-batch
/// memoization (constant phoneme conversion, Myers mask) kicks in.
///
/// At two or more, a pull that finds the buffer empty runs one round of
/// `workers` scoped threads that borrow the query's [`ExecCtx`].
/// Workers claim [`MORSEL_PAGES`] pages at a time off the shared cursor,
/// run the same page step over whole pages, and stop claiming once
/// together they hold the `max` rows the consumer asked for or the pages
/// run out; the query thread only joins them, then hands the rows out
/// `max` at a time.  Row order depends on scheduling, which is why
/// parallel plans equal serial ones only up to row order.  Sizing each
/// round by `max` keeps `LIMIT` and `max_rows` cheap: a `LIMIT 1` above
/// reads at most `workers × MORSEL_PAGES` pages.
struct SeqScanExec {
    meta: Arc<TableMeta>,
    filter: Option<Expr>,
    workers: usize,
    actuals: Option<Arc<ParallelScanActuals>>,
    /// Next unclaimed page: survives pulls.
    cursor: AtomicU32,
    n_pages: Option<u32>,
    /// The page a serial scan is filtering.
    page: HeapPage,
    /// Rows a parallel round found and has not handed out yet.
    buffer: VecDeque<Row>,
}

impl SeqScanExec {
    fn new(
        meta: Arc<TableMeta>,
        filter: Option<Expr>,
        workers: usize,
        actuals: Option<Arc<ParallelScanActuals>>,
    ) -> Self {
        SeqScanExec {
            meta,
            filter,
            workers: workers.max(1),
            actuals,
            cursor: AtomicU32::new(0),
            n_pages: None,
            page: HeapPage::default(),
            buffer: VecDeque::new(),
        }
    }

    fn n_pages(&mut self, ctx: &ExecCtx<'_>) -> Result<u32> {
        match self.n_pages {
            Some(n) => Ok(n),
            None => Ok(*self.n_pages.insert(self.meta.heap.pages(ctx.pool)?)),
        }
    }

    /// The serial scan's next batch: up to `max` survivors, one page at
    /// a time.
    fn next_serial(&mut self, ctx: &ExecCtx<'_>, max: usize) -> Result<Option<Batch>> {
        let n_pages = self.n_pages(ctx)?;
        let eval = ctx.eval_ctx();
        let mut out = Vec::new();
        while out.len() < max {
            if self.page.next == self.page.visible.len() {
                let page = self.cursor.get_mut();
                if *page >= n_pages {
                    break;
                }
                self.page.load(&self.meta, *page, ctx)?;
                *page += 1;
            }
            let room = max - out.len();
            let survivors = self.page.filter(self.filter.as_ref(), room, &eval)?;
            out.extend(survivors.into_iter().map(|t| t.2));
        }
        Ok((!out.is_empty()).then(|| Batch::new(out)))
    }

    /// Run one round of workers, appending what they find to `buffer`:
    /// at least `max` rows, or every remaining one when the pages run out
    /// first.  A worker's error or panic fails the scan.
    fn pull(&mut self, ctx: &ExecCtx<'_>, max: usize) -> Result<()> {
        let n_pages = self.n_pages(ctx)?;
        if self.cursor.load(Ordering::Relaxed) >= n_pages {
            return Ok(());
        }
        // Workers enter the session's query context, so waits and
        // progress charged on their threads land on this query.
        let qctx = crate::obs::current();
        if let Some(slot) = qctx.as_ref().and_then(|c| c.slot.as_ref()) {
            slot.set_workers(self.workers as u64);
        }
        if let Some(a) = &self.actuals {
            a.rounds.add(1);
        }
        let round = ScanRound {
            meta: &self.meta,
            filter: self.filter.as_ref(),
            cursor: &self.cursor,
            n_pages,
            max,
            held: AtomicUsize::new(0),
            stop: AtomicBool::new(false),
            actuals: self.actuals.as_deref(),
        };
        let (results, waited) = std::thread::scope(|s| {
            let handles: Vec<_> = (0..self.workers)
                .map(|idx| {
                    let (round, qctx) = (&round, qctx.clone());
                    std::thread::Builder::new()
                        .name(format!("mlql-scan-{idx}"))
                        .spawn_scoped(s, move || {
                            let _query = qctx.map(crate::obs::enter_query);
                            round.work(ctx, idx)
                        })
                        .inspect_err(|_| round.stop.store(true, Ordering::Relaxed))
                })
                .collect();
            let wait = Instant::now();
            let results: Vec<Result<Vec<Row>>> = handles
                .into_iter()
                .enumerate()
                .map(|(idx, handle)| match handle {
                    Ok(h) => h.join().unwrap_or_else(|panic| {
                        Err(Error::Execution(format!(
                            "parallel scan worker {idx} panicked: {}",
                            panic_message(&*panic)
                        )))
                    }),
                    Err(e) => Err(Error::Execution(format!(
                        "cannot start parallel scan worker {idx}: {e}"
                    ))),
                })
                .collect();
            (results, wait.elapsed().as_nanos() as u64)
        });
        if let Some(a) = &self.actuals {
            a.gather_wait_ns.add(waited);
        }
        for rows in results {
            self.buffer.extend(rows?);
        }
        Ok(())
    }
}

impl Executor for SeqScanExec {
    fn schema(&self) -> &Schema {
        &self.meta.schema
    }

    fn next_batch(&mut self, ctx: &ExecCtx<'_>, max: usize) -> Result<Option<Batch>> {
        if self.workers == 1 {
            return self.next_serial(ctx, max);
        }
        if self.buffer.is_empty() {
            self.pull(ctx, max)?;
        }
        let take = self.buffer.len().min(max);
        Ok((take > 0).then(|| Batch::new(self.buffer.drain(..take).collect())))
    }
}

/// What the workers of one parallel [`SeqScanExec`] pull share.  The
/// atomics publish no data — rows travel back through `join`, which
/// synchronizes — so every access is `Relaxed`.
struct ScanRound<'s> {
    meta: &'s TableMeta,
    filter: Option<&'s Expr>,
    cursor: &'s AtomicU32,
    n_pages: u32,
    /// Stop claiming once the workers together hold this many rows.
    max: usize,
    held: AtomicUsize,
    /// Set when a worker fails or panics: the others stop at their next
    /// morsel.
    stop: AtomicBool,
    actuals: Option<&'s ParallelScanActuals>,
}

impl ScanRound<'_> {
    /// Worker `idx`'s share of the round, with its busy time and rows
    /// recorded.
    fn work(&self, ctx: &ExecCtx<'_>, idx: usize) -> Result<Vec<Row>> {
        struct StopOnPanic<'a>(&'a AtomicBool);
        impl Drop for StopOnPanic<'_> {
            fn drop(&mut self) {
                if std::thread::panicking() {
                    self.0.store(true, Ordering::Relaxed);
                }
            }
        }
        let _stop_on_panic = StopOnPanic(&self.stop);
        let start = Instant::now();
        let out = self.claim_morsels(ctx);
        if out.is_err() {
            self.stop.store(true, Ordering::Relaxed);
        }
        if let Some(a) = self.actuals {
            a.worker_busy_ns[idx].add(start.elapsed().as_nanos() as u64);
            if let Ok(rows) = &out {
                a.worker_rows[idx].add(rows.len() as u64);
            }
        }
        out
    }

    fn claim_morsels(&self, ctx: &ExecCtx<'_>) -> Result<Vec<Row>> {
        let eval = ctx.eval_ctx();
        let mut page = HeapPage::default();
        let mut out = Vec::new();
        while !self.stop.load(Ordering::Relaxed) && self.held.load(Ordering::Relaxed) < self.max {
            let first = self.cursor.fetch_add(MORSEL_PAGES, Ordering::Relaxed);
            if first >= self.n_pages {
                break;
            }
            if let Some(a) = self.actuals {
                a.morsels.add(1);
            }
            let before = out.len();
            for p in first..first.saturating_add(MORSEL_PAGES).min(self.n_pages) {
                page.load(self.meta, p, ctx)?;
                let survivors = page.filter(self.filter, usize::MAX, &eval)?;
                out.extend(survivors.into_iter().map(|t| t.2));
            }
            // Once per morsel, and only when it found rows: a selective
            // ψ scan then never writes the line its sibling reads.
            if out.len() > before {
                self.held.fetch_add(out.len() - before, Ordering::Relaxed);
            }
        }
        Ok(out)
    }
}

/// The message a panic was raised with, for the error that reports it.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> &str {
    payload
        .downcast_ref::<&str>()
        .copied()
        .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
        .unwrap_or("non-string panic payload")
}

// -------------------------------------------------------------- IndexScan

struct IndexScanExec {
    meta: Arc<TableMeta>,
    index: Arc<crate::catalog::IndexMeta>,
    strategy: String,
    probe: Datum,
    extra: Datum,
    residual: Option<Expr>,
    tids: Option<Vec<TupleId>>,
    pos: usize,
}

impl IndexScanExec {
    #[allow(clippy::too_many_arguments)]
    fn new(
        meta: Arc<TableMeta>,
        index: Arc<crate::catalog::IndexMeta>,
        strategy: String,
        probe: Datum,
        extra: Datum,
        residual: Option<Expr>,
    ) -> Self {
        IndexScanExec {
            meta,
            index,
            strategy,
            probe,
            extra,
            residual,
            tids: None,
            pos: 0,
        }
    }
}

impl Executor for IndexScanExec {
    fn schema(&self) -> &Schema {
        &self.meta.schema
    }

    fn next_batch(&mut self, ctx: &ExecCtx<'_>, max: usize) -> Result<Option<Batch>> {
        if self.tids.is_none() {
            self.tids = Some(probe_index(
                &self.index,
                &self.strategy,
                &self.probe,
                &self.extra,
                ctx,
            )?);
            self.pos = 0;
        }
        let tids = self.tids.as_ref().expect("probed above");
        let mut out: Vec<Row> = Vec::new();
        while out.len() < max && self.pos < tids.len() {
            // Fetch no more candidates than the batch still has room for,
            // so a LIMIT above never pays the residual for rows it will
            // not return.
            let hits = fetch_index_hits(
                &self.meta,
                tids,
                &mut self.pos,
                max - out.len(),
                self.residual.as_ref(),
                ctx,
            )?;
            out.extend(hits.into_iter().map(|v| v.row));
        }
        Ok((!out.is_empty()).then(|| Batch::new(out)))
    }
}

/// A visible heap version as a scan located it: what DML needs to
/// stamp, log and re-index a victim.
#[derive(Debug)]
pub struct HeapVersion {
    /// Where the version lives.
    pub tid: TupleId,
    /// Its `xmax`: 0 when live, else a deleter the statement's snapshot
    /// does not see (first-updater-wins decides on it).
    pub xmax: u64,
    /// The decoded row.
    pub row: Row,
    /// The stored tuple, version header included.
    bytes: Vec<u8>,
}

impl HeapVersion {
    /// The row image without its version header — the form WAL records
    /// carry.
    pub fn plain(&self) -> &[u8] {
        &self.bytes[VERSION_HEADER_LEN..]
    }
}

/// `(xmax, decoded row)` of the stored tuple `bytes` if `vis` sees it.
fn visible_row(bytes: &[u8], arity: usize, vis: &TxnVisibility) -> Result<Option<(u64, Row)>> {
    let (xmin, xmax, rest) = split_version(bytes)?;
    if !vis.sees(xmin, xmax) {
        return Ok(None);
    }
    Ok(Some((xmax, decode_row(rest, arity)?)))
}

/// Search `index` once under its read guard and return the matching
/// tuple ids; the guard is gone when this returns.
fn probe_index(
    index: &crate::catalog::IndexMeta,
    strategy: &str,
    probe: &Datum,
    extra: &Datum,
    ctx: &ExecCtx<'_>,
) -> Result<Vec<TupleId>> {
    // Uncontended case: one failed try_read branch.  Contended (a writer
    // holds the index): time the block as an IndexRead wait charged to
    // this query.
    let guard = match index.instance.try_read() {
        Some(g) => g,
        None => {
            crate::obs::waits::time_wait(crate::obs::WaitClass::IndexRead, || index.instance.read())
        }
    };
    let search = guard.search(strategy, probe, extra)?;
    drop(guard);
    ctx.stats.index_node_visits.add(search.node_visits);
    Ok(search.tids)
}

/// Resolve the index hits `tids[*pos..]`, advancing `pos`, until `room`
/// visible candidates are fetched or the hits run out; returns the
/// candidates that pass `residual`.  Index entries outlive their
/// versions: the heap tuple decides visibility, the index only locates
/// it.
fn fetch_index_hits(
    meta: &TableMeta,
    tids: &[TupleId],
    pos: &mut usize,
    room: usize,
    residual: Option<&Expr>,
    ctx: &ExecCtx<'_>,
) -> Result<Vec<HeapVersion>> {
    let arity = meta.schema.len();
    let mut candidates = Vec::new();
    while candidates.len() < room && *pos < tids.len() {
        let tid = tids[*pos];
        *pos += 1;
        let Some(bytes) = meta.heap.get(ctx.pool, tid)? else {
            continue; // vacuumed since the index entry was made
        };
        if let Some((xmax, row)) = visible_row(&bytes, arity, &ctx.vis)? {
            candidates.push(HeapVersion {
                tid,
                xmax,
                row,
                bytes,
            });
        }
    }
    match residual {
        Some(f) => filter_batch(f, candidates, |v| &v.row, &ctx.eval_ctx()),
        None => Ok(candidates),
    }
}

// ------------------------------------------------------------- TargetScan

/// Run the victim scan of an UPDATE/DELETE — a `Seq Scan` or `Index Scan`
/// node from [`crate::opt::plan_target_scan`] — on the calling thread and
/// return every visible matching version with its address.  The scan is
/// complete (and any index guard released) before the caller writes, so
/// a statement never meets its own new versions.
pub fn scan_target(node: &PhysNode, ctx: &ExecCtx<'_>) -> Result<Vec<HeapVersion>> {
    match &node.op {
        PhysOp::SeqScan { table, filter, .. } => {
            let meta = ctx.catalog.table(table)?;
            let eval = ctx.eval_ctx();
            let mut page = HeapPage::default();
            let mut out = Vec::new();
            for p in 0..meta.heap.pages(ctx.pool)? {
                page.load(&meta, p, ctx)?;
                for (slot, xmax, row) in page.filter(filter.as_ref(), usize::MAX, &eval)? {
                    out.push(HeapVersion {
                        tid: TupleId { page: p, slot },
                        xmax,
                        row,
                        bytes: page.stored(slot).to_vec(),
                    });
                }
            }
            Ok(out)
        }
        PhysOp::IndexScan {
            table,
            index,
            strategy,
            probe,
            extra,
            residual,
        } => {
            let meta = ctx.catalog.table(table)?;
            let idx = index_of(ctx.catalog, &meta, index)?;
            let tids = probe_index(&idx, strategy, probe, extra, ctx)?;
            fetch_index_hits(&meta, &tids, &mut 0, usize::MAX, residual.as_ref(), ctx)
        }
        _ => Err(Error::Execution(format!(
            "target scan over a {} node",
            node.op_name()
        ))),
    }
}

// ----------------------------------------------------------------- Filter

struct FilterExec {
    input: Box<dyn Executor>,
    predicate: Expr,
}

impl Executor for FilterExec {
    fn schema(&self) -> &Schema {
        self.input.schema()
    }

    fn next_batch(&mut self, ctx: &ExecCtx<'_>, max: usize) -> Result<Option<Batch>> {
        let eval = ctx.eval_ctx();
        // A fully-filtered input batch produces no output batch, so keep
        // pulling until some rows survive (or the input is exhausted).
        while let Some(batch) = self.input.next_batch(ctx, max)? {
            let kept = filter_batch(&self.predicate, batch.rows, |r| r.as_slice(), &eval)?;
            if !kept.is_empty() {
                return Ok(Some(Batch::new(kept)));
            }
        }
        Ok(None)
    }
}

// ---------------------------------------------------------------- Project

struct ProjectExec {
    input: Box<dyn Executor>,
    exprs: Vec<Expr>,
    schema: Schema,
}

impl Executor for ProjectExec {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn next_batch(&mut self, ctx: &ExecCtx<'_>, max: usize) -> Result<Option<Batch>> {
        let eval = ctx.eval_ctx();
        match self.input.next_batch(ctx, max)? {
            Some(batch) => {
                // Evaluate each projection expression over the whole batch
                // (column-at-a-time), then zip the columns back into rows.
                let refs: Vec<&[Datum]> = batch.rows.iter().map(|r| r.as_slice()).collect();
                let mut cols = Vec::with_capacity(self.exprs.len());
                for e in &self.exprs {
                    cols.push(e.eval_batch(&refs, &eval)?);
                }
                let mut out = Vec::with_capacity(batch.len());
                for i in 0..batch.len() {
                    let mut row = Row::with_capacity(cols.len());
                    for col in &mut cols {
                        row.push(std::mem::replace(&mut col[i], Datum::Null));
                    }
                    out.push(row);
                }
                Ok(Some(Batch::new(out)))
            }
            None => Ok(None),
        }
    }
}

// ----------------------------------------------------------------- NlJoin

struct NlJoinExec {
    outer: Box<dyn Executor>,
    inner: Box<dyn Executor>,
    predicate: Option<Expr>,
    schema: Schema,
    /// The inner side's rows, drained when the first outer batch arrives,
    /// so an empty outer reads none of the inner.
    inner_rows: Option<Vec<Row>>,
    /// Their operands, prepared with them when the predicate allows it.
    prepared: Option<PreparedInner>,
    /// The outer batch being joined, the row within it, the predicate
    /// bound to that row, and the next inner row to pair it with.
    outer_rows: Vec<Row>,
    outer_pos: usize,
    bound: Option<Expr>,
    inner_pos: usize,
}

impl NlJoinExec {
    /// Pair the outer row at `outer_pos` from the first inner row on,
    /// with the predicate bound to it.
    fn start_outer_row(&mut self) {
        if let Some(p) = &self.predicate {
            p.bind_outer_into(&self.outer_rows[self.outer_pos], &mut self.bound);
        }
        self.inner_pos = 0;
    }
}

impl Executor for NlJoinExec {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The outer side is pulled a batch at a time (so a ψ-filtered outer
    /// scan runs the vectorized kernel); under each outer row the
    /// materialized inner yields at most as many rows as the output batch
    /// has room for, and the predicate, bound once per outer row, judges
    /// them as one batch.  The inner side is drained, and its operands
    /// prepared ([`PreparedInner`]) unless it is empty, on the first outer
    /// batch.
    fn next_batch(&mut self, ctx: &ExecCtx<'_>, max: usize) -> Result<Option<Batch>> {
        let eval = ctx.eval_ctx();
        let mut out = Vec::new();
        while out.len() < max {
            if self.outer_pos == self.outer_rows.len() {
                let Some(batch) = self.outer.next_batch(ctx, max)? else {
                    break;
                };
                self.outer_rows = batch.rows;
                self.outer_pos = 0;
                self.start_outer_row();
                if self.inner_rows.is_none() {
                    let mut rows = Vec::new();
                    drain_input(self.inner.as_mut(), ctx, |r| {
                        rows.push(r);
                        Ok(())
                    })?;
                    match &self.bound {
                        Some(bound) if !rows.is_empty() => {
                            self.prepared = PreparedInner::new(bound, &rows, &eval)?;
                        }
                        _ => {}
                    }
                    self.inner_rows = Some(rows);
                }
            }
            let inner = self.inner_rows.as_deref().expect("drained above");
            let end = (self.inner_pos + max - out.len()).min(inner.len());
            join_rows(
                &self.outer_rows[self.outer_pos],
                &inner[self.inner_pos..end],
                self.bound.as_ref(),
                self.prepared.as_ref().map(|p| (p, self.inner_pos)),
                &eval,
                &mut out,
            )?;
            self.inner_pos = end;
            if end == inner.len() {
                self.outer_pos += 1;
                if self.outer_pos < self.outer_rows.len() {
                    self.start_outer_row();
                }
            }
        }
        Ok((!out.is_empty()).then(|| Batch::new(out)))
    }
}

// ---------------------------------------------------------------- HashJoin

struct HashJoinExec {
    left: Box<dyn Executor>,
    right: Box<dyn Executor>,
    left_key: Expr,
    right_key: Expr,
    residual: Option<Expr>,
    schema: Schema,
    /// Build table over the RIGHT input.
    table: Option<HashMap<Datum, Vec<Row>>>,
    /// The probe (LEFT) batch, the row within it being joined, the
    /// residual bound to that row, and how many entries of its bucket are
    /// already emitted.
    probe_rows: Vec<Row>,
    probe_pos: usize,
    bound: Option<Expr>,
    match_pos: usize,
}

impl Executor for HashJoinExec {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn next_batch(&mut self, ctx: &ExecCtx<'_>, max: usize) -> Result<Option<Batch>> {
        let eval = ctx.eval_ctx();
        if self.table.is_none() {
            let mut table: HashMap<Datum, Vec<Row>> = HashMap::new();
            drain_input(self.right.as_mut(), ctx, |row| {
                let key = self.right_key.eval(&row, &eval)?;
                if !key.is_null() {
                    table.entry(key).or_default().push(row);
                }
                Ok(())
            })?;
            self.table = Some(table);
        }
        let table = self.table.as_ref().expect("built above");
        let mut out = Vec::new();
        while out.len() < max {
            if self.probe_pos == self.probe_rows.len() {
                match self.left.next_batch(ctx, max)? {
                    Some(batch) => {
                        self.probe_rows = batch.rows;
                        self.probe_pos = 0;
                    }
                    None => break,
                }
            }
            let probe = &self.probe_rows[self.probe_pos];
            let key = self.left_key.eval(probe, &eval)?;
            let bucket: &[Row] = match table.get(&key) {
                Some(rows) if !key.is_null() => rows,
                _ => &[],
            };
            // Bind on the probe row's first visit, if its bucket has rows.
            if let (Some(r), 0) = (&self.residual, self.match_pos) {
                if !bucket.is_empty() {
                    r.bind_outer_into(probe, &mut self.bound);
                }
            }
            let end = (self.match_pos + max - out.len()).min(bucket.len());
            let inners = &bucket[self.match_pos..end];
            join_rows(probe, inners, self.bound.as_ref(), None, &eval, &mut out)?;
            if end == bucket.len() {
                self.probe_pos += 1;
                self.match_pos = 0;
            } else {
                self.match_pos = end;
            }
        }
        Ok((!out.is_empty()).then(|| Batch::new(out)))
    }
}

// --------------------------------------------------------------- Aggregate

struct AggregateExec {
    input: Box<dyn Executor>,
    group_by: Vec<Expr>,
    aggs: Vec<crate::plan::AggExpr>,
    schema: Schema,
    output: Option<std::vec::IntoIter<Row>>,
}

#[derive(Clone)]
struct AggState {
    count: u64,
    sum: f64,
    min: Option<Datum>,
    max: Option<Datum>,
}

impl AggState {
    fn new() -> Self {
        AggState {
            count: 0,
            sum: 0.0,
            min: None,
            max: None,
        }
    }

    fn update(&mut self, v: &Datum) {
        if v.is_null() {
            return;
        }
        self.count += 1;
        if let Some(f) = v.as_float() {
            self.sum += f;
        }
        let better_min = self
            .min
            .as_ref()
            .map(|m| v.cmp_sql(m).is_lt())
            .unwrap_or(true);
        if better_min {
            self.min = Some(v.clone());
        }
        let better_max = self
            .max
            .as_ref()
            .map(|m| v.cmp_sql(m).is_gt())
            .unwrap_or(true);
        if better_max {
            self.max = Some(v.clone());
        }
    }

    fn finish(&self, func: AggFunc, rows_in_group: u64) -> Datum {
        match func {
            AggFunc::CountStar => Datum::Int(rows_in_group as i64),
            AggFunc::Count => Datum::Int(self.count as i64),
            AggFunc::Sum => {
                if self.count == 0 {
                    Datum::Null
                } else if self.sum.fract() == 0.0 {
                    Datum::Int(self.sum as i64)
                } else {
                    Datum::Float(self.sum)
                }
            }
            AggFunc::Min => self.min.clone().unwrap_or(Datum::Null),
            AggFunc::Max => self.max.clone().unwrap_or(Datum::Null),
            AggFunc::Avg => {
                if self.count == 0 {
                    Datum::Null
                } else {
                    Datum::Float(self.sum / self.count as f64)
                }
            }
        }
    }
}

impl Executor for AggregateExec {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn next_batch(&mut self, ctx: &ExecCtx<'_>, max: usize) -> Result<Option<Batch>> {
        if self.output.is_none() {
            let eval = ctx.eval_ctx();
            // Groups are keyed on each value's identity, so derived payload
            // fields (UniText's stored synset ids) never split one; a group
            // shows the first key seen: (key, row count, one state per
            // aggregate).
            let mut groups: HashMap<Vec<Datum>, usize> = HashMap::new();
            let mut entries: Vec<(Row, u64, Vec<AggState>)> = Vec::new();
            let group_by = &self.group_by;
            let aggs = &self.aggs;
            drain_input(self.input.as_mut(), ctx, |row| {
                let mut key = Vec::with_capacity(group_by.len());
                for g in group_by {
                    key.push(g.eval(&row, &eval)?);
                }
                let mut identity: Option<Vec<Datum>> = None;
                for (i, d) in key.iter().enumerate() {
                    if let Some(id) = ctx.catalog.identity_of(d) {
                        identity.get_or_insert_with(|| key.clone())[i] = id;
                    }
                }
                let probe = identity.as_ref().unwrap_or(&key);
                let n = match groups.get(probe) {
                    Some(&n) => n,
                    None => {
                        groups.insert(identity.unwrap_or_else(|| key.clone()), entries.len());
                        entries.push((key, 0, vec![AggState::new(); aggs.len()]));
                        entries.len() - 1
                    }
                };
                let (_, count, states) = &mut entries[n];
                *count += 1;
                for (agg, state) in aggs.iter().zip(states.iter_mut()) {
                    if let Some(input) = &agg.input {
                        let v = input.eval(&row, &eval)?;
                        state.update(&v);
                    }
                }
                Ok(())
            })?;
            // Global aggregate over empty input still yields one row.
            if entries.is_empty() && self.group_by.is_empty() {
                entries.push((Vec::new(), 0, vec![AggState::new(); self.aggs.len()]));
            }
            let mut out = Vec::with_capacity(entries.len());
            for (mut row, n, states) in entries {
                for (agg, state) in self.aggs.iter().zip(&states) {
                    row.push(state.finish(agg.func, n));
                }
                out.push(row);
            }
            self.output = Some(out.into_iter());
        }
        let out = self.output.as_mut().expect("computed above");
        Ok(emit_buffered(out, max))
    }
}

// ------------------------------------------------------------------- Sort

struct SortExec {
    input: Box<dyn Executor>,
    keys: Vec<(Expr, bool)>,
    buffered: Option<std::vec::IntoIter<Row>>,
}

impl Executor for SortExec {
    fn schema(&self) -> &Schema {
        self.input.schema()
    }

    fn next_batch(&mut self, ctx: &ExecCtx<'_>, max: usize) -> Result<Option<Batch>> {
        if self.buffered.is_none() {
            let eval = ctx.eval_ctx();
            let mut rows = Vec::new();
            drain_input(self.input.as_mut(), ctx, |r| {
                rows.push(r);
                Ok(())
            })?;
            // Precompute sort keys (decorate-sort-undecorate).
            let mut decorated: Vec<(Vec<Datum>, Row)> = Vec::with_capacity(rows.len());
            for row in rows {
                let mut ks = Vec::with_capacity(self.keys.len());
                for (e, _) in &self.keys {
                    ks.push(e.eval(&row, &eval)?);
                }
                decorated.push((ks, row));
            }
            let dirs: Vec<bool> = self.keys.iter().map(|(_, asc)| *asc).collect();
            // Extension keys sort through their registered comparator (for
            // UniText that is text-component order, §3.2.1 of the paper).
            let cmp_typed = |x: &Datum, y: &Datum| match (x, y) {
                (Datum::Ext { ty: t1, bytes: b1 }, Datum::Ext { ty: t2, bytes: b2 })
                    if t1 == t2 =>
                {
                    match ctx.catalog.type_by_id(*t1) {
                        Some(def) => (def.compare)(b1, b2),
                        None => x.cmp_sql(y),
                    }
                }
                _ => x.cmp_sql(y),
            };
            decorated.sort_by(|(a, _), (b, _)| {
                for ((x, y), asc) in a.iter().zip(b.iter()).zip(&dirs) {
                    let ord = cmp_typed(x, y);
                    if ord != std::cmp::Ordering::Equal {
                        return if *asc { ord } else { ord.reverse() };
                    }
                }
                std::cmp::Ordering::Equal
            });
            let sorted: Vec<Row> = decorated.into_iter().map(|(_, r)| r).collect();
            self.buffered = Some(sorted.into_iter());
        }
        let buf = self.buffered.as_mut().expect("sorted above");
        Ok(emit_buffered(buf, max))
    }
}

// ------------------------------------------------------------------ Limit

struct LimitExec {
    input: Box<dyn Executor>,
    remaining: u64,
}

impl Executor for LimitExec {
    fn schema(&self) -> &Schema {
        self.input.schema()
    }

    fn next_batch(&mut self, ctx: &ExecCtx<'_>, max: usize) -> Result<Option<Batch>> {
        if self.remaining == 0 {
            return Ok(None);
        }
        // Never ask the input for more rows than the limit still allows;
        // batches are capped at `max`, so the input cannot overshoot.
        let cap = (self.remaining as usize).min(max);
        match self.input.next_batch(ctx, cap)? {
            Some(batch) => {
                self.remaining -= batch.len() as u64;
                Ok(Some(batch))
            }
            None => Ok(None),
        }
    }
}

// ----------------------------------------------------------------- Values

struct ValuesExec {
    rows: Vec<Vec<Expr>>,
    schema: Schema,
    pos: usize,
}

impl Executor for ValuesExec {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn next_batch(&mut self, ctx: &ExecCtx<'_>, max: usize) -> Result<Option<Batch>> {
        let eval = ctx.eval_ctx();
        let end = (self.pos + max).min(self.rows.len());
        let mut out = Vec::with_capacity(end - self.pos);
        for exprs in &self.rows[self.pos..end] {
            let mut row = Row::with_capacity(exprs.len());
            for e in exprs {
                row.push(e.eval(&[], &eval)?);
            }
            out.push(row);
        }
        self.pos = end;
        Ok((!out.is_empty()).then(|| Batch::new(out)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::MemBackend;
    use crate::txn::TransactionManager;
    use crate::{Column, DataType};

    fn node(op: PhysOp, schema: Schema) -> PhysNode {
        PhysNode {
            op,
            est_rows: 0.0,
            est_cost: 0.0,
            schema,
        }
    }

    /// `n` one-column rows `0..n` — a leaf that touches no storage.
    fn values(n: i64) -> PhysNode {
        let rows = (0..n).map(|i| vec![Expr::Literal(Datum::Int(i))]).collect();
        let schema = Schema::new(vec![Column::new("v", DataType::Int)]);
        node(PhysOp::Values { rows }, schema)
    }

    /// Run `f` under a context with an empty catalog and `batch_size`.
    fn with_ctx<T>(batch_size: i64, f: impl FnOnce(&ExecCtx<'_>) -> T) -> T {
        let catalog = Catalog::new();
        let pool = BufferPool::new(Box::new(MemBackend::new()), 4);
        let mut session = SessionVars::new();
        session.set(BATCH_SIZE_VAR, Datum::Int(batch_size));
        let stats = ExecStats::default();
        f(&ExecCtx {
            catalog: &catalog,
            pool: &pool,
            session: &session,
            stats: &stats,
            vis: TxnVisibility {
                txn: 0,
                snap: TransactionManager::new().snapshot(),
            },
        })
    }

    #[test]
    fn limit_over_values_is_a_prefix_at_every_batch_size() {
        let all = with_ctx(1024, |ctx| run_to_vec(&values(7), ctx)).unwrap();
        assert_eq!(all.len(), 7);
        for batch_size in [1, 3, 1024] {
            for n in [1usize, 3, 50] {
                let input = Box::new(values(7));
                let schema = input.schema.clone();
                let plan = node(PhysOp::Limit { input, n: n as u64 }, schema);
                let got = with_ctx(batch_size, |ctx| run_to_vec(&plan, ctx)).unwrap();
                assert_eq!(got, all[..n.min(7)], "batch_size={batch_size} LIMIT {n}");
            }
        }
    }
}
