//! The shared engine and its per-connection sessions.
//!
//! The paper's argument is that multilingual operators belong *inside* the
//! engine so they run at relational speeds; an engine that serves one
//! client at a time undercuts that claim.  This module holds the engine
//! in two parts:
//!
//! * [`Engine`] — everything shared between connections: the catalog
//!   (behind an `RwLock` so DDL excludes readers but readers run in
//!   parallel), the buffer pool, the WAL, the plan cache, and the schema
//!   epoch.  `Engine` is `Send + Sync` and lives behind an `Arc`.
//! * [`Session`] — one connection's state: its [`SessionVars`], statement
//!   execution, and trace spans.  Sessions are cheap (`Engine::connect`)
//!   and `Send`, so `N` threads each own one and query concurrently.
//!
//! ## Lock hierarchy
//!
//! Locks are always taken in this order (any prefix may be skipped, never
//! reordered), which makes deadlock impossible by construction:
//!
//! 1. `Engine::catalog` (`RwLock`) — DDL/ANALYZE vs. everything else.
//! 2. `Engine::dml_lock` (`Mutex`) — serializes writers (single-writer,
//!    many-reader model; readers never touch it).
//! 3. Buffer-pool mutex (inside [`BufferPool`]).
//! 4. Per-index instance `RwLock` (inside `IndexMeta`) — searches share
//!    the read guard, DML maintenance takes the write guard.
//! 5. WAL append mutex (inside [`SharedWal`]) — appends only; the group-
//!    commit fsync happens *after* a statement has released every lock
//!    above, on a rendezvous that is outside this hierarchy (see
//!    `SharedWal::commit`).
//!
//! The catalog read guard is passed *down* into helpers (`&Catalog`), never
//! re-acquired — parking_lot read locks are not reentrant once a writer is
//! queued.
//!
//! ## Plan cache
//!
//! Hot multilingual lookups are short point queries (ψ/Ω probes against a
//! names table), so parse/bind/plan overhead is a real fraction of their
//! latency.  The engine keeps a bounded map from *(normalized SQL, session
//! fingerprint)* to `Arc<PhysNode>`.  Normalization lowercases and
//! collapses whitespace outside string literals; the fingerprint hashes all
//! session variables because they steer planning (`enable_*`,
//! `lexequal.threshold`, ...).  Every entry records the schema epoch it was
//! planned under; DDL and ANALYZE bump the epoch and flush the cache, so a
//! stale plan can never be served (entries inserted by an in-flight query
//! that raced a DDL carry the old epoch and are rejected on lookup).

use crate::catalog::{Catalog, ColumnStats, SessionVars, TableStats};
use crate::error::{Error, Result};
use crate::exec::{
    build_executor, build_instrumented, drain_to_vec, scan_target, ExecCtx, ExecStats, HeapVersion,
    Instrumentation,
};
use crate::expr::EvalCtx;
use crate::obs::{self, QueryTrace, Stage, WaitClass, WaitProfile};
use crate::opt;
use crate::plan::{NodeActuals, PhysNode};
use crate::schema::{Column, Row, Schema};
use crate::snapshot::{self, Snapshot};
use crate::sql::{self, Statement};
use crate::storage::{
    decode_row, encode_row, encode_version, split_version, BufferPool, HeapFile, IoStats,
    MemBackend, SharedWal, StorageBackend, SyncMode, TupleId, WalRecord, FROZEN_TXN_ID,
    VERSION_HEADER_LEN,
};
use crate::txn::{TransactionManager, TxnSnapshot, TxnVisibility, INVALID_TXN_ID};
use crate::value::{DataType, Datum};
use parking_lot::{Mutex, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// Per-statement runtime statistics.
#[derive(Debug, Clone, Default)]
pub struct RunStats {
    /// Buffer-pool traffic during the statement.
    pub io: IoStats,
    /// Index nodes visited.
    pub index_node_visits: u64,
    /// Extension-operator (ψ/Ω) evaluations during the statement.
    pub ext_op_calls: u64,
    /// Batches emitted by the plan root (0 for statements that pull no
    /// batches, e.g. DML).
    pub batches: u64,
    /// Wall-clock execution time (excludes parse/plan).
    pub exec_time: Duration,
    /// Optimizer-predicted total cost of the executed plan (queries, and
    /// the victim scan of UPDATE/DELETE).
    pub est_cost: Option<f64>,
    /// Optimizer-predicted output rows.
    pub est_rows: Option<f64>,
    /// Stage span tree (parse/bind/plan/execute) for queries.
    pub trace: Option<QueryTrace>,
    /// Engine-wide statement id.
    pub query_id: u64,
    /// FNV-1a digest of the executed physical plan (queries and
    /// UPDATE/DELETE victim scans, only while observability is enabled).
    pub plan_digest: Option<u64>,
    /// Waits suffered by the statement across every thread that worked
    /// on it (session thread, scan workers, WAL rendezvous).
    pub waits: Option<Arc<WaitProfile>>,
}

/// Result of executing one statement.
#[derive(Debug, Clone, Default)]
pub struct QueryResult {
    /// Output schema (empty for DDL/DML).
    pub schema: Schema,
    /// Result rows (empty for DDL/DML).
    pub rows: Vec<Row>,
    /// Plan text: of the query, or of an UPDATE/DELETE's victim scan.
    pub explain: Option<String>,
    /// Rows affected by DML.
    pub affected: u64,
    /// Runtime statistics.
    pub stats: RunStats,
}

/// How `run_select` should report.
enum ExplainMode {
    Off,
    PlanOnly,
    Analyze,
}

/// One run of a SELECT plan ([`Session::run_plan`]).
struct PlanRun {
    rows: Vec<Row>,
    /// Everything but the trace, which the caller owns.
    stats: RunStats,
    /// Per-node actuals and the instrumentation they came from
    /// (`EXPLAIN ANALYZE` only).
    analyzed: Option<(Vec<NodeActuals>, Instrumentation)>,
}

impl PlanRun {
    /// The statement result of a plain (non-EXPLAIN) SELECT; `trace`
    /// gains the `execute` span.
    fn into_result(self, phys: &PhysNode, mut trace: QueryTrace) -> QueryResult {
        trace.record("execute", self.stats.exec_time);
        QueryResult {
            schema: phys.schema.clone(),
            rows: self.rows,
            explain: Some(phys.explain()),
            affected: 0,
            stats: RunStats {
                trace: Some(trace),
                ..self.stats
            },
        }
    }
}

// ------------------------------------------------------------- plan cache

/// Normalize SQL text for plan-cache keying: lowercase and collapse runs
/// of whitespace outside single-quoted literals.
pub fn normalize_sql(sql_text: &str) -> String {
    let mut out = String::with_capacity(sql_text.len());
    let mut in_str = false;
    let mut pending_space = false;
    for ch in sql_text.chars() {
        if in_str {
            out.push(ch);
            if ch == '\'' {
                in_str = false;
            }
            continue;
        }
        if ch.is_whitespace() {
            pending_space = true;
            continue;
        }
        if pending_space {
            if !out.is_empty() {
                out.push(' ');
            }
            pending_space = false;
        }
        if ch == '\'' {
            in_str = true;
            out.push(ch);
        } else {
            out.extend(ch.to_lowercase());
        }
    }
    out
}

/// One cached physical plan.
struct CachedPlan {
    plan: Arc<PhysNode>,
    /// Schema epoch the plan was produced under.
    epoch: u64,
}

/// Bounded map from (normalized SQL, session fingerprint) to physical
/// plans.  Epoch-checked on lookup; flushed wholesale on invalidation.
struct PlanCache {
    entries: Mutex<HashMap<(String, u64), CachedPlan>>,
    capacity: usize,
}

impl PlanCache {
    fn new(capacity: usize) -> Self {
        PlanCache {
            entries: Mutex::new(HashMap::new()),
            capacity,
        }
    }

    /// A cached plan for `key`, if one exists and matches `epoch`.
    fn lookup(&self, key: &(String, u64), epoch: u64) -> Option<Arc<PhysNode>> {
        let mut map = self.entries.lock();
        match map.get(key) {
            Some(e) if e.epoch == epoch => Some(Arc::clone(&e.plan)),
            Some(_) => {
                // Planned under an older schema: drop it.
                map.remove(key);
                None
            }
            None => None,
        }
    }

    fn insert(&self, key: (String, u64), plan: Arc<PhysNode>, epoch: u64) {
        let mut map = self.entries.lock();
        // Evict one arbitrary entry at capacity: random-ish eviction keeps
        // most of the hot working set resident (a wholesale flush would
        // thrash under >capacity distinct keys) without the overhead of an
        // LRU chain.
        if map.len() >= self.capacity && !map.contains_key(&key) {
            if let Some(victim) = map.keys().next().cloned() {
                map.remove(&victim);
            }
        }
        map.insert(key, CachedPlan { plan, epoch });
    }

    fn clear(&self) {
        self.entries.lock().clear();
    }

    fn len(&self) -> usize {
        self.entries.lock().len()
    }
}

// ------------------------------------------------------------------ engine

/// Shared, thread-safe core of a database instance: catalog, buffer pool,
/// WAL, plan cache.  Connections are opened with [`Engine::connect`].
pub struct Engine {
    catalog: RwLock<Catalog>,
    pool: BufferPool,
    durability: OnceLock<Durability>,
    /// Serializes DML statements (single-writer / many-reader model).
    dml_lock: Mutex<()>,
    /// Bumped by DDL and ANALYZE; plan-cache entries from older epochs
    /// are never served.
    schema_epoch: AtomicU64,
    plan_cache: PlanCache,
    /// `SET wal_sync_mode` issued before durability is attached (e.g.
    /// during extension install or WAL replay, when the engine is still
    /// WAL-less); applied by [`Engine::attach_durability`] so the setting
    /// is not silently lost.
    pending_wal_mode: Mutex<Option<SyncMode>>,
    /// Process-unique id: activity rows and flight records are tagged
    /// with it so the process-wide views can be filtered per engine
    /// (the test suite runs many engines in one process).
    engine_id: u64,
    /// Allocator for per-engine session ids.
    next_session_id: AtomicU64,
    /// MVCC transaction bookkeeping: monotonic ids, the active set, and
    /// aborted ids awaiting checkpoint vacuum.
    txns: TransactionManager,
}

/// `Engine` must stay shareable across session threads.
const _: fn() = || {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Engine>();
    assert_send_sync::<QueryResult>();
};

impl Engine {
    /// A fresh in-memory engine (no durability).
    pub fn in_memory() -> Arc<Engine> {
        Engine::with_backend(Box::new(MemBackend::new()))
    }

    /// An engine over an arbitrary storage backend, WAL-less until
    /// [`Engine::attach_durability`].
    pub(crate) fn with_backend(backend: Box<dyn StorageBackend>) -> Arc<Engine> {
        static NEXT_ENGINE_ID: AtomicU64 = AtomicU64::new(1);
        Arc::new(Engine {
            catalog: RwLock::new(Catalog::new()),
            pool: BufferPool::new(backend, 1024),
            durability: OnceLock::new(),
            dml_lock: Mutex::new(()),
            schema_epoch: AtomicU64::new(0),
            plan_cache: PlanCache::new(256),
            pending_wal_mode: Mutex::new(None),
            engine_id: NEXT_ENGINE_ID.fetch_add(1, Ordering::Relaxed),
            next_session_id: AtomicU64::new(1),
            txns: TransactionManager::new(),
        })
    }

    /// Process-unique engine id (tags activity rows and flight records).
    pub fn engine_id(&self) -> u64 {
        self.engine_id
    }

    /// The engine's transaction manager (MVCC snapshots and txn ids).
    pub fn txns(&self) -> &TransactionManager {
        &self.txns
    }

    /// Visibility for a reader outside any transaction: a fresh snapshot
    /// and no transaction id of its own.  Every autocommit read uses one;
    /// helpers that walk heaps directly (benches, extension k-NN) should
    /// too, so they never surface uncommitted or deleted versions.
    pub fn fresh_visibility(&self) -> TxnVisibility {
        TxnVisibility {
            txn: INVALID_TXN_ID,
            snap: self.txns.snapshot(),
        }
    }

    /// Open a new session against this engine.  `vars` seeds the session's
    /// variables (see [`Session::connect`]).
    fn connect_with_vars(self: &Arc<Self>, vars: SessionVars) -> Session {
        let session_id = self.next_session_id.fetch_add(1, Ordering::Relaxed);
        let slot = Arc::new(obs::ActivitySlot::new(self.engine_id, session_id));
        obs::activity::register(&slot);
        Session {
            engine: Arc::clone(self),
            vars,
            session_id,
            slot,
            txn: None,
        }
    }

    /// Open a new session with empty session variables.
    pub fn connect(self: &Arc<Self>) -> Session {
        self.connect_with_vars(SessionVars::new())
    }

    /// Shared catalog access.  Uncontended reads take the try-lock fast
    /// path; contended ones are timed as [`WaitClass::Catalog`] waits and
    /// charged to the query installed on this thread.
    pub fn catalog(&self) -> RwLockReadGuard<'_, Catalog> {
        if let Some(guard) = self.catalog.try_read() {
            return guard;
        }
        obs::waits::time_wait(WaitClass::Catalog, || self.catalog.read())
    }

    /// Exclusive catalog access (extension registration, DDL).  Any write
    /// access may change planning inputs, so the schema epoch is bumped —
    /// cached plans from before the call are discarded.  Contended
    /// acquisitions are timed as [`WaitClass::Catalog`] waits.
    pub fn catalog_mut(&self) -> RwLockWriteGuard<'_, Catalog> {
        let guard = match self.catalog.try_write() {
            Some(guard) => guard,
            None => obs::waits::time_wait(WaitClass::Catalog, || self.catalog.write()),
        };
        self.bump_schema_epoch();
        guard
    }

    /// The buffer pool (benches read I/O statistics from here).
    pub fn pool(&self) -> &BufferPool {
        &self.pool
    }

    /// Current schema epoch (bumped by DDL/ANALYZE).
    pub fn schema_epoch(&self) -> u64 {
        self.schema_epoch.load(Ordering::Acquire)
    }

    /// Invalidate all cached plans and advance the schema epoch.
    pub fn bump_schema_epoch(&self) {
        self.schema_epoch.fetch_add(1, Ordering::AcqRel);
        self.plan_cache.clear();
        obs::metrics().plan_cache_invalidations_total.inc();
    }

    /// Number of currently cached plans (for tests/diagnostics).
    pub fn cached_plan_count(&self) -> usize {
        self.plan_cache.len()
    }

    /// Drop every cached plan without bumping the schema epoch (benches
    /// use this to measure cold-plan throughput).
    pub fn flush_plan_cache(&self) {
        self.plan_cache.clear();
    }

    /// Attach durability; subsequent DDL/DML is logged through `wal`.
    /// Recovery opens the engine without durability, replays, then
    /// attaches — so replayed statements are not re-logged.  `root` is the
    /// database directory (checkpoints write their snapshots there; `None`
    /// for WAL-only setups such as unit tests).
    pub(crate) fn attach_durability(&self, wal: Arc<SharedWal>, root: Option<PathBuf>) {
        // A `SET wal_sync_mode` that ran while the engine was still
        // WAL-less (extension install scripts, statements replayed before
        // attach) wins over the opener's default mode.
        if let Some(mode) = self.pending_wal_mode.lock().take() {
            wal.set_mode(mode);
        }
        if self.durability.set(Durability { wal, root }).is_err() {
            panic!("durability already attached to this engine");
        }
    }

    /// The attached WAL, if any (benches and tests inspect sync state).
    pub fn wal(&self) -> Option<&Arc<SharedWal>> {
        self.durability.get().map(|d| &d.wal)
    }

    /// Current WAL durability mode (`None` for in-memory engines).
    pub fn wal_sync_mode(&self) -> Option<SyncMode> {
        self.durability.get().map(|d| d.wal.mode())
    }

    /// Change the WAL durability mode (the `SET wal_sync_mode` knob).
    /// Engine-wide: the WAL is one shared stream, so the knob cannot be
    /// per-session.  Before durability is attached the mode is parked and
    /// applied when [`recovery::open`] attaches the WAL — a `SET` issued
    /// during bootstrap must not be silently dropped (engines that stay
    /// in-memory simply never consume it).
    ///
    /// [`recovery::open`]: crate::recovery::open
    pub fn set_wal_sync_mode(&self, mode: SyncMode) {
        match self.durability.get() {
            Some(d) => d.wal.set_mode(mode),
            None => *self.pending_wal_mode.lock() = Some(mode),
        }
    }

    fn log(&self, rec: WalRecord) -> Result<()> {
        if let Some(d) = self.durability.get() {
            d.wal.append(&rec)?;
        }
        Ok(())
    }

    /// Group-commit rendezvous: make everything logged so far durable.
    /// Called *after* a statement has released its catalog/DML locks, so
    /// concurrent sessions' appends batch behind one fsync.
    pub(crate) fn wal_commit(&self) -> Result<()> {
        if let Some(d) = self.durability.get() {
            d.wal.commit()?;
        }
        Ok(())
    }

    /// Checkpoint: vacuum-freeze the heaps, flush dirty pages, persist a
    /// catalog snapshot plus copies of the heap files under the database
    /// root, then truncate the WAL.  Recovery restores from the snapshot
    /// and replays only the WAL tail, so reopen cost is bounded by
    /// post-checkpoint activity.
    ///
    /// The vacuum physically deletes versions dead to a fresh snapshot
    /// (aborted inserts, committed deletes) and freezes every survivor to
    /// `xmin = FROZEN_TXN_ID, xmax = 0` — the snapshot's heap copies must
    /// not reference transaction ids, because recovery starts a fresh
    /// [`TransactionManager`] whose id space restarts at 2.  That is only
    /// sound when no transaction is in flight, so a checkpoint with open
    /// transactions fails up front.
    ///
    /// In-memory engines (and WAL-only setups without a root) just flush.
    pub fn checkpoint(&self) -> Result<()> {
        let Some(d) = self.durability.get() else {
            self.pool.flush_all()?;
            return Ok(());
        };
        let Some(root) = &d.root else {
            self.pool.flush_all()?;
            return Ok(());
        };
        if self.txns.has_active() {
            return Err(Error::Execution(
                "checkpoint requires no open transactions (vacuum would remove \
                 versions their snapshots still see)"
                    .into(),
            ));
        }
        // Quiesce writers: DML lock first, then the catalog guard — the
        // same order every DML statement uses.  The *write* guard (unlike
        // the read guard the pre-MVCC checkpoint took) also drains running
        // readers, so the vacuum below cannot rewrite version headers
        // under a scan that has already captured its snapshot.  DDL
        // (which takes the catalog write lock without the DML lock)
        // blocks here too, so nothing can append to the WAL between the
        // `sync_now` that fixes the snapshot LSN and the truncation.
        let _writer = self.dml_lock.lock();
        let catalog = self.catalog.write();
        self.vacuum_in(&catalog)?;
        self.txns.clear_aborted();
        self.pool.flush_all()?;
        let lsn = d.wal.sync_now()?;
        let snap = Snapshot::capture(&catalog, lsn)?;
        snapshot::write_checkpoint(root, &snap)?;
        // The pointer is durable: every record ≤ lsn is covered by the
        // snapshot and the log can be emptied.  (A crash right here leaves
        // the old log in place; recovery skips records ≤ the snapshot LSN.)
        d.wal.truncate()
    }

    /// Checkpoint vacuum: physically delete heap versions invisible to a
    /// fresh snapshot — and their index entries, or every later probe of
    /// a much-updated key would fetch each of its dead versions — and
    /// freeze the survivors.  Caller holds the DML lock and the catalog
    /// write guard, and has verified no transaction is in flight.
    fn vacuum_in(&self, catalog: &Catalog) -> Result<()> {
        let vis = self.fresh_visibility();
        let frozen_header = encode_version(FROZEN_TXN_ID, INVALID_TXN_ID, &[]);
        for meta in catalog.tables() {
            let indexes = catalog.indexes_of(meta.id);
            let arity = meta.schema.len();
            // Dead versions with their decoded rows (the index keys);
            // rows stay empty when there is no index to prune.
            let mut dead: Vec<(TupleId, Row)> = Vec::new();
            let mut freeze = Vec::new();
            let mut scan_err = None;
            meta.heap.scan(&self.pool, |tid, bytes| {
                let step = split_version(bytes).and_then(|(xmin, xmax, rest)| {
                    if vis.sees(xmin, xmax) {
                        if xmin != FROZEN_TXN_ID || xmax != INVALID_TXN_ID {
                            freeze.push(tid);
                        }
                    } else if indexes.is_empty() {
                        dead.push((tid, Row::new()));
                    } else {
                        dead.push((tid, decode_row(rest, arity)?));
                    }
                    Ok(())
                });
                scan_err = step.err();
                scan_err.is_none()
            })?;
            if let Some(e) = scan_err {
                return Err(e);
            }
            for tid in freeze {
                meta.heap.patch(&self.pool, tid, 0, &frozen_header)?;
            }
            for (tid, row) in dead {
                meta.heap.delete(&self.pool, tid)?;
                // Every index accepted this key when the version went in
                // (`insert_version` undoes a version an index rejects).
                for idx in &indexes {
                    idx.instance.write().delete(&row[idx.column], tid)?;
                }
            }
        }
        Ok(())
    }
}

/// Durability attachments of an engine (absent for in-memory engines).
struct Durability {
    wal: Arc<SharedWal>,
    /// Data directory root for checkpoints (`None` = WAL-only).
    root: Option<PathBuf>,
}

// ----------------------------------------------------------------- session

/// One connection to an [`Engine`]: owns the session variables and runs
/// statements.  `Send` (not `Sync`) — a session belongs to one thread at a
/// time; open more sessions for more threads.
pub struct Session {
    engine: Arc<Engine>,
    vars: SessionVars,
    /// Engine-assigned connection id (monotonic per engine).
    session_id: u64,
    /// This session's live-activity slot (registered process-wide).
    slot: Arc<obs::ActivitySlot>,
    /// The transaction this session is in, if any.  Explicit transactions
    /// (`BEGIN` … `COMMIT`/`ROLLBACK`) live across statements; autocommit
    /// writes install an ephemeral one for the duration of the statement.
    txn: Option<SessionTxn>,
}

/// A session's open transaction.
struct SessionTxn {
    /// The id handed out by the engine's [`TransactionManager`].
    id: u64,
    /// Snapshot captured when the transaction began — every statement in
    /// the transaction reads against it (snapshot isolation).
    snap: TxnSnapshot,
    /// Set when a statement inside the transaction failed; everything but
    /// `COMMIT` (which rolls back) and `ROLLBACK` is then rejected.
    failed: bool,
}

const _: fn() = || {
    fn assert_send<T: Send>() {}
    assert_send::<Session>();
};

impl Session {
    /// A session on a fresh in-memory engine (no durability).
    pub fn new_in_memory() -> Session {
        Engine::in_memory().connect()
    }

    /// Open (or create) a durable database under `dir` and return its
    /// first session; `install` registers extensions before WAL replay
    /// (see [`recovery::open`]).
    ///
    /// [`recovery::open`]: crate::recovery::open
    pub fn open_with_extensions(
        dir: impl AsRef<Path>,
        install: impl FnOnce(&mut Session) -> Result<()>,
    ) -> Result<Session> {
        crate::recovery::open(dir, install, |b| b)
    }

    /// Open a sibling session on the same engine, starting from a copy of
    /// this session's variables — extension defaults installed here (e.g.
    /// `lexequal.threshold`) carry over; [`Engine::connect`] starts empty.
    pub fn connect(&self) -> Session {
        self.engine.connect_with_vars(self.vars.clone())
    }

    /// The engine this session is connected to.
    pub fn engine(&self) -> &Arc<Engine> {
        &self.engine
    }

    /// Session variables.
    pub fn vars(&self) -> &SessionVars {
        &self.vars
    }

    /// Mutable session variables.
    pub fn vars_mut(&mut self) -> &mut SessionVars {
        &mut self.vars
    }

    /// Engine-assigned id of this connection.
    pub fn session_id(&self) -> u64 {
        self.session_id
    }

    /// Advance this statement's activity stage — but only when a tracked
    /// statement is installed on this thread (observability enabled).
    fn set_stage(&self, stage: Stage) {
        if let Some(ctx) = obs::current() {
            if let Some(slot) = &ctx.slot {
                slot.set_stage(stage);
            }
        }
    }

    /// Execute one SQL statement.
    ///
    /// Wraps `execute_tracked` with the query lifecycle: a
    /// fresh query id, the activity-slot begin/finish, a [`QueryContext`]
    /// installed on this thread (and propagated into scan workers and
    /// the WAL rendezvous) so waits land on this statement, the
    /// statement count and latency (every call, failed ones included)
    /// and a flight-recorder entry.
    ///
    /// [`QueryContext`]: obs::QueryContext
    pub fn execute(&mut self, sql_text: &str) -> Result<QueryResult> {
        let query_id = obs::next_query_id();
        let tracking = obs::enabled();
        if tracking {
            self.slot.begin(query_id, sql_text);
            // `begin` resets the txn column; republish for statements
            // running inside an explicit transaction.
            self.slot
                .set_txn(self.txn.as_ref().map_or(INVALID_TXN_ID, |t| t.id));
        }
        let qctx = Arc::new(obs::QueryContext::new(
            query_id,
            tracking.then(|| Arc::clone(&self.slot)),
        ));
        let _guard = obs::enter_query(Arc::clone(&qctx));
        let io_before = self.engine.pool.stats();
        let start = Instant::now();
        let result = self.execute_tracked(sql_text);
        let elapsed = start.elapsed();
        let metrics = obs::metrics();
        metrics.queries_total.inc();
        metrics.query_latency_seconds.observe_duration(elapsed);
        if tracking {
            self.slot.finish();
        }
        let mut result = result?;
        result.stats.query_id = query_id;
        result.stats.waits = Some(Arc::clone(&qctx.waits));
        if let Some(t) = result.stats.trace.as_mut() {
            t.set_query_id(query_id);
        }
        if tracking {
            self.record_flight(query_id, sql_text, &result, elapsed, &qctx, &io_before);
        }
        Ok(result)
    }

    /// Deposit the statement's flight-recorder entry.
    fn record_flight(
        &self,
        query_id: u64,
        sql_text: &str,
        result: &QueryResult,
        elapsed: Duration,
        qctx: &Arc<obs::QueryContext>,
        io_before: &IoStats,
    ) {
        let io = self.engine.pool.stats().since(io_before);
        let rows = result.rows.len() as u64 + result.affected;
        obs::flight::record(obs::FlightRecord {
            engine_id: self.engine.engine_id,
            session_id: self.session_id,
            query_id,
            txn_id: self.txn.as_ref().map_or(INVALID_TXN_ID, |t| t.id),
            sql: obs::activity::snippet(sql_text).to_string(),
            plan_digest: result.stats.plan_digest.unwrap_or(0),
            elapsed,
            rows,
            batches: result.stats.batches,
            trace: result.stats.trace.clone().unwrap_or_default(),
            waits: Arc::clone(&qctx.waits),
            io_reads: (io.logical_reads, io.physical_reads),
            est_rows: result.stats.est_rows,
            est_cost: result.stats.est_cost,
            qerror: result
                .stats
                .est_rows
                .map(|e| obs::planstore::q_error(e, rows as f64)),
        });
    }

    /// Deposit one executed SELECT into the plan store: root
    /// estimate-vs-actual on every path, per-node and per-scan q-errors
    /// when the instrumented executor ran (`EXPLAIN ANALYZE`), and a
    /// root-attributed per-table scan q-error on plain linear plans so
    /// the stale-statistics advisor sees ordinary traffic too.
    fn record_plan_observation(
        &self,
        phys: &PhysNode,
        digest: Option<u64>,
        actual_rows: u64,
        elapsed: Duration,
        actuals: Option<&[NodeActuals]>,
    ) {
        let Some(digest) = digest else { return };
        let (node_qerror_max, scans) = match actuals {
            Some(actuals) => {
                let mut scans = Vec::new();
                let mut worst = 1.0f64;
                for (node, a) in phys.preorder().into_iter().zip(actuals) {
                    let q = obs::planstore::q_error(node.est_rows, a.rows as f64);
                    worst = worst.max(q);
                    if let Some(table) = node.leaf_scan_table() {
                        scans.push(obs::planstore::ScanObservation {
                            table: table.to_string(),
                            qerror: q,
                        });
                    }
                }
                (Some(worst), scans)
            }
            None => {
                let scans = phys
                    .scan_attribution()
                    .map(|table| {
                        vec![obs::planstore::ScanObservation {
                            table: table.to_string(),
                            qerror: obs::planstore::q_error(phys.est_rows, actual_rows as f64),
                        }]
                    })
                    .unwrap_or_default();
                (None, scans)
            }
        };
        obs::planstore::record(obs::planstore::Observation {
            engine_id: self.engine.engine_id,
            digest,
            root: phys.op_name(),
            est_rows: phys.est_rows,
            est_cost: phys.est_cost,
            actual_rows,
            elapsed,
            node_qerror_max,
            scans,
        });
    }

    /// Statement pipeline behind [`Session::execute`]: plan-cache fast
    /// path, parse, dispatch.
    fn execute_tracked(&mut self, sql_text: &str) -> Result<QueryResult> {
        // Plan-cache fast path: a hit skips parse/bind/plan entirely.  A
        // failed transaction must not take it — the gate that rejects
        // statements until COMMIT/ROLLBACK lives in `dispatch`, and a
        // cached SELECT would otherwise happily read the dead snapshot.
        let in_failed_txn = self.txn.as_ref().is_some_and(|t| t.failed);
        if !in_failed_txn {
            if let Some(result) = self.run_cached_select(sql_text)? {
                return Ok(result);
            }
        }
        let parse_start = Instant::now();
        let stmt = sql::parse(sql_text)?;
        let parse_time = parse_start.elapsed();
        let mut result = self.dispatch(stmt, sql_text)?;
        match result.stats.trace.as_mut() {
            Some(t) => t.prepend("parse", parse_time),
            None => {
                let mut t = QueryTrace::new();
                t.record("parse", parse_time);
                result.stats.trace = Some(t);
            }
        }
        Ok(result)
    }

    /// Convenience: execute and return rows.
    pub fn query(&mut self, sql_text: &str) -> Result<Vec<Row>> {
        Ok(self.execute(sql_text)?.rows)
    }

    /// Plan a SELECT without executing it (benches compare predicted cost
    /// against measured runtime — Figure 6).
    pub fn plan_select(&self, sql_text: &str) -> Result<PhysNode> {
        let stmt = sql::parse(sql_text)?;
        let sel = match stmt {
            Statement::Select(s) | Statement::Explain { select: s, .. } => s,
            _ => return Err(Error::Binder("plan_select expects a SELECT".into())),
        };
        let catalog = self.engine.catalog();
        let logical = sql::bind(&sel, &catalog)?;
        opt::plan(&logical, &catalog, &self.engine.pool, &self.vars)
    }

    /// Execute a semicolon-separated script; returns the result of the
    /// last statement.  Quotes are respected when splitting.  A failure is
    /// wrapped in [`Error::Script`] carrying the 1-based ordinal and a
    /// snippet of the failing statement.
    pub fn execute_script(&mut self, script: &str) -> Result<QueryResult> {
        let mut last = QueryResult::default();
        let mut ordinal = 0usize;
        let mut run = |this: &mut Self, text: &str, last: &mut QueryResult| -> Result<()> {
            ordinal += 1;
            match this.execute(text) {
                Ok(r) => {
                    *last = r;
                    Ok(())
                }
                Err(e) => Err(Error::Script {
                    ordinal,
                    snippet: snippet_of(text),
                    source: Box::new(e),
                }),
            }
        };
        let mut stmt = String::new();
        let mut in_str = false;
        let mut in_comment = false;
        let mut prev = '\0';
        for ch in script.chars() {
            if in_comment {
                if ch == '\n' {
                    in_comment = false;
                    stmt.push(ch);
                }
                prev = ch;
                continue;
            }
            match ch {
                '\'' => {
                    in_str = !in_str;
                    stmt.push(ch);
                }
                '-' if !in_str && prev == '-' => {
                    // `--` line comment: drop it (and the `-` already
                    // buffered) so a `;` inside the comment cannot split.
                    stmt.pop();
                    in_comment = true;
                }
                ';' if !in_str => {
                    if !stmt.trim().is_empty() {
                        run(self, stmt.trim(), &mut last)?;
                    }
                    stmt.clear();
                }
                _ => stmt.push(ch),
            }
            prev = ch;
        }
        if !stmt.trim().is_empty() {
            run(self, stmt.trim(), &mut last)?;
        }
        Ok(last)
    }

    // ------------------------------------------------------- dispatching

    /// The visibility this statement reads with: the open transaction's
    /// snapshot (and id, for read-your-own-writes), or a fresh autocommit
    /// snapshot when no transaction is open.
    fn statement_visibility(&self) -> TxnVisibility {
        match &self.txn {
            Some(t) => TxnVisibility {
                txn: t.id,
                snap: t.snap.clone(),
            },
            None => self.engine.fresh_visibility(),
        }
    }

    /// `BEGIN`: allocate a transaction id and capture the snapshot every
    /// statement of the transaction will read against.
    fn txn_begin(&mut self) -> Result<QueryResult> {
        if self.txn.is_some() {
            return Err(Error::Execution(
                "a transaction is already in progress".into(),
            ));
        }
        let id = self.engine.txns.begin();
        self.txn = Some(SessionTxn {
            id,
            snap: self.engine.txns.snapshot(),
            failed: false,
        });
        self.slot.set_txn(id);
        Ok(QueryResult::default())
    }

    /// `COMMIT`: make the open transaction's writes visible (and durable,
    /// via the group-commit rendezvous).  A failed transaction rolls back
    /// instead, PostgreSQL-style.  No open transaction is a no-op.
    fn txn_commit(&mut self) -> Result<QueryResult> {
        let Some(t) = self.txn.take() else {
            return Ok(QueryResult::default());
        };
        self.slot.set_txn(0);
        if t.failed {
            self.engine.log(WalRecord::Abort { txn: t.id })?;
            self.engine.txns.abort(t.id);
            return Ok(QueryResult::default());
        }
        self.engine.log(WalRecord::Commit { txn: t.id })?;
        self.engine.txns.commit(t.id);
        self.set_stage(Stage::Commit);
        self.engine.wal_commit()?;
        Ok(QueryResult::default())
    }

    /// `ROLLBACK`: abort the open transaction — its versions stay dead
    /// for every snapshot until checkpoint vacuum reclaims them.  No open
    /// transaction is a no-op.
    fn txn_rollback(&mut self) -> Result<QueryResult> {
        let Some(t) = self.txn.take() else {
            return Ok(QueryResult::default());
        };
        self.slot.set_txn(0);
        // No fsync: an abort needs no durability guarantee — if the Abort
        // record is lost, replay drops the transaction's records anyway
        // for want of a Commit.
        self.engine.log(WalRecord::Abort { txn: t.id })?;
        self.engine.txns.abort(t.id);
        Ok(QueryResult::default())
    }

    fn dispatch(&mut self, stmt: Statement, sql_text: &str) -> Result<QueryResult> {
        // Transaction control manages session state directly.
        match stmt {
            Statement::Begin => return self.txn_begin(),
            Statement::Commit => return self.txn_commit(),
            Statement::Rollback => return self.txn_rollback(),
            _ => {}
        }
        if let Some(t) = &self.txn {
            if t.failed {
                return Err(Error::Execution(
                    "current transaction is aborted, commands ignored until \
                     COMMIT or ROLLBACK"
                        .into(),
                ));
            }
            if matches!(
                stmt,
                Statement::CreateTable { .. }
                    | Statement::CreateIndex { .. }
                    | Statement::DropTable { .. }
                    | Statement::DropIndex { .. }
            ) {
                return Err(Error::Execution(
                    "DDL is not supported inside an explicit transaction".into(),
                ));
            }
        }
        // Statements that appended WAL records finish with a group-commit
        // rendezvous — decided up front because the match consumes `stmt`.
        // The commit must happen *after* `dispatch_stmt` returns (locks
        // released), or concurrent writers would fsync one at a time under
        // the DML lock and group commit would never batch.  Inside an
        // explicit transaction nothing is durable until COMMIT, so no
        // per-statement rendezvous there.
        let in_txn = self.txn.is_some();
        let needs_commit = !in_txn
            && matches!(
                stmt,
                Statement::CreateTable { .. }
                    | Statement::CreateIndex { .. }
                    | Statement::DropTable { .. }
                    | Statement::DropIndex { .. }
                    | Statement::Insert { .. }
                    | Statement::InsertSelect { .. }
                    | Statement::Update { .. }
                    | Statement::Delete { .. }
            );
        // An autocommit write runs inside an ephemeral transaction: its
        // versions are stamped with a real id, its WAL records are gated
        // on the Commit record appended below, and a mid-statement error
        // aborts it — partial effects never become visible or durable.
        let is_write = matches!(
            stmt,
            Statement::Insert { .. }
                | Statement::InsertSelect { .. }
                | Statement::Update { .. }
                | Statement::Delete { .. }
        );
        let ephemeral = if is_write && !in_txn {
            let id = self.engine.txns.begin();
            self.txn = Some(SessionTxn {
                id,
                snap: self.engine.txns.snapshot(),
                failed: false,
            });
            Some(id)
        } else {
            None
        };
        let result = self.dispatch_stmt(stmt, sql_text);
        if let Some(id) = ephemeral {
            self.txn = None;
            match &result {
                Ok(_) => {
                    self.engine.log(WalRecord::Commit { txn: id })?;
                    self.engine.txns.commit(id);
                }
                Err(_) => {
                    let _ = self.engine.log(WalRecord::Abort { txn: id });
                    self.engine.txns.abort(id);
                }
            }
        } else if result.is_err() {
            if let Some(t) = &mut self.txn {
                t.failed = true;
            }
        }
        let result = result?;
        if needs_commit {
            // The group-commit rendezvous can park behind another leader's
            // fsync: surface it as its own stage and wait class.
            self.set_stage(Stage::Commit);
            self.engine.wal_commit()?;
        }
        Ok(result)
    }

    fn dispatch_stmt(&mut self, stmt: Statement, sql_text: &str) -> Result<QueryResult> {
        match stmt {
            Statement::CreateTable { name, columns } => {
                let mut catalog = self.engine.catalog_mut();
                // Check the name *before* creating the heap: the heap file
                // is allocated from the backend, and a duplicate-name error
                // after allocation would leak the file id.
                if catalog.has_table(&name) {
                    return Err(Error::Catalog(format!(
                        "table {:?} already exists",
                        name.to_lowercase()
                    )));
                }
                let schema = schema_from_ddl(&catalog, &columns)?;
                let heap = HeapFile::create(&self.engine.pool)?;
                catalog.create_table(&name, schema, heap)?;
                // Log while still holding the catalog write guard (WAL is
                // rank 5, catalog rank 1 — hierarchy-safe): once the guard
                // drops the table is visible, and a concurrent insert could
                // otherwise win the WAL mutex and log before our Ddl
                // record.  Replay assigns table ids by record order, so
                // that reordering corrupts recovery.
                self.engine.log(WalRecord::Ddl {
                    sql: sql_text.to_string(),
                })?;
                Ok(QueryResult::default())
            }
            Statement::CreateIndex {
                name,
                table,
                column,
                using,
            } => {
                let mut catalog = self.engine.catalog_mut();
                let meta = catalog.table(&table)?;
                let col = meta
                    .schema
                    .index_of(&column)
                    .ok_or_else(|| Error::Binder(format!("no column {column:?} in {table:?}")))?;
                let idx = catalog.create_index(&table, &name, col, &using)?;
                // Back-fill from the heap (still under the write guard, so
                // no insert can slip between scan and index visibility).
                let filled = crate::recovery::backfill_index(
                    &self.engine.pool,
                    &meta,
                    col,
                    &mut **idx.instance.write(),
                );
                // A failed back-fill must unregister the index before the
                // guard drops, or later queries would use a partial index
                // and silently miss rows.
                if let Err(e) = filled {
                    let _ = catalog.drop_index(&name);
                    return Err(e);
                }
                // Log under the catalog write guard (WAL rank 5 > catalog
                // rank 1) so concurrent DDL/DML cannot log ahead of this
                // record — replay depends on record order.
                self.engine.log(WalRecord::Ddl {
                    sql: sql_text.to_string(),
                })?;
                Ok(QueryResult::default())
            }
            Statement::DropTable { name } => {
                let mut catalog = self.engine.catalog_mut();
                catalog.drop_table(&name)?;
                // Logged like every other DDL (an unlogged DROP would
                // resurrect the table on replay); the guard is still held
                // so no concurrent record can order ahead of this one.
                self.engine.log(WalRecord::Ddl {
                    sql: sql_text.to_string(),
                })?;
                Ok(QueryResult::default())
            }
            Statement::DropIndex { name } => {
                let mut catalog = self.engine.catalog_mut();
                catalog.drop_index(&name)?;
                self.engine.log(WalRecord::Ddl {
                    sql: sql_text.to_string(),
                })?;
                Ok(QueryResult::default())
            }
            Statement::Insert { table, rows } => {
                let txn = self.writer_txn_id();
                let _writer = self.engine.dml_lock.lock();
                let catalog = self.engine.catalog();
                let mut affected = 0u64;
                for row_exprs in rows {
                    let mut row = Row::with_capacity(row_exprs.len());
                    for e in &row_exprs {
                        let bound = sql::bind_const_expr(e, &catalog)?;
                        let ctx = EvalCtx::new(&catalog, &self.vars);
                        row.push(bound.eval(&[], &ctx)?);
                    }
                    self.insert_row_in(&catalog, &table, row, txn)?;
                    affected += 1;
                }
                Ok(QueryResult {
                    affected,
                    ..QueryResult::default()
                })
            }
            Statement::InsertSelect { table, select } => {
                let txn = self.writer_txn_id();
                let _writer = self.engine.dml_lock.lock();
                let catalog = self.engine.catalog();
                let result = self.run_select_in(&catalog, &select, ExplainMode::Off, None)?;
                let mut affected = 0u64;
                for row in result.rows {
                    self.insert_row_in(&catalog, &table, row, txn)?;
                    affected += 1;
                }
                Ok(QueryResult {
                    affected,
                    ..QueryResult::default()
                })
            }
            Statement::Update {
                table,
                sets,
                filter,
            } => self.write_where(&table, Some(&sets), filter),
            Statement::Delete { table, filter } => self.write_where(&table, None, filter),
            Statement::Select(sel) => {
                let catalog = self.engine.catalog();
                self.run_select_in(&catalog, &sel, ExplainMode::Off, Some(sql_text))
            }
            Statement::Explain { select, analyze } => {
                let catalog = self.engine.catalog();
                self.run_select_in(
                    &catalog,
                    &select,
                    if analyze {
                        ExplainMode::Analyze
                    } else {
                        ExplainMode::PlanOnly
                    },
                    None,
                )
            }
            Statement::Set { name, value } => {
                let catalog = self.engine.catalog();
                let bound = sql::bind_const_expr(&value, &catalog)?;
                let ctx = EvalCtx::new(&catalog, &self.vars);
                let v = bound.eval(&[], &ctx)?;
                drop(catalog);
                // `wal_sync_mode` steers the engine-shared WAL, not the
                // session: validate and forward before recording the text
                // in the session vars (so SHOW still works).
                if name.eq_ignore_ascii_case("wal_sync_mode") {
                    let mode = v.as_text().and_then(SyncMode::parse).ok_or_else(|| {
                        Error::Binder(
                            "wal_sync_mode must be 'off', 'flush', 'fsync' or \
                             'fsync_per_record'"
                                .into(),
                        )
                    })?;
                    self.engine.set_wal_sync_mode(mode);
                }
                // No cache invalidation needed: the session fingerprint is
                // part of the plan-cache key, so a changed variable simply
                // keys to different entries.
                self.vars.set(&name, v);
                Ok(QueryResult::default())
            }
            Statement::Show { name } => self.show(&name),
            Statement::Analyze { table } => {
                match table {
                    Some(t) => self.analyze(&t)?,
                    None => self.analyze_all()?,
                }
                Ok(QueryResult::default())
            }
            Statement::Begin | Statement::Commit | Statement::Rollback => {
                unreachable!("transaction control is handled in dispatch")
            }
        }
    }

    /// The transaction id DML stamps into `xmin`/`xmax` and its WAL
    /// records.  `dispatch` guarantees every write statement runs inside a
    /// transaction (explicit or the ephemeral autocommit wrapper).
    fn writer_txn_id(&self) -> u64 {
        self.txn
            .as_ref()
            .expect("write statements run inside a transaction")
            .id
    }

    fn show(&self, name: &str) -> Result<QueryResult> {
        match name.to_ascii_lowercase().as_str() {
            // Engine metrics surfaces (the registry is process-wide).
            "stats" => {
                let _ = obs::metrics(); // ensure engine metrics exist
                let rows = obs::global()
                    .samples()
                    .into_iter()
                    .map(|(n, v)| vec![Datum::text(n), Datum::Float(v)])
                    .collect();
                Ok(QueryResult {
                    schema: Schema::new(vec![
                        Column::new("metric", DataType::Text),
                        Column::new("value", DataType::Float),
                    ]),
                    rows,
                    ..QueryResult::default()
                })
            }
            "stats_json" => {
                let _ = obs::metrics();
                Ok(QueryResult {
                    schema: Schema::new(vec![Column::new("stats_json", DataType::Text)]),
                    rows: vec![vec![Datum::text(obs::global().render_json())]],
                    ..QueryResult::default()
                })
            }
            "stats_prometheus" => {
                let _ = obs::metrics();
                Ok(QueryResult {
                    schema: Schema::new(vec![Column::new("stats_prometheus", DataType::Text)]),
                    rows: vec![vec![Datum::text(obs::global().render_prometheus())]],
                    ..QueryResult::default()
                })
            }
            // Live activity of every session on *this* engine.  Reads only
            // atomics on the observed slots, so it never blocks the queries
            // it observes.
            "activity" => {
                let rows = obs::activity::snapshot()
                    .into_iter()
                    .filter(|r| r.engine_id == self.engine.engine_id)
                    .map(|r| {
                        vec![
                            Datum::Int(r.session_id as i64),
                            Datum::Int(r.query_id as i64),
                            Datum::Int(r.txn_id as i64),
                            Datum::text(r.stage.name()),
                            Datum::Int(r.rows as i64),
                            Datum::Int(r.workers as i64),
                            Datum::Float(r.elapsed_ms),
                            Datum::text(&r.sql),
                        ]
                    })
                    .collect();
                Ok(QueryResult {
                    schema: Schema::new(vec![
                        Column::new("session_id", DataType::Int),
                        Column::new("query_id", DataType::Int),
                        Column::new("txn", DataType::Int),
                        Column::new("stage", DataType::Text),
                        Column::new("rows", DataType::Int),
                        Column::new("workers", DataType::Int),
                        Column::new("elapsed_ms", DataType::Float),
                        Column::new("sql", DataType::Text),
                    ]),
                    rows,
                    ..QueryResult::default()
                })
            }
            // Per-plan-digest estimate-vs-actual aggregates for this
            // engine (the cost-model feedback loop; `SHOW PLAN STATS`).
            "plan_stats" => {
                let rows = obs::planstore::snapshot(Some(self.engine.engine_id))
                    .into_iter()
                    .map(|e| {
                        vec![
                            Datum::text(format!("{:016x}", e.digest)),
                            Datum::text(&e.root),
                            Datum::Int(e.calls as i64),
                            Datum::Float(e.mean().as_secs_f64() * 1e3),
                            Datum::Float(e.max.as_secs_f64() * 1e3),
                            Datum::Float(e.est_cost),
                            Datum::Float(e.est_rows),
                            Datum::Int(e.last_actual_rows as i64),
                            Datum::Float(e.qerror_last),
                            Datum::Float(e.qerror_max),
                        ]
                    })
                    .collect();
                Ok(QueryResult {
                    schema: Schema::new(vec![
                        Column::new("plan_digest", DataType::Text),
                        Column::new("root", DataType::Text),
                        Column::new("calls", DataType::Int),
                        Column::new("mean_ms", DataType::Float),
                        Column::new("max_ms", DataType::Float),
                        Column::new("est_cost", DataType::Float),
                        Column::new("est_rows", DataType::Float),
                        Column::new("last_rows", DataType::Int),
                        Column::new("qerror_last", DataType::Float),
                        Column::new("qerror_max", DataType::Float),
                    ]),
                    rows,
                    ..QueryResult::default()
                })
            }
            // Stale-statistics advisories currently raised on this
            // engine (`SHOW ADVISORIES`).
            "advisories" => {
                let rows = obs::planstore::advisories(Some(self.engine.engine_id))
                    .into_iter()
                    .map(|a| {
                        vec![
                            Datum::text(&a.table),
                            Datum::Float(a.qerror),
                            Datum::Int(a.window as i64),
                            Datum::text(&a.recommendation),
                        ]
                    })
                    .collect();
                Ok(QueryResult {
                    schema: Schema::new(vec![
                        Column::new("table", DataType::Text),
                        Column::new("qerror", DataType::Float),
                        Column::new("window", DataType::Int),
                        Column::new("recommendation", DataType::Text),
                    ]),
                    rows,
                    ..QueryResult::default()
                })
            }
            // Completed-query ring for this engine, one JSON object per row.
            "flight_recorder" => {
                let rows = obs::flight::snapshot()
                    .into_iter()
                    .filter(|r| r.engine_id == self.engine.engine_id)
                    .map(|r| vec![Datum::text(r.to_json())])
                    .collect();
                Ok(QueryResult {
                    schema: Schema::new(vec![Column::new("flight_record", DataType::Text)]),
                    rows,
                    ..QueryResult::default()
                })
            }
            _ => {
                let v = self.vars.get(name).cloned().unwrap_or(Datum::Null);
                Ok(QueryResult {
                    schema: Schema::new(vec![Column::new(name, DataType::Text)]),
                    rows: vec![vec![Datum::text(v.to_string())]],
                    ..QueryResult::default()
                })
            }
        }
    }

    // -------------------------------------------------------- plan cache

    /// Cache key for a SELECT's text, or `None` for non-SELECT statements.
    fn cache_key(&self, sql_text: &str) -> Option<(String, u64)> {
        let norm = normalize_sql(sql_text);
        if norm.starts_with("select ") {
            let fp = self.vars.fingerprint();
            Some((norm, fp))
        } else {
            None
        }
    }

    /// Execute `sql_text` through a cached plan, if one is present.
    fn run_cached_select(&self, sql_text: &str) -> Result<Option<QueryResult>> {
        let Some(key) = self.cache_key(sql_text) else {
            return Ok(None);
        };
        let metrics = obs::metrics();
        // The catalog read guard is held across lookup *and* execution so
        // the epoch cannot move under a running plan.
        let catalog = self.engine.catalog();
        let epoch = self.engine.schema_epoch();
        let Some(plan) = self.engine.plan_cache.lookup(&key, epoch) else {
            metrics.plan_cache_misses_total.inc();
            return Ok(None);
        };
        metrics.plan_cache_hits_total.inc();
        let run = self.run_plan(&catalog, &plan, false)?;
        Ok(Some(run.into_result(&plan, QueryTrace::new())))
    }

    fn cache_plan(&self, sql_text: &str, plan: Arc<PhysNode>, epoch: u64) {
        if let Some(key) = self.cache_key(sql_text) {
            self.engine.plan_cache.insert(key, plan, epoch);
        }
    }

    // ---------------------------------------------------------- selects

    fn run_select_in(
        &self,
        catalog: &Catalog,
        sel: &sql::SelectStmt,
        mode: ExplainMode,
        cache_sql: Option<&str>,
    ) -> Result<QueryResult> {
        let mut trace = QueryTrace::new();
        // Epoch is read under the caller's catalog guard, *before*
        // planning: if a DDL bumps it after we release, the entry we
        // insert carries the stale epoch and is rejected on lookup.
        let epoch = self.engine.schema_epoch();
        self.set_stage(Stage::Bind);
        let bind_start = Instant::now();
        let logical = sql::bind(sel, catalog)?;
        trace.record("bind", bind_start.elapsed());
        self.set_stage(Stage::Plan);
        let plan_start = Instant::now();
        let phys = Arc::new(opt::plan(&logical, catalog, &self.engine.pool, &self.vars)?);
        trace.record("plan", plan_start.elapsed());
        match mode {
            ExplainMode::PlanOnly => {
                let text = phys.explain();
                return Ok(QueryResult {
                    schema: Schema::new(vec![Column::new("query plan", DataType::Text)]),
                    rows: text.lines().map(|l| vec![Datum::text(l)]).collect(),
                    explain: Some(text),
                    stats: RunStats {
                        trace: Some(trace),
                        plan_digest: obs::enabled().then(|| phys.digest()),
                        ..RunStats::default()
                    },
                    ..QueryResult::default()
                });
            }
            ExplainMode::Analyze => {
                let run = self.run_plan(catalog, &phys, true)?;
                return Ok(self.explain_analyze(&phys, run, trace));
            }
            ExplainMode::Off => {}
        }
        if let Some(sql_text) = cache_sql {
            self.cache_plan(sql_text, Arc::clone(&phys), epoch);
        }
        let run = self.run_plan(catalog, &phys, false)?;
        Ok(run.into_result(&phys, trace))
    }

    /// Run a SELECT plan under this statement's snapshot and deposit it
    /// in the plan store: the one executor spine of the cached, planned
    /// and `EXPLAIN ANALYZE` paths.  `analyze` builds the instrumented
    /// tree and returns its per-node actuals.
    fn run_plan(&self, catalog: &Catalog, phys: &PhysNode, analyze: bool) -> Result<PlanRun> {
        self.set_stage(Stage::Execute);
        let stats = ExecStats::default();
        let io_before = self.engine.pool.stats();
        let start = Instant::now();
        let ctx = ExecCtx {
            catalog,
            pool: &self.engine.pool,
            session: &self.vars,
            stats: &stats,
            vis: self.statement_visibility(),
        };
        let (mut exec, instr) = if analyze {
            let (exec, instr) = build_instrumented(phys, &ctx)?;
            (exec, Some(instr))
        } else {
            (build_executor(phys, &ctx)?, None)
        };
        let rows = drain_to_vec(exec.as_mut(), &ctx)?;
        let exec_time = start.elapsed();
        let io = self.engine.pool.stats().since(&io_before);
        let analyzed = instr.map(|i| (i.actuals(), i));
        let plan_digest = obs::enabled().then(|| phys.digest());
        self.record_plan_observation(
            phys,
            plan_digest,
            rows.len() as u64,
            exec_time,
            analyzed.as_ref().map(|(a, _)| a.as_slice()),
        );
        Ok(PlanRun {
            rows,
            stats: RunStats {
                io,
                index_node_visits: stats.index_node_visits.get(),
                ext_op_calls: stats.ext_op_calls.get(),
                batches: stats.batches_out.get(),
                exec_time,
                est_cost: Some(phys.est_cost),
                est_rows: Some(phys.est_rows),
                plan_digest,
                ..RunStats::default()
            },
            analyzed,
        })
    }

    /// `EXPLAIN ANALYZE` output: every plan node annotated with its
    /// measured actuals — exactly how the Figure 6 experiment gathers its
    /// (predicted cost, actual runtime) pairs, at per-operator
    /// granularity.
    fn explain_analyze(&self, phys: &PhysNode, run: PlanRun, mut trace: QueryTrace) -> QueryResult {
        let PlanRun {
            rows,
            mut stats,
            analyzed,
        } = run;
        let (actuals, instr) = analyzed.expect("EXPLAIN ANALYZE runs the instrumented tree");
        // The `execute` stage becomes a span *tree*: one child per plan
        // operator (mirroring the plan pre-order, inclusive times) plus
        // one subtree per parallel scan with a span per worker, so the
        // trace reconciles with the printed actuals.
        let mut exec_children = vec![phys.span_tree(&actuals)];
        for (pi, p) in instr.parallel.iter().enumerate() {
            let worker_spans: Vec<obs::Span> = p
                .worker_busy_ns
                .iter()
                .enumerate()
                .map(|(i, busy)| {
                    obs::Span::new(format!("worker {i}"), Duration::from_nanos(busy.get()))
                })
                .collect();
            let busy_total: u64 = p.worker_busy_ns.iter().map(|c| c.get()).sum();
            exec_children.push(obs::Span::with_children(
                format!("parallel scan {pi} (workers={})", p.workers),
                Duration::from_nanos(busy_total),
                worker_spans,
            ));
        }
        trace.record_span(obs::Span::with_children(
            "execute",
            stats.exec_time,
            exec_children,
        ));
        let mut text = phys.explain_with_actuals(&actuals);
        text.push_str(&format!(
            "Actual: rows={} batches={} time={:.3}ms logical_reads={} physical_reads={} index_node_visits={} ext_op_calls={}\n",
            rows.len(),
            stats.batches,
            stats.exec_time.as_secs_f64() * 1000.0,
            stats.io.logical_reads,
            stats.io.physical_reads,
            stats.index_node_visits,
            stats.ext_op_calls,
        ));
        // Per-worker actuals of each parallel scan ride along as trailer
        // lines (keeping the one-entry-per-node pre-order of
        // `explain_with_actuals` undisturbed).
        for p in &instr.parallel {
            text.push_str(&format!(
                "Parallel: workers={} rounds={} morsels={} gather_wait={:.3}ms\n",
                p.workers,
                p.rounds.get(),
                p.morsels.get(),
                p.gather_wait_ns.get() as f64 / 1e6,
            ));
            for (i, (rows_c, busy_c)) in p.worker_rows.iter().zip(&p.worker_busy_ns).enumerate() {
                text.push_str(&format!(
                    "  Worker {i}: rows={} time={:.3}ms\n",
                    rows_c.get(),
                    busy_c.get() as f64 / 1e6,
                ));
            }
        }
        text.push_str(&format!("Stages: {}\n", trace.render()));
        stats.trace = Some(trace);
        QueryResult {
            schema: Schema::new(vec![Column::new("query plan", DataType::Text)]),
            rows: text.lines().map(|l| vec![Datum::text(l)]).collect(),
            explain: Some(text),
            stats,
            ..QueryResult::default()
        }
    }

    // --------------------------------------------------------------- DML

    /// Insert a pre-evaluated row (used by SQL INSERT, recovery, and bulk
    /// loaders).  Applies type checks, extension `on_insert` transforms
    /// (phoneme materialization), index maintenance and WAL logging.
    /// Inside an explicit transaction the row joins it; otherwise the
    /// insert autocommits in an ephemeral transaction of its own.
    pub fn insert_row(&mut self, table: &str, row: Row) -> Result<()> {
        if let Some(t) = &self.txn {
            let id = t.id;
            let _writer = self.engine.dml_lock.lock();
            let catalog = self.engine.catalog();
            return self.insert_row_in(&catalog, table, row, id);
        }
        let id = self.engine.txns.begin();
        let inserted = {
            let _writer = self.engine.dml_lock.lock();
            let catalog = self.engine.catalog();
            self.insert_row_in(&catalog, table, row, id)
        };
        match inserted {
            Ok(()) => {
                self.engine.log(WalRecord::Commit { txn: id })?;
                self.engine.txns.commit(id);
                // Durability rendezvous after the locks drop (group commit).
                self.engine.wal_commit()
            }
            Err(e) => {
                self.engine.txns.abort(id);
                Err(e)
            }
        }
    }

    /// Recovery helper: store a logged row exactly as it was logged.  Its
    /// values were prepared (type-checked, extension `on_insert` hooks
    /// applied) when first written; a hook re-run at replay may produce
    /// other bytes (UniText resolves its synset ids against whatever
    /// taxonomy the reopening process installed), and the log's later
    /// Delete images name rows by their logged bytes.
    pub(crate) fn replay_insert(&mut self, table: &str, row: Row) -> Result<()> {
        let id = self.engine.txns.begin();
        let inserted = {
            let _writer = self.engine.dml_lock.lock();
            let catalog = self.engine.catalog();
            catalog
                .table(table)
                .and_then(|meta| self.insert_version(&catalog, &meta, &row, id))
        };
        match inserted {
            Ok(()) => self.engine.txns.commit(id),
            Err(_) => self.engine.txns.abort(id),
        }
        inserted
    }

    /// Insert under an already-held catalog guard (and DML lock).
    fn insert_row_in(&self, catalog: &Catalog, table: &str, row: Row, txn: u64) -> Result<()> {
        let meta = catalog.table(table)?;
        let row = prepare_row(catalog, &meta, row)?;
        self.insert_version(catalog, &meta, &row, txn)
    }

    /// Store a prepared row as a new version.  The heap tuple is stamped
    /// `xmin = txn, xmax = 0`; the WAL record carries the plain row bytes
    /// plus the transaction id, so replay can gate it on the
    /// transaction's Commit record.
    fn insert_version(
        &self,
        catalog: &Catalog,
        meta: &crate::catalog::TableMeta,
        row: &Row,
        txn: u64,
    ) -> Result<()> {
        let bytes = encode_row(row);
        let tid = meta.heap.insert(
            &self.engine.pool,
            &encode_version(txn, INVALID_TXN_ID, &bytes),
        )?;
        let indexes = catalog.indexes_of(meta.id);
        for (n, idx) in indexes.iter().enumerate() {
            if let Err(e) = idx.instance.write().insert(&row[idx.column], tid) {
                // The access method rejected the key (NULL under an
                // M-tree, say).  Take the version back out, with the
                // entries already made: left in the heap it would have
                // checkpoint vacuum ask the same index to delete a key it
                // cannot form, and fail every checkpoint from then on.
                for done in &indexes[..n] {
                    done.instance.write().delete(&row[done.column], tid)?;
                }
                meta.heap.delete(&self.engine.pool, tid)?;
                return Err(e);
            }
        }
        self.engine.log(WalRecord::Insert {
            table_id: meta.id.0,
            txn,
            tuple: bytes,
        })
    }

    /// First-updater-wins: a visible victim whose `xmax` carries another
    /// transaction that has not aborted was updated or deleted by a
    /// concurrent transaction after our snapshot — we lose.  Under the
    /// DML lock no `xmax` can change beneath us, so the check is a plain
    /// read.  An aborted `xmax` is reclaimable and re-stamped freely.
    fn check_write_conflicts(&self, table: &str, victims: &[HeapVersion]) -> Result<()> {
        for HeapVersion { xmax, .. } in victims {
            if *xmax != INVALID_TXN_ID && !self.engine.txns.is_aborted(*xmax) {
                obs::metrics().txn_conflicts_total.inc();
                return Err(Error::Serialization(format!(
                    "row in {table:?} was updated by concurrent transaction {xmax}"
                )));
            }
        }
        Ok(())
    }

    /// UPDATE (`sets` given) and DELETE (`sets` absent), MVCC-style, in
    /// two phases.  First the victim scan: the `WHERE` goes to the
    /// optimizer like a SELECT's (`opt::plan_target_scan`; the
    /// `enable_seqscan`/`enable_indexscan` flags steer it) and the chosen
    /// Seq Scan or Index Scan collects every visible matching version.
    /// Only then the writes: each victim is `xmax`-stamped in place — it
    /// stays readable for snapshots that predate us, keeps its index
    /// entries so they still reach it, and is reclaimed by checkpoint
    /// vacuum — and an UPDATE inserts the new version with `xmin = us`,
    /// re-running the extension hooks (a changed UniText gets a fresh
    /// phoneme cache).  Collecting before writing is what lets a `SET`
    /// move the key the scan runs on.
    fn write_where(
        &self,
        table: &str,
        sets: Option<&[(String, sql::AstExpr)]>,
        filter: Option<sql::AstExpr>,
    ) -> Result<QueryResult> {
        let mut trace = QueryTrace::new();
        let _writer = self.engine.dml_lock.lock();
        let catalog = self.engine.catalog();
        let meta = catalog.table(table)?;

        self.set_stage(Stage::Bind);
        let bind_start = Instant::now();
        let bind = |e: &sql::AstExpr| sql::bind_single_table(e, &meta.name, &meta.schema, &catalog);
        let filter = filter.as_ref().map(bind).transpose()?;
        let mut bound_sets = Vec::new();
        for (col, e) in sets.unwrap_or_default() {
            let idx = meta
                .schema
                .index_of(col)
                .ok_or_else(|| Error::Binder(format!("no column {col:?} in {table:?}")))?;
            bound_sets.push((idx, bind(e)?));
        }
        trace.record("bind", bind_start.elapsed());

        self.set_stage(Stage::Plan);
        let plan_start = Instant::now();
        let plan = opt::plan_target_scan(
            &meta.name,
            filter.as_ref(),
            &catalog,
            &self.engine.pool,
            &self.vars,
        )?;
        trace.record("plan", plan_start.elapsed());
        let plan_digest = obs::enabled().then(|| plan.digest());

        self.set_stage(Stage::Execute);
        let stats = ExecStats::default();
        let io_before = self.engine.pool.stats();
        let start = Instant::now();
        let ctx = ExecCtx {
            catalog: &catalog,
            pool: &self.engine.pool,
            session: &self.vars,
            stats: &stats,
            vis: self.statement_visibility(),
        };
        let victims = scan_target(&plan, &ctx)?;
        let affected = victims.len() as u64;
        // The plan store learns the scan alone: its time is what the
        // scan's cost estimate predicts.
        self.record_plan_observation(&plan, plan_digest, affected, start.elapsed(), None);
        self.check_write_conflicts(table, &victims)?;
        let me = ctx.vis.txn;
        let eval = EvalCtx::new(&catalog, &self.vars);
        for victim in victims {
            // An UPDATE's new image must be valid before touching the old.
            let new_row = match sets {
                Some(_) => {
                    let mut new_row = victim.row.clone();
                    for (idx, e) in &bound_sets {
                        new_row[*idx] = e.eval(&victim.row, &eval)?;
                    }
                    Some(prepare_row(&catalog, &meta, new_row)?)
                }
                None => None,
            };
            if !meta
                .heap
                .patch(&self.engine.pool, victim.tid, 8, &me.to_le_bytes())?
            {
                return Err(Error::Execution(format!(
                    "victim {:?} vanished mid-statement",
                    victim.tid
                )));
            }
            self.engine.log(WalRecord::Delete {
                table_id: meta.id.0,
                txn: me,
                tuple: victim.plain().to_vec(),
            })?;
            if let Some(new_row) = new_row {
                self.insert_version(&catalog, &meta, &new_row, me)?;
            }
        }
        let exec_time = start.elapsed();
        trace.record("execute", exec_time);
        Ok(QueryResult {
            explain: Some(plan.explain()),
            affected,
            stats: RunStats {
                io: self.engine.pool.stats().since(&io_before),
                index_node_visits: stats.index_node_visits.get(),
                ext_op_calls: stats.ext_op_calls.get(),
                exec_time,
                est_cost: Some(plan.est_cost),
                est_rows: Some(plan.est_rows),
                trace: Some(trace),
                plan_digest,
                ..RunStats::default()
            },
            ..QueryResult::default()
        })
    }

    /// Recovery helper: physically delete, in one pass over the heap,
    /// one version per entry of the multiset `images` (row bytes, version
    /// header excluded → how many to delete), with its index entries.
    /// Replay applies only committed work on a single thread, so the
    /// physical delete is safe — there is no concurrent snapshot to
    /// preserve a version for — and between two DDL records the order of
    /// a table's inserts and deletes does not matter, only their counts.
    pub(crate) fn delete_matching_tuples(
        &mut self,
        table: &str,
        mut images: HashMap<Vec<u8>, usize>,
    ) -> Result<()> {
        let _writer = self.engine.dml_lock.lock();
        let catalog = self.engine.catalog();
        let meta = catalog.table(table)?;
        let mut wanted: usize = images.values().sum();
        let mut victims = Vec::new();
        meta.heap.scan(&self.engine.pool, |tid, bytes| {
            let plain = bytes.get(VERSION_HEADER_LEN..).unwrap_or_default();
            if let Some(left) = images.get_mut(plain).filter(|left| **left > 0) {
                *left -= 1;
                wanted -= 1;
                victims.push((tid, plain.to_vec()));
            }
            wanted > 0
        })?;
        let indexes = catalog.indexes_of(meta.id);
        for (tid, plain) in victims {
            meta.heap.delete(&self.engine.pool, tid)?;
            if !indexes.is_empty() {
                let row = decode_row(&plain, meta.schema.len())?;
                for idx in &indexes {
                    idx.instance.write().delete(&row[idx.column], tid)?;
                }
            }
        }
        Ok(())
    }

    /// ANALYZE: rebuild table and per-column statistics from a full pass.
    /// Bumps the schema epoch — fresh statistics can change plan choices,
    /// so cached plans are flushed.
    pub fn analyze(&mut self, table: &str) -> Result<()> {
        let catalog = self.engine.catalog();
        let meta = catalog.table(table)?;
        let arity = meta.schema.len();
        let mut columns: Vec<Vec<Datum>> = vec![Vec::new(); arity];
        let mut rows = 0u64;
        let mut scan_err = None;
        // Statistics describe what queries can see: dead and in-flight
        // versions are skipped under a fresh snapshot.
        let vis = self.engine.fresh_visibility();
        meta.heap.scan(&self.engine.pool, |_, bytes| {
            match split_version(bytes).and_then(|(xmin, xmax, rest)| {
                if !vis.sees(xmin, xmax) {
                    return Ok(None);
                }
                decode_row(rest, arity).map(Some)
            }) {
                Ok(None) => {}
                Ok(Some(row)) => {
                    rows += 1;
                    for (i, d) in row.into_iter().enumerate() {
                        // Derived payload fields do not make a distinct value.
                        columns[i].push(catalog.identity_of(&d).unwrap_or(d));
                    }
                }
                Err(e) => {
                    scan_err = Some(e);
                    return false;
                }
            }
            true
        })?;
        if let Some(e) = scan_err {
            return Err(e);
        }
        let pages = meta.heap.pages(&self.engine.pool)? as u64;
        let stats = TableStats {
            rows,
            pages,
            columns: columns
                .iter()
                .map(|vals| Some(ColumnStats::build(vals)))
                .collect(),
        };
        *meta.stats.lock() = stats;
        let canonical = meta.name.clone();
        drop(catalog);
        self.engine.bump_schema_epoch();
        // Fresh statistics: retract any stale-statistics advisory on the
        // table (the advisor's recommended remediation just ran).
        obs::planstore::note_analyze(self.engine.engine_id, Some(&canonical));
        Ok(())
    }

    /// Bare `ANALYZE`: refresh statistics on every user table, then
    /// clear the engine's stale-statistics advisories wholesale.  Each
    /// per-table pass bumps the schema epoch, so cached plans are
    /// flushed exactly as for targeted ANALYZE.
    pub fn analyze_all(&mut self) -> Result<()> {
        let names: Vec<String> = self
            .engine
            .catalog()
            .tables()
            .map(|m| m.name.clone())
            .collect();
        for name in &names {
            self.analyze(name)?;
        }
        obs::planstore::note_analyze(self.engine.engine_id, None);
        Ok(())
    }
}

impl Drop for Session {
    /// A session dropped mid-transaction rolls it back: its writes were
    /// never durable (no Commit record), and leaving the id active would
    /// pin every snapshot's horizon and block checkpoints forever.
    fn drop(&mut self) {
        if let Some(t) = self.txn.take() {
            let _ = self.engine.log(WalRecord::Abort { txn: t.id });
            self.engine.txns.abort(t.id);
            self.slot.set_txn(0);
        }
    }
}

/// First ~80 characters of a statement, for script error reporting.
fn snippet_of(text: &str) -> String {
    const MAX: usize = 80;
    let trimmed = text.trim();
    if trimmed.chars().count() <= MAX {
        trimmed.to_string()
    } else {
        let cut: String = trimmed.chars().take(MAX).collect();
        format!("{cut}…")
    }
}

/// Resolve DDL column types against the catalog's type registry.
pub(crate) fn schema_from_ddl(catalog: &Catalog, columns: &[(String, String)]) -> Result<Schema> {
    let mut cols = Vec::with_capacity(columns.len());
    for (name, ty) in columns {
        let dt = match ty.to_lowercase().as_str() {
            "int" | "integer" | "bigint" => DataType::Int,
            "float" | "double" | "real" => DataType::Float,
            "text" | "varchar" | "string" => DataType::Text,
            "bool" | "boolean" => DataType::Bool,
            other => match catalog.type_by_name(other) {
                Some((id, _)) => DataType::Ext(id),
                None => return Err(Error::Binder(format!("unknown type {ty:?}"))),
            },
        };
        cols.push(Column::new(name.clone(), dt));
    }
    Ok(Schema::new(cols))
}

/// Type-check, coerce, and run extension insertion hooks on a row
/// destined for `meta` (shared by INSERT and UPDATE).
fn prepare_row(catalog: &Catalog, meta: &crate::catalog::TableMeta, mut row: Row) -> Result<Row> {
    if row.len() != meta.schema.len() {
        return Err(Error::Binder(format!(
            "{} expects {} values, got {}",
            meta.name,
            meta.schema.len(),
            row.len()
        )));
    }
    for (i, col) in meta.schema.columns().iter().enumerate() {
        // Numeric widening.
        if col.ty == DataType::Float {
            if let Datum::Int(v) = row[i] {
                row[i] = Datum::Float(v as f64);
            }
        }
        match (&row[i], col.ty) {
            (Datum::Null, _) => {}
            (d, ty) => {
                if d.data_type() != Some(ty) {
                    return Err(Error::Binder(format!(
                        "column {} expects {}, got {}",
                        col.name,
                        ty,
                        d.data_type().map(|t| t.to_string()).unwrap_or_default()
                    )));
                }
            }
        }
        // Extension insertion hook (e.g. UniText phoneme
        // materialization, §4.2).
        if let Datum::Ext { ty, bytes } = &row[i] {
            if let Some(def) = catalog.type_by_id(*ty) {
                if let Some(hook) = &def.on_insert {
                    let new_bytes = hook(bytes);
                    row[i] = Datum::ext(*ty, new_bytes);
                }
            }
        }
    }
    Ok(row)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalize_collapses_and_lowercases_outside_strings() {
        assert_eq!(
            normalize_sql("SELECT  *\n FROM   T  WHERE v = 'Ab  C'"),
            "select * from t where v = 'Ab  C'"
        );
        assert_eq!(normalize_sql("  select 1  "), "select 1");
    }

    /// `SET wal_sync_mode` issued while the engine is still WAL-less
    /// (recovery replay, pre-open configuration) must not be silently
    /// dropped: attach applies the pending mode over its own default.
    #[test]
    fn wal_sync_mode_set_before_attach_is_applied_at_attach() {
        let engine = Engine::in_memory();
        let mut s = engine.connect();
        assert_eq!(engine.wal_sync_mode(), None, "starts WAL-less");
        s.execute("SET wal_sync_mode = 'off'").unwrap();
        let path =
            std::env::temp_dir().join(format!("mlql-wal-pending-mode-{}", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let wal = crate::storage::Wal::open(&path, 0).unwrap();
        // recovery::open attaches with its Fsync default; the earlier SET
        // must win.
        engine.attach_durability(Arc::new(SharedWal::new(wal, SyncMode::Fsync)), None);
        assert_eq!(engine.wal_sync_mode(), Some(SyncMode::Off));
        let _ = std::fs::remove_file(&path);
    }

    /// Vars set before the first query survive it — the session is not
    /// re-created (and its vars not reset) by lazy machinery downstream.
    #[test]
    fn vars_set_before_first_query_stick() {
        let engine = Engine::in_memory();
        let mut s = engine.connect();
        s.execute("SET parallel_workers = 3").unwrap();
        s.execute("SET max_rows = 500").unwrap();
        s.execute("CREATE TABLE t (id INT)").unwrap();
        s.execute("INSERT INTO t VALUES (1)").unwrap();
        assert_eq!(
            s.query("SELECT count(*) FROM t").unwrap()[0][0].as_int(),
            Some(1)
        );
        assert_eq!(s.vars().get_int("parallel_workers", 0), 3);
        assert_eq!(s.vars().get_int("max_rows", 0), 500);
        assert_eq!(crate::exec::effective_workers(s.vars()), 3);
    }

    #[test]
    fn sessions_share_one_engine() {
        let engine = Engine::in_memory();
        let mut s1 = engine.connect();
        let mut s2 = engine.connect();
        s1.execute("CREATE TABLE t (id INT)").unwrap();
        s1.execute("INSERT INTO t VALUES (1), (2), (3)").unwrap();
        let n = s2.query("SELECT count(*) FROM t").unwrap();
        assert_eq!(n[0][0].as_int(), Some(3));
    }

    #[test]
    fn session_vars_are_private_to_each_session() {
        let engine = Engine::in_memory();
        let mut s1 = engine.connect();
        let mut s2 = engine.connect();
        s1.execute("SET max_rows = 5").unwrap();
        assert_eq!(s1.vars().get_int("max_rows", 0), 5);
        assert_eq!(s2.vars().get_int("max_rows", 0), 0);
        let r = s2.execute("SHOW max_rows").unwrap();
        assert_eq!(r.rows[0][0].as_text(), Some("NULL"));
    }

    #[test]
    fn plan_cache_hits_on_repeat_and_flushes_on_ddl() {
        let engine = Engine::in_memory();
        let mut s = engine.connect();
        s.execute("CREATE TABLE t (id INT)").unwrap();
        s.execute("INSERT INTO t VALUES (1), (2)").unwrap();
        let hits0 = obs::metrics().plan_cache_hits_total.get();
        s.execute("SELECT count(*) FROM t").unwrap();
        assert_eq!(engine.cached_plan_count(), 1);
        s.execute("SELECT count(*) FROM t").unwrap();
        assert_eq!(obs::metrics().plan_cache_hits_total.get(), hits0 + 1);
        // Whitespace/case differences hit the same entry.
        s.execute("select   COUNT(*)  from T").unwrap();
        assert_eq!(obs::metrics().plan_cache_hits_total.get(), hits0 + 2);
        // DDL flushes.
        s.execute("CREATE TABLE u (id INT)").unwrap();
        assert_eq!(engine.cached_plan_count(), 0);
        // And the re-planned query is correct.
        let n = s.query("SELECT count(*) FROM t").unwrap();
        assert_eq!(n[0][0].as_int(), Some(2));
    }

    #[test]
    fn plan_cache_respects_session_vars() {
        let engine = Engine::in_memory();
        let mut s = engine.connect();
        s.execute("CREATE TABLE t (id INT)").unwrap();
        for i in 0..2000 {
            s.execute(&format!("INSERT INTO t VALUES ({i})")).unwrap();
        }
        s.execute("CREATE INDEX t_id ON t (id) USING btree")
            .unwrap();
        s.execute("ANALYZE t").unwrap();
        let q = "SELECT count(*) FROM t WHERE id = 7";
        let r1 = s.execute(q).unwrap();
        assert!(r1.explain.unwrap().contains("Index Scan"));
        // Same SQL, different vars → different key → different plan.
        s.execute("SET enable_indexscan = 0").unwrap();
        let r2 = s.execute(q).unwrap();
        assert!(r2.explain.unwrap().contains("Seq Scan"));
        // Flipping back re-uses the still-cached first entry.
        s.execute("SET enable_indexscan = 1").unwrap();
        let r3 = s.execute(q).unwrap();
        assert!(r3.explain.unwrap().contains("Index Scan"));
        assert_eq!(r3.rows[0][0].as_int(), Some(1));
    }

    #[test]
    fn analyze_invalidates_cached_plans() {
        let engine = Engine::in_memory();
        let mut s = engine.connect();
        s.execute("CREATE TABLE t (id INT)").unwrap();
        s.execute("INSERT INTO t VALUES (1)").unwrap();
        s.execute("SELECT count(*) FROM t").unwrap();
        assert_eq!(engine.cached_plan_count(), 1);
        s.execute("ANALYZE t").unwrap();
        assert_eq!(engine.cached_plan_count(), 0);
    }

    #[test]
    fn bare_analyze_refreshes_all_tables_and_flushes_plans() {
        let engine = Engine::in_memory();
        let mut s = engine.connect();
        s.execute("CREATE TABLE a (id INT)").unwrap();
        s.execute("CREATE TABLE b (id INT)").unwrap();
        for i in 0..5 {
            s.execute(&format!("INSERT INTO a VALUES ({i})")).unwrap();
            s.execute(&format!("INSERT INTO b VALUES ({i})")).unwrap();
        }
        s.execute("SELECT count(*) FROM a").unwrap();
        assert!(engine.cached_plan_count() > 0);
        s.execute("ANALYZE").unwrap();
        // Every user table's statistics reflect the current heap...
        let catalog = engine.catalog();
        for t in ["a", "b"] {
            let meta = catalog.table(t).unwrap();
            let stats = meta.stats.lock();
            assert_eq!(stats.rows, 5, "table {t} analyzed");
        }
        drop(catalog);
        // ...and the epoch bump flushed every cached plan.
        assert_eq!(engine.cached_plan_count(), 0);
    }

    #[test]
    fn plan_store_aggregates_across_sessions_by_digest() {
        let engine = Engine::in_memory();
        let mut s1 = engine.connect();
        s1.execute("CREATE TABLE t (id INT)").unwrap();
        for i in 0..8 {
            s1.execute(&format!("INSERT INTO t VALUES ({i})")).unwrap();
        }
        s1.execute("ANALYZE t").unwrap();
        let sql = "SELECT count(*) FROM t WHERE id >= 0";
        let digest = s1.execute(sql).unwrap().stats.plan_digest.unwrap();
        // A second session runs the same statement (via the plan cache)
        // plus an EXPLAIN ANALYZE of it: all three executions share one
        // plan shape, so they land on one entry.
        let mut s2 = engine.connect();
        s2.execute(sql).unwrap();
        s2.execute(&format!("EXPLAIN ANALYZE {sql}")).unwrap();
        let snap = obs::planstore::snapshot(Some(engine.engine_id));
        let entry = snap
            .iter()
            .find(|e| e.digest == digest)
            .expect("plan entry for the shared digest");
        assert_eq!(entry.calls, 3, "plain + cached + instrumented runs");
        assert_eq!(entry.last_actual_rows, 1);
        assert!(entry.qerror_last >= 1.0);
        assert!(entry.total >= entry.max);
        // The instrumented run filled in the per-node worst-case q-error.
        assert!(entry.node_qerror_max.is_some());
        // A different plan shape gets its own entry.
        s1.execute("SELECT count(*) FROM t WHERE id >= 1 AND id <= 3")
            .unwrap();
        let snap = obs::planstore::snapshot(Some(engine.engine_id));
        assert!(snap.iter().any(|e| e.digest != digest));
    }

    #[test]
    fn insert_visible_to_cached_plan() {
        // DML does not invalidate plans (the plan, not the data, is
        // cached) — a cached plan must still see fresh rows.
        let engine = Engine::in_memory();
        let mut s = engine.connect();
        s.execute("CREATE TABLE t (id INT)").unwrap();
        s.execute("INSERT INTO t VALUES (1)").unwrap();
        assert_eq!(
            s.query("SELECT count(*) FROM t").unwrap()[0][0].as_int(),
            Some(1)
        );
        s.execute("INSERT INTO t VALUES (2)").unwrap();
        assert_eq!(
            s.query("SELECT count(*) FROM t").unwrap()[0][0].as_int(),
            Some(2)
        );
    }

    #[test]
    fn max_rows_guard_trips_and_clears() {
        let engine = Engine::in_memory();
        let mut s = engine.connect();
        s.execute("CREATE TABLE t (id INT)").unwrap();
        for i in 0..10 {
            s.execute(&format!("INSERT INTO t VALUES ({i})")).unwrap();
        }
        s.execute("SET max_rows = 5").unwrap();
        let err = s.query("SELECT id FROM t").unwrap_err();
        assert!(matches!(err, Error::MaxRows { limit: 5 }), "{err}");
        // EXPLAIN ANALYZE executes the query for real, so it trips too.
        let err = s.execute("EXPLAIN ANALYZE SELECT id FROM t").unwrap_err();
        assert!(matches!(err, Error::MaxRows { limit: 5 }), "{err}");
        // Under the limit passes.
        assert_eq!(s.query("SELECT id FROM t LIMIT 5").unwrap().len(), 5);
        // 0 disables the guard.
        s.execute("SET max_rows = 0").unwrap();
        assert_eq!(s.query("SELECT id FROM t").unwrap().len(), 10);
    }

    #[test]
    fn script_errors_carry_ordinal_and_snippet() {
        let engine = Engine::in_memory();
        let mut s = engine.connect();
        let err = s
            .execute_script("CREATE TABLE t (id INT); INSERT INTO t VALUES (1); SELECT nope FROM t")
            .unwrap_err();
        match err {
            Error::Script {
                ordinal,
                ref snippet,
                ..
            } => {
                assert_eq!(ordinal, 3);
                assert!(snippet.contains("SELECT nope"), "{snippet}");
            }
            other => panic!("expected Error::Script, got {other}"),
        }
        assert!(err.to_string().contains("statement 3"), "{err}");
    }
}
