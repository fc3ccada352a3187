//! Live activity registry: what is every session doing *right now*.
//!
//! Each session owns one [`ActivitySlot`].  The query hot path touches
//! only atomics on its own slot (stage, rows, workers, start time), so
//! observers polling `SHOW ACTIVITY` never block the queries they
//! observe: a snapshot reads the same atomics and the SQL string, which
//! is written once per statement under a mutex that the per-row path
//! never takes.
//!
//! Slots are registered process-wide as `Weak` references — dropped
//! sessions vanish from the view at the next snapshot — and each slot
//! carries its engine id so multiple embedded engines in one process
//! (the test suite does this constantly) can filter to their own
//! sessions.

use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, OnceLock, Weak};
use std::time::Instant;

/// Statement lifecycle stage, stored as one atomic byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Stage {
    /// No statement running.
    Idle = 0,
    /// Parsing SQL text.
    Parse = 1,
    /// Binding names against the catalog.
    Bind = 2,
    /// Planning / plan-cache lookup.
    Plan = 3,
    /// Executing the plan.
    Execute = 4,
    /// Waiting on the group-commit WAL rendezvous.
    Commit = 5,
}

impl Stage {
    fn from_u8(v: u8) -> Stage {
        match v {
            1 => Stage::Parse,
            2 => Stage::Bind,
            3 => Stage::Plan,
            4 => Stage::Execute,
            5 => Stage::Commit,
            _ => Stage::Idle,
        }
    }

    /// Stable lowercase name (`"idle"`, `"parse"`, ...).
    pub fn name(self) -> &'static str {
        match self {
            Stage::Idle => "idle",
            Stage::Parse => "parse",
            Stage::Bind => "bind",
            Stage::Plan => "plan",
            Stage::Execute => "execute",
            Stage::Commit => "commit",
        }
    }
}

/// `Instant` is not atomically storable, so slot start times are
/// nanosecond offsets from one process-wide epoch.
fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Nanoseconds since the process-wide epoch.
pub fn now_nanos() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

/// SQL snippets in activity rows / flight records are capped here.
pub const SQL_SNIPPET_MAX: usize = 120;

/// Truncate `sql` to [`SQL_SNIPPET_MAX`] on a char boundary.
pub fn snippet(sql: &str) -> &str {
    match sql.char_indices().nth(SQL_SNIPPET_MAX) {
        Some((i, _)) => &sql[..i],
        None => sql,
    }
}

/// One session's live-activity state.  All hot-path fields are atomics.
#[derive(Debug)]
pub struct ActivitySlot {
    engine_id: u64,
    session_id: u64,
    query_id: AtomicU64,
    stage: AtomicU8,
    rows: AtomicU64,
    workers: AtomicU64,
    /// Open transaction id (0 = autocommit / none).  Survives across
    /// statements of the transaction; `begin` resets it and the session
    /// republishes it, so a stale id never outlives its statement.
    txn_id: AtomicU64,
    /// Start of the current statement, ns since [`epoch`]; 0 = never ran.
    start_nanos: AtomicU64,
    /// Written once per statement in `begin`; never touched per row.
    sql: Mutex<String>,
}

impl ActivitySlot {
    /// A fresh idle slot for `(engine_id, session_id)`.
    pub fn new(engine_id: u64, session_id: u64) -> ActivitySlot {
        ActivitySlot {
            engine_id,
            session_id,
            query_id: AtomicU64::new(0),
            stage: AtomicU8::new(Stage::Idle as u8),
            rows: AtomicU64::new(0),
            workers: AtomicU64::new(0),
            txn_id: AtomicU64::new(0),
            start_nanos: AtomicU64::new(0),
            sql: Mutex::new(String::new()),
        }
    }

    /// Engine this slot's session belongs to.
    pub fn engine_id(&self) -> u64 {
        self.engine_id
    }

    /// Session id within the engine.
    pub fn session_id(&self) -> u64 {
        self.session_id
    }

    /// Mark the start of a statement.
    pub fn begin(&self, query_id: u64, sql: &str) {
        {
            let mut s = self.sql.lock();
            s.clear();
            s.push_str(snippet(sql));
        }
        self.query_id.store(query_id, Ordering::Relaxed);
        self.rows.store(0, Ordering::Relaxed);
        self.workers.store(0, Ordering::Relaxed);
        self.txn_id.store(0, Ordering::Relaxed);
        self.start_nanos.store(now_nanos(), Ordering::Relaxed);
        self.stage.store(Stage::Parse as u8, Ordering::Release);
    }

    /// Publish the transaction id the session is running under
    /// (0 = autocommit / transaction closed).
    pub fn set_txn(&self, txn_id: u64) {
        self.txn_id.store(txn_id, Ordering::Relaxed);
    }

    /// Advance the lifecycle stage.
    pub fn set_stage(&self, stage: Stage) {
        self.stage.store(stage as u8, Ordering::Release);
    }

    /// Current lifecycle stage.
    pub fn stage(&self) -> Stage {
        Stage::from_u8(self.stage.load(Ordering::Acquire))
    }

    /// Bump rows produced so far by the running statement.
    pub fn add_rows(&self, n: u64) {
        self.rows.fetch_add(n, Ordering::Relaxed);
    }

    /// Record how many parallel workers the statement claimed.
    pub fn set_workers(&self, n: u64) {
        self.workers.store(n, Ordering::Relaxed);
    }

    /// Mark the statement finished (back to idle).
    pub fn finish(&self) {
        self.stage.store(Stage::Idle as u8, Ordering::Release);
    }
}

/// One row of the activity view — a consistent-enough snapshot of a
/// slot (fields are read individually; a statement may advance between
/// reads, which is fine for a monitoring surface).
#[derive(Debug, Clone)]
pub struct ActivityRow {
    /// Engine the session belongs to.
    pub engine_id: u64,
    /// Session id within the engine.
    pub session_id: u64,
    /// Engine-wide statement id (0 if the session never ran one).
    pub query_id: u64,
    /// Open transaction id (0 = autocommit / none).
    pub txn_id: u64,
    /// Lifecycle stage at snapshot time.
    pub stage: Stage,
    /// Rows produced so far by the running statement.
    pub rows: u64,
    /// Parallel workers claimed by the running statement.
    pub workers: u64,
    /// Elapsed time of the running statement, in milliseconds
    /// (0 when idle).
    pub elapsed_ms: f64,
    /// Leading [`SQL_SNIPPET_MAX`] chars of the statement text.
    pub sql: String,
}

fn slots() -> &'static Mutex<Vec<Weak<ActivitySlot>>> {
    static SLOTS: OnceLock<Mutex<Vec<Weak<ActivitySlot>>>> = OnceLock::new();
    SLOTS.get_or_init(|| Mutex::new(Vec::new()))
}

/// Register a session's slot in the process-wide view.  Called once at
/// session open; the registry holds a `Weak`, so dropping the session
/// (and with it the `Arc`) removes it from future snapshots.
pub fn register(slot: &Arc<ActivitySlot>) {
    let mut v = slots().lock();
    v.retain(|w| w.strong_count() > 0);
    v.push(Arc::downgrade(slot));
}

/// Snapshot every live slot, pruning dead ones.
pub fn snapshot() -> Vec<ActivityRow> {
    let mut v = slots().lock();
    v.retain(|w| w.strong_count() > 0);
    let live: Vec<Arc<ActivitySlot>> = v.iter().filter_map(Weak::upgrade).collect();
    drop(v);
    let now = now_nanos();
    live.iter()
        .map(|s| {
            let stage = s.stage();
            let start = s.start_nanos.load(Ordering::Relaxed);
            let elapsed_ms = if stage == Stage::Idle || start == 0 {
                0.0
            } else {
                now.saturating_sub(start) as f64 / 1e6
            };
            ActivityRow {
                engine_id: s.engine_id,
                session_id: s.session_id,
                query_id: s.query_id.load(Ordering::Relaxed),
                txn_id: s.txn_id.load(Ordering::Relaxed),
                stage,
                rows: s.rows.load(Ordering::Relaxed),
                workers: s.workers.load(Ordering::Relaxed),
                elapsed_ms,
                sql: s.sql.lock().clone(),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slot_lifecycle_is_visible_in_snapshot() {
        let slot = Arc::new(ActivitySlot::new(900_001, 1));
        register(&slot);
        slot.begin(42, "SELECT * FROM t WHERE a LEXEQUAL b");
        slot.set_stage(Stage::Execute);
        slot.add_rows(10);
        slot.add_rows(5);
        slot.set_workers(4);
        let rows = snapshot();
        let me = rows
            .iter()
            .find(|r| r.engine_id == 900_001)
            .expect("registered slot visible");
        assert_eq!(me.session_id, 1);
        assert_eq!(me.query_id, 42);
        assert_eq!(me.stage, Stage::Execute);
        assert_eq!(me.rows, 15);
        assert_eq!(me.workers, 4);
        assert!(me.sql.starts_with("SELECT * FROM t"));
        slot.finish();
        let rows = snapshot();
        let me = rows.iter().find(|r| r.engine_id == 900_001).unwrap();
        assert_eq!(me.stage, Stage::Idle);
        assert_eq!(me.elapsed_ms, 0.0, "idle rows report no elapsed time");
    }

    #[test]
    fn dropped_sessions_vanish() {
        let slot = Arc::new(ActivitySlot::new(900_002, 7));
        register(&slot);
        assert!(snapshot().iter().any(|r| r.engine_id == 900_002));
        drop(slot);
        assert!(!snapshot().iter().any(|r| r.engine_id == 900_002));
    }

    #[test]
    fn snippet_truncates_on_char_boundary() {
        let long = "é".repeat(SQL_SNIPPET_MAX + 50);
        let s = snippet(&long);
        assert_eq!(s.chars().count(), SQL_SNIPPET_MAX);
        assert!(long.is_char_boundary(s.len()));
        assert_eq!(snippet("short"), "short");
    }
}
