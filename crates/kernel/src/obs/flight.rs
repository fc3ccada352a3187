//! Flight recorder: a bounded ring of completed-query records.
//!
//! Every statement that finishes (successfully) and meets the
//! session's `slow_query_ms` threshold deposits a [`FlightRecord`]
//! carrying everything needed to reconstruct what the query did after
//! the fact: SQL snippet, plan digest, span tree, wait profile and
//! buffer-pool I/O delta.  The ring is process-wide and bounded
//! ([`CAPACITY`] records, oldest evicted first), exported as JSON by
//! `SHOW FLIGHT_RECORDER` (one record a row), and dumped to disk by the
//! fault-injection harness (and CI on test failure) via [`dump_to_dir`].
//!
//! Threshold semantics (`SET slow_query_ms = n`):
//! * `0` (default) — record every statement,
//! * `n > 0` — record statements that took ≥ `n` ms,
//! * `n < 0` — record nothing.

use super::trace::{json_escape_into, QueryTrace};
use super::waits::WaitProfile;
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::sync::{Arc, OnceLock};
use std::time::Duration;

/// Ring capacity: enough history to debug a stall, small enough that a
/// full ring of records with span trees stays in the low megabytes.
pub const CAPACITY: usize = 256;

/// One completed statement.
#[derive(Debug)]
pub struct FlightRecord {
    /// Engine the statement ran in.
    pub engine_id: u64,
    /// Session within the engine.
    pub session_id: u64,
    /// Engine-wide statement id.
    pub query_id: u64,
    /// Transaction the statement ran in (0 = autocommit).
    pub txn_id: u64,
    /// Leading chars of the statement text (see `activity::snippet`).
    pub sql: String,
    /// FNV-1a digest of the physical plan shape (0 for non-SELECTs and
    /// statements that never reached the planner).
    pub plan_digest: u64,
    /// End-to-end latency.
    pub elapsed: Duration,
    /// Rows produced.
    pub rows: u64,
    /// Batches the plan root emitted (0 for statements that run no plan,
    /// e.g. DML).
    pub batches: u64,
    /// Stage span tree.
    pub trace: QueryTrace,
    /// Waits suffered (shared with the workers that charged it).
    pub waits: Arc<WaitProfile>,
    /// Buffer-pool (logical, physical) read delta across the statement.
    pub io_reads: (u64, u64),
    /// Optimizer-estimated root output rows (queries only).
    pub est_rows: Option<f64>,
    /// Optimizer-estimated total plan cost (queries only).
    pub est_cost: Option<f64>,
    /// Root q-error `max(est,act)/max(min(est,act),1)` of the row
    /// estimate against `rows` (queries only).
    pub qerror: Option<f64>,
}

impl FlightRecord {
    /// JSON object rendering of one record.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{{\"engine_id\":{},\"session_id\":{},\"query_id\":{},\"txn_id\":{},\"sql\":\"",
            self.engine_id, self.session_id, self.query_id, self.txn_id
        ));
        json_escape_into(&self.sql, &mut out);
        let opt = |v: Option<f64>| match v {
            Some(v) if v.is_finite() => format!("{v}"),
            _ => "null".to_string(),
        };
        out.push_str(&format!(
            "\",\"plan_digest\":\"{:016x}\",\"elapsed_us\":{},\"rows\":{},\"batches\":{},\
             \"est_rows\":{},\"est_cost\":{},\"qerror\":{},\
             \"logical_reads\":{},\"physical_reads\":{},\"waits\":{},\"trace\":{}}}",
            self.plan_digest,
            self.elapsed.as_micros(),
            self.rows,
            self.batches,
            opt(self.est_rows),
            opt(self.est_cost),
            opt(self.qerror),
            self.io_reads.0,
            self.io_reads.1,
            self.waits.to_json(),
            self.trace.to_json()
        ));
        out
    }
}

fn ring() -> &'static Mutex<VecDeque<Arc<FlightRecord>>> {
    static RING: OnceLock<Mutex<VecDeque<Arc<FlightRecord>>>> = OnceLock::new();
    RING.get_or_init(|| Mutex::new(VecDeque::with_capacity(CAPACITY)))
}

/// Deposit a completed-query record, evicting the oldest at capacity.
pub fn record(rec: FlightRecord) {
    let mut r = ring().lock();
    if r.len() == CAPACITY {
        r.pop_front();
    }
    r.push_back(Arc::new(rec));
}

/// Every retained record, oldest first.
pub fn snapshot() -> Vec<Arc<FlightRecord>> {
    ring().lock().iter().cloned().collect()
}

/// Number of retained records.
pub fn len() -> usize {
    ring().lock().len()
}

/// Drop all retained records (tests isolate themselves with this).
pub fn clear() {
    ring().lock().clear();
}

/// JSON array of every retained record, oldest first.
pub fn render_json() -> String {
    let recs = snapshot();
    let mut out = String::from("[");
    for (i, r) in recs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&r.to_json());
    }
    out.push(']');
    out
}

/// Write the flight-recorder JSON plus a full metrics snapshot into
/// `dir` (created if missing) as `flight_recorder.json` and
/// `metrics.json`.  Used by the fault-injection harness on recovery
/// failures and by CI to attach post-mortem state to failed runs.
pub fn dump_to_dir(dir: &std::path::Path) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    std::fs::write(dir.join("flight_recorder.json"), render_json())?;
    std::fs::write(
        dir.join("metrics.json"),
        super::registry::global().render_json(),
    )?;
    Ok(())
}

/// [`dump_to_dir`] into `$MLQL_OBS_DUMP_DIR` (default `target/obs-dumps`).
pub fn dump_default() -> std::io::Result<std::path::PathBuf> {
    let dir = std::env::var("MLQL_OBS_DUMP_DIR")
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|_| std::path::PathBuf::from("target/obs-dumps"));
    dump_to_dir(&dir)?;
    Ok(dir)
}

#[cfg(test)]
mod tests {
    use super::*;

    // The ring is process-global and other test modules run statements
    // concurrently; mark records with a sentinel engine id and assert
    // only over our own.
    const MY_ENGINE: u64 = 987_654;

    fn rec(query_id: u64) -> FlightRecord {
        let mut trace = QueryTrace::for_query(query_id);
        trace.record("execute", Duration::from_micros(500));
        FlightRecord {
            engine_id: MY_ENGINE,
            session_id: 2,
            query_id,
            txn_id: 0,
            sql: "SELECT \"x\"".into(),
            plan_digest: 0xabcd,
            elapsed: Duration::from_micros(700),
            rows: 3,
            batches: 1,
            trace,
            waits: Arc::new(WaitProfile::new()),
            io_reads: (10, 1),
            est_rows: Some(4.0),
            est_cost: Some(25.0),
            qerror: Some(4.0 / 3.0),
        }
    }

    fn mine() -> Vec<Arc<FlightRecord>> {
        snapshot()
            .into_iter()
            .filter(|r| r.engine_id == MY_ENGINE)
            .collect()
    }

    #[test]
    fn ring_evicts_oldest_at_capacity() {
        for i in 0..(CAPACITY as u64 + 10) {
            record(rec(i));
        }
        assert_eq!(snapshot().len(), CAPACITY, "ring is bounded");
        let ours = mine();
        assert!(ours.len() <= CAPACITY);
        // The first ten deposits must have been evicted to make room.
        assert!(
            ours.first().unwrap().query_id >= 10,
            "oldest records evicted first"
        );
        assert_eq!(ours.last().unwrap().query_id, CAPACITY as u64 + 9);
    }

    #[test]
    fn json_shape_and_escaping() {
        record(rec(7));
        let ours: Vec<_> = mine().into_iter().filter(|r| r.query_id == 7).collect();
        let json = ours.last().unwrap().to_json();
        assert!(json.starts_with('{') && json.ends_with('}'), "{json}");
        assert!(json.contains("\"query_id\":7"), "{json}");
        assert!(
            json.contains("\"plan_digest\":\"000000000000abcd\""),
            "{json}"
        );
        assert!(json.contains("\"rows\":3,\"batches\":1"), "{json}");
        assert!(json.contains("\"est_rows\":4"), "{json}");
        assert!(json.contains("\"est_cost\":25"), "{json}");
        assert!(json.contains("\"qerror\":1.33"), "{json}");
        assert!(json.contains("SELECT \\\"x\\\""), "escaped sql: {json}");
        assert!(json.contains("\"trace\":{\"query_id\":7"), "{json}");
        assert!(json.contains("\"waits\":{}"), "{json}");
        let all = render_json();
        assert!(all.starts_with('[') && all.ends_with(']'), "{all}");
    }

    #[test]
    fn dump_writes_both_files() {
        record(rec(1));
        let dir = std::env::temp_dir().join(format!("mlql-obs-dump-{}", std::process::id()));
        dump_to_dir(&dir).unwrap();
        let flight = std::fs::read_to_string(dir.join("flight_recorder.json")).unwrap();
        assert!(
            flight.contains(&format!("\"engine_id\":{MY_ENGINE}")),
            "{flight}"
        );
        let metrics = std::fs::read_to_string(dir.join("metrics.json")).unwrap();
        assert!(metrics.starts_with('{'), "{metrics}");
        std::fs::remove_dir_all(&dir).ok();
    }
}
