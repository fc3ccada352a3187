//! Plan store: per-plan-digest estimate-vs-actual statistics.
//!
//! The optimizer's claim to fame (§3.4 selectivity estimators, Table 3
//! cost models, Figure 6) is that its ψ/Ω predictions are accurate
//! enough to pick the right plan.  The fig6 bench validates that once,
//! offline; this module validates it *continuously*: every executed
//! SELECT (plan-cache hit, cold plan, or `EXPLAIN ANALYZE`) deposits an
//! [`Observation`] keyed by the plan's FNV-1a digest, and the store
//! aggregates calls, elapsed time and the q-error
//! `max(est,act) / max(min(est,act), 1)` of the root (and, when the
//! instrumented executor ran, of every node).
//!
//! Two consumers sit on top:
//!
//! * `SHOW PLAN STATS` — per-digest aggregates.
//!   The `calibration` bench fits its est_cost→elapsed line over
//!   [`snapshot`].
//! * The stale-statistics advisor: when a table's scans exceed the
//!   session's `qerror_warn` threshold over [`ADVISOR_WINDOW`]
//!   consecutive executions, an advisory naming the table (and
//!   recommending `ANALYZE`) is raised — surfaced by `SHOW ADVISORIES`
//!   and counted by `mlql_stats_advisories_total`.  `ANALYZE t` (or bare
//!   `ANALYZE`) clears the table's advisory state.
//!
//! Everything is process-wide (like the flight recorder) and tagged
//! with the engine id, so one process can host many engines without
//! cross-talk.  The store is bounded ([`CAPACITY`] plans per process;
//! at capacity the *coldest* entry — fewest calls, least recently
//! recorded on ties — is evicted, so a hot plan's history survives any
//! number of one-shot digests) and the per-statement recording path is
//! O(1) map work — cheap enough to stay inside the obs_overhead
//! guard's 1.03 budget.

use parking_lot::Mutex;
use std::collections::{HashMap, VecDeque};
use std::sync::OnceLock;
use std::time::Duration;

/// Bound on distinct (engine, digest) entries retained process-wide.
pub const CAPACITY: usize = 512;

/// Consecutive over-threshold scans of one table before an advisory is
/// raised (the "N recent executions" window).
pub const ADVISOR_WINDOW: usize = 3;

/// The q-error of an estimate against a measured actual:
/// `max(est, act) / max(min(est, act), 1)`, clamped to ≥ 1 so a perfect
/// estimate (including the degenerate `0 vs 0`) reads exactly 1.0.
/// Symmetric — under- and over-estimation score alike — and unitless,
/// the standard cardinality-estimation quality measure.
pub fn q_error(est: f64, act: f64) -> f64 {
    let est = if est.is_finite() { est.max(0.0) } else { 0.0 };
    let act = if act.is_finite() { act.max(0.0) } else { 0.0 };
    let num = est.max(act);
    let den = est.min(act).max(1.0);
    (num / den).max(1.0)
}

/// One scan node's estimate quality in one execution, attributed to the
/// table it scanned.
#[derive(Debug, Clone)]
pub struct ScanObservation {
    /// Table the scan read.
    pub table: String,
    /// q-error of the scan's row estimate.
    pub qerror: f64,
}

/// Everything one executed statement reports to the store.
#[derive(Debug, Clone)]
pub struct Observation {
    /// Engine the statement ran in.
    pub engine_id: u64,
    /// FNV-1a digest of the executed physical plan.
    pub digest: u64,
    /// Root operator name (labels the digest in human surfaces).
    pub root: String,
    /// Optimizer-estimated root output rows.
    pub est_rows: f64,
    /// Optimizer-estimated total plan cost.
    pub est_cost: f64,
    /// Rows the plan root actually produced.
    pub actual_rows: u64,
    /// Wall-clock execution time.
    pub elapsed: Duration,
    /// Session `qerror_warn` threshold in force (advisor trigger).
    pub qerror_warn: f64,
    /// Worst per-node q-error, when the instrumented executor ran
    /// (`EXPLAIN ANALYZE`); `None` on the plain path.
    pub node_qerror_max: Option<f64>,
    /// Per-scan-node attributions (root-attributed on the plain path).
    pub scans: Vec<ScanObservation>,
}

/// Aggregated state of one plan digest.
#[derive(Debug, Clone)]
pub struct PlanEntry {
    /// Engine the plan ran in.
    pub engine_id: u64,
    /// Plan-shape digest (groups executions across sessions/ANALYZEs).
    pub digest: u64,
    /// Root operator name.
    pub root: String,
    /// Executions recorded.
    pub calls: u64,
    /// Total execution time across calls.
    pub total: Duration,
    /// Slowest single execution.
    pub max: Duration,
    /// Latest root row estimate.
    pub est_rows: f64,
    /// Latest total cost estimate.
    pub est_cost: f64,
    /// Root rows of the latest execution.
    pub last_actual_rows: u64,
    /// Root q-error of the latest execution.
    pub qerror_last: f64,
    /// Worst root q-error seen.
    pub qerror_max: f64,
    /// Worst per-node q-error seen (instrumented runs only).
    pub node_qerror_max: Option<f64>,
    /// Recency stamp: global record sequence number of the latest call
    /// (drives coldest-entry eviction; not rendered).
    pub last_seq: u64,
}

impl PlanEntry {
    /// Mean execution time.
    pub fn mean(&self) -> Duration {
        if self.calls == 0 {
            Duration::ZERO
        } else {
            self.total / self.calls as u32
        }
    }
}

/// One stale-statistics advisory.
#[derive(Debug, Clone)]
pub struct Advisory {
    /// Engine the advisory belongs to.
    pub engine_id: u64,
    /// Table whose scans keep missing their estimates.
    pub table: String,
    /// Worst scan q-error inside the triggering window.
    pub qerror: f64,
    /// Number of consecutive over-threshold scans observed.
    pub window: usize,
    /// Remediation text.
    pub recommendation: String,
}

/// Sliding window of one table's recent scan estimate quality.
#[derive(Debug, Default)]
struct TableTrack {
    /// Last [`ADVISOR_WINDOW`] (qerror, exceeded-threshold) samples.
    recent: VecDeque<(f64, bool)>,
    /// Whether the advisory is currently raised (edge-triggers the
    /// counter metric).
    active: bool,
}

fn store() -> &'static Mutex<HashMap<(u64, u64), PlanEntry>> {
    static STORE: OnceLock<Mutex<HashMap<(u64, u64), PlanEntry>>> = OnceLock::new();
    STORE.get_or_init(|| Mutex::new(HashMap::new()))
}

fn tracker() -> &'static Mutex<HashMap<(u64, String), TableTrack>> {
    static TRACKER: OnceLock<Mutex<HashMap<(u64, String), TableTrack>>> = OnceLock::new();
    TRACKER.get_or_init(|| Mutex::new(HashMap::new()))
}

/// Record one executed statement.  Called on *every* SELECT execution
/// (cached, cold, and `EXPLAIN ANALYZE` paths) while observability is
/// enabled.
pub fn record(obs: Observation) {
    use std::sync::atomic::{AtomicU64, Ordering};
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let root_q = q_error(obs.est_rows, obs.actual_rows as f64);
    let seq = SEQ.fetch_add(1, Ordering::Relaxed);
    {
        let mut map = store().lock();
        let key = (obs.engine_id, obs.digest);
        if map.len() >= CAPACITY && !map.contains_key(&key) {
            // Evict the coldest plan: fewest calls, then least recently
            // recorded.  A hot plan (many calls, fresh stamp) survives
            // arbitrarily many distinct one-shot digests passing through.
            if let Some(victim) = map
                .iter()
                .min_by_key(|(_, e)| (e.calls, e.last_seq))
                .map(|(k, _)| *k)
            {
                map.remove(&victim);
            }
        }
        let e = map.entry(key).or_insert_with(|| PlanEntry {
            engine_id: obs.engine_id,
            digest: obs.digest,
            root: obs.root.clone(),
            calls: 0,
            total: Duration::ZERO,
            max: Duration::ZERO,
            est_rows: obs.est_rows,
            est_cost: obs.est_cost,
            last_actual_rows: 0,
            qerror_last: 1.0,
            qerror_max: 1.0,
            node_qerror_max: None,
            last_seq: seq,
        });
        e.last_seq = seq;
        e.calls += 1;
        e.total += obs.elapsed;
        e.max = e.max.max(obs.elapsed);
        e.est_rows = obs.est_rows;
        e.est_cost = obs.est_cost;
        e.last_actual_rows = obs.actual_rows;
        e.qerror_last = root_q;
        e.qerror_max = e.qerror_max.max(root_q);
        if let Some(nq) = obs.node_qerror_max {
            e.node_qerror_max = Some(e.node_qerror_max.map_or(nq, |m| m.max(nq)));
        }
    }
    if obs.scans.is_empty() {
        return;
    }
    let m = super::registry::metrics();
    let mut tracks = tracker().lock();
    for scan in &obs.scans {
        let t = tracks
            .entry((obs.engine_id, scan.table.clone()))
            .or_default();
        if t.recent.len() == ADVISOR_WINDOW {
            t.recent.pop_front();
        }
        t.recent
            .push_back((scan.qerror, scan.qerror > obs.qerror_warn));
        let raised = t.recent.len() == ADVISOR_WINDOW && t.recent.iter().all(|(_, ex)| *ex);
        if raised && !t.active {
            m.stats_advisories_total.inc();
        }
        t.active = raised;
    }
}

/// Statistics were just rebuilt: clear the advisor state for `table`
/// (or every table of the engine, for bare `ANALYZE`).  The plan store
/// aggregates are kept — the digests identify plan *shapes*, which
/// survive an ANALYZE.
pub fn note_analyze(engine_id: u64, table: Option<&str>) {
    let mut tracks = tracker().lock();
    match table {
        Some(t) => {
            let t = t.to_lowercase();
            tracks.remove(&(engine_id, t));
        }
        None => tracks.retain(|(eid, _), _| *eid != engine_id),
    }
}

/// Retained plan entries, optionally filtered to one engine, ordered by
/// call count (descending) then digest for deterministic output.
pub fn snapshot(engine_id: Option<u64>) -> Vec<PlanEntry> {
    let mut v: Vec<PlanEntry> = store()
        .lock()
        .values()
        .filter(|e| engine_id.is_none_or(|id| e.engine_id == id))
        .cloned()
        .collect();
    v.sort_by(|a, b| b.calls.cmp(&a.calls).then(a.digest.cmp(&b.digest)));
    v
}

/// Currently-raised advisories, optionally filtered to one engine,
/// ordered by table name.
pub fn advisories(engine_id: Option<u64>) -> Vec<Advisory> {
    let tracks = tracker().lock();
    let mut v: Vec<Advisory> = tracks
        .iter()
        .filter(|((eid, _), t)| t.active && engine_id.is_none_or(|id| *eid == id))
        .map(|((eid, table), t)| Advisory {
            engine_id: *eid,
            table: table.clone(),
            qerror: t.recent.iter().map(|(q, _)| *q).fold(1.0f64, f64::max),
            window: t.recent.len(),
            recommendation: format!("ANALYZE {table}"),
        })
        .collect();
    v.sort_by(|a, b| (a.engine_id, &a.table).cmp(&(b.engine_id, &b.table)));
    v
}

/// Drop every entry and advisory belonging to `engine_id` (tests).
pub fn clear_engine(engine_id: u64) {
    store().lock().retain(|(eid, _), _| *eid != engine_id);
    tracker().lock().retain(|(eid, _), _| *eid != engine_id);
}

#[cfg(test)]
mod tests {
    use super::*;

    // Engine ids far above anything the test suite's engines allocate,
    // so concurrently-running statement tests cannot interfere.
    const ENG: u64 = 0x5157_0000;

    // The store is process-global and the eviction test fills it to
    // CAPACITY; serialize the tests that read it back so one test's
    // churn cannot evict another's entries mid-assert.
    fn test_lock() -> parking_lot::MutexGuard<'static, ()> {
        static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
        LOCK.get_or_init(|| Mutex::new(())).lock()
    }

    fn ob(engine: u64, digest: u64, est: f64, act: u64, ms: u64) -> Observation {
        Observation {
            engine_id: engine,
            digest,
            root: "Aggregate".into(),
            est_rows: est,
            est_cost: 100.0,
            actual_rows: act,
            elapsed: Duration::from_millis(ms),
            qerror_warn: 100.0,
            node_qerror_max: None,
            scans: Vec::new(),
        }
    }

    #[test]
    fn q_error_edge_cases() {
        // Perfect estimates read 1.0, including the 0-vs-0 degenerate.
        assert_eq!(q_error(0.0, 0.0), 1.0);
        assert_eq!(q_error(10.0, 10.0), 1.0);
        // Zero estimate vs. real rows (and vice versa) divides by the
        // 1-clamped side instead of exploding.
        assert_eq!(q_error(0.0, 100.0), 100.0);
        assert_eq!(q_error(100.0, 0.0), 100.0);
        // Symmetric over/under-estimation.
        assert_eq!(q_error(10.0, 1000.0), q_error(1000.0, 10.0));
        // Fractional estimates below one clamp to the 1 floor.
        assert_eq!(q_error(0.5, 1.0), 1.0);
        assert_eq!(q_error(0.25, 8.0), 8.0);
        // Garbage in, sane out.
        assert_eq!(q_error(f64::NAN, 5.0), 5.0);
        assert_eq!(q_error(f64::INFINITY, 5.0), 5.0);
        assert_eq!(q_error(-3.0, 0.0), 1.0);
    }

    #[test]
    fn store_aggregates_by_digest() {
        let _guard = test_lock();
        let eng = ENG + 1;
        clear_engine(eng);
        record(ob(eng, 0xd1, 10.0, 10, 4));
        record(ob(eng, 0xd1, 10.0, 40, 8));
        record(ob(eng, 0xd2, 1.0, 1, 1));
        let snap = snapshot(Some(eng));
        assert_eq!(snap.len(), 2);
        let e = snap.iter().find(|e| e.digest == 0xd1).unwrap();
        assert_eq!(e.calls, 2);
        assert_eq!(e.total, Duration::from_millis(12));
        assert_eq!(e.mean(), Duration::from_millis(6));
        assert_eq!(e.max, Duration::from_millis(8));
        assert_eq!(e.qerror_last, 4.0);
        assert_eq!(e.qerror_max, 4.0);
        assert_eq!(e.last_actual_rows, 40);
        assert!(e.node_qerror_max.is_none());
        clear_engine(eng);
    }

    #[test]
    fn advisory_raises_after_window_and_clears_on_analyze() {
        let _guard = test_lock();
        let eng = ENG + 2;
        clear_engine(eng);
        let scan = |q: f64| Observation {
            qerror_warn: 4.0,
            scans: vec![ScanObservation {
                table: "names".into(),
                qerror: q,
            }],
            ..ob(eng, 0xd3, 1.0, 1, 1)
        };
        let before = super::super::registry::metrics()
            .stats_advisories_total
            .get();
        record(scan(50.0));
        record(scan(60.0));
        assert!(
            advisories(Some(eng)).is_empty(),
            "needs {ADVISOR_WINDOW} consecutive misses"
        );
        record(scan(70.0));
        let adv = advisories(Some(eng));
        assert_eq!(adv.len(), 1);
        assert_eq!(adv[0].table, "names");
        assert_eq!(adv[0].qerror, 70.0);
        assert_eq!(adv[0].recommendation, "ANALYZE names");
        assert!(
            super::super::registry::metrics()
                .stats_advisories_total
                .get()
                > before,
            "raising an advisory bumps the counter"
        );
        // A good estimate resets the streak...
        record(scan(1.0));
        assert!(advisories(Some(eng)).is_empty());
        // ...and an ANALYZE clears the tracker outright.
        record(scan(50.0));
        record(scan(60.0));
        record(scan(70.0));
        assert_eq!(advisories(Some(eng)).len(), 1);
        note_analyze(eng, Some("names"));
        assert!(advisories(Some(eng)).is_empty());
        clear_engine(eng);
    }

    #[test]
    fn hot_plan_survives_a_flood_of_one_shot_digests() {
        let _guard = test_lock();
        let eng = ENG + 5;
        clear_engine(eng);
        // A hot plan: many calls on one digest.
        for _ in 0..10 {
            record(ob(eng, 0xbeef, 10.0, 10, 1));
        }
        // More one-shot digests than the whole store can hold.  Under
        // the old arbitrary (`keys().next()`) eviction this had better
        // than even odds of dropping the hot entry; coldest-first must
        // always sacrifice a one-shot instead.
        for d in 0..(CAPACITY as u64 + 64) {
            record(ob(eng, 0x1_0000 + d, 1.0, 1, 1));
        }
        let snap = snapshot(Some(eng));
        let hot = snap
            .iter()
            .find(|e| e.digest == 0xbeef)
            .expect("hot plan must survive 512+ one-shot digests");
        assert_eq!(hot.calls, 10, "aggregates survive intact");
        // The store stayed bounded while churning.
        assert!(store().lock().len() <= CAPACITY);
        clear_engine(eng);
    }
}
