//! Engine observability: metrics registry, exposition, query traces,
//! wait events, live activity and the flight recorder.
//!
//! Layers, coarsest to finest:
//!
//! 1. **Process-wide metrics** ([`registry`]): named counters,
//!    histograms and derived gauges accumulated across every query and
//!    session, with Prometheus-text and JSON exposition
//!    (`SHOW STATS_PROMETHEUS`, `SHOW STATS_JSON`).
//! 2. **Wait events** ([`waits`]): contended acquisitions on the
//!    5-level lock hierarchy, timed and classified, charged both to
//!    global per-class histograms and to the owning query.
//! 3. **Live activity** ([`activity`]): lock-free per-session slots
//!    surfaced as `SHOW ACTIVITY`.
//! 4. **Per-query traces** ([`trace`]): a span *tree* per statement
//!    (parse/bind/plan/execute, with per-operator and per-worker
//!    children under EXPLAIN ANALYZE) attached to `RunStats`.
//! 5. **Flight recorder** ([`flight`]): bounded ring of completed-query
//!    records, one per statement, exported as JSON
//!    (`SHOW FLIGHT_RECORDER`).
//! 6. **Per-operator actuals**: `exec::build_instrumented` wraps each
//!    plan node so EXPLAIN ANALYZE prints actual rows / batches / time /
//!    pages per node (see `exec::OpStats`).
//! 7. **Plan store** ([`planstore`]): per-plan-digest estimate-vs-actual
//!    aggregates (calls, elapsed, q-error) and the stale-statistics
//!    advisor (`SHOW PLAN STATS`, `SHOW ADVISORIES`).
//!
//! Every exported signal has a named consumer; `docs/observability.md`
//! §"Metric catalogue" lists them and `tests/obs_signals.rs` holds the
//! list to the registry.
//!
//! The glue between layers is the [`QueryContext`]: one per running
//! statement, installed in a thread-local on the session thread and on
//! every parallel-scan worker executing the statement's morsels, so waits
//! and progress recorded anywhere land on the right query.
//!
//! Everything here is dependency-free (std atomics + `parking_lot`).

pub mod activity;
pub mod flight;
pub mod planstore;
pub mod registry;
pub mod trace;
pub mod waits;

pub use activity::{ActivityRow, ActivitySlot, Stage};
pub use flight::FlightRecord;
pub use registry::{global, metrics, Counter, EngineMetrics, Histogram, Registry};
pub use trace::{QueryTrace, Span};
pub use waits::{WaitClass, WaitProfile};

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// Everything the engine needs to attribute work happening *anywhere*
/// (session thread, scan workers, the WAL rendezvous) to one statement.
#[derive(Debug)]
pub struct QueryContext {
    /// Engine-wide statement id.
    pub query_id: u64,
    /// Waits suffered by the statement, shared across threads.
    pub waits: Arc<WaitProfile>,
    /// The owning session's activity slot, if activity tracking is on.
    pub slot: Option<Arc<ActivitySlot>>,
}

impl QueryContext {
    /// A context for `query_id` with a fresh wait profile.
    pub fn new(query_id: u64, slot: Option<Arc<ActivitySlot>>) -> QueryContext {
        QueryContext {
            query_id,
            waits: Arc::new(WaitProfile::new()),
            slot,
        }
    }
}

thread_local! {
    static CURRENT: RefCell<Option<Arc<QueryContext>>> = const { RefCell::new(None) };
}

/// The query context installed on this thread, if any.
pub fn current() -> Option<Arc<QueryContext>> {
    CURRENT.with(|c| c.borrow().clone())
}

/// RAII guard restoring the previously installed context on drop.
#[must_use = "dropping the guard immediately uninstalls the context"]
pub struct QueryGuard {
    prev: Option<Arc<QueryContext>>,
}

/// Install `ctx` as this thread's current query context until the
/// returned guard drops.  Sessions install it for the statement's
/// lifetime; parallel-scan workers install a clone for their share of a
/// pull.
pub fn enter_query(ctx: Arc<QueryContext>) -> QueryGuard {
    let prev = CURRENT.with(|c| c.borrow_mut().replace(ctx));
    QueryGuard { prev }
}

impl Drop for QueryGuard {
    fn drop(&mut self) {
        CURRENT.with(|c| *c.borrow_mut() = self.prev.take());
    }
}

static ENABLED: AtomicBool = AtomicBool::new(true);

/// Is fine-grained observability (wait events, activity row counts,
/// flight recording) enabled?  Metrics counters are always on.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Toggle fine-grained observability.  The overhead-guard bench turns
/// it off to measure the uninstrumented floor.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

static NEXT_QUERY_ID: AtomicU64 = AtomicU64::new(1);

/// Allocate the next process-wide query id (monotonic, never 0).
pub fn next_query_id() -> u64 {
    NEXT_QUERY_ID.fetch_add(1, Ordering::Relaxed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn context_install_restores_previous() {
        assert!(current().is_none());
        let a = Arc::new(QueryContext::new(next_query_id(), None));
        let g1 = enter_query(Arc::clone(&a));
        assert_eq!(current().unwrap().query_id, a.query_id);
        {
            let b = Arc::new(QueryContext::new(next_query_id(), None));
            let _g2 = enter_query(Arc::clone(&b));
            assert_eq!(current().unwrap().query_id, b.query_id);
        }
        assert_eq!(current().unwrap().query_id, a.query_id, "inner restored");
        drop(g1);
        assert!(current().is_none());
    }

    #[test]
    fn waits_charge_installed_context() {
        let ctx = Arc::new(QueryContext::new(next_query_id(), None));
        {
            let _g = enter_query(Arc::clone(&ctx));
            waits::observe(WaitClass::Catalog, std::time::Duration::from_micros(250));
        }
        let snap = ctx.waits.snapshot();
        assert_eq!(snap, vec![(WaitClass::Catalog, 1, 250_000)]);
        // After the guard drops, observations no longer reach ctx.
        waits::observe(WaitClass::Catalog, std::time::Duration::from_micros(99));
        assert_eq!(ctx.waits.snapshot(), snap);
    }

    #[test]
    fn query_ids_are_unique_and_nonzero() {
        let a = next_query_id();
        let b = next_query_id();
        assert!(a > 0 && b > a);
    }
}
