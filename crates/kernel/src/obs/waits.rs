//! Wait-event instrumentation over the engine's documented lock
//! hierarchy (see the `engine` module docs).
//!
//! Every lock site with meaningful contention takes a try-lock fast
//! path first; only when that fails does it fall through to a *timed*
//! blocking acquisition, classified by [`WaitClass`].  Each observed
//! wait is charged twice:
//!
//! 1. to the process-wide `mlql_wait_<class>_seconds` histogram, and
//! 2. to the [`WaitProfile`] of the query currently installed on this
//!    thread (see [`crate::obs::current`]), so EXPLAIN ANALYZE, the
//!    flight recorder and `SHOW ACTIVITY` can attribute blocked time to
//!    the statement that suffered it — including waits taken on
//!    parallel-scan worker threads and in the group-commit WAL rendezvous.
//!
//! Uncontended acquisitions cost one failed-try branch and record
//! nothing, which is what keeps the instrumented ψ-scan path within
//! noise of the uninstrumented one (`BENCH_obs.json` guards this).

use super::registry::{global, Histogram};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

/// The contention points of the 5-level lock hierarchy, coarsest first.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum WaitClass {
    /// Engine catalog `RwLock` (level 1).
    Catalog = 0,
    /// Buffer-pool page-table mutex (level 3).
    BufferPool = 1,
    /// Group-commit rendezvous: WAL append lock, leader election and
    /// the wait for the leader's fsync (level 5 + the commit condvar).
    WalCommit = 2,
    /// Per-index instance read guards (level 4).
    IndexRead = 3,
    /// Ω closure-cache shard mutexes (taxonomy crate, reported through
    /// the observer hook installed by `mural`).
    OmegaCache = 4,
}

impl WaitClass {
    /// Every class, in declaration order (indexable by `as usize`).
    pub const ALL: [WaitClass; 5] = [
        WaitClass::Catalog,
        WaitClass::BufferPool,
        WaitClass::WalCommit,
        WaitClass::IndexRead,
        WaitClass::OmegaCache,
    ];

    /// Stable snake_case name used in metric names and JSON keys.
    pub fn name(self) -> &'static str {
        match self {
            WaitClass::Catalog => "catalog",
            WaitClass::BufferPool => "buffer_pool",
            WaitClass::WalCommit => "wal_commit",
            WaitClass::IndexRead => "index_read",
            WaitClass::OmegaCache => "omega_cache",
        }
    }
}

/// Per-query wait accounting: one `(count, nanos)` pair per class,
/// all atomics so scan workers on other threads charge the same
/// profile without coordination.
#[derive(Debug, Default)]
pub struct WaitProfile {
    counts: [AtomicU64; 5],
    nanos: [AtomicU64; 5],
}

impl WaitProfile {
    /// A zeroed profile.
    pub fn new() -> WaitProfile {
        WaitProfile::default()
    }

    /// Charge one wait of `d` to `class`.
    pub fn record(&self, class: WaitClass, d: Duration) {
        let i = class as usize;
        self.counts[i].fetch_add(1, Ordering::Relaxed);
        self.nanos[i].fetch_add(d.as_nanos() as u64, Ordering::Relaxed);
    }

    /// `(class, count, nanos)` for every class with at least one wait.
    pub fn snapshot(&self) -> Vec<(WaitClass, u64, u64)> {
        WaitClass::ALL
            .iter()
            .filter_map(|&c| {
                let n = self.counts[c as usize].load(Ordering::Relaxed);
                (n > 0).then(|| (c, n, self.nanos[c as usize].load(Ordering::Relaxed)))
            })
            .collect()
    }

    /// Total blocked time across all classes.
    pub fn total_nanos(&self) -> u64 {
        self.nanos.iter().map(|n| n.load(Ordering::Relaxed)).sum()
    }

    /// True when no wait was recorded.
    pub fn is_empty(&self) -> bool {
        self.counts.iter().all(|c| c.load(Ordering::Relaxed) == 0)
    }

    /// One-line rendering: `catalog=2x0.410ms wal_commit=1x1.204ms`.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (c, n, ns) in self.snapshot() {
            if !out.is_empty() {
                out.push(' ');
            }
            out.push_str(&format!("{}={}x{:.3}ms", c.name(), n, ns as f64 / 1e6));
        }
        out
    }

    /// JSON object keyed by class name: `{"catalog":{"count":2,"ns":410000}}`.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        for (i, (c, n, ns)) in self.snapshot().into_iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\"{}\":{{\"count\":{},\"ns\":{}}}",
                c.name(),
                n,
                ns
            ));
        }
        out.push('}');
        out
    }
}

/// Wait durations run from lock handoffs (~µs) to fsync stalls (~100ms+).
const WAIT_BOUNDS: [f64; 10] = [
    10e-6, 50e-6, 100e-6, 500e-6, 1e-3, 5e-3, 25e-3, 100e-3, 500e-3, 2.0,
];

fn histograms() -> &'static [Arc<Histogram>; 5] {
    static HISTS: OnceLock<[Arc<Histogram>; 5]> = OnceLock::new();
    HISTS.get_or_init(|| {
        let r = global();
        WaitClass::ALL.map(|c| {
            r.histogram(
                &format!("mlql_wait_{}_seconds", c.name()),
                &format!("Blocked time on {} waits", c.name()),
                &WAIT_BOUNDS,
            )
        })
    })
}

/// Force registration of the per-class histograms; `metrics()` calls
/// this so `SHOW STATS` / Prometheus always list every wait class.
pub(crate) fn ensure_registered() {
    let _ = histograms();
}

/// Record one contended wait: charges the global per-class histogram
/// and the current thread's installed query profile (if any).  No-op
/// when observability is disabled (`obs::set_enabled(false)`).
pub fn observe(class: WaitClass, d: Duration) {
    if !super::enabled() {
        return;
    }
    histograms()[class as usize].observe_duration(d);
    if let Some(ctx) = super::current() {
        ctx.waits.record(class, d);
    }
}

/// Time the blocking closure `f` and record it as a wait of `class`.
/// Call this only after a try-lock fast path failed, so uncontended
/// acquisitions never reach the clock.
pub fn time_wait<T>(class: WaitClass, f: impl FnOnce() -> T) -> T {
    let start = std::time::Instant::now();
    let out = f();
    observe(class, start.elapsed());
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profile_accumulates_per_class() {
        let p = WaitProfile::new();
        assert!(p.is_empty());
        p.record(WaitClass::Catalog, Duration::from_micros(100));
        p.record(WaitClass::Catalog, Duration::from_micros(300));
        p.record(WaitClass::WalCommit, Duration::from_millis(2));
        assert!(!p.is_empty());
        let snap = p.snapshot();
        assert_eq!(snap.len(), 2);
        assert_eq!(snap[0], (WaitClass::Catalog, 2, 400_000));
        assert_eq!(snap[1], (WaitClass::WalCommit, 1, 2_000_000));
        assert_eq!(p.total_nanos(), 2_400_000);
        let line = p.render();
        assert!(line.contains("catalog=2x0.400ms"), "{line}");
        assert!(line.contains("wal_commit=1x2.000ms"), "{line}");
        let json = p.to_json();
        assert!(
            json.contains("\"catalog\":{\"count\":2,\"ns\":400000}"),
            "{json}"
        );
    }

    #[test]
    fn profile_is_shared_across_threads() {
        let p = std::sync::Arc::new(WaitProfile::new());
        std::thread::scope(|s| {
            for _ in 0..4 {
                let p = std::sync::Arc::clone(&p);
                s.spawn(move || {
                    for _ in 0..100 {
                        p.record(WaitClass::IndexRead, Duration::from_nanos(10));
                    }
                });
            }
        });
        let snap = p.snapshot();
        assert_eq!(snap, vec![(WaitClass::IndexRead, 400, 4_000)]);
    }

    #[test]
    fn observe_registers_global_histograms() {
        observe(WaitClass::OmegaCache, Duration::from_micros(50));
        let samples = global().samples();
        assert!(samples
            .iter()
            .any(|(n, v)| n == "mlql_wait_omega_cache_seconds_count" && *v >= 1.0));
        // All five class histograms exist after first use.
        for c in WaitClass::ALL {
            let name = format!("mlql_wait_{}_seconds_count", c.name());
            assert!(samples.iter().any(|(n, _)| *n == name), "missing {name}");
        }
    }

    #[test]
    fn time_wait_returns_value_and_records() {
        let before = histograms()[WaitClass::BufferPool as usize].count();
        let v = time_wait(WaitClass::BufferPool, || 41 + 1);
        assert_eq!(v, 42);
        assert_eq!(
            histograms()[WaitClass::BufferPool as usize].count(),
            before + 1
        );
    }
}
