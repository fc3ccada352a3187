//! Process-wide metrics registry.
//!
//! Dependency-free (std atomics + `parking_lot`): counters, gauges and
//! fixed-bucket histograms registered by name, with Prometheus-text and
//! JSON exposition.  Handles are `Arc`s onto atomics, so recording on a
//! hot path is a single `fetch_add` — no locks, no allocation.  The
//! registry lock is only taken at registration and render time.

use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// Increment by one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Increment by `n`.
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A gauge holding one `f64` (stored as bits in an atomic).
#[derive(Debug, Default)]
pub struct Gauge {
    bits: AtomicU64,
}

impl Gauge {
    /// Set the value.
    pub fn set(&self, v: f64) {
        self.bits.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }
}

/// A histogram with fixed, registration-time bucket upper bounds.
///
/// `observe` finds the first bucket whose upper bound is ≥ the value
/// (cumulative-on-render, native counts in memory) and maintains `sum`
/// and `count`, matching the Prometheus histogram data model.
#[derive(Debug)]
pub struct Histogram {
    bounds: Vec<f64>,
    /// One slot per bound plus a final +Inf slot.
    buckets: Vec<AtomicU64>,
    sum_bits: AtomicU64,
    count: AtomicU64,
}

impl Histogram {
    fn new(bounds: &[f64]) -> Histogram {
        assert!(bounds.windows(2).all(|w| w[0] < w[1]), "bounds must ascend");
        Histogram {
            bounds: bounds.to_vec(),
            buckets: (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect(),
            sum_bits: AtomicU64::new(0f64.to_bits()),
            count: AtomicU64::new(0),
        }
    }

    /// Record one observation.
    pub fn observe(&self, v: f64) {
        let idx = self
            .bounds
            .iter()
            .position(|&b| v <= b)
            .unwrap_or(self.bounds.len());
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        // CAS loop: atomics have no native f64 add.
        let mut cur = self.sum_bits.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + v).to_bits();
            match self.sum_bits.compare_exchange_weak(
                cur,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(actual) => cur = actual,
            }
        }
    }

    /// Record a duration in seconds.
    pub fn observe_duration(&self, d: Duration) {
        self.observe(d.as_secs_f64());
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of observations.
    pub fn sum(&self) -> f64 {
        f64::from_bits(self.sum_bits.load(Ordering::Relaxed))
    }

    /// `(upper_bound, cumulative_count)` pairs, ending with `(+Inf, count)`.
    pub fn cumulative_buckets(&self) -> Vec<(f64, u64)> {
        let mut acc = 0u64;
        let mut out = Vec::with_capacity(self.buckets.len());
        for (i, b) in self.buckets.iter().enumerate() {
            acc += b.load(Ordering::Relaxed);
            let bound = self.bounds.get(i).copied().unwrap_or(f64::INFINITY);
            out.push((bound, acc));
        }
        out
    }
}

/// Type-erased closure computing a value at render time (for ratios
/// derived from other metrics, so the hot path pays nothing).
type DerivedFn = Arc<dyn Fn() -> f64 + Send + Sync>;

enum Handle {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
    Derived(DerivedFn),
}

struct Entry {
    name: String,
    help: String,
    handle: Handle,
}

/// A named collection of metrics.  Usually accessed through [`global`].
pub struct Registry {
    entries: Mutex<Vec<Entry>>,
}

impl Default for Registry {
    fn default() -> Self {
        Self::new()
    }
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Registry {
        Registry {
            entries: Mutex::new(Vec::new()),
        }
    }

    fn position(entries: &[Entry], name: &str) -> Option<usize> {
        entries.iter().position(|e| e.name == name)
    }

    /// Register (or fetch the existing) counter named `name`.
    pub fn counter(&self, name: &str, help: &str) -> Arc<Counter> {
        let mut entries = self.entries.lock();
        if let Some(i) = Self::position(&entries, name) {
            if let Handle::Counter(c) = &entries[i].handle {
                return Arc::clone(c);
            }
            panic!("metric {name:?} already registered with a different kind");
        }
        let c = Arc::new(Counter::default());
        entries.push(Entry {
            name: name.into(),
            help: help.into(),
            handle: Handle::Counter(Arc::clone(&c)),
        });
        c
    }

    /// Register (or fetch the existing) gauge named `name`.
    pub fn gauge(&self, name: &str, help: &str) -> Arc<Gauge> {
        let mut entries = self.entries.lock();
        if let Some(i) = Self::position(&entries, name) {
            if let Handle::Gauge(g) = &entries[i].handle {
                return Arc::clone(g);
            }
            panic!("metric {name:?} already registered with a different kind");
        }
        let g = Arc::new(Gauge::default());
        entries.push(Entry {
            name: name.into(),
            help: help.into(),
            handle: Handle::Gauge(Arc::clone(&g)),
        });
        g
    }

    /// Register (or fetch the existing) histogram named `name` with the
    /// given ascending bucket upper bounds.
    pub fn histogram(&self, name: &str, help: &str, bounds: &[f64]) -> Arc<Histogram> {
        let mut entries = self.entries.lock();
        if let Some(i) = Self::position(&entries, name) {
            if let Handle::Histogram(h) = &entries[i].handle {
                return Arc::clone(h);
            }
            panic!("metric {name:?} already registered with a different kind");
        }
        let h = Arc::new(Histogram::new(bounds));
        entries.push(Entry {
            name: name.into(),
            help: help.into(),
            handle: Handle::Histogram(Arc::clone(&h)),
        });
        h
    }

    /// Register a gauge whose value is computed by `f` at render time
    /// (derived metrics such as hit ratios).
    pub fn derived_gauge(
        &self,
        name: &str,
        help: &str,
        f: impl Fn() -> f64 + Send + Sync + 'static,
    ) {
        let mut entries = self.entries.lock();
        if Self::position(&entries, name).is_some() {
            return;
        }
        entries.push(Entry {
            name: name.into(),
            help: help.into(),
            handle: Handle::Derived(Arc::new(f)),
        });
    }

    /// Flat `(name, value)` snapshot.  Histograms contribute
    /// `<name>_count` and `<name>_sum`.
    pub fn samples(&self) -> Vec<(String, f64)> {
        let entries = self.entries.lock();
        let mut out = Vec::with_capacity(entries.len());
        for e in entries.iter() {
            match &e.handle {
                Handle::Counter(c) => out.push((e.name.clone(), c.get() as f64)),
                Handle::Gauge(g) => out.push((e.name.clone(), g.get())),
                Handle::Derived(f) => out.push((e.name.clone(), f())),
                Handle::Histogram(h) => {
                    out.push((format!("{}_count", e.name), h.count() as f64));
                    out.push((format!("{}_sum", e.name), h.sum()));
                }
            }
        }
        out
    }

    /// Prometheus text exposition (version 0.0.4).
    pub fn render_prometheus(&self) -> String {
        use std::fmt::Write as _;
        let entries = self.entries.lock();
        let mut out = String::new();
        for e in entries.iter() {
            let _ = writeln!(out, "# HELP {} {}", e.name, escape_help(&e.help));
            match &e.handle {
                Handle::Counter(c) => {
                    let _ = writeln!(out, "# TYPE {} counter", e.name);
                    let _ = writeln!(out, "{} {}", e.name, c.get());
                }
                Handle::Gauge(g) => {
                    let _ = writeln!(out, "# TYPE {} gauge", e.name);
                    let _ = writeln!(out, "{} {}", e.name, fmt_f64(g.get()));
                }
                Handle::Derived(f) => {
                    let _ = writeln!(out, "# TYPE {} gauge", e.name);
                    let _ = writeln!(out, "{} {}", e.name, fmt_f64(f()));
                }
                Handle::Histogram(h) => {
                    let _ = writeln!(out, "# TYPE {} histogram", e.name);
                    for (bound, cum) in h.cumulative_buckets() {
                        let le = if bound.is_infinite() {
                            "+Inf".to_string()
                        } else {
                            fmt_f64(bound)
                        };
                        let _ = writeln!(
                            out,
                            "{}_bucket{{le=\"{}\"}} {}",
                            e.name,
                            escape_label_value(&le),
                            cum
                        );
                    }
                    let _ = writeln!(out, "{}_sum {}", e.name, fmt_f64(h.sum()));
                    let _ = writeln!(out, "{}_count {}", e.name, h.count());
                }
            }
        }
        out
    }

    /// JSON exposition: one object keyed by metric name.
    pub fn render_json(&self) -> String {
        use std::fmt::Write as _;
        let entries = self.entries.lock();
        let mut out = String::from("{");
        for (i, e) in entries.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            match &e.handle {
                Handle::Counter(c) => {
                    let _ = write!(
                        out,
                        "\"{}\":{{\"type\":\"counter\",\"value\":{}}}",
                        e.name,
                        c.get()
                    );
                }
                Handle::Gauge(g) => {
                    let _ = write!(
                        out,
                        "\"{}\":{{\"type\":\"gauge\",\"value\":{}}}",
                        e.name,
                        fmt_f64(g.get())
                    );
                }
                Handle::Derived(f) => {
                    let _ = write!(
                        out,
                        "\"{}\":{{\"type\":\"gauge\",\"value\":{}}}",
                        e.name,
                        fmt_f64(f())
                    );
                }
                Handle::Histogram(h) => {
                    let _ = write!(
                        out,
                        "\"{}\":{{\"type\":\"histogram\",\"count\":{},\"sum\":{},\"buckets\":[",
                        e.name,
                        h.count(),
                        fmt_f64(h.sum())
                    );
                    for (j, (bound, cum)) in h.cumulative_buckets().into_iter().enumerate() {
                        if j > 0 {
                            out.push(',');
                        }
                        let le = if bound.is_infinite() {
                            "\"+Inf\"".to_string()
                        } else {
                            fmt_f64(bound)
                        };
                        let _ = write!(out, "{{\"le\":{le},\"count\":{cum}}}");
                    }
                    out.push_str("]}");
                }
            }
        }
        out.push('}');
        out
    }
}

/// Escape a HELP string per the Prometheus text exposition format:
/// backslash and line feed become `\\` and `\n`.
fn escape_help(s: &str) -> String {
    if !s.contains(['\\', '\n']) {
        return s.to_string();
    }
    let mut out = String::with_capacity(s.len() + 4);
    for ch in s.chars() {
        match ch {
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Escape a label value per the Prometheus text exposition format:
/// backslash, double-quote and line feed become `\\`, `\"` and `\n`.
fn escape_label_value(s: &str) -> String {
    if !s.contains(['\\', '"', '\n']) {
        return s.to_string();
    }
    let mut out = String::with_capacity(s.len() + 4);
    for ch in s.chars() {
        match ch {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// `f64` formatting that stays valid JSON (no NaN/inf literals).
fn fmt_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// The process-wide registry.
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::new)
}

/// Handles onto every engine metric, registered once per process.
pub struct EngineMetrics {
    /// Statements executed through `Session::execute`, failed ones
    /// included.
    pub queries_total: Arc<Counter>,
    /// End-to-end statement latency (seconds), failed statements
    /// included.
    pub query_latency_seconds: Arc<Histogram>,
    /// Buffer-pool page requests (hit or miss).
    pub bufferpool_logical_reads_total: Arc<Counter>,
    /// Buffer-pool misses fetched from the backend.
    pub bufferpool_physical_reads_total: Arc<Counter>,
    /// WAL records appended.
    pub wal_records_total: Arc<Counter>,
    /// WAL bytes appended.
    pub wal_bytes_total: Arc<Counter>,
    /// `sync_data` calls issued against the WAL file.
    pub wal_fsyncs_total: Arc<Counter>,
    /// WAL records re-applied during recovery.
    pub recovery_replayed_records_total: Arc<Counter>,
    /// Recoveries that restored from a checkpoint snapshot (vs. full replay).
    pub recovery_snapshot_restores_total: Arc<Counter>,
    /// Extension-operator (ψ/Ω) evaluations.
    pub ext_op_calls_total: Arc<Counter>,
    /// ψ edit-distance computations (DP evaluations).
    pub psi_distance_calls_total: Arc<Counter>,
    /// M-Tree metric-distance computations.
    pub mtree_distance_computations_total: Arc<Counter>,
    /// Ω-probed rows (the interval index decides every one).
    pub omega_interval_hits_total: Arc<Counter>,
    /// Always 0: the interval index defers no probe.  Still registered
    /// because the benchmark crate (`crates/workload`) reads it.
    pub omega_interval_fallbacks_total: Arc<Counter>,
    /// Plan-cache lookups that reused a cached physical plan.
    pub plan_cache_hits_total: Arc<Counter>,
    /// Plan-cache lookups that fell through to the planner.
    pub plan_cache_misses_total: Arc<Counter>,
    /// Plan-cache flushes caused by DDL / ANALYZE epoch bumps.
    pub plan_cache_invalidations_total: Arc<Counter>,
    /// Stale-statistics advisories raised (edge-triggered per table).
    pub stats_advisories_total: Arc<Counter>,
    /// Write-write conflicts detected (first-updater-wins losers).
    pub txn_conflicts_total: Arc<Counter>,
}

/// The engine's metric handles (registered in [`global`] on first use).
pub fn metrics() -> &'static EngineMetrics {
    static METRICS: OnceLock<EngineMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let r = global();
        // The per-class wait histograms register alongside the engine
        // metrics so the exposition surfaces always list every class,
        // contended yet or not.
        super::waits::ensure_registered();
        // Query latencies from microseconds to tens of seconds.
        let latency_bounds = [
            50e-6, 100e-6, 250e-6, 500e-6, 1e-3, 2.5e-3, 5e-3, 10e-3, 25e-3, 50e-3, 100e-3, 250e-3,
            500e-3, 1.0, 2.5, 5.0, 10.0,
        ];
        let m = EngineMetrics {
            queries_total: r.counter("mlql_queries_total", "Statements executed"),
            query_latency_seconds: r.histogram(
                "mlql_query_latency_seconds",
                "End-to-end statement latency",
                &latency_bounds,
            ),
            bufferpool_logical_reads_total: r.counter(
                "mlql_bufferpool_logical_reads_total",
                "Buffer-pool page requests",
            ),
            bufferpool_physical_reads_total: r
                .counter("mlql_bufferpool_physical_reads_total", "Buffer-pool misses"),
            wal_records_total: r.counter("mlql_wal_records_total", "WAL records appended"),
            wal_bytes_total: r.counter("mlql_wal_bytes_total", "WAL bytes appended"),
            wal_fsyncs_total: r.counter("mlql_wal_fsyncs_total", "WAL sync_data calls"),
            recovery_replayed_records_total: r.counter(
                "mlql_recovery_replayed_records_total",
                "WAL records re-applied during recovery",
            ),
            recovery_snapshot_restores_total: r.counter(
                "mlql_recovery_snapshot_restores_total",
                "Recoveries restored from a checkpoint snapshot",
            ),
            ext_op_calls_total: r
                .counter("mlql_ext_op_calls_total", "Extension-operator evaluations"),
            psi_distance_calls_total: r.counter(
                "mlql_psi_distance_calls_total",
                "Psi edit-distance computations",
            ),
            mtree_distance_computations_total: r.counter(
                "mlql_mtree_distance_computations_total",
                "M-Tree metric-distance computations",
            ),
            omega_interval_hits_total: r.counter(
                "mlql_omega_interval_hits_total",
                "Omega probes decided by interval containment alone",
            ),
            omega_interval_fallbacks_total: r.counter(
                "mlql_omega_interval_fallbacks_total",
                "Omega probes deferred from intervals (always 0)",
            ),
            plan_cache_hits_total: r.counter("mlql_plan_cache_hits_total", "Plan-cache hits"),
            plan_cache_misses_total: r.counter("mlql_plan_cache_misses_total", "Plan-cache misses"),
            plan_cache_invalidations_total: r.counter(
                "mlql_plan_cache_invalidations_total",
                "Plan-cache flushes from DDL/ANALYZE",
            ),
            stats_advisories_total: r.counter(
                "mlql_stats_advisories_total",
                "Stale-statistics advisories raised",
            ),
            txn_conflicts_total: r.counter(
                "mlql_txn_conflicts_total",
                "Write-write conflicts (first-updater-wins losers)",
            ),
        };
        // Derived at render time so the fetch path pays nothing.
        let logical = Arc::clone(&m.bufferpool_logical_reads_total);
        let physical = Arc::clone(&m.bufferpool_physical_reads_total);
        r.derived_gauge(
            "mlql_bufferpool_hit_ratio",
            "Fraction of page requests served from memory",
            move || {
                let l = logical.get();
                if l == 0 {
                    return 1.0;
                }
                1.0 - physical.get() as f64 / l as f64
            },
        );
        m
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_roundtrip() {
        let r = Registry::new();
        let c = r.counter("c_total", "a counter");
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        // Re-registration returns the same handle.
        let c2 = r.counter("c_total", "a counter");
        c2.inc();
        assert_eq!(c.get(), 6);
        let g = r.gauge("g", "a gauge");
        g.set(0.25);
        assert_eq!(g.get(), 0.25);
    }

    #[test]
    fn histogram_buckets_are_cumulative() {
        let r = Registry::new();
        let h = r.histogram("lat", "latency", &[1.0, 10.0, 100.0]);
        for v in [0.5, 0.7, 5.0, 50.0, 5000.0] {
            h.observe(v);
        }
        assert_eq!(h.count(), 5);
        assert!((h.sum() - 5056.2).abs() < 1e-9);
        let buckets = h.cumulative_buckets();
        assert_eq!(buckets[0], (1.0, 2));
        assert_eq!(buckets[1], (10.0, 3));
        assert_eq!(buckets[2], (100.0, 4));
        assert!(buckets[3].0.is_infinite());
        assert_eq!(buckets[3].1, 5);
    }

    #[test]
    fn prometheus_exposition_format() {
        let r = Registry::new();
        r.counter("x_total", "counts x").add(7);
        let h = r.histogram("y_seconds", "times y", &[0.1]);
        h.observe(0.05);
        r.derived_gauge("z_ratio", "derived", || 0.5);
        let text = r.render_prometheus();
        assert!(text.contains("# HELP x_total counts x"), "{text}");
        assert!(text.contains("# TYPE x_total counter"), "{text}");
        assert!(text.contains("x_total 7"), "{text}");
        assert!(text.contains("y_seconds_bucket{le=\"0.1\"} 1"), "{text}");
        assert!(text.contains("y_seconds_bucket{le=\"+Inf\"} 1"), "{text}");
        assert!(text.contains("y_seconds_count 1"), "{text}");
        assert!(text.contains("z_ratio 0.5"), "{text}");
    }

    #[test]
    fn prometheus_escapes_help_and_label_values() {
        let r = Registry::new();
        r.counter("esc_total", "path C:\\tmp\nsecond line").add(1);
        let text = r.render_prometheus();
        assert!(
            text.contains("# HELP esc_total path C:\\\\tmp\\nsecond line"),
            "HELP must escape backslash and newline: {text}"
        );
        // The escaped HELP stays on one physical line.
        let help_line = text
            .lines()
            .find(|l| l.starts_with("# HELP esc_total"))
            .unwrap();
        assert_eq!(help_line, "# HELP esc_total path C:\\\\tmp\\nsecond line");
        assert_eq!(escape_label_value("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape_label_value("plain"), "plain");
        assert_eq!(escape_help("plain"), "plain");
    }

    #[test]
    fn histogram_observe_is_consistent_under_concurrency() {
        // Satellite: hammer one histogram from many threads and check the
        // cumulative view adds up exactly — counts are per-bucket atomics,
        // the sum is a CAS loop, and neither may lose updates.
        let r = Registry::new();
        let h = r.histogram("conc", "concurrent", &[1.0, 10.0, 100.0]);
        const THREADS: usize = 8;
        const PER_THREAD: usize = 5_000;
        std::thread::scope(|s| {
            for t in 0..THREADS {
                let h = Arc::clone(&h);
                s.spawn(move || {
                    for i in 0..PER_THREAD {
                        // Cycle through every bucket incl. +Inf.
                        let v = match (t + i) % 4 {
                            0 => 0.5,
                            1 => 5.0,
                            2 => 50.0,
                            _ => 500.0,
                        };
                        h.observe(v);
                    }
                });
            }
        });
        let total = (THREADS * PER_THREAD) as u64;
        assert_eq!(h.count(), total);
        let buckets = h.cumulative_buckets();
        assert_eq!(buckets.len(), 4);
        // Cumulative counts must ascend and end at the grand total.
        for w in buckets.windows(2) {
            assert!(w[0].1 <= w[1].1, "cumulative counts must ascend");
        }
        assert_eq!(buckets[3].1, total);
        assert_eq!(buckets[0].1, total / 4, "quarter of observations per bin");
        assert_eq!(buckets[1].1, total / 2);
        assert_eq!(buckets[2].1, 3 * total / 4);
        let expected_sum = (total / 4) as f64 * (0.5 + 5.0 + 50.0 + 500.0);
        assert!(
            (h.sum() - expected_sum).abs() < 1e-6,
            "CAS sum lost updates: {} vs {}",
            h.sum(),
            expected_sum
        );
    }

    #[test]
    fn json_exposition_is_parseable_shape() {
        let r = Registry::new();
        r.counter("a_total", "a").add(3);
        r.gauge("b", "b").set(1.5);
        let h = r.histogram("c", "c", &[2.0]);
        h.observe(1.0);
        let json = r.render_json();
        assert!(json.starts_with('{') && json.ends_with('}'), "{json}");
        assert!(
            json.contains("\"a_total\":{\"type\":\"counter\",\"value\":3}"),
            "{json}"
        );
        assert!(
            json.contains("\"b\":{\"type\":\"gauge\",\"value\":1.5}"),
            "{json}"
        );
        assert!(
            json.contains("\"buckets\":[{\"le\":2,\"count\":1},{\"le\":\"+Inf\",\"count\":1}]"),
            "{json}"
        );
    }

    #[test]
    fn engine_metrics_expose_at_least_ten() {
        let _ = metrics();
        let samples = global().samples();
        assert!(samples.len() >= 10, "got {} samples", samples.len());
        let names: Vec<&str> = samples.iter().map(|(n, _)| n.as_str()).collect();
        assert!(names.contains(&"mlql_queries_total"));
        assert!(names.contains(&"mlql_bufferpool_hit_ratio"));
    }

    #[test]
    fn samples_flatten_histograms() {
        let r = Registry::new();
        let h = r.histogram("hist", "h", &[1.0]);
        h.observe(0.5);
        h.observe(2.0);
        let s = r.samples();
        assert!(s.iter().any(|(n, v)| n == "hist_count" && *v == 2.0));
        assert!(s.iter().any(|(n, v)| n == "hist_sum" && *v == 2.5));
    }
}
