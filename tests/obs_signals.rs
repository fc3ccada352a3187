//! Every engine signal has a reader, and every statement is counted once.
//!
//! One `#[test]` on purpose: the metrics registry is process-global, and a
//! binary with a single test has no concurrent test that could move the
//! counters between the readings below.

use mlql::kernel::{obs, Session};
use std::collections::BTreeSet;

const CATALOGUE: &str = include_str!("../docs/observability.md");

#[test]
fn signals_have_readers_and_statements_count_once() {
    statements_count_once();
    catalogue_matches_registry();
}

/// `(queries_total, query_latency_seconds count)` now.
fn counts() -> (u64, u64) {
    let m = obs::metrics();
    (m.queries_total.get(), m.query_latency_seconds.count())
}

/// Run `f` and assert it moved both statement metrics by exactly one.
fn assert_counted_once(what: &str, f: impl FnOnce()) {
    let before = counts();
    f();
    let after = counts();
    assert_eq!(
        (after.0 - before.0, after.1 - before.1),
        (1, 1),
        "{what}: (queries_total, latency count) deltas"
    );
}

/// Every `Session::execute` call counts once and observes its latency
/// once, whichever path it took and whether it failed.
fn statements_count_once() {
    let mut db = Session::new_in_memory();
    db.execute("CREATE TABLE t (id INT)").unwrap();
    db.execute("INSERT INTO t VALUES (1), (2), (3)").unwrap();
    db.execute("SET max_rows = 1").unwrap();
    // The first run plans; the failing re-runs hit the plan cache.
    for run in 0..3 {
        assert_counted_once(&format!("failing SELECT, run {run}"), || {
            assert!(db.execute("SELECT id FROM t").is_err());
        });
    }
    assert_counted_once("parse error", || {
        assert!(db.execute("SELEC nonsense").is_err());
    });
    db.execute("SET max_rows = 0").unwrap();
    db.execute("SELECT count(*) FROM t").unwrap();
    assert_counted_once("cache-hit success", || {
        let r = db.execute("SELECT count(*) FROM t").unwrap();
        assert_eq!(r.rows[0][0].as_int(), Some(3));
    });
}

/// The `docs/observability.md` metric catalogue lists exactly the
/// registered `mlql_*` families, and every row names its consumer.
fn catalogue_matches_registry() {
    let _ = obs::metrics();
    let registered: BTreeSet<String> = obs::global()
        .render_prometheus()
        .lines()
        .filter_map(|l| l.strip_prefix("# TYPE "))
        .filter_map(|l| l.split_whitespace().next())
        .filter(|n| n.starts_with("mlql_"))
        .map(str::to_string)
        .collect();

    let section = CATALOGUE
        .split("### Metric catalogue")
        .nth(1)
        .and_then(|rest| rest.split("\n### ").next())
        .expect("docs/observability.md has a metric catalogue");
    let mut documented = BTreeSet::new();
    let mut rows = 0;
    for line in section.lines().filter(|l| l.starts_with("| `")) {
        let cells: Vec<&str> = line.trim_matches('|').split(" | ").collect();
        assert_eq!(cells.len(), 4, "name | type | meaning | consumer: {line}");
        assert!(!cells[3].trim().is_empty(), "no consumer: {line}");
        rows += 1;
        let name = cells[0].trim().trim_matches('`');
        if name.starts_with("mlql_") {
            assert!(documented.insert(name.to_string()), "listed twice: {name}");
        }
    }
    assert!(
        rows > registered.len(),
        "catalogue lists non-metric signals too"
    );
    assert_eq!(
        documented, registered,
        "catalogue rows vs registered series"
    );
    assert_eq!(registered.len(), 24, "{registered:?}");
}
