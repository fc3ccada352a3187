//! Shared-reference read concurrency: the engine's internal locking
//! (buffer-pool mutex, per-index mutexes) must let many threads run
//! SELECTs against one `Session` simultaneously with consistent results.

use mlql_kernel::Session;

#[test]
fn parallel_selects_are_consistent() {
    let mut db = Session::new_in_memory();
    db.execute("CREATE TABLE t (id INT, grp INT)").unwrap();
    for i in 0..5000 {
        db.execute(&format!("INSERT INTO t VALUES ({i}, {})", i % 7))
            .unwrap();
    }
    db.execute("CREATE INDEX t_id ON t (id) USING btree")
        .unwrap();
    db.execute("ANALYZE t").unwrap();
    let db = &db;

    crossbeam::scope(|scope| {
        let mut handles = Vec::new();
        for w in 0..8 {
            handles.push(scope.spawn(move |_| {
                for round in 0..20 {
                    let probe = (w * 131 + round * 17) % 5000;
                    let point = db
                        .query_ref(&format!("SELECT grp FROM t WHERE id = {probe}"))
                        .unwrap();
                    assert_eq!(point.len(), 1);
                    assert_eq!(point[0][0].as_int(), Some((probe % 7) as i64));
                    let agg = db
                        .query_ref("SELECT count(*) FROM t WHERE grp = 3")
                        .unwrap();
                    assert_eq!(agg[0][0].as_int(), Some(714));
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
    })
    .unwrap();
}

/// The metrics registry is updated from every engine thread: hammer one
/// counter, one gauge, and one histogram from many threads — with
/// concurrent renders mixed in — and check the totals are exact (no lost
/// updates) and the expositions stay well-formed throughout.
#[test]
fn metrics_registry_survives_concurrent_hammering() {
    use mlql_kernel::obs;

    let reg = obs::global();
    // Unique names: the registry is process-global and shared with every
    // other test in this binary.
    let counter = reg.counter("test_hammer_counter", "hammer test counter");
    let gauge = reg.gauge("test_hammer_gauge", "hammer test gauge");
    let histo = reg.histogram(
        "test_hammer_histogram",
        "hammer test histogram",
        &[1.0, 10.0, 100.0],
    );
    let base = counter.get();

    const THREADS: u64 = 8;
    const ROUNDS: u64 = 10_000;
    crossbeam::scope(|scope| {
        for w in 0..THREADS {
            let counter = &counter;
            let gauge = &gauge;
            let histo = &histo;
            scope.spawn(move |_| {
                for i in 0..ROUNDS {
                    counter.inc();
                    gauge.set(w as f64);
                    histo.observe((i % 200) as f64);
                    if i % 1024 == 0 {
                        // Renders interleave with the writes.
                        let prom = obs::global().render_prometheus();
                        assert!(prom.contains("test_hammer_counter"));
                        let json = obs::global().render_json();
                        assert!(json.starts_with('{') && json.ends_with('}'));
                    }
                }
            });
        }
    })
    .unwrap();

    assert_eq!(
        counter.get(),
        base + THREADS * ROUNDS,
        "no lost counter updates"
    );
    assert_eq!(histo.count(), THREADS * ROUNDS, "no lost observations");
    // Bucket counts are exact: per thread, values 0..200 cycle — 2 of
    // every 200 land ≤1, 11 ≤10, 101 ≤100.
    let buckets = histo.cumulative_buckets();
    let per_thread = ROUNDS / 200;
    assert_eq!(buckets[0].1, THREADS * per_thread * 2);
    assert_eq!(buckets[1].1, THREADS * per_thread * 11);
    assert_eq!(buckets[2].1, THREADS * per_thread * 101);
    assert_eq!(buckets[3].1, THREADS * ROUNDS);
    // The gauge holds the last write of *some* thread.
    let g = gauge.get();
    assert!((0.0..THREADS as f64).contains(&g), "gauge {g}");
    // Re-registration under the same name returns the same handle.
    let again = reg.counter("test_hammer_counter", "hammer test counter");
    assert_eq!(again.get(), counter.get());
}

/// Engine counters accumulate correctly when many threads run queries.
#[test]
fn query_metrics_accumulate_across_threads() {
    use mlql_kernel::obs;

    let mut db = Session::new_in_memory();
    db.execute("CREATE TABLE t (id INT)").unwrap();
    for i in 0..100 {
        db.execute(&format!("INSERT INTO t VALUES ({i})")).unwrap();
    }
    let before = obs::metrics().queries_total.get();
    let db = &db;
    const THREADS: u64 = 4;
    const QUERIES: u64 = 50;
    crossbeam::scope(|scope| {
        for _ in 0..THREADS {
            scope.spawn(move |_| {
                for _ in 0..QUERIES {
                    db.query_ref("SELECT count(*) FROM t").unwrap();
                }
            });
        }
    })
    .unwrap();
    let delta = obs::metrics().queries_total.get() - before;
    // ≥: other tests in this binary may run queries concurrently.
    assert!(delta >= THREADS * QUERIES, "counted {delta} queries");
}

#[test]
fn query_ref_rejects_writes() {
    let mut db = Session::new_in_memory();
    db.execute("CREATE TABLE t (id INT)").unwrap();
    assert!(db.query_ref("INSERT INTO t VALUES (1)").is_err());
    assert!(db.query_ref("DELETE FROM t").is_err());
    assert!(db.query_ref("SELECT count(*) FROM t").is_ok());
}
