//! Serial-equivalence suite for morsel-driven parallel execution: every
//! query shape the engine parallelizes (ψ threshold scans, Ω containment
//! probes, index vs sequential plans, LIMIT / max_rows, scans racing DDL)
//! must return the *identical* result set at `parallel_workers = 1` and
//! `parallel_workers = N` — workers hand back rows in nondeterministic
//! order, so comparisons are over sorted row sets.  ψ
//! and Ω results are additionally pinned, at every worker count × batch
//! size, to oracles computed outside the executor.  A property test then
//! fuzzes random multilingual tables and thresholds across the
//! serial/parallel planner boundary (the cost model's break-even).

use mlql::kernel::{Datum, Error, Session};
use mlql::mural::install;
use mlql::mural::types::unitext_datum;
use mlql::unitext::UniText;
use proptest::prelude::*;

/// Worker counts every query shape is checked at.  1 is the serial
/// reference; 2 and 4 exercise real fan-out.
const WORKER_COUNTS: [usize; 3] = [1, 2, 4];

/// Rows of the ψ fixtures: well above the 1,000–2,000 names at which a
/// parallel ψ scan starts to repay its rounds of thread spawns (see
/// [`FUZZ_ROWS`]), so their plans are parallel at 2 and 4 workers and
/// every batch size.
const NAMES: usize = 6_000;

fn db() -> (Session, mlql::mural::Mural) {
    let mut db = Session::new_in_memory();
    let mural = install(&mut db).unwrap();
    (db, mural)
}

/// Load `n` multilingual name rows (the Table 4 generator: cross-script
/// homophones plus noise) into `table (id, name)`, then ANALYZE so the
/// planner sees the real row count.  Returns the name datums in id order.
fn load_names(
    db: &mut Session,
    mural: &mlql::mural::Mural,
    table: &str,
    n: usize,
    seed: u64,
) -> Vec<Datum> {
    db.execute(&format!("CREATE TABLE {table} (id INT, name UNITEXT)"))
        .unwrap();
    let data = mlql::datagen::names_dataset(
        &mural.langs,
        &mlql::datagen::NamesConfig {
            records: n,
            noise: 0.25,
            seed,
            ..Default::default()
        },
    );
    let names: Vec<Datum> = data
        .iter()
        .map(|rec| unitext_datum(mural.unitext_type, &rec.name))
        .collect();
    for (id, name) in names.iter().enumerate() {
        db.insert_row(table, vec![Datum::Int(id as i64), name.clone()])
            .unwrap();
    }
    db.execute(&format!("ANALYZE {table}")).unwrap();
    names
}

/// Load `n` docs rows `(id, category)` cycling through category words of
/// the installed Books taxonomy, then ANALYZE.  Returns each row's
/// category in id order.
fn load_docs(db: &mut Session, mural: &mlql::mural::Mural, n: usize) -> Vec<UniText> {
    const CATS: [(&str, &str); 6] = [
        ("History", "English"),
        ("Biography", "English"),
        ("Fiction", "English"),
        ("Novel", "English"),
        ("Histoire", "French"),
        ("சரித்திரம்", "Tamil"),
    ];
    db.execute("CREATE TABLE docs (id INT, category UNITEXT)")
        .unwrap();
    let categories: Vec<UniText> = (0..n)
        .map(|i| {
            let (w, l) = CATS[i % CATS.len()];
            UniText::compose(w, mural.langs.id_of(l))
        })
        .collect();
    for (id, v) in categories.iter().enumerate() {
        let row = vec![Datum::Int(id as i64), unitext_datum(mural.unitext_type, v)];
        db.insert_row("docs", row).unwrap();
    }
    db.execute("ANALYZE docs").unwrap();
    categories
}

/// Run `sql` in a fresh session pinned to `workers`, returning the result
/// rows stringified and sorted (parallel row order is nondeterministic).
fn sorted_rows(db: &Session, workers: usize, setup: &[&str], sql: &str) -> Vec<String> {
    let mut s = db.connect();
    s.execute(&format!("SET parallel_workers = {workers}"))
        .unwrap();
    for stmt in setup {
        s.execute(stmt).unwrap();
    }
    let mut out: Vec<String> = s
        .query(sql)
        .unwrap()
        .iter()
        .map(|row| {
            row.iter()
                .map(|d| d.to_string())
                .collect::<Vec<_>>()
                .join("|")
        })
        .collect();
    out.sort();
    out
}

/// Assert `sql` yields identical sorted results at every worker count.
fn assert_equivalent(db: &Session, setup: &[&str], sql: &str) {
    let reference = sorted_rows(db, 1, setup, sql);
    for &w in &WORKER_COUNTS[1..] {
        let got = sorted_rows(db, w, setup, sql);
        assert_eq!(got, reference, "workers={w} diverged from serial on: {sql}");
    }
}

/// The big-table ψ plans under test must actually *be* parallel at
/// workers ≥ 2, or the suite silently degenerates to serial-vs-serial.
#[test]
fn planner_picks_parallel_scan_above_the_row_threshold() {
    let (mut db, mural) = db();
    load_names(&mut db, &mural, "names", NAMES, 1);
    db.execute("SET parallel_workers = 4").unwrap();
    db.execute("SET lexequal.threshold = 2").unwrap();
    let r = db
        .execute(
            "EXPLAIN SELECT count(*) FROM names WHERE name LEXEQUAL unitext('Nehru','English')",
        )
        .unwrap();
    let text = r.explain.expect("explain text");
    assert!(
        text.contains("Parallel Seq Scan on names"),
        "expected a parallel plan:\n{text}"
    );
    assert!(text.contains("workers=4"), "{text}");

    // At one worker the plan stays serial.
    db.execute("SET parallel_workers = 1").unwrap();
    let r = db
        .execute(
            "EXPLAIN SELECT count(*) FROM names WHERE name LEXEQUAL unitext('Nehru','English')",
        )
        .unwrap();
    let text = r.explain.expect("explain text");
    assert!(
        !text.contains("Parallel Seq Scan"),
        "one worker must not parallelize:\n{text}"
    );

    // `parallel_workers = 1` is the off switch even where the ÷ workers
    // cost term would win by the most: a 50k-row ψ scan stays serial.
    load_names(&mut db, &mural, "big", 50_000, 2);
    let r = db
        .execute("EXPLAIN SELECT count(*) FROM big WHERE name LEXEQUAL unitext('Nehru','English')")
        .unwrap();
    let text = r.explain.expect("explain text");
    assert!(
        text.contains("Seq Scan on big") && !text.contains("Parallel"),
        "one worker must plan a serial scan:\n{text}"
    );
}

#[test]
fn psi_threshold_scans_equivalent() {
    let (mut db, mural) = db();
    load_names(&mut db, &mural, "names", NAMES, 1);
    for threshold in [0, 1, 2, 3] {
        let setup = format!("SET lexequal.threshold = {threshold}");
        for probe in ["Nehru", "Gandhi", "Miller", "Krishnan"] {
            assert_equivalent(
                &db,
                &[&setup],
                &format!("SELECT name FROM names WHERE name LEXEQUAL unitext('{probe}','English')"),
            );
        }
    }
    // Aggregates over the parallel scan too.
    assert_equivalent(
        &db,
        &["SET lexequal.threshold = 3"],
        "SELECT count(*) FROM names WHERE name LEXEQUAL unitext('Nehru','English')",
    );
}

/// Forced index plans and forced (parallel) sequential plans agree with
/// each other at every worker count.
#[test]
fn index_and_seq_plans_equivalent() {
    let (mut db, mural) = db();
    load_names(&mut db, &mural, "names", NAMES, 3);
    db.execute("CREATE INDEX names_mt ON names (name) USING mtree")
        .unwrap();
    db.execute("ANALYZE names").unwrap();
    let sql = "SELECT name FROM names WHERE name LEXEQUAL unitext('Nehru','English')";
    let threshold = "SET lexequal.threshold = 2";
    let via_index = sorted_rows(&db, 1, &[threshold, "SET enable_seqscan = 0"], sql);
    for &w in &WORKER_COUNTS {
        let idx = sorted_rows(&db, w, &[threshold, "SET enable_seqscan = 0"], sql);
        let seq = sorted_rows(&db, w, &[threshold, "SET enable_indexscan = 0"], sql);
        assert_eq!(idx, via_index, "index plan diverged at workers={w}");
        assert_eq!(seq, via_index, "seq plan diverged at workers={w}");
    }
}

#[test]
fn limit_and_max_rows_semantics_preserved() {
    let (mut db, mural) = db();
    load_names(&mut db, &mural, "names", 1500, 5);
    // LIMIT under a parallel scan: which rows arrive first is
    // nondeterministic, but the count is exact and every row is a real
    // table row.
    let all: std::collections::HashSet<String> = sorted_rows(&db, 1, &[], "SELECT name FROM names")
        .into_iter()
        .collect();
    for &w in &WORKER_COUNTS {
        let limited = sorted_rows(&db, w, &[], "SELECT name FROM names LIMIT 37");
        assert_eq!(limited.len(), 37, "workers={w}");
        for row in &limited {
            assert!(all.contains(row), "workers={w} invented row {row}");
        }
    }
    // max_rows raises the same typed error serial and parallel.
    for &w in &WORKER_COUNTS {
        let mut s = db.connect();
        s.execute(&format!("SET parallel_workers = {w}")).unwrap();
        s.execute("SET max_rows = 10").unwrap();
        let err = s.query("SELECT name FROM names").unwrap_err();
        assert!(
            matches!(err, Error::MaxRows { limit: 10 }),
            "workers={w}: unexpected error {err}"
        );
        // Aggregates under the cap still succeed.
        assert_eq!(
            s.query("SELECT count(*) FROM names").unwrap()[0][0].as_int(),
            Some(1500)
        );
    }
}

/// The integer after `key` on the first line of `text` containing
/// `line` (an `EXPLAIN ANALYZE` node or trailer line).
fn explain_field(text: &str, line: &str, key: &str) -> u64 {
    let found = text
        .lines()
        .find(|l| l.contains(line))
        .unwrap_or_else(|| panic!("no {line:?} line:\n{text}"));
    let tail = found.split(key).nth(1).unwrap();
    let digits: String = tail.chars().take_while(char::is_ascii_digit).collect();
    digits.parse().unwrap()
}

/// Each pull of a parallel scan is sized by the rows its consumer still
/// wants, so `LIMIT 1` reads at most one morsel (4 pages) per worker
/// instead of the table, and a one-worker scan reads one page — the same bound keeps `max_rows` a memory
/// guard.  `heap.pages()` asks the storage backend for the page count and
/// charges no page read, so the bound has no extra term.
#[test]
fn limit_stops_a_parallel_scan_early() {
    let mut db = Session::new_in_memory();
    db.execute("CREATE TABLE t (id INT, pad TEXT)").unwrap();
    register_pricey_operator(&db, "keep", 1.0, |_| true);
    let pad = "x".repeat(200);
    for id in 0..3000 {
        db.insert_row("t", vec![Datum::Int(id), Datum::text(&pad)])
            .unwrap();
    }
    db.execute("ANALYZE t").unwrap();
    db.execute("SET parallel_workers = 1").unwrap();
    let serial = db
        .execute("EXPLAIN ANALYZE SELECT count(*) FROM t")
        .unwrap();
    let table_pages = explain_field(&serial.explain.unwrap(), "Seq Scan on t", "pages=");
    assert!(table_pages >= 60, "table spans {table_pages} pages");
    let limit_1 = "EXPLAIN ANALYZE SELECT id FROM t WHERE id KEEP 0 LIMIT 1";

    // One worker claims a page at a time, not a morsel, and filters only
    // the row the limit still wants.
    let text = db.execute(limit_1).unwrap().explain.unwrap();
    assert_eq!(explain_field(&text, "Seq Scan on t", "pages="), 1, "{text}");
    assert_eq!(
        explain_field(&text, "Actual: ", "ext_op_calls="),
        1,
        "{text}"
    );

    db.execute("SET parallel_workers = 4").unwrap();
    let text = db.execute(limit_1).unwrap().explain.unwrap();
    // The scan node's reads, and the statement's: no worker reads on
    // after the query thread has its row.
    for pages in [
        explain_field(&text, "Parallel Seq Scan on t", "pages="),
        explain_field(&text, "Actual: ", "logical_reads="),
    ] {
        assert!(pages <= 4 * 4, "LIMIT 1 read {pages} pages:\n{text}");
        assert!(pages < table_pages, "{text}");
    }
}

/// Register `name` as an INT operator `id NAME 0` that is `eval(id)`,
/// priced as an expensive predicate — what parallel scans are for.
fn register_pricey_operator(
    db: &Session,
    name: &str,
    selectivity: f64,
    eval: impl Fn(Option<i64>) -> bool + Send + Sync + 'static,
) {
    use mlql::kernel::catalog::{ExtOperator, OperatorKind};
    use mlql::kernel::DataType;
    use std::sync::Arc;

    db.engine().catalog_mut().register_operator(ExtOperator {
        name: name.into(),
        operand_type: DataType::Int,
        eval: Arc::new(move |l, _, _| Ok(Datum::Bool(eval(l.as_int())))),
        eval_batch: None,
        prepare_batch: None,
        kind: OperatorKind {
            commutative: false,
            distributes_over_union: true,
        },
        per_tuple_cost: Arc::new(|_, _| 2000.0),
        selectivity: Arc::new(move |_| selectivity),
        index_strategy: None,
        index_extra: None,
        modifier_filter: None,
        index_scan_fraction: None,
        strategy_label: None,
    });
}

/// A worker panic fails the query with a typed error instead of ending
/// the scan early with a short answer, and leaves the session usable.
#[test]
fn worker_panic_is_an_error_not_a_short_answer() {
    let mut db = Session::new_in_memory();
    db.execute("CREATE TABLE t (id INT)").unwrap();
    for id in 0..6000 {
        db.insert_row("t", vec![Datum::Int(id)]).unwrap();
    }
    db.execute("ANALYZE t").unwrap();
    register_pricey_operator(&db, "boom", 0.001, |id| {
        assert_ne!(id, Some(4321), "test operator hit its trap row");
        true
    });
    let sql = "SELECT id FROM t WHERE id BOOM 0";
    for workers in [2, 4] {
        let mut s = db.connect();
        s.execute(&format!("SET parallel_workers = {workers}"))
            .unwrap();
        let plan = s.execute(&format!("EXPLAIN {sql}")).unwrap().explain;
        assert!(plan.unwrap().contains("Parallel Seq Scan on t"));
        match s.query(sql) {
            Err(Error::Execution(_)) => {}
            other => panic!(
                "workers={workers}: want Error::Execution, got {:?}",
                other.map(|rows| rows.len())
            ),
        }
        let n = s.query("SELECT count(*) FROM t").unwrap()[0][0].as_int();
        assert_eq!(n, Some(6000), "workers={workers}");
    }
}

/// Batch sizes every query shape is checked at: the degenerate one-row
/// batch, a small batch, the default, and the cap.
const BATCH_SIZES: [usize; 4] = [1, 64, 1024, 4096];

/// Stringified sorted ids, the shape [`sorted_rows`] returns for
/// `SELECT id ...`.
fn sorted_ids(ids: impl Iterator<Item = usize>) -> Vec<String> {
    let mut out: Vec<String> = ids.map(|i| i.to_string()).collect();
    out.sort();
    out
}

/// Batch and worker boundaries must be invisible in the results: for ψ
/// scans, aggregates and plain projections, every (workers × batch_size)
/// combination returns exactly what scalar `psi_matches` — evaluated here,
/// outside the executor, over the rows as loaded — says it should.
#[test]
fn psi_results_pinned_to_scalar_oracle() {
    let (mut db, mural) = db();
    let names = load_names(&mut db, &mural, "names", NAMES, 11);
    let oracle = |probe: &str| -> Vec<usize> {
        let probe = mural.unitext(probe, "English").unwrap();
        let hit = |l: &Datum| mlql::mural::lexequal::psi_matches(l, &probe, 2, &mural.converters);
        (0..names.len())
            .filter(|&i| hit(&names[i]).unwrap())
            .collect()
    };
    let nehru = sorted_ids(oracle("Nehru").into_iter());
    assert!(!nehru.is_empty(), "probe must select something");
    let cases = [
        (
            "SELECT id FROM names WHERE name LEXEQUAL unitext('Nehru','English')",
            nehru,
        ),
        (
            "SELECT count(*) FROM names WHERE name LEXEQUAL unitext('Gandhi','English')",
            vec![oracle("Gandhi").len().to_string()],
        ),
        ("SELECT id FROM names", sorted_ids(0..names.len())),
    ];
    for (sql, want) in &cases {
        for &w in &WORKER_COUNTS {
            for &b in &BATCH_SIZES {
                let setup = format!("SET batch_size = {b}");
                let got = sorted_rows(&db, w, &["SET lexequal.threshold = 2", &setup], sql);
                assert_eq!(&got, want, "workers={w} batch_size={b}: {sql}");
            }
        }
    }
}

/// Ω containment against an oracle computed outside the executor —
/// `compute_closure` membership over the rows as loaded — at every
/// (workers × batch_size), on the tree-shaped taxonomy and again after a
/// taxonomy mutation grafts a multi-parent edge, which the interval index
/// must decide off its spanning tree.
#[test]
fn omega_results_pinned_to_closure_oracle() {
    let (mut db, mural) = db();
    let categories = load_docs(&mut db, &mural, 1400);
    let en = mural.langs.id_of("English");

    let check_all = |db: &Session| {
        let taxonomy = mural.sem.taxonomy();
        for rhs in ["History", "Biography", "Fiction"] {
            let closure: std::collections::HashSet<_> = mural
                .sem
                .synsets_of(&UniText::compose(rhs, en))
                .into_iter()
                .flat_map(|root| mlql::taxonomy::closure::compute_closure(&taxonomy, root))
                .collect();
            let want = sorted_ids((0..categories.len()).filter(|&i| {
                let synsets = mural.sem.synsets_of(&categories[i]);
                synsets.iter().any(|s| closure.contains(s))
            }));
            assert!(!want.is_empty(), "probe must select something");
            let sql =
                format!("SELECT id FROM docs WHERE category SEMEQUAL unitext('{rhs}','English')");
            for &w in &WORKER_COUNTS {
                for &b in &BATCH_SIZES {
                    let setup = format!("SET batch_size = {b}");
                    let got = sorted_rows(db, w, &[&setup], &sql);
                    assert_eq!(got, want, "Ω diverged at workers={w} batch_size={b}: {sql}");
                }
            }
        }
    };
    check_all(&db);

    // Graft Fiction under both Literature (its tree parent) and History:
    // one of the two edges is left out of the spanning tree, and the
    // interval sets must still agree — without deferring a probe.
    let fallbacks = || {
        mlql::kernel::obs::metrics()
            .omega_interval_fallbacks_total
            .get()
    };
    let fallbacks_before = fallbacks();
    let history = mural.sem.synsets_of(&UniText::compose("History", en))[0];
    let fiction = mural.sem.synsets_of(&UniText::compose("Fiction", en))[0];
    mural.sem.add_hyponym(history, fiction);
    check_all(&db);
    assert_eq!(
        fallbacks(),
        fallbacks_before,
        "the interval index decides every probe"
    );
}

/// The `batch_size` session knob: settable, visible through SHOW, and
/// `batch_size = 1` degenerates cleanly to one-row batches (same
/// results, LIMIT and max_rows semantics intact).
#[test]
fn batch_size_session_knob() {
    let (mut db, mural) = db();
    load_names(&mut db, &mural, "names", NAMES, 13);
    let mut s = db.connect();
    s.execute("SET batch_size = 1").unwrap();
    let shown = s.query("SHOW batch_size").unwrap();
    assert_eq!(shown[0][0].as_text(), Some("1"));
    // Same rows as the default batch size.
    let n = s.query("SELECT count(*) FROM names").unwrap()[0][0]
        .as_int()
        .unwrap();
    assert_eq!(n, NAMES as i64);
    let limited = s.query("SELECT name FROM names LIMIT 37").unwrap();
    assert_eq!(limited.len(), 37);
    // max_rows still raises the typed error mid-stream.
    s.execute("SET max_rows = 10").unwrap();
    let err = s.query("SELECT name FROM names").unwrap_err();
    assert!(matches!(err, Error::MaxRows { limit: 10 }), "{err}");
    s.execute("SET max_rows = 0").unwrap();
    // The ψ path at batch_size = 1 equals the default-batch result.
    s.execute("SET lexequal.threshold = 2").unwrap();
    let sql = "SELECT name FROM names WHERE name LEXEQUAL unitext('Nehru','English')";
    let tiny: Vec<String> = {
        let mut rows: Vec<String> = s
            .query(sql)
            .unwrap()
            .iter()
            .map(|row| row[0].to_string())
            .collect();
        rows.sort();
        rows
    };
    let dflt = sorted_rows(&db, 1, &["SET lexequal.threshold = 2"], sql);
    assert_eq!(tiny, dflt, "batch_size=1 must degenerate cleanly");
    // Out-of-range sizes clamp rather than break execution.
    s.execute("SET batch_size = 999999").unwrap();
    assert_eq!(
        s.query("SELECT count(*) FROM names").unwrap()[0][0].as_int(),
        Some(NAMES as i64)
    );
}

/// Parallel readers race concurrent DDL and inserts: counts stay in the
/// valid monotone window and nothing panics or deadlocks — the workers
/// never touch the catalog, so queued DDL cannot deadlock a scan.
#[test]
fn parallel_scans_race_concurrent_ddl() {
    use std::sync::atomic::{AtomicBool, Ordering};
    let (mut db, mural) = db();
    load_names(&mut db, &mural, "names", NAMES, 7);
    let stop = AtomicBool::new(false);
    let readers: Vec<_> = (0..3).map(|_| db.connect()).collect();
    std::thread::scope(|scope| {
        let stop = &stop;
        let mut handles = Vec::new();
        for mut session in readers {
            handles.push(scope.spawn(move || {
                session.execute("SET parallel_workers = 4").unwrap();
                session.execute("SET lexequal.threshold = 2").unwrap();
                let mut iters = 0u64;
                let mut last = 0i64;
                while !stop.load(Ordering::Relaxed) {
                    let n = session
                        .query(
                            "SELECT count(*) FROM names \
                             WHERE name LEXEQUAL unitext('Nehru','English')",
                        )
                        .unwrap()[0][0]
                        .as_int()
                        .unwrap();
                    assert!(n >= last, "count went backwards: {last} -> {n}");
                    last = n;
                    iters += 1;
                }
                iters
            }));
        }
        // Writer: inserts + DDL from the owning session.
        for i in 0..20 {
            db.execute("INSERT INTO names VALUES (-1, unitext('Nehru','English'))")
                .unwrap();
            match i {
                5 => {
                    db.execute("CREATE TABLE scratch (id INT)").unwrap();
                }
                10 => {
                    db.execute("CREATE INDEX names_mt ON names (name) USING mtree")
                        .unwrap();
                }
                15 => {
                    db.execute("ANALYZE names").unwrap();
                }
                _ => {}
            }
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        stop.store(true, Ordering::Relaxed);
        let total: u64 = handles.into_iter().map(|h| h.join().unwrap()).sum();
        assert!(total > 0, "readers never completed an iteration");
    });
}

/// Table sizes the boundary fuzz draws from: see
/// [`fuzz_rows_straddle_the_parallel_break_even`].
const FUZZ_ROWS: std::ops::Range<usize> = 500..2000;

/// The fuzz below compares serial against parallel only if its tables
/// fall on both sides of the planner's break-even: at 4 workers the
/// smallest plans a serial ψ scan at the cheapest threshold, and the
/// largest a parallel one at the dearest.
#[test]
fn fuzz_rows_straddle_the_parallel_break_even() {
    for (n, threshold, want) in [
        (FUZZ_ROWS.start, 0, "Seq Scan on names"),
        (FUZZ_ROWS.end - 1, 3, "Parallel Seq Scan on names"),
    ] {
        let (mut db, mural) = db();
        load_names(&mut db, &mural, "names", n, 17);
        db.execute("SET parallel_workers = 4").unwrap();
        db.execute(&format!("SET lexequal.threshold = {threshold}"))
            .unwrap();
        let text = db
            .execute(
                "EXPLAIN SELECT name FROM names WHERE name LEXEQUAL unitext('abcdef','English')",
            )
            .unwrap()
            .explain
            .unwrap();
        let scan = text.lines().find(|l| l.contains("Scan on names")).unwrap();
        assert!(scan.trim_start().starts_with(want), "{n} rows: {text}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Random multilingual tables straddling the parallel break-even,
    /// random probe and threshold: serial and 4-worker execution must
    /// agree exactly, whichever side of the boundary the planner lands on.
    #[test]
    fn fuzz_serial_parallel_boundary(
        n in FUZZ_ROWS,
        seed in 0u64..1000,
        threshold in 0i64..4,
        probe in "[a-z]{3,8}",
    ) {
        let (mut db, mural) = db();
        load_names(&mut db, &mural, "names", n, seed);
        let setup = format!("SET lexequal.threshold = {threshold}");
        let sql = format!("SELECT name FROM names WHERE name LEXEQUAL unitext('{probe}','English')");
        let serial = sorted_rows(&db, 1, &[&setup], &sql);
        let parallel = sorted_rows(&db, 4, &[&setup], &sql);
        prop_assert_eq!(serial, parallel);
    }
}

/// MVCC pin under parallel execution: a snapshot taken before a parallel
/// ψ scan starts must return the identical row set on every re-scan while
/// another session commits matching rows mid-flight.  The worker threads
/// all read through the transaction's visibility, so the result is frozen
/// at BEGIN regardless of how morsels interleave with the writer's
/// commits; fresh sessions see the new rows immediately, and the reader
/// catches up the moment its transaction ends.
#[test]
fn snapshot_pins_parallel_scan_against_concurrent_commits() {
    use std::sync::atomic::{AtomicBool, Ordering};
    let (mut db, mural) = db();
    load_names(&mut db, &mural, "names", NAMES, 9);

    let sql = "SELECT name FROM names WHERE name LEXEQUAL unitext('Nehru','English')";
    let mut reader = db.connect();
    reader.execute("SET parallel_workers = 4").unwrap();
    reader.execute("SET lexequal.threshold = 2").unwrap();
    reader.execute("BEGIN").unwrap();
    let reference: Vec<String> = {
        let mut rows: Vec<String> = reader
            .query(sql)
            .unwrap()
            .iter()
            .map(|row| row[0].to_string())
            .collect();
        rows.sort();
        rows
    };

    let stop = AtomicBool::new(false);
    const EXTRA: usize = 30;
    std::thread::scope(|scope| {
        let stop = &stop;
        // Writer: commits a matching row every iteration from its own
        // session while the reader re-scans inside its snapshot.
        let writer = {
            let mut w = db.connect();
            scope.spawn(move || {
                for i in 0..EXTRA {
                    w.execute("INSERT INTO names VALUES (-1, unitext('Nehru','English'))")
                        .unwrap();
                    if i % 3 == 0 {
                        std::thread::sleep(std::time::Duration::from_millis(1));
                    }
                }
                stop.store(true, Ordering::Relaxed);
            })
        };
        let mut scans = 0u64;
        while !stop.load(Ordering::Relaxed) {
            let mut rows: Vec<String> = reader
                .query(sql)
                .unwrap()
                .iter()
                .map(|row| row[0].to_string())
                .collect();
            rows.sort();
            assert_eq!(
                rows, reference,
                "parallel scan inside the snapshot diverged after {scans} re-scans"
            );
            scans += 1;
        }
        writer.join().unwrap();
        assert!(scans > 0, "reader never completed a scan");
    });

    // Outside the snapshot the commits are all there: a fresh session
    // counts them, and so does the reader once its transaction ends.
    let expect = reference.len() + EXTRA;
    let fresh = sorted_rows(&db, 4, &["SET lexequal.threshold = 2"], sql);
    assert_eq!(fresh.len(), expect, "fresh session must see every commit");
    reader.execute("COMMIT").unwrap();
    let after: Vec<String> = reader
        .query(sql)
        .unwrap()
        .iter()
        .map(|row| row[0].to_string())
        .collect();
    assert_eq!(after.len(), expect, "reader must catch up after COMMIT");
}
