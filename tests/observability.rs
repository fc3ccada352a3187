//! Observability-layer integration tests: per-operator EXPLAIN ANALYZE
//! actuals for the paper's ψ and Ω plans, the SHOW STATS SQL surface,
//! and the engine metric counters behind Figures 6–8.

use mlql::kernel::{obs, Session};
use mlql::mural::install;
use mlql::unitext::UniText;

fn db() -> Session {
    let mut db = Session::new_in_memory();
    install(&mut db).unwrap();
    db
}

/// The per-node `actual rows=` values of an EXPLAIN ANALYZE text, in plan
/// (pre-order) line order, paired with the full line for context.
fn node_actuals(text: &str) -> Vec<(u64, String)> {
    text.lines()
        .filter(|l| l.contains("(actual rows="))
        .map(|l| {
            let tail = l.split("(actual rows=").nth(1).unwrap();
            let n: u64 = tail
                .chars()
                .take_while(|c| c.is_ascii_digit())
                .collect::<String>()
                .parse()
                .unwrap();
            (n, l.to_string())
        })
        .collect()
}

/// Golden test: a LexEQUAL M-Tree index-scan plan reports per-node
/// actuals that reconcile with the handcrafted data.
#[test]
fn explain_analyze_lexequal_index_scan_actuals() {
    let mut db = db();
    db.execute("CREATE TABLE names (name UNITEXT)").unwrap();
    // /nehru/ matches நேரு (/neru/) and नेहरू (/nehru/) at k=2; the
    // others are phonemically far.
    for (n, lang) in [
        ("Nehru", "English"),
        ("நேரு", "Tamil"),
        ("नेहरू", "Hindi"),
        ("Gandhi", "English"),
        ("Patel", "English"),
    ] {
        db.execute(&format!(
            "INSERT INTO names VALUES (unitext('{n}','{lang}'))"
        ))
        .unwrap();
    }
    db.execute("CREATE INDEX names_mt ON names (name) USING mtree")
        .unwrap();
    db.execute("ANALYZE names").unwrap();
    db.execute("SET lexequal.threshold = 2").unwrap();
    db.execute("SET enable_seqscan = 0").unwrap();

    let r = db
        .execute(
            "EXPLAIN ANALYZE SELECT count(*) FROM names \
             WHERE name LEXEQUAL unitext('Nehru','English')",
        )
        .unwrap();
    let text = r.explain.expect("explain text");

    let nodes = node_actuals(&text);
    assert!(nodes.len() >= 2, "at least aggregate + scan nodes:\n{text}");
    // Every annotated node prints the full actuals quadruple.
    for (_, line) in &nodes {
        assert!(line.contains("batches="), "{line}");
        assert!(line.contains("time="), "{line}");
        assert!(line.contains("pages="), "{line}");
    }
    // Pre-order: the root aggregate emits exactly one row...
    let (agg_rows, agg_line) = &nodes[0];
    assert!(
        agg_line.contains("Aggregate"),
        "root is the count(*):\n{text}"
    );
    assert_eq!(*agg_rows, 1, "{text}");
    assert!(agg_line.contains("batches=1"), "{agg_line}");
    // ...and the index scan leaf yields the three cross-script homophones.
    let (scan_rows, scan_line) = nodes.last().unwrap();
    assert!(
        scan_line.contains("Index Scan using names_mt"),
        "ψ probe must use the M-Tree:\n{text}"
    );
    assert_eq!(*scan_rows, 3, "Nehru/நேரு/नेहरू at k=2:\n{text}");
    // Query-level trailer and stage trace ride along.
    assert!(text.contains("Actual: rows=1"), "{text}");
    assert!(text.contains("index_node_visits="), "{text}");
    assert!(text.contains("Stages: "), "{text}");
    assert!(text.contains("execute="), "{text}");
}

/// Golden test: a SemEQUAL plan over a DAG-shaped taxonomy attributes
/// rows and ext-op calls to the scan node evaluating Ω, and the interval
/// index decides every probe, off the spanning tree too.
#[test]
fn explain_analyze_semequal_grafted_taxonomy_actuals() {
    let mut db = Session::new_in_memory();
    let mural = install(&mut db).unwrap();
    db.execute("CREATE TABLE book (id INT, category UNITEXT)")
        .unwrap();
    // Three of five categories sit in History's closure (the fixture
    // taxonomy of Figure 4); Fiction and Novel do not.
    for (id, cat, lang) in [
        (1, "History", "English"),
        (2, "Historiography", "English"),
        (3, "சரித்திரம்", "Tamil"),
        (4, "Fiction", "English"),
        (5, "Novel", "English"),
    ] {
        db.execute(&format!(
            "INSERT INTO book VALUES ({id}, unitext('{cat}','{lang}'))"
        ))
        .unwrap();
    }
    db.execute("ANALYZE book").unwrap();
    // A second parent for Autobiography puts an edge outside the
    // spanning tree under History.
    let en = mural.langs.id_of("English");
    let synset = |w: &str| mural.sem.synsets_of(&UniText::compose(w, en))[0];
    mural
        .sem
        .add_hyponym(synset("History"), synset("Autobiography"));
    let hits_before = obs::metrics().omega_interval_hits_total.get();
    let fallbacks_before = obs::metrics().omega_interval_fallbacks_total.get();
    let r = db
        .execute(
            "EXPLAIN ANALYZE SELECT count(*) FROM book \
             WHERE category SEMEQUAL unitext('History','English')",
        )
        .unwrap();
    let text = r.explain.expect("explain text");

    let nodes = node_actuals(&text);
    let (scan_rows, scan_line) = nodes.last().unwrap();
    assert!(scan_line.contains("Seq Scan on book"), "{text}");
    assert!(scan_line.contains("Containment: intervals"), "{text}");
    assert_eq!(*scan_rows, 3, "closure members under History:\n{text}");
    // Ω evaluated once per scanned row — the reconciliation the cost
    // model's per-tuple charge assumes.
    assert!(text.contains("ext_op_calls=5"), "{text}");
    // Every probed row is counted, and none fell back.
    assert!(
        obs::metrics().omega_interval_hits_total.get() >= hits_before + 5,
        "probed rows must be counted"
    );
    assert_eq!(
        obs::metrics().omega_interval_fallbacks_total.get(),
        fallbacks_before,
        "the interval index decides every probe"
    );
}

/// The interval-labeled Ω path is surfaced by EXPLAIN on a tree-shaped
/// taxonomy.
#[test]
fn explain_analyze_semequal_interval_strategy() {
    let mut db = db();
    db.execute("CREATE TABLE book (id INT, category UNITEXT)")
        .unwrap();
    for (id, cat, lang) in [
        (1, "History", "English"),
        (2, "Historiography", "English"),
        (3, "Autobiography", "English"),
        (4, "Novel", "English"),
    ] {
        db.execute(&format!(
            "INSERT INTO book VALUES ({id}, unitext('{cat}','{lang}'))"
        ))
        .unwrap();
    }
    db.execute("ANALYZE book").unwrap();

    let hits_before = obs::metrics().omega_interval_hits_total.get();
    let r = db
        .execute(
            "EXPLAIN ANALYZE SELECT count(*) FROM book \
             WHERE category SEMEQUAL unitext('History','English')",
        )
        .unwrap();
    let text = r.explain.expect("explain text");

    let nodes = node_actuals(&text);
    let (scan_rows, scan_line) = nodes.last().unwrap();
    assert!(scan_line.contains("Containment: intervals"), "{text}");
    assert_eq!(*scan_rows, 3, "closure members under History:\n{text}");
    let hits_after = obs::metrics().omega_interval_hits_total.get();
    assert!(
        hits_after > hits_before,
        "interval-decided probes must be counted"
    );
}

/// The number after `key` in `text` (e.g. `pages=` on an EXPLAIN line).
fn field(text: &str, key: &str) -> u64 {
    text.split(key)
        .nth(1)
        .unwrap_or_else(|| panic!("no {key} in {text:?}"))
        .chars()
        .take_while(|c| c.is_ascii_digit())
        .collect::<String>()
        .parse()
        .unwrap()
}

const PSI_JOIN: &str = "SELECT count(*) FROM o, names \
                        WHERE names.name LEXEQUAL unitext('Nehru','English')";

/// `o (id INT)` holding `analyzed` rows when it is analyzed and `rows`
/// after, and a 400-row `names (name UNITEXT)` that [`PSI_JOIN`] filters
/// with ψ and joins to every row of `o`.  Returns the session and the
/// heap pages of `names`, as a full scan of it reads them.
fn stale_join_fixture(analyzed: usize, rows: usize) -> (Session, u64) {
    let mut db = db();
    db.execute("CREATE TABLE o (id INT)").unwrap();
    db.execute("CREATE TABLE names (name UNITEXT)").unwrap();
    let tuples: Vec<String> = (0..400)
        .map(|i| format!("(unitext('Name{i}','English'))"))
        .collect();
    db.execute(&format!("INSERT INTO names VALUES {}", tuples.join(", ")))
        .unwrap();
    let insert_o = |db: &mut Session, ids: std::ops::Range<usize>| {
        for id in ids {
            db.execute(&format!("INSERT INTO o VALUES ({id})")).unwrap();
        }
    };
    insert_o(&mut db, 0..analyzed);
    db.execute("ANALYZE o").unwrap();
    db.execute("ANALYZE names").unwrap();
    insert_o(&mut db, analyzed..rows);
    db.execute("SET lexequal.threshold = 2").unwrap();
    let scan = db
        .execute("EXPLAIN ANALYZE SELECT count(*) FROM names")
        .unwrap()
        .explain
        .expect("explain text");
    let pages = field(
        scan.lines()
            .find(|l| l.contains("Seq Scan on names"))
            .unwrap(),
        "pages=",
    );
    (db, pages)
}

/// A three-operator plan (aggregate over join over scans) prints actuals
/// on every node, and a join whose outer was analyzed at 1 row but holds
/// 61 runs its ψ-filtered scan once: ψ is evaluated once per `names` row
/// and each of its heap pages is read once.
#[test]
fn explain_analyze_annotates_every_node_of_a_join_plan() {
    let (mut db, names_pages) = stale_join_fixture(1, 61);
    let r = db.execute(&format!("EXPLAIN ANALYZE {PSI_JOIN}")).unwrap();
    let text = r.explain.expect("explain text");
    let plan_lines: Vec<&str> = text
        .lines()
        .take_while(|l| !l.starts_with("Actual:"))
        .filter(|l| !l.trim().is_empty())
        .collect();
    assert!(plan_lines.len() >= 3, "3-operator plan:\n{text}");
    for line in &plan_lines {
        assert!(
            line.contains("(actual rows="),
            "unannotated node {line:?}:\n{text}"
        );
        assert!(line.contains("batches="), "{line}");
        assert!(line.contains("time="), "{line}");
        assert!(line.contains("pages="), "{line}");
    }
    let trailer = text.lines().find(|l| l.starts_with("Actual:")).unwrap();
    assert_eq!(field(trailer, "ext_op_calls="), 400, "{text}");
    let psi_scan = plan_lines
        .iter()
        .find(|l| l.contains("Seq Scan on names"))
        .unwrap_or_else(|| panic!("a ψ scan of names:\n{text}"));
    assert_eq!(field(psi_scan, "pages="), names_pages, "{text}");
    assert_eq!(field(plan_lines[0], "actual rows="), 1, "{text}");
}

/// A nested loop whose outer is empty never runs its inner side: no ψ
/// call, no page of `names` read.
#[test]
fn an_empty_outer_scans_no_inner() {
    let (mut db, _) = stale_join_fixture(61, 61);
    db.execute("DELETE FROM o").unwrap();
    let r = db.execute(&format!("EXPLAIN ANALYZE {PSI_JOIN}")).unwrap();
    let text = r.explain.expect("explain text");
    assert!(text.contains("Nested Loop"), "{text}");
    let trailer = text.lines().find(|l| l.starts_with("Actual:")).unwrap();
    assert_eq!(field(trailer, "ext_op_calls="), 0, "{text}");
    let psi_scan = text
        .lines()
        .find(|l| l.contains("Seq Scan on names"))
        .unwrap_or_else(|| panic!("a ψ scan of names:\n{text}"));
    assert_eq!(field(psi_scan, "pages="), 0, "{text}");
    let r = db.execute(PSI_JOIN).unwrap();
    assert_eq!(r.rows[0][0], mlql::kernel::Datum::Int(0));
}

/// Acceptance: SHOW STATS returns ≥10 distinct engine metrics, and the
/// same registry renders both Prometheus text and JSON.
#[test]
fn show_stats_exposes_at_least_ten_metrics_in_both_formats() {
    let mut db = db();
    db.execute("CREATE TABLE t (id INT)").unwrap();
    db.execute("INSERT INTO t VALUES (1), (2), (3)").unwrap();
    db.execute("SELECT count(*) FROM t").unwrap();

    // Tabular form: one row per sample, metric names distinct.
    let rows = db.query("SHOW STATS").unwrap();
    let names: std::collections::HashSet<String> = rows
        .iter()
        .map(|r| r[0].as_text().unwrap().to_string())
        .collect();
    assert!(names.len() >= 10, "got {} metrics: {names:?}", names.len());
    assert!(names.iter().all(|n| n.starts_with("mlql_")), "{names:?}");
    assert!(names.contains("mlql_queries_total"));
    assert!(names.contains("mlql_bufferpool_logical_reads_total"));

    // JSON form.
    let json = db.query("SHOW STATS_JSON").unwrap()[0][0]
        .as_text()
        .unwrap()
        .to_string();
    assert!(json.matches("\"type\":").count() >= 10, "{json}");

    // Prometheus text form.
    let prom = db.query("SHOW STATS_PROMETHEUS").unwrap()[0][0]
        .as_text()
        .unwrap()
        .to_string();
    assert!(prom.matches("# TYPE mlql_").count() >= 10, "{prom}");
    assert!(
        prom.contains("# TYPE mlql_query_latency_seconds histogram"),
        "{prom}"
    );
    assert!(
        prom.contains("mlql_query_latency_seconds_bucket{le=\"+Inf\"}"),
        "{prom}"
    );
}

/// The ψ hot-path counters move with the work actually done (Figure 6's
/// cost drivers: edit-distance calls and phoneme conversions).
#[test]
fn psi_counters_track_distance_calls() {
    let mut db = db();
    db.execute("CREATE TABLE names (name UNITEXT)").unwrap();
    for n in ["Nehru", "Gandhi", "Patel", "Bose"] {
        db.execute(&format!(
            "INSERT INTO names VALUES (unitext('{n}','English'))"
        ))
        .unwrap();
    }
    db.execute("SET lexequal.threshold = 2").unwrap();

    let m = obs::metrics();
    let dist_before = m.psi_distance_calls_total.get();
    let ext_before = m.ext_op_calls_total.get();
    db.query("SELECT count(*) FROM names WHERE name LEXEQUAL unitext('Nehru','English')")
        .unwrap();
    // One ψ evaluation per scanned row, each reaching the banded DP
    // (every name here has a phoneme string).
    assert!(m.psi_distance_calls_total.get() >= dist_before + 4);
    assert!(m.ext_op_calls_total.get() >= ext_before + 4);
}

/// Golden test for EXPLAIN ANALYZE under parallelism: the plan renders a
/// `Parallel:` summary plus one `Worker i:` line per worker, the
/// per-worker row actuals sum exactly to the scan node's actual rows, and
/// that total matches the serial (workers=1) run of the same query.
#[test]
fn explain_analyze_parallel_worker_actuals_reconcile() {
    let mut db = db();
    db.execute("CREATE TABLE names (name UNITEXT)").unwrap();
    // A table big enough to cross the planner's parallel gate.
    for i in 0..6000 {
        let n = match i % 4 {
            0 => "Nehru",
            1 => "Gandhi",
            2 => "Miller",
            _ => "Krishnan",
        };
        db.execute(&format!(
            "INSERT INTO names VALUES (unitext('{n}{i}','English'))"
        ))
        .unwrap();
    }
    db.execute("ANALYZE names").unwrap();
    db.execute("SET lexequal.threshold = 1").unwrap();
    let sql = "EXPLAIN ANALYZE SELECT count(*) FROM names \
               WHERE name LEXEQUAL unitext('Nehru1','English')";

    // Serial reference.
    db.execute("SET parallel_workers = 1").unwrap();
    let serial = db.execute(sql).unwrap().explain.expect("explain text");
    assert!(
        serial.contains("Seq Scan on names") && !serial.contains("Parallel Seq Scan"),
        "serial plan expected:\n{serial}"
    );
    let serial_scan_rows = node_actuals(&serial)
        .into_iter()
        .find(|(_, l)| l.contains("Seq Scan on names"))
        .expect("scan node")
        .0;

    // Parallel run of the identical query.
    db.execute("SET parallel_workers = 4").unwrap();
    let text = db.execute(sql).unwrap().explain.expect("explain text");
    assert!(
        text.contains("Parallel Seq Scan on names  (workers=4)"),
        "parallel plan expected:\n{text}"
    );
    let par_scan_rows = node_actuals(&text)
        .into_iter()
        .find(|(_, l)| l.contains("Parallel Seq Scan on names"))
        .expect("parallel scan node")
        .0;
    assert_eq!(par_scan_rows, serial_scan_rows, "{text}");

    // The Parallel: summary line.
    let summary = text
        .lines()
        .find(|l| l.starts_with("Parallel: "))
        .unwrap_or_else(|| panic!("missing Parallel: line:\n{text}"));
    assert!(summary.contains("workers=4"), "{summary}");
    assert!(summary.contains("gather_wait="), "{summary}");
    let morsels: u64 = summary
        .split("morsels=")
        .nth(1)
        .unwrap()
        .chars()
        .take_while(|c| c.is_ascii_digit())
        .collect::<String>()
        .parse()
        .unwrap();
    assert!(morsels >= 1, "{summary}");

    // Per-worker actuals: one line each, rows summing to the scan total.
    let workers: Vec<(u64, f64)> = text
        .lines()
        .filter(|l| l.trim_start().starts_with("Worker "))
        .map(|l| {
            let rows: u64 = l
                .split("rows=")
                .nth(1)
                .unwrap()
                .chars()
                .take_while(|c| c.is_ascii_digit())
                .collect::<String>()
                .parse()
                .unwrap();
            let time: f64 = l
                .split("time=")
                .nth(1)
                .unwrap()
                .trim_end_matches("ms")
                .parse()
                .unwrap();
            (rows, time)
        })
        .collect();
    assert_eq!(workers.len(), 4, "one actuals line per worker:\n{text}");
    let worker_row_sum: u64 = workers.iter().map(|(r, _)| r).sum();
    assert_eq!(
        worker_row_sum, serial_scan_rows,
        "per-worker rows must sum to the serial scan total:\n{text}"
    );
    assert!(
        workers.iter().all(|(_, t)| *t >= 0.0),
        "worker times must parse:\n{text}"
    );
}

/// Golden test for the live activity view: while one session loops a
/// parallel ψ scan, a second session polls `SHOW ACTIVITY` and must
/// observe the statement mid-execution — stage `execute`, the parallel
/// workers it claimed, and rows accumulating — without ever blocking it.
#[test]
fn show_activity_observes_live_parallel_scan_from_second_session() {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::time::{Duration, Instant};

    let mut db = db();
    db.execute("CREATE TABLE names (name UNITEXT)").unwrap();
    for i in 0..6000 {
        let n = match i % 4 {
            0 => "Nehru",
            1 => "Gandhi",
            2 => "Miller",
            _ => "Krishnan",
        };
        db.execute(&format!(
            "INSERT INTO names VALUES (unitext('{n}{i}','English'))"
        ))
        .unwrap();
    }
    db.execute("ANALYZE names").unwrap();
    db.execute("SET lexequal.threshold = 2").unwrap();
    db.execute("SET parallel_workers = 4").unwrap();
    // Returning rows (not an aggregate) so the activity row counter moves
    // while the scan hands out worker rows batch by batch.
    let sql = "SELECT name FROM names WHERE name LEXEQUAL unitext('Nehru1','English')";

    // The observer is a *different* session on the same engine.
    let mut observer = db.connect();
    let scanner_id = db.session_id() as i64;
    let stop = AtomicBool::new(false);
    let (mut saw_execute, mut saw_workers, mut saw_rows) = (false, false, false);
    let mut saw_sql = false;

    std::thread::scope(|scope| {
        let stop = &stop;
        let worker = scope.spawn(move || {
            let mut n = 0u64;
            while !stop.load(Ordering::Relaxed) {
                let rows = db.query(sql).unwrap();
                assert!(!rows.is_empty(), "Nehru1 matches itself at k=2");
                n += 1;
            }
            n
        });

        let deadline = Instant::now() + Duration::from_secs(10);
        while Instant::now() < deadline && !(saw_execute && saw_workers && saw_rows) {
            let shown = observer.execute("SHOW ACTIVITY").unwrap();
            // Columns: session_id, query_id, txn, stage, rows, workers,
            // elapsed_ms, sql.
            for row in &shown.rows {
                let stage = row[3].as_text().unwrap();
                let rows_so_far = row[4].as_int().unwrap();
                let workers = row[5].as_int().unwrap();
                let snippet = row[7].as_text().unwrap();
                if !snippet.contains("LEXEQUAL") {
                    continue; // the observer's own SHOW ACTIVITY row
                }
                saw_sql = true;
                assert_eq!(
                    row[0].as_int(),
                    Some(scanner_id),
                    "names the scanning session"
                );
                assert_eq!(
                    row[2].as_int(),
                    Some(0),
                    "autocommit statements report txn = 0"
                );
                if stage == "execute" {
                    saw_execute = true;
                    assert!(
                        row[6].as_float().unwrap() >= 0.0,
                        "elapsed must be non-negative"
                    );
                    assert!(row[1].as_int().unwrap() > 0, "query id assigned");
                }
                if workers >= 2 {
                    saw_workers = true;
                }
                if rows_so_far > 0 {
                    saw_rows = true;
                }
            }
            std::thread::sleep(Duration::from_micros(200));
        }
        stop.store(true, Ordering::Relaxed);
        let iterations = worker.join().unwrap();
        assert!(iterations > 0, "the observed session made progress");
    });

    assert!(saw_sql, "observer never saw the ψ statement at all");
    assert!(saw_execute, "never observed stage=execute");
    assert!(saw_workers, "never observed the claimed parallel workers");
    assert!(saw_rows, "never observed rows-so-far > 0");
}

/// EXPLAIN ANALYZE's span tree reconciles with its printed actuals: the
/// `execute` stage carries one child per plan operator (inclusive times
/// bounded by the stage) plus a per-worker subtree whose spans mirror the
/// `Worker i:` trailer lines.
#[test]
fn explain_analyze_span_tree_reconciles_with_worker_actuals() {
    let mut db = db();
    db.execute("CREATE TABLE names (name UNITEXT)").unwrap();
    for i in 0..6000 {
        db.execute(&format!(
            "INSERT INTO names VALUES (unitext('Nehru{i}','English'))"
        ))
        .unwrap();
    }
    db.execute("ANALYZE names").unwrap();
    db.execute("SET lexequal.threshold = 1").unwrap();
    db.execute("SET parallel_workers = 4").unwrap();

    let r = db
        .execute(
            "EXPLAIN ANALYZE SELECT count(*) FROM names \
             WHERE name LEXEQUAL unitext('Nehru1','English')",
        )
        .unwrap();
    let text = r.explain.expect("explain text");
    assert!(text.contains("Parallel Seq Scan"), "{text}");
    let trace = r.stats.trace.expect("trace rides on RunStats");
    assert!(trace.query_id() > 0, "trace tagged with its query id");
    assert!(
        r.stats.plan_digest.unwrap_or(0) != 0,
        "plan digest recorded"
    );

    let execute = trace
        .spans()
        .iter()
        .find(|s| s.name == "execute")
        .expect("execute stage span");
    assert!(
        !execute.children.is_empty(),
        "execute span must carry the operator tree:\n{}",
        trace.render_tree()
    );

    // Child 0 is the plan's span tree, pre-order, inclusive times.
    let op_root = &execute.children[0];
    assert!(
        op_root.name.starts_with("Aggregate"),
        "plan root is the count(*): {}",
        trace.render_tree()
    );
    assert_eq!(op_root.children.len(), 1, "aggregate has one input");
    // Inclusive times nest all the way down to the scan leaf.
    assert!(
        op_root.duration <= execute.duration,
        "operator time is contained in the stage time"
    );
    let mut node = op_root;
    loop {
        for c in &node.children {
            assert!(c.duration <= node.duration, "inclusive times nest");
        }
        if node.name.starts_with("Parallel Seq Scan") {
            break;
        }
        node = node
            .children
            .first()
            .unwrap_or_else(|| panic!("no scan leaf in:\n{}", trace.render_tree()));
    }

    // The per-worker subtree mirrors the printed `Worker i:` lines.
    let scan_spans: Vec<_> = execute
        .children
        .iter()
        .filter(|s| s.name.starts_with("parallel scan"))
        .collect();
    assert_eq!(scan_spans.len(), 1, "{}", trace.render_tree());
    let workers = &scan_spans[0].children;
    assert_eq!(workers.len(), 4, "one span per worker");
    let span_sum: std::time::Duration = workers.iter().map(|w| w.duration).sum();
    assert_eq!(
        span_sum, scan_spans[0].duration,
        "worker spans sum to the scan subtree total"
    );
    let printed: Vec<f64> = text
        .lines()
        .filter(|l| l.trim_start().starts_with("Worker "))
        .map(|l| {
            l.split("time=")
                .nth(1)
                .unwrap()
                .trim_end_matches("ms")
                .parse()
                .unwrap()
        })
        .collect();
    assert_eq!(printed.len(), workers.len(), "{text}");
    for (w, p) in workers.iter().zip(&printed) {
        let span_ms = w.duration.as_secs_f64() * 1e3;
        assert!(
            (span_ms - p).abs() < 0.002,
            "span {span_ms:.3}ms vs printed {p:.3}ms:\n{text}"
        );
    }
}

/// The flight recorder captures completed statements according to
/// `slow_query_ms`, and `SHOW FLIGHT_RECORDER` exposes them.
#[test]
fn flight_recorder_respects_slow_query_ms_threshold() {
    let mut db = db();
    db.execute("CREATE TABLE t (a INT)").unwrap();
    db.execute("INSERT INTO t VALUES (1), (2), (3)").unwrap();

    // Default (0): everything is recorded.
    db.query("SELECT a FROM t WHERE a = 2").unwrap();
    let shown = db.execute("SHOW FLIGHT RECORDER").unwrap();
    assert_eq!(shown.schema.columns()[0].name, "flight_record");
    let records: Vec<String> = shown
        .rows
        .iter()
        .map(|r| r[0].as_text().unwrap().to_string())
        .collect();
    assert!(
        records.iter().any(|r| r.contains("WHERE a = 2")),
        "recorded statement visible: {records:?}"
    );
    let with_digest = records.iter().find(|r| r.contains("WHERE a = 2")).unwrap();
    assert!(with_digest.contains("\"plan_digest\":\""), "{with_digest}");
    assert!(with_digest.contains("\"trace\":{"), "{with_digest}");
    assert!(with_digest.contains("\"waits\":"), "{with_digest}");

    // Negative threshold: record nothing.
    db.execute("SET slow_query_ms = -1").unwrap();
    db.query("SELECT a FROM t WHERE a = 3").unwrap();
    let shown = db.execute("SHOW FLIGHT_RECORDER").unwrap();
    assert!(
        !shown
            .rows
            .iter()
            .any(|r| r[0].as_text().unwrap().contains("WHERE a = 3")),
        "threshold -1 must suppress recording"
    );

    // A high threshold filters fast statements too.
    db.execute("SET slow_query_ms = 60000").unwrap();
    db.query("SELECT a FROM t WHERE a = 1").unwrap();
    let shown = db.execute("SHOW FLIGHT_RECORDER").unwrap();
    assert!(
        !shown
            .rows
            .iter()
            .any(|r| r[0].as_text().unwrap().contains("WHERE a = 1")),
        "sub-threshold statements are not recorded"
    );
}

/// Golden test for the batch execution spine: every annotated node prints
/// a `batches=` counter, the scan's count reconciles with its row count
/// under the session batch size (ceil(rows/batch_size) ≤ batches ≤ rows,
/// since producers never emit empty or oversized batches), the query-level
/// trailer and RunStats carry the root batch count, flight-recorder
/// records persist it, and the degenerate `SET batch_size = 1` makes
/// every node's batch count equal its row count.
#[test]
fn explain_analyze_batch_counters_reconcile_with_rows() {
    let mut db = db();
    db.execute("CREATE TABLE names (name UNITEXT)").unwrap();
    for i in 0..1000 {
        db.execute(&format!(
            "INSERT INTO names VALUES (unitext('Nehru{i}','English'))"
        ))
        .unwrap();
    }
    db.execute("ANALYZE names").unwrap();
    db.execute("SET lexequal.threshold = 1").unwrap();
    db.execute("SET batch_size = 128").unwrap();
    db.execute("SET parallel_workers = 1").unwrap();

    let batches_of = |line: &str| field(line, "batches=");

    let sql = "EXPLAIN ANALYZE SELECT name FROM names \
               WHERE name LEXEQUAL unitext('Nehru7','English')";
    let r = db.execute(sql).unwrap();
    let text = r.explain.expect("explain text");
    let nodes = node_actuals(&text);
    assert!(!nodes.is_empty(), "{text}");
    for (_, line) in &nodes {
        assert!(line.contains("batches="), "{line}");
    }

    // The scan leaf is batch-driven: every batch it emits is non-empty
    // and capped at batch_size, so the counter brackets against rows.
    let (scan_rows, scan_line) = nodes
        .iter()
        .find(|(_, l)| l.contains("Seq Scan on names"))
        .expect("scan node");
    assert!(*scan_rows > 0, "Nehru7 matches at least itself:\n{text}");
    let scan_batches = batches_of(scan_line);
    assert!(
        scan_batches >= scan_rows.div_ceil(128),
        "too few batches for rows={scan_rows}: {scan_line}"
    );
    assert!(scan_batches <= *scan_rows, "{scan_line}");

    // Query-level trailer and RunStats agree on the root batch count.
    let trailer = text
        .lines()
        .find(|l| l.starts_with("Actual: "))
        .unwrap_or_else(|| panic!("missing Actual: trailer:\n{text}"));
    let root_batches = batches_of(trailer);
    assert!(root_batches >= 1, "{trailer}");
    assert_eq!(r.stats.batches, root_batches, "{trailer}");

    // A plain run of the same predicate leaves a flight record carrying
    // the batch count alongside rows.
    db.query("SELECT name FROM names WHERE name LEXEQUAL unitext('Nehru7','English')")
        .unwrap();
    let shown = db.execute("SHOW FLIGHT_RECORDER").unwrap();
    let rec = shown
        .rows
        .iter()
        .map(|row| row[0].as_text().unwrap().to_string())
        .rfind(|j| j.contains("Nehru7") && !j.contains("EXPLAIN"))
        .expect("flight record of the batch-mode query");
    assert!(rec.contains("\"batches\":"), "{rec}");
    assert!(
        batches_of(&rec.replace("\"batches\":", "batches=")) >= 1,
        "{rec}"
    );

    // Unfiltered, the serial scan hands out full batches: only the last
    // one is short.
    let text = db
        .execute("EXPLAIN ANALYZE SELECT name FROM names")
        .unwrap()
        .explain
        .expect("explain text");
    let (rows, line) = node_actuals(&text)
        .into_iter()
        .find(|(_, l)| l.contains("Seq Scan on names"))
        .expect("scan node");
    assert_eq!(rows, 1000, "{text}");
    assert_eq!(batches_of(&line), rows.div_ceil(128), "{line}");

    // One-row batches: every node emits exactly as many batches as rows,
    // and the rows are the same.
    db.execute("SET batch_size = 1").unwrap();
    let r2 = db.execute(sql).unwrap();
    let text2 = r2.explain.expect("explain text");
    let nodes2 = node_actuals(&text2);
    for (rows, line) in &nodes2 {
        assert_eq!(batches_of(line), *rows, "batch_size = 1: {line}");
    }
    let (scan_rows2, _) = nodes2
        .iter()
        .find(|(_, l)| l.contains("Seq Scan on names"))
        .expect("scan node");
    assert_eq!(scan_rows2, scan_rows, "batch sizes agree on rows");
    assert_eq!(r2.stats.batches, *scan_rows);
}

/// Wait-event instrumentation: contended catalog acquisition surfaces in
/// both the per-class global histogram and the query's own wait profile.
#[test]
fn wait_events_are_charged_to_global_histograms() {
    let mut db = db();
    db.execute("CREATE TABLE t (a INT)").unwrap();
    db.execute("INSERT INTO t VALUES (1)").unwrap();
    db.query("SELECT count(*) FROM t").unwrap();
    // All four wait classes are registered up front, so the Prometheus
    // surface always shows them (count may be 0 on an idle engine).
    let prom = obs::global().render_prometheus();
    for class in [
        "mlql_wait_catalog_seconds",
        "mlql_wait_buffer_pool_seconds",
        "mlql_wait_wal_commit_seconds",
        "mlql_wait_index_read_seconds",
    ] {
        assert!(prom.contains(class), "missing {class}");
    }
}

/// Satellite fix: sub-one row estimates print as `rows=<1` instead of
/// being truncated to `rows=0` (two unique-column equality conjuncts on
/// a 20-row table estimate 20 · 1/20 · 1/20 = 0.05 rows).
#[test]
fn explain_renders_sub_one_row_estimates() {
    let mut db = db();
    db.execute("CREATE TABLE pts (a INT, b INT)").unwrap();
    for i in 0..20 {
        db.execute(&format!("INSERT INTO pts VALUES ({i}, {i})"))
            .unwrap();
    }
    db.execute("ANALYZE pts").unwrap();
    let r = db
        .execute("EXPLAIN SELECT a FROM pts WHERE a = 5 AND b = 5")
        .unwrap();
    let text = r.explain.expect("explain text");
    assert!(text.contains("rows=<1"), "{text}");
    assert!(!text.contains("rows=0)"), "{text}");
    // Whole-number estimates keep the bare integer rendering.
    let r = db.execute("EXPLAIN SELECT a FROM pts").unwrap();
    let text = r.explain.unwrap();
    assert!(text.contains("rows=20"), "{text}");
}

/// Golden test: EXPLAIN ANALYZE annotates every node with its
/// q-error, and flags nodes whose q-error exceeds `qerror_warn` with a
/// `[MISESTIMATE]` marker once statistics go stale.
#[test]
fn explain_analyze_annotates_qerror_and_flags_misestimates() {
    let mut db = db();
    db.execute("CREATE TABLE names (name UNITEXT)").unwrap();
    for i in 0..5 {
        db.execute(&format!(
            "INSERT INTO names VALUES (unitext('Nehru{i}','English'))"
        ))
        .unwrap();
    }
    db.execute("ANALYZE names").unwrap();

    // Fresh statistics: every annotated node carries a q= field near 1
    // and nothing is flagged.
    let r = db
        .execute("EXPLAIN ANALYZE SELECT name FROM names")
        .unwrap();
    let text = r.explain.expect("explain text");
    let nodes = node_actuals(&text);
    assert!(!nodes.is_empty(), "{text}");
    for (_, line) in &nodes {
        assert!(line.contains(" q="), "{line}");
    }
    assert!(!text.contains("[MISESTIMATE]"), "{text}");

    // 200 inserts later the 5-row estimate is off by 41x; a strict
    // qerror_warn flags the scan.
    for i in 0..200 {
        db.execute(&format!(
            "INSERT INTO names VALUES (unitext('Gandhi{i}','English'))"
        ))
        .unwrap();
    }
    db.execute("SET qerror_warn = 5").unwrap();
    let r = db
        .execute("EXPLAIN ANALYZE SELECT name FROM names")
        .unwrap();
    let text = r.explain.unwrap();
    let flagged: Vec<&str> = text
        .lines()
        .filter(|l| l.contains("[MISESTIMATE]"))
        .collect();
    assert!(!flagged.is_empty(), "stale stats must be flagged:\n{text}");
    assert!(
        flagged.iter().any(|l| l.contains("Seq Scan on names")),
        "the scan carries the misestimate:\n{text}"
    );
    // The printed q-error itself crosses the threshold.
    let q: f64 = flagged[0]
        .split(" q=")
        .nth(1)
        .unwrap()
        .chars()
        .take_while(|c| c.is_ascii_digit() || *c == '.')
        .collect::<String>()
        .parse()
        .unwrap();
    assert!(q > 5.0, "q={q} must exceed qerror_warn:\n{text}");

    // A permissive threshold silences the marker without touching q=.
    db.execute("SET qerror_warn = 1000").unwrap();
    let r = db
        .execute("EXPLAIN ANALYZE SELECT name FROM names")
        .unwrap();
    let text = r.explain.unwrap();
    assert!(text.contains(" q="), "{text}");
    assert!(!text.contains("[MISESTIMATE]"), "{text}");
}

/// Flight-recorder records of plain executions carry the optimizer's
/// estimates and the realized root q-error.
#[test]
fn flight_records_carry_estimates_and_qerror() {
    let mut db = db();
    db.execute("CREATE TABLE t (a INT)").unwrap();
    for i in 0..10 {
        db.execute(&format!("INSERT INTO t VALUES ({i})")).unwrap();
    }
    db.execute("ANALYZE t").unwrap();
    db.query("SELECT a FROM t WHERE a >= 0").unwrap();
    let shown = db.execute("SHOW FLIGHT_RECORDER").unwrap();
    let rec = shown
        .rows
        .iter()
        .map(|r| r[0].as_text().unwrap().to_string())
        .rfind(|j| j.contains("WHERE a >= 0"))
        .expect("flight record of the select");
    assert!(rec.contains("\"est_rows\":"), "{rec}");
    assert!(rec.contains("\"est_cost\":"), "{rec}");
    assert!(rec.contains("\"qerror\":"), "{rec}");
    // The estimates are numbers, not nulls, on a planned select.
    assert!(!rec.contains("\"est_rows\":null"), "{rec}");
    assert!(!rec.contains("\"qerror\":null"), "{rec}");
}

/// Acceptance: a mixed ψ/Ω workload populates the per-digest plan store;
/// `SHOW PLAN STATS` lists calls / mean elapsed / root q-error per plan.
#[test]
fn plan_store_aggregates_mixed_psi_omega_workload() {
    let mut db = db();
    db.execute("CREATE TABLE names (name UNITEXT)").unwrap();
    for (n, lang) in [
        ("Nehru", "English"),
        ("நேரு", "Tamil"),
        ("नेहरू", "Hindi"),
        ("Gandhi", "English"),
    ] {
        db.execute(&format!(
            "INSERT INTO names VALUES (unitext('{n}','{lang}'))"
        ))
        .unwrap();
    }
    db.execute("CREATE TABLE book (id INT, category UNITEXT)")
        .unwrap();
    for (id, cat) in [(1, "History"), (2, "Historiography"), (3, "Novel")] {
        db.execute(&format!(
            "INSERT INTO book VALUES ({id}, unitext('{cat}','English'))"
        ))
        .unwrap();
    }
    db.execute("ANALYZE").unwrap();
    db.execute("SET lexequal.threshold = 2").unwrap();

    let psi = "SELECT count(*) FROM names WHERE name LEXEQUAL unitext('Nehru','English')";
    let omega = "SELECT count(*) FROM book WHERE category SEMEQUAL unitext('History','English')";
    for _ in 0..3 {
        db.query(psi).unwrap();
    }
    for _ in 0..2 {
        db.query(omega).unwrap();
    }

    let shown = db.execute("SHOW PLAN STATS").unwrap();
    let cols: Vec<&str> = shown
        .schema
        .columns()
        .iter()
        .map(|c| c.name.as_str())
        .collect();
    assert_eq!(
        cols,
        [
            "plan_digest",
            "root",
            "calls",
            "mean_ms",
            "max_ms",
            "est_cost",
            "est_rows",
            "last_rows",
            "qerror_last",
            "qerror_max"
        ]
    );
    // Sorted by calls desc: the ψ plan leads with 3 calls, the Ω plan
    // follows with 2; both realized one aggregate row.
    assert!(shown.rows.len() >= 2, "two distinct plan digests");
    let calls: Vec<i64> = shown.rows.iter().map(|r| r[2].as_int().unwrap()).collect();
    assert_eq!(calls[0], 3, "{calls:?}");
    assert!(calls.contains(&2), "{calls:?}");
    for row in shown.rows.iter().take(2) {
        assert_eq!(row[0].as_text().unwrap().len(), 16, "digest is hex16");
        assert!(row[3].as_float().unwrap() >= 0.0, "mean_ms");
        assert_eq!(row[7].as_int(), Some(1), "count(*) realizes one row");
        assert!(row[8].as_float().unwrap() >= 1.0, "qerror_last >= 1");
        assert!(row[9].as_float().unwrap() >= row[8].as_float().unwrap() - 1e-9);
    }
}

/// Acceptance: repeated scans whose realized q-error stays above
/// `qerror_warn` raise a stale-statistics advisory naming the table; a
/// bare `ANALYZE` refreshes statistics and clears it.
#[test]
fn stale_statistics_advisory_raises_and_analyze_clears_it() {
    let mut db = db();
    db.execute("CREATE TABLE skew (a INT)").unwrap();
    for i in 0..5 {
        db.execute(&format!("INSERT INTO skew VALUES ({i})"))
            .unwrap();
    }
    db.execute("ANALYZE skew").unwrap();
    // The table then grows 100x without a re-ANALYZE.
    for i in 5..500 {
        db.execute(&format!("INSERT INTO skew VALUES ({i})"))
            .unwrap();
    }
    db.execute("SET qerror_warn = 4").unwrap();

    let advisories_shown = |db: &mut Session| {
        let r = db.execute("SHOW ADVISORIES").unwrap();
        r.rows
            .iter()
            .map(|row| {
                (
                    row[0].as_text().unwrap().to_string(),
                    row[1].as_float().unwrap(),
                    row[3].as_text().unwrap().to_string(),
                )
            })
            .collect::<Vec<_>>()
    };

    let raised_before = obs::metrics().stats_advisories_total.get();
    // The advisor wants a full window of consecutive over-threshold
    // scans before raising.
    db.query("SELECT a FROM skew").unwrap();
    assert!(
        advisories_shown(&mut db).is_empty(),
        "one bad scan is not yet advisory-worthy"
    );
    db.query("SELECT a FROM skew").unwrap();
    db.query("SELECT a FROM skew").unwrap();
    let advs = advisories_shown(&mut db);
    assert_eq!(advs.len(), 1, "{advs:?}");
    let (table, qerror, recommendation) = &advs[0];
    assert_eq!(table, "skew");
    assert!(*qerror > 4.0, "q={qerror} observed over the window");
    assert_eq!(recommendation, "ANALYZE skew");
    assert_eq!(
        obs::metrics().stats_advisories_total.get(),
        raised_before + 1,
        "edge-triggered counter"
    );
    // Re-running the scan does not re-count the same standing advisory.
    db.query("SELECT a FROM skew").unwrap();
    assert_eq!(
        obs::metrics().stats_advisories_total.get(),
        raised_before + 1
    );

    // The recommended remediation — a bare ANALYZE — clears it.
    db.execute("ANALYZE").unwrap();
    assert!(advisories_shown(&mut db).is_empty(), "cleared by ANALYZE");
    // With fresh statistics the estimate is honest again, so the
    // advisory stays down even after another full window of scans.
    for _ in 0..4 {
        db.query("SELECT a FROM skew").unwrap();
    }
    assert!(advisories_shown(&mut db).is_empty());
}
