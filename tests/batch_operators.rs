//! Batch-contract tests for the operators that emit from their own state
//! rather than passing a child's batch through: heap scan (serial and
//! parallel), index scan, filter, project, nested-loops join (with and
//! without prepared inner operands), hash join, aggregate, sort, limit
//! and `VALUES`.
//!
//! Every operator honours [`Executor::next_batch`]`(ctx, max)` at any
//! `max`: it never returns an empty batch or one larger than `max`, and
//! how many rows its consumer asks for at a time changes neither which
//! rows it returns nor how many extension-operator calls it makes.  Under
//! `LIMIT n` each operator also hands out exactly the first `n` rows of
//! its unlimited result.

use mlql::kernel::exec::{build_executor, ExecCtx, ExecStats, Executor, BATCH_ROWS};
use mlql::kernel::expr::Expr;
use mlql::kernel::plan::{PhysNode, PhysOp};
use mlql::kernel::{Column, DataType, Datum, Schema, Session};
use mlql::mural::install;
use mlql::mural::types::unitext_datum;

const LIMITS: [usize; 3] = [1, 3, 50];

/// The `max` every plan root is pulled at: one row at a time, a size that
/// cuts pages, buckets and inner sides unevenly, and the engine's own.
const PULLS: [usize; 3] = [1, 3, BATCH_ROWS];

/// `a (id, grp, name)` of `a_rows` rows with an M-tree on `name`, and a
/// smaller `b (id, name)`; serial plans, threshold 2.
fn fixture(a_rows: usize) -> Session {
    let mut db = Session::new_in_memory();
    let mural = install(&mut db).unwrap();
    db.execute("CREATE TABLE a (id INT, grp INT, name UNITEXT)")
        .unwrap();
    db.execute("CREATE TABLE b (id INT, name UNITEXT)").unwrap();
    for (table, records, seed) in [("a", a_rows, 1), ("b", 30, 2)] {
        let config = mlql::datagen::NamesConfig {
            records,
            noise: 0.25,
            seed,
            // Few stems, so the Nehru probe and the ψ join select plenty.
            distinct: 10,
        };
        let data = mlql::datagen::names_dataset(&mural.langs, &config);
        for (i, rec) in data.iter().enumerate() {
            let mut row = vec![Datum::Int(i as i64)];
            if table == "a" {
                row.push(Datum::Int(i as i64 % 7));
            }
            row.push(unitext_datum(mural.unitext_type, &rec.name));
            db.insert_row(table, row).unwrap();
        }
    }
    db.execute("CREATE INDEX a_mt ON a (name) USING mtree")
        .unwrap();
    db.execute("ANALYZE a").unwrap();
    db.execute("ANALYZE b").unwrap();
    db.execute("SET parallel_workers = 1").unwrap();
    db.execute("SET lexequal.threshold = 2").unwrap();
    db
}

#[test]
fn limit_returns_the_unlimited_prefix() {
    let psi_join = "SELECT a.id, b.id FROM a, b WHERE a.name LEXEQUAL b.name";
    // (operator the plan must contain, session setup, query)
    let psi_probe = "SELECT id FROM a WHERE name LEXEQUAL unitext('Nehru','English')";
    let cases: [(&str, &[&str], &str); 6] = [
        (
            "Index Scan using a_mt",
            &["SET enable_seqscan = 0"],
            psi_probe,
        ),
        (
            "Seq Scan on a  Filter",
            &["SET enable_indexscan = 0"],
            psi_probe,
        ),
        ("Nested Loop (materialized inner)", &[], psi_join),
        (
            "Hash Join",
            &[],
            "SELECT a.id, b.id FROM a, b WHERE a.grp = b.id",
        ),
        (
            "GroupAggregate",
            &[],
            "SELECT grp, count(*) FROM a GROUP BY grp",
        ),
        ("Sort", &[], "SELECT id FROM a ORDER BY id DESC"),
    ];
    let db = fixture(120);
    for (operator, setup, sql) in cases {
        let mut s = db.connect();
        for stmt in setup {
            s.execute(stmt).unwrap();
        }
        let full = s.execute(sql).unwrap();
        let plan = full.explain.as_deref().unwrap_or_default();
        assert!(plan.contains(operator), "{sql}:\n{plan}");
        assert!(full.rows.len() > 3, "{sql}: fixture too small");
        for n in LIMITS {
            let limited = s.execute(&format!("{sql} LIMIT {n}")).unwrap();
            let want = &full.rows[..n.min(full.rows.len())];
            assert_eq!(limited.rows, want, "{operator}: LIMIT {n}");
        }
    }
}

/// Pull `plan`'s root to exhaustion at `max` rows a call, asserting every
/// batch holds between 1 and `max` rows.  Returns the rows (as sorted
/// debug strings, a multiset) and the extension-operator calls.  Pulling
/// stops once it has more than `cap` rows, so an operator that repeats
/// rows forever fails the comparison instead of hanging.
fn pull(db: &Session, plan: &PhysNode, max: usize, cap: usize) -> (Vec<String>, u64) {
    let catalog = db.engine().catalog();
    let stats = ExecStats::default();
    let ctx = ExecCtx {
        catalog: &catalog,
        pool: db.engine().pool(),
        session: db.vars(),
        stats: &stats,
        vis: db.engine().fresh_visibility(),
    };
    let mut root: Box<dyn Executor> = build_executor(plan, &ctx).unwrap();
    let mut rows = Vec::new();
    while let Some(batch) = root.next_batch(&ctx, max).unwrap() {
        let n = batch.len();
        assert!(n >= 1 && n <= max, "a batch of {n} rows at max {max}");
        rows.extend(batch.rows.iter().map(|r| format!("{r:?}")));
        if rows.len() > cap {
            break;
        }
    }
    rows.sort();
    (rows, stats.ext_op_calls.get())
}

fn node(op: PhysOp, schema: Schema) -> PhysNode {
    PhysNode {
        op,
        est_rows: 0.0,
        est_cost: 0.0,
        schema,
    }
}

/// The batch contract, operator by operator: every plan root pulled at
/// every `max` in [`PULLS`] returns only batches of 1..=`max` rows, the
/// same multiset of rows and the same `ext_op_calls`.  The scanned table
/// spans several parallel morsels, and every page, M-tree hit list,
/// hash bucket and nested-loop inner side holds more rows than the
/// smaller `max`es, so each operator has to resume a cut in the middle.
#[test]
fn every_operator_honours_any_batch_max() {
    let mut db = fixture(1_200);
    db.execute("CREATE TABLE k (id INT, grp INT)").unwrap();
    for i in 0..60 {
        db.insert_row("k", vec![Datum::Int(i), Datum::Int(i % 4)])
            .unwrap();
    }
    db.execute("ANALYZE k").unwrap();
    let psi_scan = "SELECT * FROM a WHERE name LEXEQUAL unitext('Nehru','English')";
    let plan = |db: &mut Session, setup: &[&str], sql: &str| {
        for stmt in ["SET enable_seqscan = 1", "SET enable_indexscan = 1"]
            .iter()
            .chain(setup)
        {
            db.execute(stmt).unwrap();
        }
        db.plan_select(sql).unwrap()
    };

    // (what the plan must show, the plan)
    let mut cases: Vec<(&str, PhysNode)> = Vec::new();
    // `SELECT *` plans a project over the scan; keep the scan.
    let serial = match plan(&mut db, &["SET enable_indexscan = 0"], psi_scan).op {
        PhysOp::Project { input, .. } => *input,
        other => panic!("a project, got {other:?}"),
    };
    let mut parallel = serial.clone();
    match &mut parallel.op {
        PhysOp::SeqScan { workers, .. } => *workers = 2,
        other => panic!("a ψ seq scan, got {other:?}"),
    }
    // The scan's ψ filter, run by a filter over the unfiltered scan.
    let mut unfiltered = serial.clone();
    let PhysOp::SeqScan { filter, .. } = &mut unfiltered.op else {
        unreachable!()
    };
    let predicate = filter.take().expect("a filtered scan");
    let schema = unfiltered.schema.clone();
    let filtered = node(
        PhysOp::Filter {
            input: Box::new(unfiltered),
            predicate,
        },
        schema,
    );
    cases.push(("Seq Scan on a  Filter", serial));
    cases.push(("Parallel Seq Scan on a", parallel));
    cases.push(("Filter", filtered));
    let index_probe = "SELECT id + 1, name FROM a WHERE name LEXEQUAL unitext('Nehru','English')";
    cases.push((
        "Index Scan using a_mt",
        plan(&mut db, &["SET enable_seqscan = 0"], index_probe),
    ));
    cases.push((
        "Nested Loop",
        plan(
            &mut db,
            &[],
            "SELECT a.id, b.id FROM a, b WHERE a.name LEXEQUAL b.name",
        ),
    ));
    cases.push((
        "Nested Loop",
        plan(
            &mut db,
            &[],
            "SELECT x.id, y.id FROM k x, k y WHERE x.grp < y.id",
        ),
    ));
    cases.push((
        "Hash Join",
        plan(
            &mut db,
            &[],
            "SELECT x.id, y.id FROM k x, k y WHERE x.grp = y.grp",
        ),
    ));
    cases.push((
        "GroupAggregate",
        plan(&mut db, &[], "SELECT grp, count(*) FROM a GROUP BY grp"),
    ));
    cases.push((
        "Sort",
        plan(&mut db, &[], "SELECT id FROM a ORDER BY id DESC"),
    ));
    cases.push((
        "Limit",
        plan(
            &mut db,
            &["SET enable_indexscan = 0"],
            &format!("{psi_scan} LIMIT 5"),
        ),
    ));
    let values = node(
        PhysOp::Values {
            rows: (0..7).map(|i| vec![Expr::Literal(Datum::Int(i))]).collect(),
        },
        Schema::new(vec![Column::new("v", DataType::Int)]),
    );
    let schema = values.schema.clone();
    cases.push((
        "Limit",
        node(
            PhysOp::Limit {
                input: Box::new(values),
                n: 5,
            },
            schema,
        ),
    ));

    for (shows, plan) in &cases {
        let text = plan.explain();
        assert!(text.contains(shows), "want {shows}:\n{text}");
        let (want, want_calls) = pull(&db, plan, BATCH_ROWS, usize::MAX);
        assert!(want.len() > 3, "fixture too small:\n{text}");
        for max in PULLS {
            let (got, calls) = pull(&db, plan, max, want.len());
            assert_eq!(got, want, "rows differ at max {max}:\n{text}");
            assert_eq!(
                calls, want_calls,
                "ext_op_calls differ at max {max}:\n{text}"
            );
        }
    }
}
