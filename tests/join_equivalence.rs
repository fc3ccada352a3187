//! Join-predicate equivalence: a ψ or Ω join returns exactly the pairs
//! its predicate accepts, whatever the worker count.
//!
//! The executor binds a join predicate to each outer row and runs it over
//! a whole batch of inner rows (`Expr::bind_outer` + `Expr::eval_batch`),
//! swapping a commutative operator's operands when the outer side was on
//! the left.  The oracle here is the definition instead: the scalar
//! `Expr::eval` of the *unbound* predicate over every concatenated pair
//! `a ++ b`.  Results must match as multisets, and so must the work
//! counters — `ext_op_calls` per statement and the process-wide
//! `mlql_psi_distance_calls_total` — since the batch path may hoist setup
//! but never skip or repeat a pair.
//!
//! Tables are random per seed: UniText names across scripts (some NULL,
//! some in no known language, so without a phoneme cache), INT keys (some
//! NULL) and taxonomy categories.  The vendored proptest shim does not
//! shrink, so this is a seeded loop and every failure names its seed.
//!
//! One `#[test]` runs ψ: the ψ distance counter is process-wide, and a
//! second ψ test running beside it would move it.  The other test joins
//! on an INT operator of its own, to count how often a nested loop
//! prepares its inner side.

use mlql::kernel::catalog::{ExtOperator, OperatorKind, PreparedOperands, SessionVars};
use mlql::kernel::exec::{ExecStats, BATCH_ROWS};
use mlql::kernel::expr::{CmpOp, EvalCtx, Expr};
use mlql::kernel::{DataType, Datum, DatumRef, Session};
use mlql::mural::install;
use mlql::mural::types::unitext_datum;
use mlql::unitext::{LangId, UniText};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Seeds tried.
const CASES: u64 = 32;

/// Worker counts every predicate runs at.
const WORKERS: [usize; 2] = [1, 4];

/// Names: cross-script homophones and near-misses, so ψ matches at small
/// thresholds occur.  `None` is a language the engine has no converter
/// for — its values carry no phoneme cache.
const NAMES: [(&str, Option<&str>); 16] = [
    ("Nehru", Some("English")),
    ("Neru", Some("English")),
    ("Nehrou", Some("French")),
    ("नेहरू", Some("Hindi")),
    ("நேரு", Some("Tamil")),
    ("Gandhi", Some("English")),
    ("Gandi", Some("Spanish")),
    ("गांधी", Some("Hindi")),
    ("Kumar", Some("English")),
    ("Kumaran", Some("English")),
    ("कुमार", Some("Hindi")),
    ("Ravi", Some("German")),
    ("रवि", Some("Hindi")),
    ("Rao", Some("English")),
    ("Nehru", None),
    ("Zed", None),
];

/// Categories: words of the installed Books taxonomy in three languages,
/// and one word it does not know.
const CATEGORIES: [(&str, &str); 9] = [
    ("History", "English"),
    ("Historiography", "English"),
    ("Autobiography", "English"),
    ("Biography", "English"),
    ("Novel", "English"),
    ("Fiction", "English"),
    ("Histoire", "French"),
    ("சரித்திரம்", "Tamil"),
    ("Gardening", "English"),
];

/// Columns of `a ++ b`: `a(k, name, cat)` then `b(k, name, cat)`.
const A_K: usize = 0;
const A_NAME: usize = 1;
const A_CAT: usize = 2;
const B_K: usize = 3;
const B_NAME: usize = 4;
const B_CAT: usize = 5;

fn col(index: usize, ty: DataType) -> Box<Expr> {
    Box::new(Expr::ColRef {
        index,
        ty,
        name: format!("c{index}"),
    })
}

fn ext(name: &str, l: usize, r: usize, ty: DataType, modifiers: &[&str]) -> Expr {
    Expr::ExtOp {
        name: name.into(),
        left: col(l, ty),
        right: col(r, ty),
        modifiers: modifiers.iter().map(|m| m.to_string()).collect(),
    }
}

/// A predicate under test: its SQL, the same predicate as an expression
/// over `a ++ b`, and the equi-key conjunct a hash join may split off.
struct Case {
    sql: &'static str,
    pred: Expr,
    /// A hash join visits only the pairs whose keys are equal: a pair
    /// with a NULL key is never a candidate, so its residual is never
    /// evaluated (or counted), where the scalar `AND` would evaluate it.
    hash_key: Option<Expr>,
}

/// The predicates under test.
fn predicates(unitext: DataType) -> Vec<Case> {
    let psi = || ext("lexequal", A_NAME, B_NAME, unitext, &[]);
    let keys = |op| Expr::Cmp {
        op,
        left: col(A_K, DataType::Int),
        right: col(B_K, DataType::Int),
    };
    let case = |sql, pred| Case {
        sql,
        pred,
        hash_key: None,
    };
    vec![
        case("a.name LEXEQUAL b.name", psi()),
        case(
            "a.cat SEMEQUAL b.cat",
            ext("semequal", A_CAT, B_CAT, unitext, &[]),
        ),
        case(
            "b.cat SEMEQUAL a.cat",
            ext("semequal", B_CAT, A_CAT, unitext, &[]),
        ),
        case(
            "a.name LEXEQUAL b.name IN (English, Hindi)",
            ext("lexequal", A_NAME, B_NAME, unitext, &["English", "Hindi"]),
        ),
        Case {
            sql: "a.k = b.k AND a.name LEXEQUAL b.name",
            pred: Expr::And(Box::new(keys(CmpOp::Eq)), Box::new(psi())),
            hash_key: Some(keys(CmpOp::Eq)),
        },
        case(
            "a.name LEXEQUAL b.name OR a.k < b.k",
            Expr::Or(Box::new(psi()), Box::new(keys(CmpOp::Lt))),
        ),
        case("NOT (a.name LEXEQUAL b.name)", Expr::Not(Box::new(psi()))),
        // ψ leads, so the nested loop runs it over the prepared inner
        // names, and AND-s the key comparison onto its verdicts.
        case(
            "a.name LEXEQUAL b.name AND a.k < b.k",
            Expr::And(Box::new(psi()), Box::new(keys(CmpOp::Lt))),
        ),
    ]
}

/// What the oracle found for one predicate: the accepted pairs, and the
/// work counters of evaluating it pair by pair.
struct Oracle {
    rows: Vec<String>,
    ext_op_calls: u64,
    psi_distance_calls: u64,
}

/// Evaluate `pred` with the scalar evaluator over every pair of
/// `a_rows × b_rows` for which `candidate` is true (every pair when it
/// is `None`).
fn oracle(
    db: &Session,
    a_rows: &[Vec<Datum>],
    b_rows: &[Vec<Datum>],
    pred: &Expr,
    candidate: Option<&Expr>,
) -> Oracle {
    let catalog = db.engine().catalog();
    let plain = EvalCtx::new(&catalog, db.vars());
    let stats = ExecStats::default();
    let ctx = EvalCtx {
        stats: Some(&stats),
        ..EvalCtx::new(&catalog, db.vars())
    };
    let psi_before = psi_distance_calls();
    let mut rows = Vec::new();
    for ra in a_rows {
        for rb in b_rows {
            let pair: Vec<Datum> = ra.iter().chain(rb).cloned().collect();
            if let Some(c) = candidate {
                if !c.eval(&pair, &plain).unwrap().is_true() {
                    continue;
                }
            }
            if pred.eval(&pair, &ctx).unwrap().is_true() {
                rows.push(pair);
            }
        }
    }
    Oracle {
        rows: sorted(rows),
        ext_op_calls: stats.ext_op_calls.get(),
        psi_distance_calls: psi_distance_calls() - psi_before,
    }
}

/// Fill `table (k INT, name UNITEXT, cat UNITEXT)` with `rows` random rows.
fn load(db: &mut Session, mural: &mlql::mural::Mural, table: &str, rows: usize, rng: &mut StdRng) {
    db.execute(&format!(
        "CREATE TABLE {table} (k INT, name UNITEXT, cat UNITEXT)"
    ))
    .unwrap();
    let datum =
        |text: &str, lang: LangId| unitext_datum(mural.unitext_type, &UniText::compose(text, lang));
    for _ in 0..rows {
        let k = if rng.gen_bool(0.1) {
            Datum::Null
        } else {
            Datum::Int(rng.gen_range(0..4))
        };
        let name = if rng.gen_bool(0.1) {
            Datum::Null
        } else {
            let (text, lang) = NAMES[rng.gen_range(0..NAMES.len())];
            datum(text, lang.map_or(LangId::UNKNOWN, |l| mural.langs.id_of(l)))
        };
        let cat = if rng.gen_bool(0.1) {
            Datum::Null
        } else {
            let (text, lang) = CATEGORIES[rng.gen_range(0..CATEGORIES.len())];
            datum(text, mural.langs.id_of(lang))
        };
        db.insert_row(table, vec![k, name, cat]).unwrap();
    }
    db.execute(&format!("ANALYZE {table}")).unwrap();
}

/// Rows as sortable strings (`Debug` keeps extension payload bytes).
fn sorted(rows: impl IntoIterator<Item = Vec<Datum>>) -> Vec<String> {
    let mut out: Vec<String> = rows.into_iter().map(|r| format!("{r:?}")).collect();
    out.sort();
    out
}

fn psi_distance_calls() -> u64 {
    mlql::kernel::obs::metrics().psi_distance_calls_total.get()
}

#[test]
fn joins_equal_their_per_pair_definition() {
    let mut plans_seen = Vec::new();
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut db = Session::new_in_memory();
        let mural = install(&mut db).unwrap();
        let unitext = DataType::Ext(mural.unitext_type);
        let (na, nb) = (rng.gen_range(1..24), rng.gen_range(1..24));
        load(&mut db, &mural, "a", na, &mut rng);
        load(&mut db, &mural, "b", nb, &mut rng);
        let threshold = rng.gen_range(0..4);
        db.execute(&format!("SET lexequal.threshold = {threshold}"))
            .unwrap();
        let a_rows = db.query("SELECT * FROM a").unwrap();
        let b_rows = db.query("SELECT * FROM b").unwrap();

        for case in predicates(unitext) {
            let nested = oracle(&db, &a_rows, &b_rows, &case.pred, None);
            let hashed = case
                .hash_key
                .as_ref()
                .map(|key| oracle(&db, &a_rows, &b_rows, &case.pred, Some(key)));
            let sql = format!("SELECT * FROM a, b WHERE {}", case.sql);
            for workers in WORKERS {
                let at = format!(
                    "seed {seed}, threshold {threshold}, {na}×{nb} rows, \
                     workers {workers}: {sql}"
                );
                let mut s = db.connect();
                s.execute(&format!("SET parallel_workers = {workers}"))
                    .unwrap();
                let psi_before = psi_distance_calls();
                let got = s.execute(&sql).unwrap();
                let got_psi = psi_distance_calls() - psi_before;
                let plan = got.explain.unwrap_or_default();
                let want = match &hashed {
                    Some(h) if plan.contains("Hash Join") => h,
                    _ => &nested,
                };
                if hashed.is_none() {
                    assert!(plan.contains("Nested Loop"), "{at}\n{plan}");
                }
                assert_eq!(sorted(got.rows), want.rows, "rows differ at {at}");
                assert_eq!(
                    got.stats.ext_op_calls, want.ext_op_calls,
                    "ext_op_calls differ at {at}\n{plan}"
                );
                assert_eq!(
                    got_psi, want.psi_distance_calls,
                    "ψ distance calls differ at {at}\n{plan}"
                );
                plans_seen.push(plan);
            }
        }
    }
    // The suite must reach both join operators, or half of it is vacuous.
    for op in ["Nested Loop", "Hash Join"] {
        assert!(
            plans_seen.iter().any(|p| p.contains(op)),
            "no plan used {op}"
        );
    }
}

/// INT operands prepared by the counting operator: the values themselves.
struct PreparedInts(Vec<i64>);

impl PreparedOperands for PreparedInts {
    fn verdicts(
        &self,
        range: Range<usize>,
        constant: &Datum,
        _: &SessionVars,
    ) -> mlql::kernel::Result<Vec<Datum>> {
        let c = constant.as_int();
        Ok(self.0[range]
            .iter()
            .map(|&v| Datum::Bool(Some(v) == c))
            .collect())
    }
}

/// Register `name` as INT equality, an extension operator with a batch
/// hook, so that a join on it has no equi-key and plans a nested loop.
/// With `prepares`, it also has a `prepare_batch` hook, which counts its
/// calls there.
fn register_int_equality(db: &Session, name: &str, prepares: Option<Arc<AtomicUsize>>) {
    let int = |v: DatumRef<'_>| match v {
        DatumRef::Int(i) => i,
        other => panic!("an INT operand, got {other:?}"),
    };
    let prepare_batch = prepares.map(|calls| {
        Arc::new(move |operands: &[DatumRef<'_>], _: &SessionVars| {
            calls.fetch_add(1, Ordering::Relaxed);
            let ints = operands.iter().map(|&v| int(v)).collect();
            Ok(Box::new(PreparedInts(ints)) as Box<dyn PreparedOperands>)
        }) as Arc<_>
    });
    db.engine().catalog_mut().register_operator(ExtOperator {
        name: name.into(),
        operand_type: DataType::Int,
        eval: Arc::new(|l, r, _| Ok(Datum::Bool(l.as_int() == r.as_int()))),
        eval_batch: Some(Arc::new(move |lefts, r, _| {
            Ok(lefts
                .iter()
                .map(|&l| Datum::Bool(Some(int(l)) == r.as_int()))
                .collect())
        })),
        prepare_batch,
        kind: OperatorKind { commutative: true },
        per_tuple_cost: Arc::new(|_, _| 1.0),
        selectivity: Arc::new(|_| 0.01),
        index_strategy: None,
        index_extra: None,
        modifier_filter: None,
        index_scan_fraction: None,
        strategy_label: None,
    });
}

/// A nested loop prepares its inner side once per execution, however many
/// outer batches arrive and however many output batches each outer row's
/// inner pass fills, and the prepared path returns the rows, and charges
/// the `ext_op_calls`, of the plain batch hook.  An empty side prepares
/// nothing.
#[test]
fn a_nested_loop_prepares_its_inner_side_once() {
    let mut db = Session::new_in_memory();
    let calls = Arc::new(AtomicUsize::new(0));
    register_int_equality(&db, "same", None);
    register_int_equality(&db, "same_prepared", Some(Arc::clone(&calls)));
    // Each side spans three batches, so either one, as the outer, arrives
    // in three, and as the inner is cut across output batches under
    // every outer row.
    let rows = 2 * BATCH_ROWS + 1;
    for table in ["o", "i", "e"] {
        db.execute(&format!("CREATE TABLE {table} (k INT, v INT)"))
            .unwrap();
    }
    // Both sides hold the same `(k, v)` rows.
    let keys: Vec<(Option<i64>, i64)> = (0..rows as i64)
        .map(|n| ((n % 7 != 3).then_some(n / 2), n % 5))
        .collect();
    for &(k, v) in &keys {
        for table in ["o", "i"] {
            let k = k.map_or(Datum::Null, Datum::Int);
            db.insert_row(table, vec![k, Datum::Int(v)]).unwrap();
        }
    }
    for table in ["o", "i", "e"] {
        db.execute(&format!("ANALYZE {table}")).unwrap();
    }
    for (rest, keep) in [("", false), (" AND o.v < i.v", true)] {
        // The join's row count, by the same predicate over the keys.
        let expect = keys
            .iter()
            .flat_map(|o| keys.iter().map(move |i| (o, i)))
            .filter(|(o, i)| o.0.is_some() && o.0 == i.0 && (!keep || o.1 < i.1))
            .count();
        let mut run = |op: &str| {
            let sql = format!("SELECT * FROM o, i WHERE o.k {op} i.k{rest}");
            let before = calls.load(Ordering::Relaxed);
            let got = db.execute(&sql).unwrap();
            let plan = got.explain.clone().unwrap_or_default();
            assert!(plan.contains("Nested Loop"), "{sql}\n{plan}");
            (got, calls.load(Ordering::Relaxed) - before)
        };
        let (plain, no_calls) = run("SAME");
        let (prepared, one_call) = run("SAME_PREPARED");
        let at = format!("{rows} rows a side, rest {rest:?}");
        assert_eq!(no_calls, 0, "{at}");
        assert_eq!(one_call, 1, "{at}");
        assert_eq!(plain.rows.len(), expect, "{at}");
        assert_eq!(sorted(prepared.rows), sorted(plain.rows), "{at}");
        assert_eq!(
            prepared.stats.ext_op_calls, plain.stats.ext_op_calls,
            "{at}"
        );
    }
    for sql in [
        "SELECT * FROM e, i WHERE e.k SAME_PREPARED i.k",
        "SELECT * FROM i, e WHERE i.k SAME_PREPARED e.k",
    ] {
        let before = calls.load(Ordering::Relaxed);
        assert!(db.query(sql).unwrap().is_empty());
        assert_eq!(calls.load(Ordering::Relaxed), before, "{sql}");
    }
}

/// A hash join whose one bucket holds more inner rows than two output
/// batches cuts that bucket across batches under every probe row that
/// hits it, and still emits each pair exactly once.
#[test]
fn a_hash_join_cuts_a_large_bucket_across_batches() {
    let mut db = Session::new_in_memory();
    let bucket = 2 * BATCH_ROWS + 1;
    for table in ["p", "h"] {
        db.execute(&format!("CREATE TABLE {table} (k INT, v INT)"))
            .unwrap();
    }
    // Every build row has key 0; three probe rows do, the rest miss.
    let hits = 3;
    for n in 0..bucket as i64 {
        db.insert_row("h", vec![Datum::Int(0), Datum::Int(n % 5)])
            .unwrap();
        let k = if n % 700 == 0 { 0 } else { n };
        db.insert_row("p", vec![Datum::Int(k), Datum::Int(n % 5)])
            .unwrap();
    }
    for table in ["p", "h"] {
        db.execute(&format!("ANALYZE {table}")).unwrap();
    }
    // The probe hits (n = 0, 700, 1400) all have `v` = 0, which 410 of
    // the 2,049 build rows share; the others pass `p.v < h.v`.
    let above = hits * (bucket - 410);
    for (rest, expect) in [("", hits * bucket), (" AND p.v < h.v", above)] {
        // The limit stops a join that re-emits its bucket forever.
        let sql = format!(
            "SELECT * FROM p, h WHERE p.k = h.k{rest} LIMIT {}",
            expect + 1
        );
        let got = db.execute(&sql).unwrap();
        let plan = got.explain.clone().unwrap_or_default();
        let (probe, build) = (plan.find("Seq Scan on p"), plan.find("Seq Scan on h"));
        assert!(
            plan.contains("Hash Join") && probe < build,
            "h must be the build side\n{plan}"
        );
        assert_eq!(got.rows.len(), expect, "{sql}");
    }
}
