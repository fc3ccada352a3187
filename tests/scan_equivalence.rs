//! Scan-filter equivalence: a heap scan returns exactly the visible rows
//! its filter accepts, whatever the worker count.
//!
//! The scan's page step runs a leading `col OP const` extension conjunct
//! on fields read straight off the page image and decodes only the rows
//! it passes; every other filter shape is decoded first and then
//! filtered.  The oracle here is the definition instead: the scalar
//! `Expr::eval` of the filter over every row of a model of the table —
//! the rows the test inserted, updated and deleted, kept outside the
//! engine, so it does not share the engine's visibility check either.
//! Results must match as multisets, and so must the work counters —
//! `ext_op_calls` per statement and the process-wide
//! `mlql_psi_distance_calls_total` — since the page step may skip
//! decoding a row but never the evaluation of a conjunct.
//!
//! Tables are random per seed: UniText names across scripts (some NULL,
//! some in no known language, so without a phoneme cache), INT ids (some
//! NULL) and taxonomy categories, with versions made invisible by
//! committed UPDATEs and DELETEs and by an open transaction's own writes.
//! The vendored proptest shim does not shrink, so this is a seeded loop
//! and every failure names its seed.
//!
//! One `#[test]` only: the ψ distance counter is process-wide, and a
//! second test running beside it would move it.

use mlql::kernel::exec::ExecStats;
use mlql::kernel::expr::{CmpOp, EvalCtx, Expr};
use mlql::kernel::{DataType, Datum, Session};
use mlql::mural::install;
use mlql::mural::types::unitext_to_bytes;
use mlql::unitext::{LangId, UniText};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Seeds tried.
const CASES: u64 = 8;

/// Worker counts every filter runs at.
const WORKERS: [usize; 3] = [1, 2, 4];

/// Names: cross-script homophones and near-misses, so ψ matches at small
/// thresholds occur.  `None` is a language the engine has no converter
/// for — its values carry no phoneme cache.
const NAMES: [(&str, Option<&str>); 14] = [
    ("Nehru", Some("English")),
    ("Neru", Some("English")),
    ("Nehrou", Some("French")),
    ("नेहरू", Some("Hindi")),
    ("நேரு", Some("Tamil")),
    ("Gandhi", Some("English")),
    ("Gandi", Some("Spanish")),
    ("गांधी", Some("Hindi")),
    ("Kumar", Some("English")),
    ("कुमार", Some("Hindi")),
    ("Ravi", Some("German")),
    ("रवि", Some("Hindi")),
    ("Nehru", None),
    ("Zed", None),
];

/// Categories: words of the installed Books taxonomy in three languages,
/// and one word it does not know.
const CATEGORIES: [(&str, &str); 7] = [
    ("History", "English"),
    ("Historiography", "English"),
    ("Biography", "English"),
    ("Fiction", "English"),
    ("Histoire", "French"),
    ("சரித்திரம்", "Tamil"),
    ("Gardening", "English"),
];

/// Columns of `t (id INT, name UNITEXT, cat UNITEXT)`.
const ID: usize = 0;
const NAME: usize = 1;
const CAT: usize = 2;

/// Ids are drawn from `0..MAX_ID`; the committed and open-transaction
/// edits below pick their victims by id.
const MAX_ID: i64 = 60;

type Row = Vec<Datum>;

/// An extension type's insertion-time transform.
type InsertHook = dyn Fn(&[u8]) -> Vec<u8> + Send + Sync;

fn col(index: usize, ty: DataType) -> Box<Expr> {
    Box::new(Expr::ColRef {
        index,
        ty,
        name: format!("c{index}"),
    })
}

/// A filter under test: its SQL, and the same filter as an expression
/// over a row of `t`.
struct Case {
    sql: String,
    pred: Expr,
}

/// The constants one seed's filters use.
struct Consts {
    /// `unitext('<name>', '<lang>')` as SQL, and the value it evaluates to.
    name_sql: String,
    name: Datum,
    cat_sql: String,
    cat: Datum,
    /// The bound of `id < c`.
    c: i64,
}

fn consts(db: &Session, rng: &mut StdRng) -> Consts {
    let known: Vec<_> = NAMES
        .iter()
        .filter_map(|(t, l)| Some((*t, (*l)?)))
        .collect();
    let (text, lang) = known[rng.gen_range(0..known.len())];
    let name_sql = format!("unitext('{text}', '{lang}')");
    let (ctext, clang) = CATEGORIES[rng.gen_range(0..CATEGORIES.len() - 1)];
    let cat_sql = format!("unitext('{ctext}', '{clang}')");
    // The constants the engine evaluates, computed the way it computes them.
    let catalog = db.engine().catalog();
    let eval = EvalCtx::new(&catalog, db.vars());
    let value = |t: &str, l: &str| {
        Expr::Func {
            name: "unitext".into(),
            args: vec![Expr::text(t), Expr::text(l)],
        }
        .eval(&[], &eval)
        .unwrap()
    };
    Consts {
        name: value(text, lang),
        cat: value(ctext, clang),
        name_sql,
        cat_sql,
        c: rng.gen_range(0..MAX_ID),
    }
}

/// The filters under test.
fn cases(unitext: DataType, k: &Consts) -> Vec<Case> {
    let ext = |name: &str, column: usize, constant: &Datum, modifiers: &[&str]| Expr::ExtOp {
        name: name.into(),
        left: col(column, unitext),
        right: Box::new(Expr::Literal(constant.clone())),
        modifiers: modifiers.iter().map(|m| m.to_string()).collect(),
    };
    let psi = || ext("lexequal", NAME, &k.name, &[]);
    let omega = || ext("semequal", CAT, &k.cat, &[]);
    let id_lt = || Expr::Cmp {
        op: CmpOp::Lt,
        left: col(ID, DataType::Int),
        right: Box::new(Expr::int(k.c)),
    };
    let and = |a, b| Expr::And(Box::new(a), Box::new(b));
    let psi_sql = format!("name LEXEQUAL {}", k.name_sql);
    let omega_sql = format!("cat SEMEQUAL {}", k.cat_sql);
    let id_sql = format!("id < {}", k.c);
    vec![
        Case {
            sql: psi_sql.clone(),
            pred: psi(),
        },
        Case {
            sql: format!("{psi_sql} AND {id_sql}"),
            pred: and(psi(), id_lt()),
        },
        Case {
            sql: format!("{id_sql} AND {psi_sql}"),
            pred: and(id_lt(), psi()),
        },
        Case {
            sql: format!("{psi_sql} IN (English, Hindi)"),
            pred: ext("lexequal", NAME, &k.name, &["English", "Hindi"]),
        },
        Case {
            sql: format!("NOT ({psi_sql})"),
            pred: Expr::Not(Box::new(psi())),
        },
        Case {
            sql: format!("{psi_sql} OR {id_sql}"),
            pred: Expr::Or(Box::new(psi()), Box::new(id_lt())),
        },
        Case {
            sql: omega_sql.clone(),
            pred: omega(),
        },
        // A row whose category is NULL leaves Ω NULL, and AND still
        // evaluates (and counts) ψ on its name.
        Case {
            sql: format!("{omega_sql} AND {psi_sql}"),
            pred: and(omega(), psi()),
        },
        Case {
            sql: format!("{omega_sql} AND {psi_sql} AND {id_sql}"),
            pred: and(and(omega(), psi()), id_lt()),
        },
    ]
}

/// What the oracle found for one filter: the accepted rows, and the work
/// counters of evaluating it row by row.
struct Oracle {
    rows: Vec<String>,
    ext_op_calls: u64,
    psi_distance_calls: u64,
}

/// Evaluate `pred` with the scalar evaluator over every row of `model`.
fn oracle(db: &Session, model: &[Row], pred: &Expr) -> Oracle {
    let catalog = db.engine().catalog();
    let stats = ExecStats::default();
    let ctx = EvalCtx {
        stats: Some(&stats),
        ..EvalCtx::new(&catalog, db.vars())
    };
    let psi_before = psi_distance_calls();
    let rows = model
        .iter()
        .filter(|row| pred.eval(row, &ctx).unwrap().is_true())
        .cloned();
    let rows = sorted(rows);
    Oracle {
        rows,
        ext_op_calls: stats.ext_op_calls.get(),
        psi_distance_calls: psi_distance_calls() - psi_before,
    }
}

/// A random row of `t`, holding the bytes the table stores: each value
/// goes through the registered type's insert hook (phonemes where a
/// converter exists, synset ids for a vocabulary word).
fn random_row(mural: &mlql::mural::Mural, on_insert: &InsertHook, rng: &mut StdRng) -> Row {
    let datum = |text: &str, lang: LangId| {
        let raw = unitext_to_bytes(&UniText::compose(text, lang));
        Datum::ext(mural.unitext_type, on_insert(&raw))
    };
    let id = if rng.gen_bool(0.1) {
        Datum::Null
    } else {
        Datum::Int(rng.gen_range(0..MAX_ID))
    };
    let name = if rng.gen_bool(0.1) {
        Datum::Null
    } else {
        let (text, lang) = NAMES[rng.gen_range(0..NAMES.len())];
        datum(text, lang.map_or(LangId::UNKNOWN, |l| mural.langs.id_of(l)))
    };
    let cat = if rng.gen_bool(0.15) {
        Datum::Null
    } else {
        let (text, lang) = CATEGORIES[rng.gen_range(0..CATEGORIES.len())];
        datum(text, mural.langs.id_of(lang))
    };
    vec![id, name, cat]
}

fn id_of(row: &Row) -> Option<i64> {
    row[ID].as_int()
}

/// `UPDATE t SET id = id + delta WHERE <ids match>` on the model.
fn shift_ids(model: &mut [Row], delta: i64, hit: impl Fn(i64) -> bool) {
    for row in model.iter_mut() {
        if let Some(id) = id_of(row).filter(|&id| hit(id)) {
            row[ID] = Datum::Int(id + delta);
        }
    }
}

/// Rows as sortable strings (`Debug` keeps extension payload bytes).
fn sorted(rows: impl IntoIterator<Item = Row>) -> Vec<String> {
    let mut out: Vec<String> = rows.into_iter().map(|r| format!("{r:?}")).collect();
    out.sort();
    out
}

fn psi_distance_calls() -> u64 {
    mlql::kernel::obs::metrics().psi_distance_calls_total.get()
}

/// Run every case in `session` at every worker count and
/// hold rows and counters to the oracle over `model`.
fn check_cases(
    session: &mut Session,
    model: &[Row],
    cases: &[Case],
    at: &str,
    plans_seen: &mut Vec<String>,
) {
    for case in cases {
        let want = oracle(session, model, &case.pred);
        let sql = format!("SELECT * FROM t WHERE {}", case.sql);
        for workers in WORKERS {
            let at = format!("{at}, workers {workers}: {sql}");
            session
                .execute(&format!("SET parallel_workers = {workers}"))
                .unwrap();
            let psi_before = psi_distance_calls();
            let got = session.execute(&sql).unwrap();
            let got_psi = psi_distance_calls() - psi_before;
            let plan = got.explain.unwrap_or_default();
            assert_eq!(sorted(got.rows), want.rows, "rows differ at {at}\n{plan}");
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

/// Run `dml` (an UPDATE or DELETE whose victims are `pred`'s rows) and
/// hold its victim count and counters to the oracle, then the table to
/// the model with `apply` run on the victims.
fn check_dml(
    db: &mut Session,
    model: &mut Vec<Row>,
    dml: &str,
    pred: &Expr,
    apply: impl Fn(&mut Vec<Row>, &[bool]),
    at: &str,
) {
    let want = oracle(db, model, pred);
    let at = format!("{at}: {dml}");
    let psi_before = psi_distance_calls();
    let got = db.execute(dml).unwrap();
    let got_psi = psi_distance_calls() - psi_before;
    let plan = got.explain.unwrap_or_default();
    assert!(plan.contains("Seq Scan"), "victim scan at {at}:\n{plan}");
    assert_eq!(got.affected, want.rows.len() as u64, "victims at {at}");
    assert_eq!(
        got.stats.ext_op_calls, want.ext_op_calls,
        "ext_op_calls at {at}"
    );
    assert_eq!(got_psi, want.psi_distance_calls, "ψ distance calls at {at}");
    let catalog = db.engine().catalog();
    let eval = EvalCtx::new(&catalog, db.vars());
    let hit: Vec<bool> = model
        .iter()
        .map(|row| pred.eval(row, &eval).unwrap().is_true())
        .collect();
    drop(catalog);
    apply(model, &hit);
    let table = db.query("SELECT * FROM t").unwrap();
    assert_eq!(sorted(table), sorted(model.clone()), "table after {at}");
}

#[test]
fn scans_equal_their_per_row_definition() {
    let mut plans_seen = Vec::new();
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut db = Session::new_in_memory();
        let mural = install(&mut db).unwrap();
        let unitext = DataType::Ext(mural.unitext_type);
        let on_insert = (db.engine().catalog())
            .type_by_id(mural.unitext_type)
            .and_then(|def| def.on_insert.clone())
            .unwrap();
        let n = rng.gen_range(50..2_500);
        let threshold = rng.gen_range(0..4);
        let at = format!("seed {seed}, {n} rows, threshold {threshold}");

        db.execute("CREATE TABLE t (id INT, name UNITEXT, cat UNITEXT)")
            .unwrap();
        let mut model: Vec<Row> = (0..n)
            .map(|_| random_row(&mural, &*on_insert, &mut rng))
            .collect();
        for row in &model {
            db.insert_row("t", row.clone()).unwrap();
        }
        // Committed edits leave dead versions behind on every page.
        let (d, u) = (rng.gen_range(0..10), rng.gen_range(40..MAX_ID));
        db.execute(&format!("DELETE FROM t WHERE id < {d}"))
            .unwrap();
        model.retain(|row| id_of(row).is_none_or(|id| id >= d));
        db.execute(&format!("UPDATE t SET id = id + 100 WHERE id >= {u}"))
            .unwrap();
        shift_ids(&mut model, 100, |id| id >= u);
        db.execute("ANALYZE t").unwrap();
        db.execute(&format!("SET lexequal.threshold = {threshold}"))
            .unwrap();
        let k = consts(&db, &mut rng);
        let cases = cases(unitext, &k);

        // An open transaction's own writes: it sees them, nobody else does.
        let mut writer = db.connect();
        let mut own = model.clone();
        writer.execute("BEGIN").unwrap();
        writer
            .execute("UPDATE t SET id = id + 200 WHERE id = 20")
            .unwrap();
        shift_ids(&mut own, 200, |id| id == 20);
        writer.execute("DELETE FROM t WHERE id = 21").unwrap();
        own.retain(|row| id_of(row) != Some(21));
        for _ in 0..rng.gen_range(0..20) {
            let row = random_row(&mural, &*on_insert, &mut rng);
            writer.insert_row("t", row.clone()).unwrap();
            own.push(row);
        }

        let mut reader = db.connect();
        check_cases(
            &mut reader,
            &model,
            &cases,
            &format!("{at}, committed view"),
            &mut plans_seen,
        );
        check_cases(
            &mut writer,
            &own,
            &cases,
            &format!("{at}, open transaction's view"),
            &mut plans_seen,
        );
        writer.execute("COMMIT").unwrap();
        let mut model = own;

        // UPDATE / DELETE victim sets chosen by a ψ filter.
        for case in [&cases[0], &cases[7]] {
            let shift = 1_000;
            check_dml(
                &mut db,
                &mut model,
                &format!("UPDATE t SET id = id + {shift} WHERE {}", case.sql),
                &case.pred,
                |model, hit| {
                    for (row, &h) in model.iter_mut().zip(hit) {
                        if h {
                            row[ID] = match row[ID] {
                                Datum::Int(id) => Datum::Int(id + shift),
                                _ => Datum::Null,
                            };
                        }
                    }
                },
                &at,
            );
        }
        check_dml(
            &mut db,
            &mut model,
            &format!("DELETE FROM t WHERE {}", cases[1].sql),
            &cases[1].pred,
            |model, hit| {
                let mut keep = hit.iter().map(|h| !h);
                model.retain(|_| keep.next().unwrap());
            },
            &at,
        );
    }
    // The suite must reach the serial scan and the parallel one, or half
    // of it is vacuous.
    let parallel = |p: &String| p.contains("Parallel Seq Scan on t");
    assert!(plans_seen.iter().any(parallel), "no plan was parallel");
    assert!(
        plans_seen.iter().any(|p| !parallel(p)),
        "no plan was serial"
    );
}
