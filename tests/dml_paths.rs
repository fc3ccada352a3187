//! `UPDATE`/`DELETE` find their victims through a planned scan: the
//! optimizer's access paths (Seq Scan, B-tree Index Scan, the M-tree
//! `within` probe) with the usual residual recheck.  Every test here
//! holds the statement's effect against an in-test model or against the
//! *other* access path, and the MVCC cases re-run the write-write
//! conflicts with the victims reached through index entries.

use mlql::kernel::{Database, Datum, Error, QueryResult, Session};
use mlql::mural::install;
use mlql::mural::lexequal::psi_matches;
use mlql::mural::types::unitext_of_datum;
use mlql::mural::Mural;
use std::path::PathBuf;

fn mural_db() -> (Database, Mural) {
    let mut db = Database::new_in_memory();
    let mural = install(&mut db).unwrap();
    (db, mural)
}

fn int(s: &mut Session, sql: &str) -> i64 {
    s.query(sql).unwrap()[0][0].as_int().unwrap()
}

/// First line of the statement's plan text.
fn plan_head(r: &QueryResult) -> &str {
    r.explain
        .as_deref()
        .expect("DML reports its victim-scan plan")
        .lines()
        .next()
        .unwrap()
}

/// Entries the index `index` of `table` holds under `key`.
fn index_entries(db: &Database, table: &str, index: &str, key: i64) -> usize {
    let catalog = db.catalog();
    let meta = catalog.table(table).unwrap();
    let idx = catalog
        .indexes_of(meta.id)
        .into_iter()
        .find(|i| i.name == index)
        .unwrap();
    let found = idx
        .instance
        .read()
        .search("eq", &Datum::Int(key), &Datum::Null)
        .unwrap();
    found.tids.len()
}

// ------------------------------------------------------- (i) differential

/// xorshift64*: the statement streams must repeat exactly per seed.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    fn below(&mut self, n: i64) -> i64 {
        (self.next() % n as u64) as i64
    }
}

#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
struct Entry {
    id: i64,
    grp: i64,
    /// (text, language) of the UNITEXT name.
    name: (String, String),
    note: String,
}

/// Near-homophones of a few names, in two Latin-script languages so the
/// text-only UNITEXT equality has cross-language matches a raw B-tree
/// over the payload bytes would miss.
const NAMES: [(&str, &str); 14] = [
    ("Nehru", "English"),
    ("Nehru", "French"),
    ("Neru", "English"),
    ("Nero", "English"),
    ("Nehra", "English"),
    ("Gandhi", "English"),
    ("Gandi", "English"),
    ("Ghandi", "French"),
    ("Patel", "English"),
    ("Pate", "English"),
    ("Bose", "English"),
    ("Bos", "English"),
    ("Tagore", "English"),
    ("Tagor", "French"),
];

enum Action {
    Delete,
    SetNote(String),
    BumpGrp,
    /// `SET id = id + n`: moves the key the B-tree scan runs on.
    MoveId(i64),
}

/// The model's reading of a generated `WHERE`.
type Pred = Box<dyn Fn(&Entry, &Mural) -> bool>;

/// One generated statement: its SQL, the ψ threshold it runs under (if
/// it has a LEXEQUAL), and what the model does for it.
struct Stmt {
    sql: String,
    threshold: Option<i64>,
    pred: Pred,
    action: Action,
    /// Set when the `WHERE` compares the UNITEXT column (which has a raw
    /// B-tree that must not serve it).
    on_unitext_btree: bool,
}

fn lit(name: &(String, String)) -> String {
    format!("unitext('{}','{}')", name.0, name.1)
}

fn gen_stmt(rng: &mut Rng, step: usize, max_id: i64) -> Stmt {
    let action = match rng.below(10) {
        0..=2 => Action::Delete,
        3..=6 => Action::SetNote(format!("n{step}")),
        7 | 8 => Action::BumpGrp,
        _ => Action::MoveId(10_000 * (1 + step as i64)),
    };
    let k = rng.below(max_id);
    let span = 1 + rng.below(40);
    let probe = NAMES[rng.below(NAMES.len() as i64) as usize];
    let probe = (probe.0.to_string(), probe.1.to_string());
    let mut threshold = None;
    let mut on_unitext_btree = false;
    let (filter, pred): (String, Pred) = match rng.below(9) {
        0 | 1 => (format!("id = {k}"), Box::new(move |e, _| e.id == k)),
        2 => (
            format!("id >= {k} AND id < {}", k + span),
            Box::new(move |e, _| e.id >= k && e.id < k + span),
        ),
        // Reversed operands (planner flips the comparison).
        3 => (format!("{k} > id"), Box::new(move |e, _| k > e.id)),
        // A sargable conjunct with a non-sargable residual.
        4 => (
            format!("id <= {k} AND id + grp > {}", k - span),
            Box::new(move |e, _| e.id <= k && e.id + e.grp > k - span),
        ),
        // Nothing sargable at all.
        5 => (
            format!("id + grp = {k} OR note = 'n{}'", step / 2),
            Box::new(move |e, _| e.id + e.grp == k || e.note == format!("n{}", step / 2)),
        ),
        6 | 7 => {
            let th = rng.below(3);
            threshold = Some(th);
            let p = probe.clone();
            (
                format!("name LEXEQUAL {}", lit(&probe)),
                Box::new(move |e, m| {
                    let l = m.unitext(&e.name.0, &e.name.1).unwrap();
                    let r = m.unitext(&p.0, &p.1).unwrap();
                    psi_matches(&l, &r, th as usize, &m.converters).unwrap()
                }),
            )
        }
        _ => {
            on_unitext_btree = true;
            let p = probe.clone();
            (
                format!("name = {} AND grp < 7", lit(&probe)),
                // UNITEXT equality is text-only (language ignored).
                Box::new(move |e, _| e.name.0 == p.0 && e.grp < 7),
            )
        }
    };
    // One statement in twelve has no WHERE at all.
    let (filter, pred): (String, Pred) = if rng.below(12) == 0 && !matches!(action, Action::Delete)
    {
        threshold = None;
        on_unitext_btree = false;
        (String::new(), Box::new(|_, _| true))
    } else {
        (format!(" WHERE {filter}"), pred)
    };
    let sql = match &action {
        Action::Delete => format!("DELETE FROM t{filter}"),
        Action::SetNote(n) => format!("UPDATE t SET note = '{n}'{filter}"),
        Action::BumpGrp => format!("UPDATE t SET grp = grp + 1{filter}"),
        Action::MoveId(n) => format!("UPDATE t SET id = id + {n}{filter}"),
    };
    Stmt {
        sql,
        threshold,
        pred,
        action,
        on_unitext_btree,
    }
}

fn apply(model: &mut Vec<Entry>, stmt: &Stmt, mural: &Mural) -> u64 {
    let mut hit = 0;
    let mut kept = Vec::with_capacity(model.len());
    for mut e in model.drain(..) {
        if !(stmt.pred)(&e, mural) {
            kept.push(e);
            continue;
        }
        hit += 1;
        match &stmt.action {
            Action::Delete => continue,
            Action::SetNote(n) => e.note = n.clone(),
            Action::BumpGrp => e.grp += 1,
            Action::MoveId(n) => e.id += n,
        }
        kept.push(e);
    }
    *model = kept;
    hit
}

fn table_contents(s: &mut Session, mural: &Mural) -> Vec<Entry> {
    let mut out: Vec<Entry> = s
        .query("SELECT id, grp, name, note FROM t")
        .unwrap()
        .into_iter()
        .map(|row| {
            let name = unitext_of_datum(&row[2]).unwrap();
            let lang = mural.langs.get(name.lang()).unwrap().name.clone();
            Entry {
                id: row[0].as_int().unwrap(),
                grp: row[1].as_int().unwrap(),
                name: (name.text().to_string(), lang),
                note: row[3].as_text().unwrap().to_string(),
            }
        })
        .collect();
    out.sort();
    out
}

/// Load the same 600 rows and four indexes into a fresh database; the
/// session runs with `setup` applied.
fn differential_db(setup: &[&str]) -> (Database, Mural, Session, Vec<Entry>) {
    let (mut db, mural) = mural_db();
    db.execute("CREATE TABLE t (id INT, grp INT, name UNITEXT, note TEXT)")
        .unwrap();
    let mut model = Vec::new();
    for id in 0..600i64 {
        let (text, lang) = NAMES[(id as usize * 5 + id as usize / 14) % NAMES.len()];
        let e = Entry {
            id,
            grp: id % 10,
            name: (text.to_string(), lang.to_string()),
            note: "n".to_string(),
        };
        db.execute(&format!(
            "INSERT INTO t VALUES ({id}, {}, {}, 'n')",
            e.grp,
            lit(&e.name)
        ))
        .unwrap();
        model.push(e);
    }
    for ddl in [
        "CREATE INDEX t_id ON t (id) USING btree",
        "CREATE INDEX t_grp ON t (grp) USING btree",
        "CREATE INDEX t_mt ON t (name) USING mtree",
        "CREATE INDEX t_name_bt ON t (name) USING btree",
        "ANALYZE t",
    ] {
        db.execute(ddl).unwrap();
    }
    let mut s = db.connect();
    for sql in setup {
        s.execute(sql).unwrap();
    }
    (db, mural, s, model)
}

/// Seeded UPDATE/DELETE streams leave the table identical whether the
/// victims come through the indexes (cost-chosen, or forced with
/// `enable_seqscan = 0`) or through a Seq Scan (`enable_indexscan = 0`),
/// and identical to the model — statement by statement in the affected
/// count, and in full contents every few statements.
#[test]
fn random_dml_streams_agree_across_access_paths_and_with_model() {
    for (seed, force_index) in [(0x9e37_79b9_7f4a_7c15u64, false), (0x2545_f491, true)] {
        let forced: &[&str] = if force_index {
            &["SET enable_seqscan = 0"]
        } else {
            &[]
        };
        let (_db_i, mural, mut indexed, mut model) = differential_db(forced);
        let (_db_s, _, mut scanned, _) = differential_db(&["SET enable_indexscan = 0"]);
        let mut rng = Rng(seed);
        let mut next_id = 600i64;
        let (mut via_btree, mut via_mtree) = (0, 0);
        for step in 0..160 {
            // Keep the table populated: a few fresh rows now and then.
            if step % 8 == 0 {
                for _ in 0..6 {
                    let (text, lang) = NAMES[rng.below(NAMES.len() as i64) as usize];
                    let e = Entry {
                        id: next_id,
                        grp: next_id % 10,
                        name: (text.to_string(), lang.to_string()),
                        note: "new".to_string(),
                    };
                    let sql = format!(
                        "INSERT INTO t VALUES ({}, {}, {}, 'new')",
                        e.id,
                        e.grp,
                        lit(&e.name)
                    );
                    indexed.execute(&sql).unwrap();
                    scanned.execute(&sql).unwrap();
                    model.push(e);
                    next_id += 1;
                }
            }
            let stmt = gen_stmt(&mut rng, step, next_id + 20);
            if let Some(th) = stmt.threshold {
                let set = format!("SET lexequal.threshold = {th}");
                indexed.execute(&set).unwrap();
                scanned.execute(&set).unwrap();
            }
            let want = apply(&mut model, &stmt, &mural);
            let ri = indexed.execute(&stmt.sql).unwrap();
            let rs = scanned.execute(&stmt.sql).unwrap();
            assert_eq!(
                ri.affected, want,
                "seed {seed:#x} step {step}: {}",
                stmt.sql
            );
            assert_eq!(
                rs.affected, want,
                "seed {seed:#x} step {step}: {}",
                stmt.sql
            );
            assert!(
                plan_head(&rs).starts_with("Seq Scan on t"),
                "enable_indexscan = 0 must scan: {}",
                plan_head(&rs)
            );
            let head = plan_head(&ri);
            assert!(
                !(stmt.on_unitext_btree && head.contains("t_name_bt")),
                "UNITEXT comparison served by the raw B-tree: {head}"
            );
            via_btree += head.contains("using t_id") as usize;
            via_mtree += head.contains("using t_mt") as usize;
            if force_index && stmt.threshold.is_some() {
                assert!(head.starts_with("Index Scan using t_mt"), "{head}");
            }
            if step % 10 == 9 {
                model.sort();
                assert_eq!(table_contents(&mut indexed, &mural), model, "step {step}");
                assert_eq!(table_contents(&mut scanned, &mural), model, "step {step}");
            }
        }
        assert!(
            via_btree > 20,
            "B-tree victim scans: {via_btree} (seed {seed:#x})"
        );
        if force_index {
            assert!(via_mtree > 10, "M-tree victim scans: {via_mtree}");
        }
        // Readers agree through either path afterwards.
        model.sort();
        indexed.execute("SET enable_seqscan = 0").unwrap();
        assert_eq!(table_contents(&mut indexed, &mural), model);
        let by_key = int(&mut indexed, "SELECT count(*) FROM t WHERE id >= 0");
        assert_eq!(by_key as usize, model.iter().filter(|e| e.id >= 0).count());
    }
}

// -------------------------------------------- (ii) MVCC through the index

/// `kv(k INT, v INT)` with a B-tree on `k`; every session it hands out
/// has the Seq Scan priced out, so on these tiny tables the victims are
/// still reached through index entries.
fn kv_db(rows: &[(i64, i64)]) -> Database {
    let mut db = Database::new_in_memory();
    db.execute("CREATE TABLE kv (k INT, v INT)").unwrap();
    for (k, v) in rows {
        db.execute(&format!("INSERT INTO kv VALUES ({k}, {v})"))
            .unwrap();
    }
    db.execute("CREATE INDEX kv_k ON kv (k) USING btree")
        .unwrap();
    db
}

fn index_session(db: &Database) -> Session {
    let mut s = db.connect();
    s.execute("SET enable_seqscan = 0").unwrap();
    s
}

fn kv_rows(s: &mut Session) -> Vec<(i64, i64)> {
    let mut out: Vec<(i64, i64)> = s
        .query("SELECT k, v FROM kv WHERE k >= 0")
        .unwrap()
        .iter()
        .map(|r| (r[0].as_int().unwrap(), r[1].as_int().unwrap()))
        .collect();
    out.sort_unstable();
    out
}

/// Lost update: B commits an update of the row A's snapshot still sees.
/// A's probe of `k = 1` returns both index entries; the version A can
/// see is the *old* one, whose `xmax` carries B — first-updater-wins
/// must fire on it, and mark A's transaction failed.
#[test]
fn lost_update_detected_through_stale_index_entry() {
    let db = kv_db(&[(1, 100), (2, 200)]);
    let mut a = index_session(&db);
    let mut b = index_session(&db);
    a.execute("BEGIN").unwrap();
    assert_eq!(int(&mut a, "SELECT v FROM kv WHERE k = 1"), 100);

    let r = b.execute("UPDATE kv SET v = 150 WHERE k = 1").unwrap();
    assert!(plan_head(&r).starts_with("Index Scan using kv_k"));
    assert_eq!(index_entries(&db, "kv", "kv_k", 1), 2, "old + new version");

    let err = a.execute("UPDATE kv SET v = 120 WHERE k = 1").unwrap_err();
    assert!(matches!(err, Error::Serialization(_)), "{err}");
    let err = a.query("SELECT v FROM kv WHERE k = 1").unwrap_err();
    assert!(err.to_string().contains("aborted"), "{err}");
    a.execute("ROLLBACK").unwrap();
    assert_eq!(kv_rows(&mut a), vec![(1, 150), (2, 200)]);
}

/// Write-write conflict between open transactions, then the loser's
/// stamp: an `xmax` left by an *aborted* transaction does not protect
/// the row — the next writer re-stamps it.
#[test]
fn first_updater_wins_and_aborted_xmax_is_restampable() {
    let db = kv_db(&[(1, 10)]);
    let mut a = index_session(&db);
    let mut b = index_session(&db);
    a.execute("BEGIN").unwrap();
    b.execute("BEGIN").unwrap();
    a.execute("UPDATE kv SET v = 11 WHERE k = 1").unwrap();
    let err = b.execute("UPDATE kv SET v = 12 WHERE k = 1").unwrap_err();
    assert!(matches!(err, Error::Serialization(_)), "{err}");
    let mut c = index_session(&db);
    let err = c.execute("DELETE FROM kv WHERE k = 1").unwrap_err();
    assert!(matches!(err, Error::Serialization(_)), "{err}");
    b.execute("COMMIT").unwrap(); // failed transaction: a clean rollback
    a.execute("ROLLBACK").unwrap();
    assert_eq!(kv_rows(&mut c), vec![(1, 10)]);

    // A's aborted stamp is still on the row; C writes through it.
    let r = c.execute("UPDATE kv SET v = 13 WHERE k = 1").unwrap();
    assert_eq!(r.affected, 1);
    assert!(plan_head(&r).starts_with("Index Scan using kv_k"));
    assert_eq!(kv_rows(&mut a), vec![(1, 13)]);
    let r = c.execute("DELETE FROM kv WHERE k = 1").unwrap();
    assert_eq!(r.affected, 1);
    assert_eq!(kv_rows(&mut a), vec![]);
}

/// A transaction's own versions are reachable through the entries it
/// just made: update the same key twice, delete it, re-insert it.
#[test]
fn own_writes_are_found_through_the_index() {
    let db = kv_db(&[(1, 10), (2, 20)]);
    let mut a = index_session(&db);
    let mut other = index_session(&db);
    a.execute("BEGIN").unwrap();
    for v in [11, 12] {
        let r = a
            .execute(&format!("UPDATE kv SET v = {v} WHERE k = 1"))
            .unwrap();
        assert_eq!(r.affected, 1, "exactly the newest own version");
    }
    assert_eq!(int(&mut a, "SELECT v FROM kv WHERE k = 1"), 12);
    assert_eq!(a.execute("DELETE FROM kv WHERE k = 1").unwrap().affected, 1);
    assert_eq!(a.execute("DELETE FROM kv WHERE k = 1").unwrap().affected, 0);
    a.execute("INSERT INTO kv VALUES (1, 99)").unwrap();
    assert_eq!(
        a.execute("UPDATE kv SET v = v + 1 WHERE k = 1")
            .unwrap()
            .affected,
        1
    );
    assert_eq!(kv_rows(&mut a), vec![(1, 100), (2, 20)]);
    assert_eq!(
        kv_rows(&mut other),
        vec![(1, 10), (2, 20)],
        "not yet committed"
    );
    a.execute("COMMIT").unwrap();
    assert_eq!(kv_rows(&mut other), vec![(1, 100), (2, 20)]);
    // Five versions of key 1 were made; one is visible.
    assert_eq!(index_entries(&db, "kv", "kv_k", 1), 5);
}

/// The SET moves the very key the scan runs on, into the scanned range:
/// victims are collected before anything is written, so each row moves
/// once (no Halloween problem).
#[test]
fn key_moving_update_touches_each_row_once() {
    let rows: Vec<(i64, i64)> = (0..40).map(|k| (k, k)).collect();
    let db = kv_db(&rows);
    let mut s = index_session(&db);
    let r = s
        .execute("UPDATE kv SET k = k + 1000 WHERE k >= 5")
        .unwrap();
    assert!(plan_head(&r).starts_with("Index Scan using kv_k"));
    assert_eq!(r.affected, 35);
    let want: Vec<(i64, i64)> = (0..40)
        .map(|k| (if k >= 5 { k + 1000 } else { k }, k))
        .collect();
    assert_eq!(kv_rows(&mut s), want);
    // Again, now in a transaction that then rolls back.
    s.execute("BEGIN").unwrap();
    let r = s
        .execute("UPDATE kv SET k = k + 1000 WHERE k >= 5")
        .unwrap();
    assert_eq!(r.affected, 35);
    s.execute("ROLLBACK").unwrap();
    assert_eq!(kv_rows(&mut s), want);
}

/// ROLLBACK removes nothing from the index; what it leaves behind only
/// locates versions no snapshot sees.
#[test]
fn rollback_leaves_only_invisible_entries() {
    let db = kv_db(&[(1, 10), (2, 20)]);
    let mut a = index_session(&db);
    a.execute("BEGIN").unwrap();
    a.execute("UPDATE kv SET v = 11 WHERE k = 1").unwrap();
    a.execute("INSERT INTO kv VALUES (3, 30)").unwrap();
    a.execute("DELETE FROM kv WHERE k = 2").unwrap();
    a.execute("ROLLBACK").unwrap();
    assert_eq!(index_entries(&db, "kv", "kv_k", 1), 2);
    assert_eq!(index_entries(&db, "kv", "kv_k", 3), 1);
    for s in [&mut a, &mut index_session(&db)] {
        assert_eq!(kv_rows(s), vec![(1, 10), (2, 20)]);
        assert_eq!(int(s, "SELECT count(*) FROM kv WHERE k = 3"), 0);
    }
    // The rolled-back rows are writable at once.
    assert_eq!(
        a.execute("DELETE FROM kv WHERE k <= 2").unwrap().affected,
        2
    );
    assert_eq!(a.execute("DELETE FROM kv WHERE k = 3").unwrap().affected, 0);
}

// ---------------------------------------------------------------- (iii) cost

fn big_table(db: &mut Database, name: &str, rows: i64) {
    db.execute(&format!("CREATE TABLE {name} (id INT, pad TEXT)"))
        .unwrap();
    db.execute("BEGIN").unwrap();
    for id in 0..rows {
        db.insert_row(
            name,
            vec![Datum::Int(id), Datum::text(format!("row {id:>40}"))],
        )
        .unwrap();
    }
    db.execute("COMMIT").unwrap();
}

/// The point of the exercise: with a B-tree, a keyed UPDATE on a 20k-row
/// table costs an index probe and a handful of page touches; without
/// one it reads the table.  The plan is reported, estimated, recorded
/// under its digest, steered by the `enable_*` flags, and does not
/// depend on the session's worker count (the victim scan is serial).
#[test]
fn keyed_update_costs_a_probe_not_a_table() {
    let mut db = Database::new_in_memory();
    big_table(&mut db, "big", 20_000);
    big_table(&mut db, "bare", 20_000);
    db.execute("CREATE INDEX big_id ON big (id) USING btree")
        .unwrap();
    db.execute("ANALYZE").unwrap();
    let pages = |table: &str| {
        let heap = db.catalog().table(table).unwrap().heap;
        heap.pages(db.pool()).unwrap() as u64
    };
    let (big_pages, bare_pages) = (pages("big"), pages("bare"));
    assert!(big_pages > 100);

    let mut s = db.connect();
    let r = s
        .execute("UPDATE big SET pad = 'x' WHERE id = 777")
        .unwrap();
    assert_eq!(r.affected, 1);
    assert!(plan_head(&r).starts_with("Index Scan using big_id on big"));
    assert!(
        r.stats.io.logical_reads <= 8,
        "keyed update read {} pages",
        r.stats.io.logical_reads
    );
    assert!(r.stats.index_node_visits >= 1);
    assert!(r.stats.est_rows.unwrap() < 10.0 && r.stats.est_cost.unwrap() > 0.0);
    assert!(r.stats.exec_time > std::time::Duration::ZERO);
    let digest = r.stats.plan_digest.expect("observability is on by default");
    let recorded = mlql::kernel::obs::planstore::snapshot(Some(db.engine().engine_id()))
        .into_iter()
        .find(|e| e.digest == digest)
        .expect("DML victim scans are in the plan store");
    assert_eq!(recorded.last_actual_rows, 1);
    assert!(recorded.root.starts_with("Index Scan using big_id"));

    let r = s
        .execute("UPDATE bare SET pad = 'x' WHERE id = 777")
        .unwrap();
    assert_eq!(r.affected, 1);
    assert!(plan_head(&r).starts_with("Seq Scan on bare"));
    assert!(r.stats.io.logical_reads >= bare_pages);
    let r = s.execute("DELETE FROM bare WHERE id = 778").unwrap();
    assert!(plan_head(&r).starts_with("Seq Scan on bare"));
    assert!(r.stats.io.logical_reads >= bare_pages);

    // The flags steer DML as they steer SELECT ...
    s.execute("SET enable_indexscan = 0").unwrap();
    let r = s
        .execute("UPDATE big SET pad = 'y' WHERE id = 777")
        .unwrap();
    assert_eq!(r.affected, 1);
    assert!(plan_head(&r).starts_with("Seq Scan on big"));
    assert!(r.stats.io.logical_reads >= big_pages);
    s.execute("SET enable_indexscan = 1").unwrap();

    // ... and the worker count steers nothing: 20k rows is well past the
    // size at which a SELECT goes parallel.
    let mut plans = Vec::new();
    for workers in [1, 2, 4] {
        s.execute(&format!("SET parallel_workers = {workers}"))
            .unwrap();
        for sql in [
            "UPDATE big SET pad = 'z' WHERE id = 777",
            "UPDATE big SET pad = 'z' WHERE id + 0 = 779",
            "DELETE FROM bare WHERE id = 5",
        ] {
            let r = s.execute(sql).unwrap();
            plans.push((sql, r.explain.unwrap(), r.affected));
        }
    }
    let (first, rest) = plans.split_at(3);
    assert!(first[1].1.starts_with("Seq Scan on big"), "{}", first[1].1);
    for (i, (sql, explain, _)) in rest.iter().enumerate() {
        assert_eq!(explain, &first[i % 3].1, "{sql}");
        assert!(!explain.contains("Parallel"), "{explain}");
    }
    assert_eq!(first[2].2, 1, "the first DELETE finds row 5");
    assert_eq!(
        int(&mut s, "SELECT count(*) FROM big WHERE pad = 'z'"),
        2,
        "ids 777 and 779"
    );
}

// -------------------------------------------------------------------- vacuum

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("mlql-dml-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

/// Checkpoint vacuum takes a dead version's index entries with it: a
/// key updated 200 times never accumulates more entries than the
/// updates since the last checkpoint, and readers get what an engine
/// that never vacuums (in-memory: checkpoint only flushes) gives them.
#[test]
fn vacuum_prunes_index_entries_of_dead_versions() {
    let dir = tmpdir("vacuum");
    let mut durable = Database::open(&dir).unwrap();
    let mut unpruned = Database::new_in_memory();
    for db in [&mut durable, &mut unpruned] {
        db.execute("SET wal_sync_mode = 'flush'").unwrap();
        db.execute("CREATE TABLE kv (k INT, v INT)").unwrap();
        db.execute("CREATE INDEX kv_k ON kv (k) USING btree")
            .unwrap();
        for k in 0..50 {
            db.execute(&format!("INSERT INTO kv VALUES ({k}, 0)"))
                .unwrap();
        }
        db.execute("SET enable_seqscan = 0").unwrap();
    }
    for i in 1..=200 {
        for db in [&mut durable, &mut unpruned] {
            let r = db
                .execute(&format!("UPDATE kv SET v = {i} WHERE k = 7"))
                .unwrap();
            assert_eq!(r.affected, 1);
            assert!(plan_head(&r).starts_with("Index Scan using kv_k"));
        }
        if i % 20 == 0 {
            // A delete rides along so vacuum also prunes a key outright.
            for db in [&mut durable, &mut unpruned] {
                db.execute(&format!("DELETE FROM kv WHERE k = {}", 20 + i / 20))
                    .unwrap();
                db.checkpoint().unwrap();
            }
            assert_eq!(index_entries(&durable, "kv", "kv_k", 7), 1);
            assert_eq!(index_entries(&durable, "kv", "kv_k", 20 + i / 20), 0);
        }
        assert!(index_entries(&durable, "kv", "kv_k", 7) <= 21);
        assert_eq!(index_entries(&unpruned, "kv", "kv_k", 7), 1 + i as usize);
        let q = "SELECT k, v FROM kv WHERE k >= 5 AND k < 30";
        assert_eq!(
            durable.query(q).unwrap().len(),
            unpruned.query(q).unwrap().len()
        );
        assert_eq!(
            durable.query("SELECT v FROM kv WHERE k = 7").unwrap(),
            unpruned.query("SELECT v FROM kv WHERE k = 7").unwrap()
        );
    }
    assert_eq!(index_entries(&durable, "kv", "kv_k", 7), 1);
    drop(durable);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A statement the index AM refuses (an M-tree cannot key NULL) must
/// leave nothing for vacuum to trip over: the heap version goes back out
/// with the entries the other indexes already took, checkpoints keep
/// working, and the table and both indexes hold exactly the rows that
/// were accepted.
#[test]
fn rejected_index_key_does_not_wedge_the_checkpoint() {
    let dir = tmpdir("reject");
    let mut db = Database::open_with_extensions(&dir, |db| install(db).map(|_| ())).unwrap();
    db.execute("CREATE TABLE t (id INT, name UNITEXT)").unwrap();
    db.execute("CREATE INDEX t_id ON t (id) USING btree")
        .unwrap();
    db.execute("CREATE INDEX t_mt ON t (name) USING mtree")
        .unwrap();
    db.execute("INSERT INTO t VALUES (1, unitext('Nehru','English'))")
        .unwrap();
    assert!(db.execute("INSERT INTO t VALUES (2, NULL)").is_err());
    assert!(db.execute("UPDATE t SET name = NULL WHERE id = 1").is_err());
    assert_eq!(index_entries(&db, "t", "t_id", 2), 0);
    assert_eq!(index_entries(&db, "t", "t_id", 1), 1);
    db.checkpoint().unwrap();
    db.execute("INSERT INTO t VALUES (3, unitext('Neru','English'))")
        .unwrap();
    db.checkpoint().unwrap();
    db.execute("SET enable_seqscan = 0").unwrap();
    db.execute("SET lexequal.threshold = 1").unwrap();
    let q = "SELECT id FROM t WHERE name LEXEQUAL unitext('Nehru','English')";
    let mut ids: Vec<i64> = db
        .query(q)
        .unwrap()
        .iter()
        .map(|r| r[0].as_int().unwrap())
        .collect();
    ids.sort_unstable();
    assert_eq!(ids, vec![1, 3]);
    assert_eq!(db.query("SELECT id FROM t WHERE id >= 0").unwrap().len(), 2);
    drop(db);
    std::fs::remove_dir_all(&dir).unwrap();
}
