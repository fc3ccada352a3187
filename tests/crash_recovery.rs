//! Durability tests: WAL replay recovers heaps; indexes — which, like
//! PostgreSQL-7.4 GiST (paper §4.2.1), are *not* WAL-logged — are rebuilt
//! from the recovered heaps and must serve queries correctly afterwards.

use mlql::kernel::{recovery::rebuild_indexes, Session};
use mlql::mural::install;
use std::path::PathBuf;

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("mlql-it-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

fn open(dir: &std::path::Path) -> mlql::kernel::Result<Session> {
    Session::open_with_extensions(dir, |_| Ok(()))
}

fn open_mural(dir: &PathBuf) -> (Session, mlql::mural::Mural) {
    let mut slot = None;
    let db = Session::open_with_extensions(dir, |db| {
        slot = Some(install(db)?);
        Ok(())
    })
    .unwrap();
    (db, slot.unwrap())
}

#[test]
fn multilingual_data_survives_crash() {
    let dir = tmpdir("crash");
    {
        let (mut db, _mural) = open_mural(&dir);
        db.execute("CREATE TABLE book (author UNITEXT, price FLOAT)")
            .unwrap();
        db.execute("CREATE INDEX book_mt ON book (author) USING mtree")
            .unwrap();
        for (n, l) in [("Nehru", "English"), ("नेहरू", "Hindi"), ("நேரு", "Tamil")]
        {
            db.execute(&format!(
                "INSERT INTO book VALUES (unitext('{n}','{l}'), 10.0)"
            ))
            .unwrap();
        }
        db.execute("DELETE FROM book WHERE price > 100.0").unwrap(); // no-op delete logged
                                                                     // No clean shutdown: drop emulates a crash (the WAL has everything).
    }
    let (mut db, _mural) = open_mural(&dir);
    db.execute("SET lexequal.threshold = 2").unwrap();
    let n = db.query("SELECT count(*) FROM book").unwrap();
    assert_eq!(n[0][0].as_int(), Some(3));
    // The M-Tree was rebuilt during replay (CREATE INDEX re-ran, inserts
    // re-applied); force the index path to prove it serves queries.
    db.execute("SET enable_seqscan = 0").unwrap();
    let r = db
        .execute("SELECT count(*) FROM book WHERE author LEXEQUAL unitext('Nehru','English')")
        .unwrap();
    assert_eq!(r.rows[0][0].as_int(), Some(3));
    assert!(r.explain.unwrap().contains("Index Scan"));
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn deletes_replay_correctly() {
    let dir = tmpdir("deletes");
    {
        let mut db = open(&dir).unwrap();
        db.execute("CREATE TABLE t (id INT, tag TEXT)").unwrap();
        for i in 0..20 {
            db.execute(&format!("INSERT INTO t VALUES ({i}, 'keep')"))
                .unwrap();
        }
        db.execute("DELETE FROM t WHERE id < 5").unwrap();
        db.execute("INSERT INTO t VALUES (100, 'late')").unwrap();
    }
    let mut db = open(&dir).unwrap();
    let n = db.query("SELECT count(*) FROM t").unwrap();
    assert_eq!(n[0][0].as_int(), Some(16));
    let late = db.query("SELECT count(*) FROM t WHERE id = 100").unwrap();
    assert_eq!(late[0][0].as_int(), Some(1));
    let gone = db.query("SELECT count(*) FROM t WHERE id < 5").unwrap();
    assert_eq!(gone[0][0].as_int(), Some(0));
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn repeated_reopen_is_idempotent() {
    let dir = tmpdir("reopen");
    {
        let mut db = open(&dir).unwrap();
        db.execute("CREATE TABLE t (id INT)").unwrap();
        db.execute("INSERT INTO t VALUES (1), (2)").unwrap();
    }
    for _ in 0..3 {
        let mut db = open(&dir).unwrap();
        let n = db.query("SELECT count(*) FROM t").unwrap();
        assert_eq!(n[0][0].as_int(), Some(2), "reopen must not duplicate rows");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn manual_index_rebuild_matches_fresh_build() {
    // The recovery path for non-WAL-logged indexes, exercised directly.
    let mut db = Session::new_in_memory();
    install(&mut db).unwrap();
    db.execute("CREATE TABLE t (v UNITEXT)").unwrap();
    db.execute("CREATE INDEX t_mt ON t (v) USING mtree")
        .unwrap();
    for i in 0..200 {
        db.execute(&format!(
            "INSERT INTO t VALUES (unitext('name{i}','English'))"
        ))
        .unwrap();
    }
    db.execute("SET lexequal.threshold = 1").unwrap();
    db.execute("SET enable_seqscan = 0").unwrap();
    let before = db
        .query("SELECT count(*) FROM t WHERE v LEXEQUAL unitext('name5','English')")
        .unwrap();
    rebuild_indexes(db.engine()).unwrap();
    let after = db
        .query("SELECT count(*) FROM t WHERE v LEXEQUAL unitext('name5','English')")
        .unwrap();
    assert!(before[0][0].eq_sql(&after[0][0]));
    assert!(before[0][0].as_int().unwrap() >= 1);
}

/// A crash with one committed and one still-open transaction in the WAL
/// tail: replay must keep every row of the committed transaction, drop
/// every row of the uncommitted one (no orphan versions reachable by any
/// scan, ψ scans included), and rebuild indexes from the surviving heap
/// only.
#[test]
fn committed_txn_survives_crash_uncommitted_is_dropped() {
    let dir = tmpdir("txn-tail");
    {
        let (db, _mural) = open_mural(&dir);
        let mut setup = db.connect();
        setup
            .execute("CREATE TABLE book (author UNITEXT, price FLOAT)")
            .unwrap();
        setup
            .execute("CREATE INDEX book_mt ON book (author) USING mtree")
            .unwrap();
        setup
            .execute("INSERT INTO book VALUES (unitext('Miller','English'), 1.0)")
            .unwrap();

        // Transaction A: three cross-script homophones, committed.
        let mut a = db.connect();
        a.execute("BEGIN").unwrap();
        for (n, l) in [("Nehru", "English"), ("नेहरू", "Hindi"), ("நேரு", "Tamil")]
        {
            a.execute(&format!(
                "INSERT INTO book VALUES (unitext('{n}','{l}'), 10.0)"
            ))
            .unwrap();
        }
        a.execute("COMMIT").unwrap();

        // Transaction B: in flight at the crash — never committed.  The
        // session is leaked so not even an Abort record reaches the log:
        // the WAL tail ends with bare in-flight DML, exactly what a kill
        // mid-transaction leaves behind.
        let mut b = db.connect();
        b.execute("BEGIN").unwrap();
        for i in 0..3 {
            b.execute(&format!(
                "INSERT INTO book VALUES (unitext('Orphan{i}','English'), 66.0)"
            ))
            .unwrap();
        }
        b.execute("DELETE FROM book WHERE price = 1.0").unwrap();
        std::mem::forget(b);
        // No clean shutdown: drop emulates the crash.
    }
    let (mut db, _mural) = open_mural(&dir);
    db.execute("SET lexequal.threshold = 2").unwrap();
    // A's rows survived; B's inserts are gone and B's delete never
    // happened — the pre-crash row is still there.
    assert_eq!(
        db.query("SELECT count(*) FROM book").unwrap()[0][0].as_int(),
        Some(4)
    );
    assert_eq!(
        db.query("SELECT count(*) FROM book WHERE price = 66.0")
            .unwrap()[0][0]
            .as_int(),
        Some(0),
        "uncommitted insert leaked through recovery"
    );
    assert_eq!(
        db.query("SELECT count(*) FROM book WHERE price = 1.0")
            .unwrap()[0][0]
            .as_int(),
        Some(1),
        "uncommitted delete was replayed"
    );
    // ψ through the rebuilt index: exactly the committed homophones.
    db.execute("SET enable_seqscan = 0").unwrap();
    let r = db
        .execute("SELECT count(*) FROM book WHERE author LEXEQUAL unitext('Nehru','English')")
        .unwrap();
    assert_eq!(r.rows[0][0].as_int(), Some(3));
    assert!(r.explain.unwrap().contains("Index Scan"));
    // And a second reopen stays put (replay is idempotent on the mix).
    drop(db);
    let (mut db, _mural) = open_mural(&dir);
    assert_eq!(
        db.query("SELECT count(*) FROM book").unwrap()[0][0].as_int(),
        Some(4)
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Same shape, but the open transaction's session is dropped normally, so
/// an Abort record *does* reach the WAL: replay must treat "aborted" and
/// "vanished" identically — only Commit records make work durable.
#[test]
fn aborted_txn_in_wal_tail_is_dropped_on_recovery() {
    let dir = tmpdir("txn-abort-tail");
    {
        let mut db = open(&dir).unwrap();
        db.execute("CREATE TABLE t (id INT)").unwrap();
        db.execute("INSERT INTO t VALUES (1)").unwrap();
        let db = db; // sessions below borrow the engine
        let mut a = db.connect();
        a.execute("BEGIN").unwrap();
        a.execute("INSERT INTO t VALUES (2)").unwrap();
        a.execute("COMMIT").unwrap();
        let mut b = db.connect();
        b.execute("BEGIN").unwrap();
        b.execute("INSERT INTO t VALUES (3)").unwrap();
        drop(b); // logs Abort, crash before any checkpoint
    }
    let mut db = open(&dir).unwrap();
    let mut ids: Vec<i64> = db
        .query("SELECT id FROM t")
        .unwrap()
        .iter()
        .map(|r| r[0].as_int().unwrap())
        .collect();
    ids.sort_unstable();
    assert_eq!(ids, vec![1, 2], "only committed work may survive");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A long un-checkpointed tail of single-row UPDATEs and DELETEs over a
/// checkpointed 20k-row table: replay pools the tail's Delete images and
/// settles them in one heap pass (per DDL-free stretch), so reopening
/// reads the table a handful of times, not once per record — and rows
/// that are byte-for-byte equal keep their *count* through
/// delete-then-reinsert and delete-one-of-two.
#[test]
fn long_dml_tail_replays_in_one_pass_per_table() {
    use mlql::kernel::Datum;
    use std::collections::BTreeMap;

    let dir = tmpdir("long-tail");
    // id → (rev, how many identical copies of the row exist)
    let mut model: BTreeMap<i64, (i64, usize)> = BTreeMap::new();
    let pad = "p".repeat(500);
    let heap_pages;
    {
        let mut db = open(&dir).unwrap();
        db.execute("SET wal_sync_mode = 'flush'").unwrap();
        db.execute("CREATE TABLE t (id INT, rev INT, pad TEXT)")
            .unwrap();
        db.execute("CREATE INDEX t_id ON t (id) USING btree")
            .unwrap();
        db.execute("BEGIN").unwrap();
        for id in 0..20_000i64 {
            db.insert_row("t", vec![Datum::Int(id), Datum::Int(0), Datum::text(&pad)])
                .unwrap();
            model.insert(id, (0, 1));
        }
        // Two identical rows, of which the tail deletes one (below, by
        // deleting both and re-inserting one).
        db.insert_row("t", vec![Datum::Int(5), Datum::Int(0), Datum::text(&pad)])
            .unwrap();
        model.insert(5, (0, 2));
        db.execute("COMMIT").unwrap();
        db.engine().checkpoint().unwrap();
        heap_pages = {
            let heap = db.engine().catalog().table("t").unwrap().heap;
            heap.pages(db.engine().pool()).unwrap() as u64
        };

        for i in 0..1_000i64 {
            let id = 100 + (i * 7919) % 19_000;
            let rev = model[&id].0 + 1;
            let r = db
                .execute(&format!("UPDATE t SET rev = {rev} WHERE id = {id}"))
                .unwrap();
            assert_eq!(r.affected, 1);
            model.get_mut(&id).unwrap().0 = rev;
        }
        for i in 0..100i64 {
            let id = 19_500 + i;
            let r = db
                .execute(&format!("DELETE FROM t WHERE id = {id}"))
                .unwrap();
            assert_eq!(r.affected, 1);
            if i % 10 == 0 {
                // Delete-then-reinsert of identical bytes.
                db.execute(&format!("INSERT INTO t VALUES ({id}, 0, '{pad}')"))
                    .unwrap();
            } else {
                model.remove(&id);
            }
        }
        assert_eq!(
            db.execute("DELETE FROM t WHERE id = 5").unwrap().affected,
            2
        );
        db.execute(&format!("INSERT INTO t VALUES (5, 0, '{pad}')"))
            .unwrap();
        model.insert(5, (0, 1));
        // Dropped without a checkpoint: everything above is WAL tail.
    }
    let mut db = open(&dir).unwrap();
    let replay_io = db.engine().pool().stats();
    assert!(
        replay_io.logical_reads < 5 * heap_pages,
        "replay made {} page requests over a {heap_pages}-page table",
        replay_io.logical_reads
    );
    let state = |db: &mut Session| {
        let mut got: BTreeMap<i64, (i64, usize)> = BTreeMap::new();
        for row in db.query("SELECT id, rev FROM t").unwrap() {
            let e = got
                .entry(row[0].as_int().unwrap())
                .or_insert((row[1].as_int().unwrap(), 0));
            assert_eq!(e.0, row[1].as_int().unwrap(), "two revisions of one id");
            e.1 += 1;
        }
        got
    };
    assert_eq!(state(&mut db), model);
    // The rebuilt indexes agree with the heap.
    db.execute("SET enable_seqscan = 0").unwrap();
    for id in [5i64, 100, 19_500, 19_501] {
        let r = db
            .execute(&format!("SELECT rev FROM t WHERE id = {id}"))
            .unwrap();
        assert!(r.explain.unwrap().contains("Index Scan using t_id"));
        let want = model.get(&id).map_or(0, |m| m.1);
        assert_eq!(r.rows.len(), want, "id {id}");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// DDL records in the tail bound the stretches over which replay may
/// pool deletes: a `CREATE INDEX` back-fills from the heap and a `DROP
/// TABLE` takes the heap away, so the images pooled before either must
/// be settled first.  No checkpoint here — the whole history replays.
#[test]
fn ddl_in_tail_settles_pooled_deletes() {
    let dir = tmpdir("ddl-tail");
    {
        let mut db = open(&dir).unwrap();
        db.execute("SET wal_sync_mode = 'flush'").unwrap();
        db.execute("CREATE TABLE a (id INT, tag TEXT)").unwrap();
        db.execute("CREATE TABLE b (id INT)").unwrap();
        for id in 0..200 {
            db.execute(&format!("INSERT INTO a VALUES ({id}, 'x')"))
                .unwrap();
            db.execute(&format!("INSERT INTO b VALUES ({id})")).unwrap();
        }
        db.execute("DELETE FROM a WHERE id >= 150").unwrap();
        db.execute("DELETE FROM b WHERE id < 100").unwrap();
        db.execute("CREATE INDEX a_id ON a (id) USING btree")
            .unwrap();
        db.execute("UPDATE a SET tag = 'y' WHERE id < 10").unwrap();
        db.execute("DROP TABLE b").unwrap();
        db.execute("CREATE TABLE b (id INT)").unwrap();
        db.execute("INSERT INTO b VALUES (1), (1), (2)").unwrap();
        db.execute("DELETE FROM b WHERE id = 1").unwrap();
        db.execute("INSERT INTO b VALUES (1)").unwrap();
        db.execute("DELETE FROM a WHERE id = 149").unwrap();
    }
    let mut db = open(&dir).unwrap();
    let count = |db: &mut Session, sql: &str| db.query(sql).unwrap()[0][0].as_int().unwrap();
    assert_eq!(count(&mut db, "SELECT count(*) FROM a"), 149);
    assert_eq!(count(&mut db, "SELECT count(*) FROM a WHERE tag = 'y'"), 10);
    assert_eq!(count(&mut db, "SELECT count(*) FROM b"), 2);
    assert_eq!(count(&mut db, "SELECT count(*) FROM b WHERE id = 1"), 1);
    // The index replay built holds exactly the surviving versions.
    db.execute("SET enable_seqscan = 0").unwrap();
    let r = db.execute("SELECT id FROM a WHERE id >= 140").unwrap();
    assert!(r.explain.unwrap().contains("Index Scan using a_id"));
    assert_eq!(r.rows.len(), 9);
    let a_id = db.engine().catalog().all_indexes()[0].instance.read().len();
    assert_eq!(a_id, 149);
    std::fs::remove_dir_all(&dir).unwrap();
}
