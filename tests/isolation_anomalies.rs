//! Isolation-anomaly suite for MVCC snapshot isolation: each classic
//! anomaly (dirty read, non-repeatable read, lost update, write-write
//! conflict, phantom-free snapshot reads over ψ/Ω operators) gets a
//! two-session test against one shared [`Engine`], and a property test
//! fuzzes random interleavings of three transactional sessions against a
//! serial oracle that replays only the committed transactions.  The
//! multilingual operators are first-class citizens here: a LexEQUAL or
//! SemEQUAL scan inside a snapshot must not see a concurrent lexicon
//! INSERT until its own transaction ends.

use mlql::kernel::{Error, Session};
use mlql::mural::install;
use mlql::mural::types::unitext_datum;
use proptest::prelude::*;
use std::collections::BTreeMap;

/// Worker counts every read-side assertion is re-checked at: snapshot
/// semantics must be identical through the serial executor and the
/// morsel-parallel gather.
const WORKER_COUNTS: [usize; 3] = [1, 2, 4];

fn plain_db() -> Session {
    Session::new_in_memory()
}

fn mural_db() -> (Session, mlql::mural::Mural) {
    let mut db = Session::new_in_memory();
    let mural = install(&mut db).unwrap();
    (db, mural)
}

fn int(s: &mut Session, sql: &str) -> i64 {
    s.query(sql).unwrap()[0][0].as_int().unwrap()
}

/// Sorted `k|v` rows of a `kv(k INT, v INT)`-shaped result.
fn sorted_rows(s: &mut Session, sql: &str) -> Vec<String> {
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

// ------------------------------------------------------------- anomalies

/// Dirty read: uncommitted writes (INSERT, UPDATE and DELETE) are
/// invisible to every other session — autocommit readers and open
/// snapshots alike — until COMMIT.
#[test]
fn dirty_reads_are_never_observed() {
    let db = plain_db();
    let mut w = db.connect();
    w.execute("CREATE TABLE kv (k INT, v INT)").unwrap();
    w.execute("INSERT INTO kv VALUES (1, 10), (2, 20)").unwrap();

    let mut r = db.connect();
    w.execute("BEGIN").unwrap();
    w.execute("INSERT INTO kv VALUES (3, 30)").unwrap();
    w.execute("UPDATE kv SET v = 11 WHERE k = 1").unwrap();
    w.execute("DELETE FROM kv WHERE k = 2").unwrap();
    // The writer sees its own effects...
    assert_eq!(
        sorted_rows(&mut w, "SELECT k, v FROM kv"),
        vec!["1|11", "3|30"]
    );
    // ...but no other session does, whether autocommit or snapshotted.
    assert_eq!(
        sorted_rows(&mut r, "SELECT k, v FROM kv"),
        vec!["1|10", "2|20"],
        "autocommit reader saw a dirty write"
    );
    let mut snap = db.connect();
    snap.execute("BEGIN").unwrap();
    assert_eq!(
        sorted_rows(&mut snap, "SELECT k, v FROM kv"),
        vec!["1|10", "2|20"],
        "snapshot reader saw a dirty write"
    );
    snap.execute("COMMIT").unwrap();
    w.execute("COMMIT").unwrap();
    assert_eq!(
        sorted_rows(&mut r, "SELECT k, v FROM kv"),
        vec!["1|11", "3|30"]
    );
}

/// Non-repeatable read: a snapshot pins every read in the transaction to
/// the state at BEGIN, even as another session commits around it; the
/// new state appears only after the snapshot ends.
#[test]
fn reads_are_repeatable_within_a_transaction() {
    let db = plain_db();
    let mut a = db.connect();
    a.execute("CREATE TABLE kv (k INT, v INT)").unwrap();
    a.execute("INSERT INTO kv VALUES (1, 10)").unwrap();

    a.execute("BEGIN").unwrap();
    assert_eq!(int(&mut a, "SELECT v FROM kv WHERE k = 1"), 10);

    let mut b = db.connect();
    b.execute("UPDATE kv SET v = 99 WHERE k = 1").unwrap();
    b.execute("INSERT INTO kv VALUES (2, 20)").unwrap();
    // B's commits are live for fresh snapshots...
    let mut fresh = db.connect();
    assert_eq!(int(&mut fresh, "SELECT count(*) FROM kv"), 2);
    // ...but A keeps reading its own snapshot, however often it asks.
    for _ in 0..3 {
        assert_eq!(
            int(&mut a, "SELECT v FROM kv WHERE k = 1"),
            10,
            "non-repeatable read inside a snapshot"
        );
        assert_eq!(int(&mut a, "SELECT count(*) FROM kv"), 1);
    }
    a.execute("COMMIT").unwrap();
    assert_eq!(int(&mut a, "SELECT v FROM kv WHERE k = 1"), 99);
    assert_eq!(int(&mut a, "SELECT count(*) FROM kv"), 2);
}

/// Lost update: A snapshots, B updates the same row and commits, then A
/// tries to update — first-updater-wins must refuse A with a typed
/// serialization error instead of silently overwriting B's committed
/// write with a value computed from the stale snapshot.
#[test]
fn lost_updates_raise_serialization_errors() {
    let db = plain_db();
    let mut a = db.connect();
    a.execute("CREATE TABLE acct (id INT, bal INT)").unwrap();
    a.execute("INSERT INTO acct VALUES (1, 100)").unwrap();

    a.execute("BEGIN").unwrap();
    assert_eq!(int(&mut a, "SELECT bal FROM acct WHERE id = 1"), 100);

    let mut b = db.connect();
    b.execute("BEGIN").unwrap();
    b.execute("UPDATE acct SET bal = 150 WHERE id = 1").unwrap();
    b.execute("COMMIT").unwrap();

    let err = a
        .execute("UPDATE acct SET bal = 120 WHERE id = 1")
        .unwrap_err();
    assert!(
        matches!(err, Error::Serialization(_)),
        "expected a serialization conflict, got: {err}"
    );
    // The failed transaction rejects further statements until it ends.
    let err = a.query("SELECT bal FROM acct WHERE id = 1").unwrap_err();
    assert!(err.to_string().contains("aborted"), "{err}");
    a.execute("ROLLBACK").unwrap();
    // B's update survived; nothing was lost.
    assert_eq!(int(&mut a, "SELECT bal FROM acct WHERE id = 1"), 150);
}

/// Write-write conflict between two *open* transactions: the first
/// updater stamps the version, the second fails immediately (no
/// waiting), and COMMIT of the failed transaction degrades to rollback.
#[test]
fn first_updater_wins_between_open_transactions() {
    let db = plain_db();
    let metrics = mlql::kernel::obs::metrics();
    let conflicts0 = metrics.txn_conflicts_total.get();
    let mut a = db.connect();
    a.execute("CREATE TABLE kv (k INT, v INT)").unwrap();
    a.execute("INSERT INTO kv VALUES (1, 10)").unwrap();

    let mut b = db.connect();
    a.execute("BEGIN").unwrap();
    b.execute("BEGIN").unwrap();
    a.execute("UPDATE kv SET v = 11 WHERE k = 1").unwrap();
    // B is second to the row: refused at once, not blocked until A ends.
    let err = b.execute("UPDATE kv SET v = 12 WHERE k = 1").unwrap_err();
    assert!(matches!(err, Error::Serialization(_)), "{err}");
    assert!(
        metrics.txn_conflicts_total.get() > conflicts0,
        "conflict counter must record the refusal"
    );
    // DELETE collides with the same stamp.
    let mut c = db.connect();
    c.execute("BEGIN").unwrap();
    let err = c.execute("DELETE FROM kv WHERE k = 1").unwrap_err();
    assert!(matches!(err, Error::Serialization(_)), "{err}");
    c.execute("ROLLBACK").unwrap();
    // COMMIT of the failed transaction is a clean rollback, not an error.
    b.execute("COMMIT").unwrap();
    a.execute("COMMIT").unwrap();
    assert_eq!(int(&mut a, "SELECT v FROM kv WHERE k = 1"), 11);
    // With A committed and B/C gone, the row is writable again.
    b.execute("UPDATE kv SET v = 13 WHERE k = 1").unwrap();
    assert_eq!(int(&mut a, "SELECT v FROM kv WHERE k = 1"), 13);
}

/// ROLLBACK restores visibility exactly: deleted rows come back, updated
/// rows revert, inserted rows vanish — in the rolling-back session and
/// every other one.
#[test]
fn rollback_restores_visibility() {
    let db = plain_db();
    let mut a = db.connect();
    a.execute("CREATE TABLE kv (k INT, v INT)").unwrap();
    a.execute("INSERT INTO kv VALUES (1, 10), (2, 20)").unwrap();

    a.execute("BEGIN").unwrap();
    a.execute("DELETE FROM kv WHERE k = 1").unwrap();
    a.execute("UPDATE kv SET v = 21 WHERE k = 2").unwrap();
    a.execute("INSERT INTO kv VALUES (3, 30)").unwrap();
    assert_eq!(
        sorted_rows(&mut a, "SELECT k, v FROM kv"),
        vec!["2|21", "3|30"]
    );
    a.execute("ROLLBACK").unwrap();
    let expect = vec!["1|10".to_string(), "2|20".to_string()];
    assert_eq!(
        sorted_rows(&mut a, "SELECT k, v FROM kv"),
        expect,
        "own session after rollback"
    );
    let mut other = db.connect();
    assert_eq!(
        sorted_rows(&mut other, "SELECT k, v FROM kv"),
        expect,
        "other session after rollback"
    );
    // The dead versions stay dead across a later write transaction too.
    a.execute("BEGIN").unwrap();
    a.execute("UPDATE kv SET v = 11 WHERE k = 1").unwrap();
    a.execute("COMMIT").unwrap();
    assert_eq!(
        sorted_rows(&mut other, "SELECT k, v FROM kv"),
        vec!["1|11", "2|20"]
    );
}

/// Read-your-own-writes: inside a transaction, a session sees its own
/// uncommitted inserts, updates and deletes layered over its snapshot —
/// including updates of rows it inserted moments earlier.
#[test]
fn transactions_read_their_own_writes() {
    let db = plain_db();
    let mut a = db.connect();
    a.execute("CREATE TABLE kv (k INT, v INT)").unwrap();
    a.execute("INSERT INTO kv VALUES (1, 10)").unwrap();

    a.execute("BEGIN").unwrap();
    a.execute("INSERT INTO kv VALUES (2, 20)").unwrap();
    assert_eq!(int(&mut a, "SELECT count(*) FROM kv"), 2);
    a.execute("UPDATE kv SET v = 21 WHERE k = 2").unwrap();
    assert_eq!(int(&mut a, "SELECT v FROM kv WHERE k = 2"), 21);
    a.execute("UPDATE kv SET v = 22 WHERE k = 2").unwrap();
    assert_eq!(int(&mut a, "SELECT v FROM kv WHERE k = 2"), 22);
    a.execute("DELETE FROM kv WHERE k = 1").unwrap();
    assert_eq!(
        sorted_rows(&mut a, "SELECT k, v FROM kv"),
        vec!["2|22"],
        "own writes must layer over the snapshot"
    );
    a.execute("COMMIT").unwrap();
    let mut other = db.connect();
    assert_eq!(sorted_rows(&mut other, "SELECT k, v FROM kv"), vec!["2|22"]);
}

// --------------------------------------------- multilingual operator reads

/// A ψ (LexEQUAL) scan inside an open snapshot must not see a concurrent
/// committed lexicon INSERT until its own transaction ends — at every
/// worker count and through both executors, over a table big enough that
/// the planner genuinely parallelizes the scan.
#[test]
fn psi_scan_snapshot_ignores_concurrent_lexicon_inserts() {
    let (mut db, mural) = mural_db();
    db.execute("CREATE TABLE names (name UNITEXT)").unwrap();
    let data = mlql::datagen::names_dataset(
        &mural.langs,
        &mlql::datagen::NamesConfig {
            records: 1400,
            noise: 0.25,
            seed: 17,
            ..Default::default()
        },
    );
    for rec in data {
        db.insert_row("names", vec![unitext_datum(mural.unitext_type, &rec.name)])
            .unwrap();
    }
    db.execute("ANALYZE names").unwrap();

    let psi = "SELECT count(*) FROM names WHERE name LEXEQUAL unitext('Nehru','English')";
    let mut a = db.connect();
    a.execute("SET lexequal.threshold = 2").unwrap();
    a.execute("BEGIN").unwrap();
    let before = int(&mut a, psi);

    // A concurrent session inserts matching lexicon entries across three
    // scripts and (auto)commits each one.
    const EXTRA: i64 = 3;
    let mut b = db.connect();
    for (name, lang) in [("Nehru", "English"), ("नेहरू", "Hindi"), ("நேரு", "Tamil")]
    {
        b.execute(&format!(
            "INSERT INTO names VALUES (unitext('{name}','{lang}'))"
        ))
        .unwrap();
    }
    // Fresh snapshots see them immediately...
    let mut fresh = db.connect();
    fresh.execute("SET lexequal.threshold = 2").unwrap();
    assert_eq!(int(&mut fresh, psi), before + EXTRA);
    // ...while A's snapshot stays pinned, whatever the executor shape.
    for &w in &WORKER_COUNTS {
        a.execute(&format!("SET parallel_workers = {w}")).unwrap();
        assert_eq!(int(&mut a, psi), before, "ψ snapshot leaked at workers={w}");
    }
    a.execute("COMMIT").unwrap();
    assert_eq!(int(&mut a, psi), before + EXTRA);
}

/// The same pin for Ω (SemEQUAL) closure probes: rows categorized under
/// the probe's subtree that commit mid-transaction stay invisible to the
/// open snapshot at every worker count.
#[test]
fn omega_scan_snapshot_ignores_concurrent_inserts() {
    let (mut db, mural) = mural_db();
    db.execute("CREATE TABLE docs (id INT, category UNITEXT)")
        .unwrap();
    let cats = [
        ("History", "English"),
        ("Biography", "English"),
        ("Fiction", "English"),
        ("Histoire", "French"),
    ];
    for i in 0..1200i64 {
        let (w, l) = cats[i as usize % cats.len()];
        let v = mlql::unitext::UniText::compose(w, mural.langs.id_of(l));
        db.insert_row(
            "docs",
            vec![
                mlql::kernel::Datum::Int(i),
                unitext_datum(mural.unitext_type, &v),
            ],
        )
        .unwrap();
    }
    db.execute("ANALYZE docs").unwrap();

    let omega = "SELECT count(*) FROM docs WHERE category SEMEQUAL unitext('History','English')";
    let mut a = db.connect();
    a.execute("BEGIN").unwrap();
    let before = int(&mut a, omega);
    assert!(before > 0, "probe must select something");

    let mut b = db.connect();
    b.execute("BEGIN").unwrap();
    for id in [9001i64, 9002] {
        b.execute(&format!(
            "INSERT INTO docs VALUES ({id}, unitext('Biography','English'))"
        ))
        .unwrap();
    }
    // Still uncommitted: invisible everywhere.
    let mut fresh = db.connect();
    assert_eq!(int(&mut fresh, omega), before);
    b.execute("COMMIT").unwrap();
    // Committed: fresh snapshots count them, A's snapshot does not.
    assert_eq!(int(&mut fresh, omega), before + 2);
    for &w in &WORKER_COUNTS {
        a.execute(&format!("SET parallel_workers = {w}")).unwrap();
        assert_eq!(
            int(&mut a, omega),
            before,
            "Ω snapshot leaked at workers={w}"
        );
    }
    a.execute("COMMIT").unwrap();
    assert_eq!(int(&mut a, omega), before + 2);
}

// ------------------------------------------------------------ proptest

/// One statement of a transactional session in the interleaving fuzzer.
#[derive(Debug, Clone)]
enum Op {
    Insert(i64, i64),
    Update(i64, i64),
    Delete(i64),
}

/// The serial oracle: a bag of `(k, v)` rows with SQL UPDATE/DELETE
/// semantics (all rows matching `k` are touched).
fn apply(model: &mut BTreeMap<i64, Vec<i64>>, ops: &[Op]) {
    for op in ops {
        match *op {
            Op::Insert(k, v) => model.entry(k).or_default().push(v),
            Op::Update(k, v) => {
                if let Some(vs) = model.get_mut(&k) {
                    vs.iter_mut().for_each(|slot| *slot = v);
                }
            }
            Op::Delete(k) => {
                model.remove(&k);
            }
        }
    }
}

fn model_rows(model: &BTreeMap<i64, Vec<i64>>) -> Vec<String> {
    let mut out: Vec<String> = model
        .iter()
        .flat_map(|(k, vs)| vs.iter().map(move |v| format!("{k}|{v}")))
        .collect();
    out.sort();
    out
}

/// Keys session `i` (of `SESSIONS`) may touch: its residue class of the
/// pre-seeded keys plus a private high range.  Disjoint ownership means
/// no interleaving can hit a write-write conflict, so *every* statement
/// must succeed and the final state must equal the serial replay of the
/// committed transactions — pure snapshot semantics, no tiebreaks.
const SESSIONS: usize = 3;
const BASE_KEYS: i64 = 12;

fn owned_key(session: usize, slot: i64) -> i64 {
    if slot < 4 {
        // Pre-seeded rows: k in 0..BASE_KEYS with k % SESSIONS == session.
        slot * SESSIONS as i64 + session as i64
    } else {
        // Private insert range, far from the seeds.
        1000 * (session as i64 + 1) + slot
    }
}

fn op_strategy(session: usize) -> impl Strategy<Value = Op> {
    let slot = 0i64..8;
    prop_oneof![
        (slot.clone(), 0i64..100).prop_map(move |(s, v)| Op::Insert(owned_key(session, s), v)),
        (slot.clone(), 0i64..100).prop_map(move |(s, v)| Op::Update(owned_key(session, s), v)),
        slot.prop_map(move |s| Op::Delete(owned_key(session, s))),
    ]
}

/// All mutable pieces one fuzzer step needs; separated from the generated
/// inputs so a plain fn can borrow everything at once.
struct FuzzRun {
    sessions: Vec<Session>,
    /// Next statement index per session into `BEGIN, ops…, terminator`.
    cursor: [usize; SESSIONS],
    done: [bool; SESSIONS],
    model: BTreeMap<i64, Vec<i64>>,
    checker: Session,
}

/// Execute session `i`'s next statement (if any).  When the terminator
/// runs, the committed transaction is applied to the oracle and a fresh
/// snapshot is checked against it: no interleaving may ever expose a
/// half-applied transaction.
fn fuzz_step(run: &mut FuzzRun, i: usize, ops: &[Vec<Op>; SESSIONS], commits: &[bool; SESSIONS]) {
    if run.done[i] {
        return;
    }
    let pos = run.cursor[i];
    run.cursor[i] += 1;
    let s = &mut run.sessions[i];
    if pos == 0 {
        s.execute("BEGIN").unwrap();
        return;
    }
    if let Some(op) = ops[i].get(pos - 1) {
        let sql = match *op {
            Op::Insert(k, v) => format!("INSERT INTO kv VALUES ({k}, {v})"),
            Op::Update(k, v) => format!("UPDATE kv SET v = {v} WHERE k = {k}"),
            Op::Delete(k) => format!("DELETE FROM kv WHERE k = {k}"),
        };
        // Disjoint partitions: a conflict here is an engine bug.
        s.execute(&sql).unwrap();
        return;
    }
    s.execute(if commits[i] { "COMMIT" } else { "ROLLBACK" })
        .unwrap();
    run.done[i] = true;
    if commits[i] {
        apply(&mut run.model, &ops[i]);
    }
    let live = sorted_rows(&mut run.checker, "SELECT k, v FROM kv");
    assert_eq!(
        live,
        model_rows(&run.model),
        "divergence after session {i} ended (commit={})",
        commits[i]
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Random interleavings of three transactional sessions over disjoint
    /// key partitions: after the dust settles, the table must equal a
    /// serial replay of exactly the committed transactions, in commit
    /// order — checked at workers 1/2/4.  Mid-run, every
    /// fresh snapshot must equal the committed prefix.
    #[test]
    fn interleaved_transactions_match_serial_oracle(
        per_session in (
            proptest::collection::vec(op_strategy(0), 1..6),
            proptest::collection::vec(op_strategy(1), 1..6),
            proptest::collection::vec(op_strategy(2), 1..6),
        ),
        commit_mask in 0u8..8,
        schedule in proptest::collection::vec(0usize..SESSIONS, 12..40),
    ) {
        let ops = [per_session.0, per_session.1, per_session.2];
        let commits = [
            commit_mask & 1 != 0,
            commit_mask & 2 != 0,
            commit_mask & 4 != 0,
        ];
        let db = plain_db();
        let mut seed = db.connect();
        seed.execute("CREATE TABLE kv (k INT, v INT)").unwrap();
        let mut model: BTreeMap<i64, Vec<i64>> = BTreeMap::new();
        for k in 0..BASE_KEYS {
            seed.execute(&format!("INSERT INTO kv VALUES ({k}, {k})")).unwrap();
            model.entry(k).or_default().push(k);
        }

        let mut run = FuzzRun {
            sessions: (0..SESSIONS).map(|_| db.connect()).collect(),
            cursor: [0; SESSIONS],
            done: [false; SESSIONS],
            model,
            checker: db.connect(),
        };
        for &i in &schedule {
            fuzz_step(&mut run, i, &ops, &commits);
        }
        // Drain whatever the random schedule left unfinished.
        for i in 0..SESSIONS {
            while !run.done[i] {
                fuzz_step(&mut run, i, &ops, &commits);
            }
        }

        // Final state equals the serial oracle through every executor.
        let expect = model_rows(&run.model);
        for &w in &WORKER_COUNTS {
            run.checker.execute(&format!("SET parallel_workers = {w}")).unwrap();
            let got = sorted_rows(&mut run.checker, "SELECT k, v FROM kv");
            prop_assert_eq!(&got, &expect, "final state diverged at workers={}", w);
        }
    }
}
