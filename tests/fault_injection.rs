//! Fault-injection harness for the durability path (the paper's engine
//! machinery must survive the same crash scenarios PostgreSQL does for the
//! in-server numbers to be honest):
//!
//! * torn WAL tails at **every byte boundary** of the final record —
//!   recovery must land exactly on the committed prefix;
//! * mid-log bit flips — recovery must refuse with the failing LSN and
//!   byte offset rather than silently truncate acknowledged history;
//! * truncated / bit-flipped catalog snapshots — detected by checksum;
//! * page-write failures during checkpoint (via [`FaultyBackend`]) — the
//!   WAL must survive a failed checkpoint untruncated;
//! * a randomized kill-at-any-byte crash-torture loop (feature
//!   `fault-injection`, exercised by the CI fault-injection job).
//!
//! Tests share the process-global metrics registry, so everything that
//! asserts exact metric deltas runs under one static mutex.

use mlql::kernel::storage::{
    FaultInjector, FaultyBackend, Wal, WalReader, WalRecord, WAL_HEADER_LEN,
};
use mlql::kernel::{recovery, snapshot};
use mlql::kernel::{Datum, Error, Result, Session};
use mlql::mural::install;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// Serializes the tests: exact metric-delta assertions must not interleave
/// with another test's recovery, and the fsync-heavy tests behave better
/// sequentially on single-core CI.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> std::sync::MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("mlql-fi-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

fn open(dir: &Path) -> Result<Session> {
    Session::open_with_extensions(dir, |_| Ok(()))
}

fn wal_len(root: &Path) -> u64 {
    std::fs::metadata(snapshot::wal_path(root)).unwrap().len()
}

fn count(db: &mut Session, table: &str) -> i64 {
    db.query(&format!("SELECT count(*) FROM {table}")).unwrap()[0][0]
        .as_int()
        .unwrap()
}

// ------------------------------------------------------------ checkpoints

/// After `checkpoint()` the WAL is truncated to its header, and reopening
/// replays only the post-checkpoint tail: reopen cost no longer scales
/// with pre-checkpoint history.
#[test]
fn checkpoint_truncates_wal_and_reopen_replays_only_the_tail() {
    let _guard = serial();
    let dir = tmpdir("ckpt");
    {
        let mut db = open(&dir).unwrap();
        db.execute("CREATE TABLE t (a INT)").unwrap();
        for i in 0..50 {
            db.execute(&format!("INSERT INTO t VALUES ({i})")).unwrap();
        }
        assert!(wal_len(&dir) > WAL_HEADER_LEN, "history should be logged");
        db.engine().checkpoint().unwrap();
        assert_eq!(
            wal_len(&dir),
            WAL_HEADER_LEN,
            "checkpoint must truncate the WAL to its header"
        );
        // Post-checkpoint tail: three more records.
        for i in 50..53 {
            db.execute(&format!("INSERT INTO t VALUES ({i})")).unwrap();
        }
    }
    let m = mlql::kernel::obs::metrics();
    let replayed_before = m.recovery_replayed_records_total.get();
    let restores_before = m.recovery_snapshot_restores_total.get();
    let mut db = open(&dir).unwrap();
    assert_eq!(count(&mut db, "t"), 53);
    assert_eq!(
        m.recovery_replayed_records_total.get() - replayed_before,
        3,
        "reopen must replay exactly the 3-record tail, not the 51-record history"
    );
    assert_eq!(
        m.recovery_snapshot_restores_total.get() - restores_before,
        1
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Repeated checkpoint/reopen cycles stay consistent (the checkpoint
/// pointer always names the newest snapshot, old ones are garbage
/// collected).
#[test]
fn checkpoint_cycles_keep_one_snapshot_and_stay_consistent() {
    let _guard = serial();
    let dir = tmpdir("ckpt-cycle");
    {
        let mut db = open(&dir).unwrap();
        db.execute("CREATE TABLE t (a INT)").unwrap();
        for round in 0..3 {
            for i in 0..4 {
                db.execute(&format!("INSERT INTO t VALUES ({})", round * 4 + i))
                    .unwrap();
            }
            db.engine().checkpoint().unwrap();
        }
    }
    let snapshots: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .filter(|e| e.file_name().to_string_lossy().starts_with("chk-"))
        .collect();
    assert_eq!(snapshots.len(), 1, "old checkpoint dirs must be GCed");
    let mut db = open(&dir).unwrap();
    assert_eq!(count(&mut db, "t"), 12);
    std::fs::remove_dir_all(&dir).unwrap();
}

// ---------------------------------------------------------------- torn tails

/// Truncate the WAL at *every* byte boundary of the final record: recovery
/// must always land exactly on the committed statement prefix — never lose
/// a fully-framed statement, never resurrect a partial one.
#[test]
fn torn_tail_recovers_committed_prefix_at_every_byte() {
    let _guard = serial();
    let dir = tmpdir("torn");
    // Statement boundaries: WAL length after each single-row statement.
    let mut boundaries = Vec::new();
    {
        let mut db = open(&dir).unwrap();
        db.execute("CREATE TABLE t (a INT)").unwrap();
        boundaries.push(wal_len(&dir)); // after CREATE TABLE, 0 rows
        for i in 0..4 {
            db.execute(&format!("INSERT INTO t VALUES ({i})")).unwrap();
            boundaries.push(wal_len(&dir)); // after i+1 rows
        }
    }
    let wal_path = snapshot::wal_path(&dir);
    let full = std::fs::read(&wal_path).unwrap();
    assert_eq!(full.len() as u64, *boundaries.last().unwrap());

    // Every cut inside the final record (and the exact boundaries around
    // it): rows visible = statements whose frames are complete.
    let final_start = boundaries[boundaries.len() - 2];
    for cut in final_start..=*boundaries.last().unwrap() {
        std::fs::write(&wal_path, &full[..cut as usize]).unwrap();
        let mut db = open(&dir).unwrap();
        let expect = if cut == *boundaries.last().unwrap() {
            4
        } else {
            3
        };
        assert_eq!(
            count(&mut db, "t"),
            expect,
            "cut at byte {cut} of {}",
            full.len()
        );
        drop(db);
        // Reopening truncated the tear; restore the full log for the next cut.
        std::fs::write(&wal_path, &full).unwrap();
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

// ------------------------------------------------------------- corruption

/// A bit flip in the *middle* of the log (not the tail) is corruption, not
/// a torn write: recovery must refuse, reporting the failing LSN and byte
/// offset, instead of silently dropping acknowledged records.
#[test]
fn mid_log_bit_flip_is_reported_with_lsn_and_offset() {
    let _guard = serial();
    let dir = tmpdir("flip");
    {
        let mut db = open(&dir).unwrap();
        db.execute("CREATE TABLE t (a INT, b TEXT)").unwrap();
        for i in 0..8 {
            db.execute(&format!("INSERT INTO t VALUES ({i}, 'row-{i}')"))
                .unwrap();
        }
    }
    let wal_path = snapshot::wal_path(&dir);
    // Find the exact byte range of the third record (LSN 3) so the flip
    // lands in a payload — flipping a length field instead would read as a
    // torn tail, which is a different (also tested) failure shape.
    let frame3_offset = {
        let mut r = WalReader::open(&wal_path).unwrap().unwrap();
        r.next_record().unwrap().unwrap();
        r.next_record().unwrap().unwrap();
        r.offset()
    };
    let mut bytes = std::fs::read(&wal_path).unwrap();
    // Frame header is lsn(8) + crc(4) + len(4); +1 lands in the payload.
    let flip_at = frame3_offset as usize + 16 + 1;
    bytes[flip_at] ^= 0x40;
    std::fs::write(&wal_path, &bytes).unwrap();

    let err = match open(&dir) {
        Ok(_) => panic!("open must refuse a mid-log bit flip"),
        Err(e) => e,
    };
    match err {
        Error::WalCorrupt { lsn, offset, .. } => {
            assert_eq!(lsn, 3, "the corrupted frame is the third record");
            assert_eq!(
                offset, frame3_offset,
                "the error must name the corrupted frame's byte offset"
            );
        }
        other => panic!("expected WalCorrupt, got {other}"),
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A truncated or bit-flipped snapshot file must be rejected by its
/// checksum, not half-applied.
#[test]
fn damaged_snapshot_is_detected() {
    let _guard = serial();
    let dir = tmpdir("snap");
    {
        let mut db = open(&dir).unwrap();
        db.execute("CREATE TABLE t (a INT)").unwrap();
        db.execute("INSERT INTO t VALUES (1)").unwrap();
        db.engine().checkpoint().unwrap();
    }
    let chk = snapshot::read_pointer(&dir)
        .unwrap()
        .expect("checkpoint exists");
    let cat = chk.join("snapshot.cat");
    let good = std::fs::read(&cat).unwrap();

    // Truncation.
    std::fs::write(&cat, &good[..good.len() - 3]).unwrap();
    assert!(
        matches!(open(&dir), Err(Error::SnapshotCorrupt { .. })),
        "truncated snapshot must be rejected"
    );

    // Bit flip.
    let mut flipped = good.clone();
    let mid = flipped.len() / 2;
    flipped[mid] ^= 0x01;
    std::fs::write(&cat, &flipped).unwrap();
    assert!(
        matches!(open(&dir), Err(Error::SnapshotCorrupt { .. })),
        "bit-flipped snapshot must be rejected"
    );

    // Restore: the database opens again.
    std::fs::write(&cat, &good).unwrap();
    let mut db = open(&dir).unwrap();
    assert_eq!(count(&mut db, "t"), 1);
    std::fs::remove_dir_all(&dir).unwrap();
}

// -------------------------------------------------------- failed checkpoints

/// Page writes failing mid-checkpoint (disk full, I/O error) must leave
/// the WAL untruncated; a reopen recovers everything, and a later healthy
/// checkpoint succeeds.
#[test]
fn failed_checkpoint_preserves_the_wal() {
    let _guard = serial();
    let dir = tmpdir("failckpt");
    let injector = FaultInjector::new();
    {
        let inj = std::sync::Arc::clone(&injector);
        let mut db = recovery::open(
            &dir,
            |_| Ok(()),
            move |inner| Box::new(FaultyBackend::new(inner, inj)),
        )
        .unwrap();
        db.execute("CREATE TABLE t (a INT)").unwrap();
        for i in 0..20 {
            db.execute(&format!("INSERT INTO t VALUES ({i})")).unwrap();
        }
        let logged = wal_len(&dir);

        injector.fail_page_writes_after(0);
        assert!(
            db.engine().checkpoint().is_err(),
            "checkpoint must surface the I/O error"
        );
        assert!(injector.writes_failed() > 0);
        assert_eq!(
            wal_len(&dir),
            logged,
            "failed checkpoint must not touch the WAL"
        );
        assert!(
            snapshot::read_pointer(&dir).unwrap().is_none(),
            "failed checkpoint must not publish a pointer"
        );

        injector.heal();
        db.engine().checkpoint().unwrap();
        assert_eq!(wal_len(&dir), WAL_HEADER_LEN);
    }
    let mut db = open(&dir).unwrap();
    assert_eq!(count(&mut db, "t"), 20);
    std::fs::remove_dir_all(&dir).unwrap();
}

// -------------------------------------------------------- replay semantics

/// Regression: a table holding *identical duplicate rows* where exactly one
/// was deleted must recover with exactly one removed.  The WAL is written
/// by hand because the SQL `DELETE` predicate would remove every match —
/// the logical delete record itself must mean "one tuple", not "all equal
/// tuples".
#[test]
fn duplicate_row_delete_replays_exactly_one_removal() {
    let _guard = serial();
    let dir = tmpdir("dupdel");
    std::fs::create_dir_all(&dir).unwrap();
    let row = vec![Datum::Int(7), Datum::text("twin")];
    let tuple = mlql::kernel::storage::encode_row(&row);
    {
        let mut wal = Wal::open(snapshot::wal_path(&dir), 0).unwrap();
        wal.append(&WalRecord::Ddl {
            sql: "CREATE TABLE twins (a INT, b TEXT)".to_string(),
        })
        .unwrap();
        // `txn: 0` marks a record committed at append time — no Commit
        // record needed for replay to apply it.
        for _ in 0..2 {
            wal.append(&WalRecord::Insert {
                table_id: 0,
                txn: 0,
                tuple: tuple.clone(),
            })
            .unwrap();
        }
        wal.append(&WalRecord::Delete {
            table_id: 0,
            txn: 0,
            tuple: tuple.clone(),
        })
        .unwrap();
        wal.flush().unwrap();
        wal.sync().unwrap();
    }
    let mut db = open(&dir).unwrap();
    assert_eq!(
        count(&mut db, "twins"),
        1,
        "one of two identical rows must survive the replayed delete"
    );
    let rows = db.query("SELECT a, b FROM twins").unwrap();
    assert_eq!(rows[0][0].as_int(), Some(7));
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Replay pools Delete records and settles them later, but a failure is
/// still reported against the Delete that caused it — not against the
/// DDL record that triggered the pass, nor without a position at the end
/// of the tail.
#[test]
fn pooled_delete_failure_names_the_delete_record() {
    let _guard = serial();
    let tuple = mlql::kernel::storage::encode_row(&vec![Datum::Int(1)]);
    for ddl_after in [false, true] {
        let dir = tmpdir("delpos");
        std::fs::create_dir_all(&dir).unwrap();
        let mut wal = Wal::open(snapshot::wal_path(&dir), 0).unwrap();
        let mut append = |rec| wal.append(&rec).unwrap();
        append(WalRecord::Ddl {
            sql: "CREATE TABLE t (a INT)".to_string(),
        });
        let insert = WalRecord::Insert {
            table_id: 0,
            txn: 0,
            tuple: tuple.clone(),
        };
        append(insert.clone());
        // Table id 9 never existed.
        let bad = append(WalRecord::Delete {
            table_id: 9,
            txn: 0,
            tuple: tuple.clone(),
        });
        append(insert);
        if ddl_after {
            append(WalRecord::Ddl {
                sql: "CREATE TABLE u (a INT)".to_string(),
            });
        }
        wal.flush().unwrap();
        wal.sync().unwrap();
        drop(wal);
        match open(&dir) {
            Err(mlql::kernel::Error::Replay { lsn, .. }) => assert_eq!(lsn, bad),
            Err(e) => panic!("expected a replay error at lsn {bad}, got: {e}"),
            Ok(_) => panic!("a Delete for an unknown table must fail replay"),
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

/// Indexes are not WAL-logged (§4.2.1): after a snapshot-based recovery
/// they are rebuilt from the heaps, and must still serve LEXEQUAL index
/// scans.
#[test]
fn recovered_indexes_serve_lexequal_scans_after_checkpoint() {
    let _guard = serial();
    let dir = tmpdir("lexeq");
    {
        let mut slot = None;
        let mut db = Session::open_with_extensions(&dir, |db| {
            slot = Some(install(db)?);
            Ok(())
        })
        .unwrap();
        let _mural = slot.unwrap();
        db.execute("CREATE TABLE book (author UNITEXT)").unwrap();
        db.execute("CREATE INDEX book_mt ON book (author) USING mtree")
            .unwrap();
        for (n, l) in [("Nehru", "English"), ("नेहरू", "Hindi")] {
            db.execute(&format!("INSERT INTO book VALUES (unitext('{n}','{l}'))"))
                .unwrap();
        }
        db.engine().checkpoint().unwrap();
        // Post-checkpoint tail row: recovery must merge snapshot + tail
        // before rebuilding the M-Tree.
        db.execute("INSERT INTO book VALUES (unitext('நேரு','Tamil'))")
            .unwrap();
    }
    let mut slot = None;
    let mut db = Session::open_with_extensions(&dir, |db| {
        slot = Some(install(db)?);
        Ok(())
    })
    .unwrap();
    let _mural = slot.unwrap();
    db.execute("SET lexequal.threshold = 2").unwrap();
    db.execute("SET enable_seqscan = 0").unwrap();
    let r = db
        .execute("SELECT count(*) FROM book WHERE author LEXEQUAL unitext('Nehru','English')")
        .unwrap();
    assert_eq!(r.rows[0][0].as_int(), Some(3));
    assert!(
        r.explain.unwrap().contains("Index Scan"),
        "the rebuilt M-Tree must serve the query"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

// ----------------------------------------------------------- crash torture

/// Randomized kill-at-any-byte loop: run a random workload (inserts,
/// deletes, checkpoints), then simulate a crash by cutting the WAL at a
/// random byte and reopening.  The recovered table must equal the model
/// state of the longest committed statement prefix — every time.
///
/// Feature-gated: the CI `fault-injection` job runs it; plain
/// `cargo test -q` stays fast.
#[cfg(feature = "fault-injection")]
#[test]
fn random_kill_crash_torture_recovers_committed_prefix() {
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    let _guard = serial();
    let mut rng = SmallRng::seed_from_u64(0xC0FF_EE00);
    for iteration in 0..25 {
        let dir = tmpdir(&format!("torture-{iteration}"));
        // (wal length, model rows) after each committed statement, since
        // the last checkpoint; a checkpoint resets the trace because
        // earlier bytes no longer exist.
        let mut model: Vec<i64> = Vec::new();
        let mut trace: Vec<(u64, Vec<i64>)> = Vec::new();
        let mut next_value = 0i64;
        {
            let mut db = open(&dir).unwrap();
            // Flush-per-statement is enough here: the "crash" is an explicit
            // byte-level cut, so statement boundaries just need to be real
            // file offsets, which flush guarantees.
            db.execute("SET wal_sync_mode = 'flush'").unwrap();
            db.execute("CREATE TABLE t (a INT)").unwrap();
            trace.push((wal_len(&dir), model.clone()));
            let ops = rng.gen_range(5..18);
            for _ in 0..ops {
                match rng.gen_range(0..6) {
                    // Delete one specific value (unique, so the SQL delete
                    // removes exactly the modeled row).
                    0 if !model.is_empty() => {
                        let idx = rng.gen_range(0..model.len());
                        let gone = model.remove(idx);
                        db.execute(&format!("DELETE FROM t WHERE a = {gone}"))
                            .unwrap();
                        trace.push((wal_len(&dir), model.clone()));
                    }
                    1 => {
                        db.engine().checkpoint().unwrap();
                        trace.clear();
                        trace.push((wal_len(&dir), model.clone()));
                    }
                    _ => {
                        db.execute(&format!("INSERT INTO t VALUES ({next_value})"))
                            .unwrap();
                        model.push(next_value);
                        next_value += 1;
                        trace.push((wal_len(&dir), model.clone()));
                    }
                }
            }
        }
        // Kill at a random byte of the post-checkpoint log.
        let wal_path = snapshot::wal_path(&dir);
        let full = std::fs::read(&wal_path).unwrap();
        let floor = trace[0].0;
        let cut = rng.gen_range(floor..full.len() as u64 + 1);
        std::fs::write(&wal_path, &full[..cut as usize]).unwrap();

        let expected = trace
            .iter()
            .rev()
            .find(|(len, _)| *len <= cut)
            .map(|(_, rows)| rows.clone())
            .expect("the post-checkpoint floor is always <= cut");

        let mut db = open(&dir).unwrap();
        let mut got: Vec<i64> = db
            .query("SELECT a FROM t")
            .unwrap()
            .into_iter()
            .map(|r| r[0].as_int().unwrap())
            .collect();
        got.sort_unstable();
        let mut want = expected;
        want.sort_unstable();
        if got != want {
            // Post-mortem: dump the flight recorder + metrics so the CI
            // failure artifact shows what the engine was doing (workload
            // statements, span trees, waits) leading up to the bad cut.
            if let Ok(dump) = mlql::kernel::obs::flight::dump_default() {
                eprintln!("obs dump written to {}", dump.display());
            }
            panic!(
                "iteration {iteration}: cut at byte {cut} of {} must recover the \
                 committed prefix (got {got:?}, want {want:?})",
                full.len()
            );
        }
        drop(db);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

// ------------------------------------------------------- transaction tails

/// Kill-at-any-byte over a WAL tail holding one *committed* and one
/// *uncommitted* transaction: wherever the crash lands, recovery keeps
/// the committed transaction iff its Commit record survived the cut, and
/// the uncommitted transaction's rows never appear — there is no cut
/// point at which an orphan version becomes visible.
#[test]
fn torn_tail_with_committed_and_uncommitted_txns_at_every_byte() {
    let _guard = serial();
    let dir = tmpdir("txn-torn");
    let setup_end;
    let committed_end;
    {
        let db = open(&dir).unwrap();
        let mut s = db.connect();
        s.execute("CREATE TABLE t (id INT, tag TEXT)").unwrap();
        for i in 0..3 {
            s.execute(&format!("INSERT INTO t VALUES ({i}, 'base')"))
                .unwrap();
        }
        setup_end = wal_len(&dir);

        // Committed transaction: three rows then COMMIT (fsynced, so the
        // file length here is exact).
        let mut a = db.connect();
        a.execute("BEGIN").unwrap();
        for i in 10..13 {
            a.execute(&format!("INSERT INTO t VALUES ({i}, 'committed')"))
                .unwrap();
        }
        a.execute("COMMIT").unwrap();
        committed_end = wal_len(&dir);

        // In-flight transaction: DML appended, no terminator ever —
        // the leaked session means not even an Abort reaches the log.
        let mut b = db.connect();
        b.execute("BEGIN").unwrap();
        for i in 20..23 {
            b.execute(&format!("INSERT INTO t VALUES ({i}, 'orphan')"))
                .unwrap();
        }
        // Another session's group commit flushes the shared tail — B's
        // buffered records reach disk without B ever committing, exactly
        // the state a crash mid-transaction leaves behind.
        db.engine().wal().unwrap().commit().unwrap();
        std::mem::forget(b);
    }
    let wal_path = snapshot::wal_path(&dir);
    let full = std::fs::read(&wal_path).unwrap();
    assert!(
        full.len() as u64 > committed_end,
        "the uncommitted tail must be on disk for the cuts to mean anything"
    );

    for cut in setup_end..=full.len() as u64 {
        std::fs::write(&wal_path, &full[..cut as usize]).unwrap();
        let mut db = open(&dir).unwrap();
        let base = count(&mut db, "t");
        let committed = db
            .query("SELECT count(*) FROM t WHERE tag = 'committed'")
            .unwrap()[0][0]
            .as_int()
            .unwrap();
        let orphans = db
            .query("SELECT count(*) FROM t WHERE tag = 'orphan'")
            .unwrap()[0][0]
            .as_int()
            .unwrap();
        assert_eq!(orphans, 0, "cut at byte {cut}: orphan rows surfaced");
        let expect_committed = if cut >= committed_end { 3 } else { 0 };
        assert_eq!(
            committed,
            expect_committed,
            "cut at byte {cut} of {}: committed txn is all-or-nothing at its Commit record",
            full.len()
        );
        assert_eq!(base, 3 + expect_committed, "cut at byte {cut}");
        drop(db);
        // Reopening truncated the tear; restore the full log for the next cut.
        std::fs::write(&wal_path, &full).unwrap();
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
