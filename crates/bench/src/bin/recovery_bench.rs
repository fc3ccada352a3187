//! Durability-path benchmarks: WAL replay time as a function of log size,
//! reopen cost after a checkpoint (bounded by the tail, not history), and
//! insert throughput under the four `wal_sync_mode` policies — including
//! group commit at 1/2/4 concurrent sessions against the per-record-fsync
//! baseline it exists to beat.
//!
//! Emits `BENCH_recovery.json`; the acceptance gate is
//! `group_commit_speedup_4_sessions >= 2`.

use mlql_bench::report::{obj, Report, Value};
use mlql_bench::{scale, timed};
use mlql_kernel::{obs, snapshot, Session};
use std::path::{Path, PathBuf};
use std::time::Instant;

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("mlql-recbench-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

fn wal_bytes(dir: &Path) -> u64 {
    std::fs::metadata(snapshot::wal_path(dir))
        .map(|m| m.len())
        .unwrap_or(0)
}

/// Build a durable database with `records` logged inserts (sync off: we
/// are measuring *replay*, not append), then time a cold reopen.
fn replay_cost(records: usize) -> (u64, f64) {
    let dir = tmpdir(&format!("replay-{records}"));
    {
        let mut db = Session::open_with_extensions(&dir, |_| Ok(())).unwrap();
        db.execute("SET wal_sync_mode = 'off'").unwrap();
        db.execute("CREATE TABLE t (id INT, v TEXT)").unwrap();
        for i in 0..records {
            db.execute(&format!("INSERT INTO t VALUES ({i}, 'value-{i}')"))
                .unwrap();
        }
    }
    let bytes = wal_bytes(&dir);
    let (db, secs) = timed(|| Session::open_with_extensions(&dir, |_| Ok(())).unwrap());
    drop(db);
    std::fs::remove_dir_all(&dir).unwrap();
    (bytes, secs)
}

/// Reopen cost after a checkpoint with a fixed-size tail, for growing
/// pre-checkpoint histories: the times must stay flat.
fn checkpointed_reopen(history: usize, tail: usize) -> f64 {
    let dir = tmpdir(&format!("ckpt-{history}"));
    {
        let mut db = Session::open_with_extensions(&dir, |_| Ok(())).unwrap();
        db.execute("SET wal_sync_mode = 'off'").unwrap();
        db.execute("CREATE TABLE t (id INT, v TEXT)").unwrap();
        for i in 0..history {
            db.execute(&format!("INSERT INTO t VALUES ({i}, 'value-{i}')"))
                .unwrap();
        }
        db.engine().checkpoint().unwrap();
        for i in 0..tail {
            db.execute(&format!("INSERT INTO t VALUES ({i}, 'tail')"))
                .unwrap();
        }
    }
    let (db, secs) = timed(|| Session::open_with_extensions(&dir, |_| Ok(())).unwrap());
    drop(db);
    std::fs::remove_dir_all(&dir).unwrap();
    secs
}

/// Insert throughput (rows/s) with `sessions` concurrent writers under the
/// given `wal_sync_mode`.  Every session inserts `per_session` single-row
/// statements; group commit shows up as fewer fsyncs than rows.
fn insert_throughput(mode: &str, sessions: usize, per_session: usize) -> (f64, u64) {
    let dir = tmpdir(&format!("ins-{mode}-{sessions}"));
    let mut db = Session::open_with_extensions(&dir, |_| Ok(())).unwrap();
    db.execute("CREATE TABLE t (id INT)").unwrap();
    db.execute(&format!("SET wal_sync_mode = '{mode}'"))
        .unwrap();
    let fsyncs_before = obs::metrics().wal_fsyncs_total.get();
    let start = Instant::now();
    std::thread::scope(|scope| {
        for s in 0..sessions {
            let mut session = db.connect();
            scope.spawn(move || {
                for i in 0..per_session {
                    session
                        .execute(&format!("INSERT INTO t VALUES ({})", s * per_session + i))
                        .unwrap();
                }
            });
        }
    });
    let elapsed = start.elapsed().as_secs_f64();
    let fsyncs = obs::metrics().wal_fsyncs_total.get() - fsyncs_before;
    drop(db);
    std::fs::remove_dir_all(&dir).unwrap();
    ((sessions * per_session) as f64 / elapsed, fsyncs)
}

fn main() {
    let sc = scale();
    println!("# recovery bench (scale {sc})");

    // --- replay time vs log size -------------------------------------
    let mut replay_rows = Vec::new();
    for &records in &[500 * sc, 2_000 * sc, 8_000 * sc] {
        let (bytes, secs) = replay_cost(records);
        println!("replay {records} records ({bytes} WAL bytes): {secs:.3}s");
        replay_rows.push(obj(vec![
            ("records", Value::Int(records as i64)),
            ("wal_bytes", Value::Int(bytes as i64)),
            ("reopen_secs", Value::Num(secs)),
        ]));
    }

    // --- checkpointed reopen: flat in history size --------------------
    let tail = 50;
    let mut ckpt_rows = Vec::new();
    let mut ckpt_times = Vec::new();
    for &history in &[500 * sc, 8_000 * sc] {
        let secs = checkpointed_reopen(history, tail);
        println!("checkpointed reopen (history {history}, tail {tail}): {secs:.3}s");
        ckpt_times.push(secs);
        ckpt_rows.push(obj(vec![
            ("history", Value::Int(history as i64)),
            ("tail", Value::Int(tail as i64)),
            ("reopen_secs", Value::Num(secs)),
        ]));
    }
    // 16x more history must not cost anywhere near 16x the reopen; allow
    // generous noise on shared CI boxes.
    let ckpt_flat = ckpt_times[1] <= ckpt_times[0] * 4.0 + 0.05;

    // --- group commit vs per-record fsync -----------------------------
    let per_session = 150 * sc;
    let (base_rps, base_fsyncs) = insert_throughput("fsync_per_record", 1, per_session);
    println!("fsync_per_record @1: {base_rps:.0} rows/s ({base_fsyncs} fsyncs)");
    let mut commit_rows = vec![obj(vec![
        ("mode", Value::Str("fsync_per_record".into())),
        ("sessions", Value::Int(1)),
        ("rows_per_sec", Value::Num(base_rps)),
        ("fsyncs", Value::Int(base_fsyncs as i64)),
    ])];
    let mut group_rps = std::collections::HashMap::new();
    for sessions in [1usize, 2, 4] {
        let (rps, fsyncs) = insert_throughput("fsync", sessions, per_session / sessions.max(1));
        println!("fsync (group commit) @{sessions}: {rps:.0} rows/s ({fsyncs} fsyncs)");
        group_rps.insert(sessions, rps);
        commit_rows.push(obj(vec![
            ("mode", Value::Str("fsync".into())),
            ("sessions", Value::Int(sessions as i64)),
            ("rows_per_sec", Value::Num(rps)),
            ("fsyncs", Value::Int(fsyncs as i64)),
        ]));
    }
    let speedup = group_rps[&4] / base_rps;
    println!("group-commit speedup @4 sessions vs per-record fsync: {speedup:.2}x");

    let mut rep = Report::new("recovery");
    rep.int("scale", sc as i64)
        .set("replay", Value::Arr(replay_rows))
        .set("checkpointed_reopen", Value::Arr(ckpt_rows))
        .flag("checkpoint_bounds_reopen_cost", ckpt_flat)
        .set("insert_throughput", Value::Arr(commit_rows))
        .num("fsync_per_record_rows_per_sec", base_rps)
        .num("group_commit_rows_per_sec_1_session", group_rps[&1])
        .num("group_commit_rows_per_sec_2_sessions", group_rps[&2])
        .num("group_commit_rows_per_sec_4_sessions", group_rps[&4])
        .num("group_commit_speedup_4_sessions", speedup)
        .flag("group_commit_target_met", speedup >= 2.0);
    rep.write_and_note();
}
