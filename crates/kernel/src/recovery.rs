//! Durable open: checkpoint restore, WAL replay and index rebuild.
//!
//! The engine's durability contract, as PostgreSQL 7.4 offered it to the
//! paper's extensions: extension registration lives in code and runs
//! *before* replay (logged DDL may name extension types), heap effects are
//! recovered from the log, and **indexes are rebuilt** from the recovered
//! heaps because the extensible index layer is not WAL-logged (§4.2.1).
//! [`Session::open_with_extensions`] is the usual entry point; [`open`]
//! adds a hook that may wrap the storage backend (the fault-injection
//! harness interposes a `FaultyBackend` there).

use crate::catalog::{TableId, TableMeta};
use crate::engine::{Engine, Session};
use crate::error::{Error, Result};
use crate::index::IndexInstance;
use crate::snapshot::{self, Snapshot};
use crate::storage::{
    decode_row, split_version, BufferPool, FileBackend, FileId, HeapFile, SharedWal,
    StorageBackend, SyncMode, Wal, WalReader, WalRecord,
};
use std::collections::{HashMap, HashSet};
use std::path::Path;
use std::sync::Arc;

/// Delete images pooled during WAL replay, per table id: the `(lsn,
/// offset)` of the table's first pooled record — what a failure of the
/// heap pass is reported against — and row image (version header
/// excluded) → how many versions with that image to delete.
type PooledDeletes = HashMap<u32, ((u64, u64), HashMap<Vec<u8>, usize>)>;

/// Open (or create) a durable database under `dir` and return its first
/// session.  `install` runs on that session before replay; `wrap` may
/// interpose on the file backend.
///
/// Recovery sequence:
/// 1. If a `CHECKPOINT` pointer exists, verify and load its snapshot,
///    and replace the data directory with the checkpoint's heap copies
///    (the live heaps may contain post-snapshot effects — the buffer
///    pool steals — so they are never trusted).  Otherwise clear the
///    heaps: full replay starts from empty.
/// 2. Install extensions, then restore the catalog from the snapshot
///    (all table slots in id order, dead ones included, so replayed
///    DDL re-assigns identical table ids).
/// 3. Stream the WAL tail, applying records with LSN beyond the
///    snapshot.  A torn tail ends replay silently; mid-log corruption
///    or a record that fails to apply aborts with the LSN/offset.
/// 4. Rebuild indexes from the heaps (not WAL-logged — §4.2.1).
/// 5. Attach the WAL for logging (group-commit `fsync` mode).
pub fn open(
    dir: impl AsRef<Path>,
    install: impl FnOnce(&mut Session) -> Result<()>,
    wrap: impl FnOnce(Box<dyn StorageBackend>) -> Box<dyn StorageBackend>,
) -> Result<Session> {
    let root = dir.as_ref();
    std::fs::create_dir_all(root)?;
    let wal_path = snapshot::wal_path(root);
    let data = snapshot::data_dir(root);
    let checkpoint = snapshot::read_pointer(root)?;
    let snap = match &checkpoint {
        Some(chk) => {
            let s = snapshot::load_snapshot(chk)?;
            snapshot::restore_data_dir(root, chk)?;
            crate::obs::metrics().recovery_snapshot_restores_total.inc();
            Some(s)
        }
        None => {
            snapshot::clear_data_dir(&data)?;
            None
        }
    };
    let base_lsn = snap.as_ref().map_or(0, |s| s.lsn);
    // The engine starts WAL-less, so nothing below re-logs; the WAL is
    // attached once replay completes.
    let backend = wrap(Box::new(FileBackend::open(&data)?));
    let engine = Engine::with_backend(backend);
    let mut session = engine.connect();
    install(&mut session)?;
    if let Some(s) = &snap {
        let mut catalog = engine.catalog_mut();
        for t in &s.tables {
            let schema = Snapshot::resolve_schema(&catalog, &t.columns)?;
            let heap = HeapFile::attach(FileId(t.heap_file));
            catalog.restore_table(&t.name, schema, heap, t.live)?;
        }
        for i in &s.indexes {
            let table_name = catalog.table_by_id(TableId(i.table_id))?.name.clone();
            catalog.create_index(&table_name, &i.name, i.column as usize, &i.am)?;
        }
    }
    // Replay the tail in two passes.  Pass 1 collects the ids of
    // transactions whose Commit record made it to disk — a DML record
    // in the tail is only as durable as its transaction's Commit, so
    // work from transactions still open at the crash (or whose Commit
    // was torn off the end) must be dropped, not applied.
    let committed: HashSet<u64> = {
        let mut committed = HashSet::new();
        if let Some(mut reader) = WalReader::open(&wal_path)? {
            while let Some((lsn, rec)) = reader.next_record()? {
                if lsn <= base_lsn {
                    continue;
                }
                if let WalRecord::Commit { txn } = rec {
                    committed.insert(txn);
                }
            }
        }
        committed
    };
    // Pass 2: DDL records carry the original SQL; DML records carry
    // tuple bytes addressed by table id (creation order = id order,
    // which the snapshot's dead slots preserve).  `txn == 0` marks a
    // record committed at append time (pre-MVCC logs and synthetic
    // test records); anything else needs its Commit from pass 1.
    //
    // Between two DDL records a table's inserts and deletes commute
    // (a Delete names its victim by row image, and equal images are
    // interchangeable), so Delete images are pooled per table and
    // applied in one heap pass — before the next DDL record, and at
    // the end of the tail — instead of one heap scan per record.
    let mut deletes = PooledDeletes::new();
    if let Some(mut reader) = WalReader::open(&wal_path)? {
        loop {
            let offset = reader.offset();
            let Some((lsn, rec)) = reader.next_record()? else {
                break;
            };
            if lsn <= base_lsn {
                // Already covered by the snapshot (a crash between
                // checkpoint-pointer commit and WAL truncation leaves
                // these behind).
                continue;
            }
            let skip = match &rec {
                WalRecord::Commit { .. } | WalRecord::Abort { .. } => true,
                WalRecord::Insert { txn, .. } | WalRecord::Delete { txn, .. } => {
                    *txn != 0 && !committed.contains(txn)
                }
                WalRecord::Ddl { .. } => false,
            };
            if skip {
                continue;
            }
            if matches!(rec, WalRecord::Ddl { .. }) {
                // DDL may drop, create or index the tables the pooled
                // deletes address: settle them first.
                apply_deletes(&mut session, &mut deletes)?;
            }
            apply_record(&mut session, rec, (lsn, offset), &mut deletes).map_err(|e| {
                Error::Replay {
                    lsn,
                    offset,
                    source: Box::new(e),
                }
            })?;
            crate::obs::metrics().recovery_replayed_records_total.inc();
        }
    }
    apply_deletes(&mut session, &mut deletes)?;
    if snap.is_some() {
        // Snapshot restore registered the index *definitions* only;
        // build the structures from the recovered heaps.  (The full-
        // replay path rebuilt them naturally by re-running DDL + DML.)
        rebuild_indexes(&engine)?;
    }
    let wal = Wal::open(&wal_path, base_lsn)?;
    engine.attach_durability(
        Arc::new(SharedWal::new(wal, SyncMode::Fsync)),
        Some(root.to_path_buf()),
    );
    Ok(session)
}

/// Apply the pooled Delete images of the replayed tail, one heap pass
/// per table.
fn apply_deletes(session: &mut Session, deletes: &mut PooledDeletes) -> Result<()> {
    for (table_id, ((lsn, offset), images)) in deletes.drain() {
        let table = session.engine().catalog().table_by_id(TableId(table_id));
        table
            .and_then(|meta| session.delete_matching_tuples(&meta.name, images))
            .map_err(|e| Error::Replay {
                lsn,
                offset,
                source: Box::new(e),
            })?;
    }
    Ok(())
}

/// Apply one committed record; `at` is its `(lsn, offset)`.
fn apply_record(
    session: &mut Session,
    rec: WalRecord,
    at: (u64, u64),
    deletes: &mut PooledDeletes,
) -> Result<()> {
    match rec {
        WalRecord::Ddl { sql } => {
            session.execute(&sql)?;
        }
        WalRecord::Insert {
            table_id, tuple, ..
        } => {
            let (name, arity) = {
                let catalog = session.engine().catalog();
                let meta = catalog.table_by_id(TableId(table_id))?;
                (meta.name.clone(), meta.schema.len())
            };
            let row = decode_row(&tuple, arity)?;
            session.replay_insert(&name, row)?;
        }
        WalRecord::Delete {
            table_id, tuple, ..
        } => {
            let (_, images) = deletes.entry(table_id).or_insert((at, HashMap::new()));
            *images.entry(tuple).or_default() += 1;
        }
        // Pass 2 filters these out before `apply_record`; they carry
        // no heap effects of their own.
        WalRecord::Commit { .. } | WalRecord::Abort { .. } => {}
    }
    Ok(())
}

/// Rebuild all indexes from their heaps (crash-recovery path for the
/// non-WAL-logged index layer; also used by tests to verify index
/// consistency).
pub fn rebuild_indexes(engine: &Engine) -> Result<()> {
    let catalog = engine.catalog();
    for meta in catalog.tables() {
        for idx in catalog.indexes_of(meta.id) {
            let am = catalog
                .access_method(&idx.am)
                .ok_or_else(|| Error::Catalog(format!("no access method {:?}", idx.am)))?;
            let mut fresh = am.create()?;
            backfill_index(engine.pool(), meta, idx.column, &mut *fresh)?;
            *idx.instance.write() = fresh;
        }
    }
    Ok(())
}

/// Insert every version in `meta`'s heap into `index` under its column
/// `column`: the one back-fill that `CREATE INDEX` and
/// [`rebuild_indexes`] run.  Every version is indexed regardless of
/// visibility: an in-flight insert may commit later, a version invisible
/// now may be the one a later snapshot needs to reach, and scans filter
/// stale entries through their snapshot anyway.
pub(crate) fn backfill_index(
    pool: &BufferPool,
    meta: &TableMeta,
    column: usize,
    index: &mut dyn IndexInstance,
) -> Result<()> {
    let arity = meta.schema.len();
    let mut failed = None;
    meta.heap.scan(pool, |tid, bytes| {
        let inserted = split_version(bytes)
            .and_then(|(_, _, rest)| decode_row(rest, arity))
            .and_then(|row| index.insert(&row[column], tid));
        failed = inserted.err();
        failed.is_none()
    })?;
    failed.map_or(Ok(()), Err)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Datum;

    #[test]
    fn durable_database_recovers() {
        let dir = std::env::temp_dir().join(format!("mlql-db-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let mut db = Session::open_with_extensions(&dir, |_| Ok(())).unwrap();
            db.execute("CREATE TABLE t (id INT, name TEXT)").unwrap();
            db.execute("CREATE INDEX t_id ON t (id) USING btree")
                .unwrap();
            db.execute("INSERT INTO t VALUES (1, 'one'), (2, 'two')")
                .unwrap();
            db.execute("DELETE FROM t WHERE id = 1").unwrap();
        } // crash (no clean shutdown needed)
        let mut db = Session::open_with_extensions(&dir, |_| Ok(())).unwrap();
        let r = db.execute("SELECT name FROM t").unwrap();
        assert_eq!(r.rows.len(), 1);
        assert_eq!(r.rows[0][0].as_text(), Some("two"));
        // The index was rebuilt during replay and is usable.
        let r = db.execute("SELECT name FROM t WHERE id = 2").unwrap();
        assert_eq!(r.rows.len(), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn index_rebuild_helper() {
        let mut db = Session::new_in_memory();
        db.execute("CREATE TABLE t (id INT)").unwrap();
        db.execute("CREATE INDEX t_id ON t (id) USING btree")
            .unwrap();
        db.execute("INSERT INTO t VALUES (1), (2)").unwrap();
        rebuild_indexes(db.engine()).unwrap();
        let r = db.execute("SELECT count(*) FROM t WHERE id = 1").unwrap();
        assert!(r.rows[0][0].eq_sql(&Datum::Int(1)));
    }
}
