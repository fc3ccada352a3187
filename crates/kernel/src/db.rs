//! The `Database` facade — now a thin compatibility shim over
//! [`Engine::connect`]: one embedded [`Session`] plus the recovery
//! bootstrap.  New code should hold an [`Engine`] and open [`Session`]s;
//! `Database` remains for single-connection callers and will eventually be
//! reduced to a deprecated alias (see `docs/architecture.md`).

use crate::catalog::{Catalog, SessionVars, TableId};
use crate::engine::{Engine, Session};
pub use crate::engine::{QueryResult, RunStats};
use crate::error::{Error, Result};
use crate::plan::PhysNode;
use crate::schema::Row;
use crate::snapshot::{self, Snapshot};
use crate::storage::{
    decode_row, split_version, BufferPool, FileBackend, FileId, HeapFile, SharedWal,
    StorageBackend, SyncMode, Wal, WalReader, WalRecord,
};
use parking_lot::{RwLockReadGuard, RwLockWriteGuard};
use std::collections::HashMap;
use std::path::Path;
use std::sync::Arc;

/// Delete images pooled during WAL replay, per table id: the `(lsn,
/// offset)` of the table's first pooled record — what a failure of the
/// heap pass is reported against — and row image (version header
/// excluded) → how many versions with that image to delete.
type PooledDeletes = HashMap<u32, ((u64, u64), HashMap<Vec<u8>, usize>)>;

/// A single-node database instance: a shared [`Engine`] plus one default
/// [`Session`].  Open more sessions with [`Database::connect`].
pub struct Database {
    session: Session,
}

impl Database {
    /// A fresh in-memory database (no durability).
    pub fn new_in_memory() -> Database {
        Database {
            session: Engine::in_memory().connect(),
        }
    }

    /// Open (or create) a durable database under `dir`, replaying the WAL.
    ///
    /// Heap contents are recovered from the log; **indexes are rebuilt**
    /// from the recovered heaps because — like PostgreSQL 7.4's GiST — our
    /// extensible index layer is not WAL-logged (§4.2.1 of the paper).
    pub fn open(dir: impl AsRef<Path>) -> Result<Database> {
        Self::open_with_extensions(dir, |_| Ok(()))
    }

    /// Like [`Database::open`], but runs `install` on the fresh instance
    /// *before* WAL replay.  Extension registration (types, operators,
    /// access methods) lives in code, not the WAL; any logged DDL that
    /// references extension types (`CREATE TABLE ... UNITEXT`) needs the
    /// extension present when it replays — the PostgreSQL analogue is that
    /// `CREATE EXTENSION` contents are part of the durable catalog.
    pub fn open_with_extensions(
        dir: impl AsRef<Path>,
        install: impl FnOnce(&mut Database) -> Result<()>,
    ) -> Result<Database> {
        Self::open_with_extensions_and_backend(dir, install, |b| b)
    }

    /// Like [`Database::open_with_extensions`], with a hook that may wrap
    /// the storage backend (the fault-injection harness interposes a
    /// `FaultyBackend` here).
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
    pub fn open_with_extensions_and_backend(
        dir: impl AsRef<Path>,
        install: impl FnOnce(&mut Database) -> Result<()>,
        wrap: impl FnOnce(Box<dyn StorageBackend>) -> Box<dyn StorageBackend>,
    ) -> Result<Database> {
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
        let mut db = Database {
            session: engine.connect(),
        };
        install(&mut db)?;
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
        let committed: std::collections::HashSet<u64> = {
            let mut committed = std::collections::HashSet::new();
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
                    Self::apply_deletes(&mut db, &mut deletes)?;
                }
                Self::apply_record(&mut db, rec, (lsn, offset), &mut deletes).map_err(|e| {
                    Error::Replay {
                        lsn,
                        offset,
                        source: Box::new(e),
                    }
                })?;
                crate::obs::metrics().recovery_replayed_records_total.inc();
            }
        }
        Self::apply_deletes(&mut db, &mut deletes)?;
        if snap.is_some() {
            // Snapshot restore registered the index *definitions* only;
            // build the structures from the recovered heaps.  (The full-
            // replay path rebuilt them naturally by re-running DDL + DML.)
            rebuild_indexes(&mut db)?;
        }
        let wal = Wal::open(&wal_path, base_lsn)?;
        engine.attach_durability(
            Arc::new(SharedWal::new(wal, SyncMode::Fsync)),
            Some(root.to_path_buf()),
        );
        Ok(db)
    }

    /// Apply the pooled Delete images of the replayed tail, one heap pass
    /// per table.
    fn apply_deletes(db: &mut Database, deletes: &mut PooledDeletes) -> Result<()> {
        for (table_id, ((lsn, offset), images)) in deletes.drain() {
            let table = db.catalog().table_by_id(TableId(table_id));
            table
                .and_then(|meta| db.session.delete_matching_tuples(&meta.name, images))
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
        db: &mut Database,
        rec: WalRecord,
        at: (u64, u64),
        deletes: &mut PooledDeletes,
    ) -> Result<()> {
        match rec {
            WalRecord::Ddl { sql } => {
                db.execute(&sql)?;
            }
            WalRecord::Insert {
                table_id, tuple, ..
            } => {
                let (name, arity) = {
                    let catalog = db.catalog();
                    let meta = catalog.table_by_id(TableId(table_id))?;
                    (meta.name.clone(), meta.schema.len())
                };
                let row = decode_row(&tuple, arity)?;
                db.insert_row(&name, row)?;
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

    /// The shared engine behind this database.
    pub fn engine(&self) -> &Arc<Engine> {
        self.session.engine()
    }

    /// Open another session against the same engine.  The new session
    /// starts from a copy of this database's session variables, so
    /// extension defaults (e.g. `lexequal.threshold`) carry over.
    pub fn connect(&self) -> Session {
        self.session
            .engine()
            .connect_with_vars(self.session.vars().clone())
    }

    /// Shared catalog access.  Returns a read guard: keep it short-lived —
    /// DDL from any session blocks while it is held.
    pub fn catalog(&self) -> RwLockReadGuard<'_, Catalog> {
        self.session.engine().catalog()
    }

    /// Exclusive catalog access for extension registration (types,
    /// operators, functions, access methods) — the `CREATE EXTENSION`
    /// equivalent.  Flushes the plan cache.
    pub fn catalog_mut(&mut self) -> RwLockWriteGuard<'_, Catalog> {
        self.session.engine().catalog_mut()
    }

    /// The buffer pool (benches read I/O statistics from here).
    pub fn pool(&self) -> &BufferPool {
        self.session.engine().pool()
    }

    /// Session variables.
    pub fn session(&self) -> &SessionVars {
        self.session.vars()
    }

    /// Mutable session variables.
    pub fn session_mut(&mut self) -> &mut SessionVars {
        self.session.vars_mut()
    }

    /// Execute one SQL statement.
    pub fn execute(&mut self, sql_text: &str) -> Result<QueryResult> {
        self.session.execute(sql_text)
    }

    /// Convenience: execute and return rows.
    pub fn query(&mut self, sql_text: &str) -> Result<Vec<Row>> {
        self.session.query(sql_text)
    }

    /// Execute a semicolon-separated script; returns the result of the
    /// last statement.  Quotes are respected when splitting; a failing
    /// statement is reported with its ordinal and SQL snippet.
    pub fn execute_script(&mut self, script: &str) -> Result<QueryResult> {
        self.session.execute_script(script)
    }

    /// Read-only query through a shared reference: safe to call from
    /// multiple threads concurrently; only `SELECT` is accepted.
    pub fn query_ref(&self, sql_text: &str) -> Result<Vec<Row>> {
        self.session.query_ref(sql_text)
    }

    /// Plan a SELECT without executing it (benches compare predicted cost
    /// against measured runtime — Figure 6).
    pub fn plan_select(&self, sql_text: &str) -> Result<PhysNode> {
        self.session.plan_select(sql_text)
    }

    /// Insert a pre-evaluated row (used by SQL INSERT, recovery, and bulk
    /// loaders).  Applies type checks, extension `on_insert` transforms
    /// (phoneme materialization), index maintenance and WAL logging.
    pub fn insert_row(&mut self, table: &str, row: Row) -> Result<()> {
        self.session.insert_row(table, row)
    }

    /// ANALYZE: rebuild table and per-column statistics from a full pass.
    pub fn analyze(&mut self, table: &str) -> Result<()> {
        self.session.analyze(table)
    }

    /// Refresh optimizer statistics on every user table (bare `ANALYZE`),
    /// clearing any stale-statistics advisories for this engine.
    pub fn analyze_all(&mut self) -> Result<()> {
        self.session.analyze_all()
    }

    /// Checkpoint: flush heaps, persist a catalog snapshot + heap copies
    /// under the database root, and truncate the WAL.  Reopen cost after a
    /// checkpoint is bounded by post-checkpoint activity, not total
    /// history.  In-memory databases just flush.
    pub fn checkpoint(&mut self) -> Result<()> {
        self.session.engine().checkpoint()
    }
}

/// Rebuild all indexes from their heaps (crash-recovery path for the
/// non-WAL-logged index layer; also used by tests to verify index
/// consistency).
pub fn rebuild_indexes(db: &mut Database) -> Result<()> {
    let engine = Arc::clone(db.engine());
    let catalog = engine.catalog();
    let pool = engine.pool();
    for meta in catalog.tables() {
        let arity = meta.schema.len();
        for idx in catalog.indexes_of(meta.id) {
            let am = catalog
                .access_method(&idx.am)
                .ok_or_else(|| Error::Catalog(format!("no access method {:?}", idx.am)))?;
            let mut fresh = am.create()?;
            let mut scan_err = None;
            // Index every version regardless of visibility (same policy
            // as CREATE INDEX back-fill): scans filter through their
            // snapshot, and a version invisible now may be the one a
            // later snapshot needs to reach.
            meta.heap.scan(pool, |tid, bytes| {
                match split_version(bytes).and_then(|(_, _, rest)| decode_row(rest, arity)) {
                    Ok(row) => {
                        if let Err(e) = fresh.insert(&row[idx.column], tid) {
                            scan_err = Some(e);
                            return false;
                        }
                    }
                    Err(e) => {
                        scan_err = Some(e);
                        return false;
                    }
                }
                true
            })?;
            if let Some(e) = scan_err {
                return Err(e);
            }
            *idx.instance.write() = fresh;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Datum;

    fn db() -> Database {
        Database::new_in_memory()
    }

    #[test]
    fn create_insert_select_roundtrip() {
        let mut db = db();
        db.execute("CREATE TABLE t (id INT, name TEXT, price FLOAT)")
            .unwrap();
        db.execute("INSERT INTO t VALUES (1, 'one', 1.5), (2, 'two', 2.5)")
            .unwrap();
        let r = db.execute("SELECT name FROM t WHERE id = 2").unwrap();
        assert_eq!(r.rows.len(), 1);
        assert_eq!(r.rows[0][0].as_text(), Some("two"));
    }

    #[test]
    fn count_star_and_where() {
        let mut db = db();
        db.execute("CREATE TABLE t (id INT)").unwrap();
        for i in 0..25 {
            db.execute(&format!("INSERT INTO t VALUES ({i})")).unwrap();
        }
        let r = db.execute("SELECT count(*) FROM t WHERE id >= 20").unwrap();
        assert!(r.rows[0][0].eq_sql(&Datum::Int(5)));
    }

    #[test]
    fn join_query() {
        let mut db = db();
        db.execute("CREATE TABLE a (id INT, x TEXT)").unwrap();
        db.execute("CREATE TABLE b (id INT, y TEXT)").unwrap();
        db.execute("INSERT INTO a VALUES (1, 'a1'), (2, 'a2')")
            .unwrap();
        db.execute("INSERT INTO b VALUES (2, 'b2'), (3, 'b3')")
            .unwrap();
        let r = db
            .execute("SELECT a.x, b.y FROM a, b WHERE a.id = b.id")
            .unwrap();
        assert_eq!(r.rows.len(), 1);
        assert_eq!(r.rows[0][0].as_text(), Some("a2"));
        assert_eq!(r.rows[0][1].as_text(), Some("b2"));
    }

    #[test]
    fn explicit_join_syntax() {
        let mut db = db();
        db.execute("CREATE TABLE a (id INT)").unwrap();
        db.execute("CREATE TABLE b (id INT)").unwrap();
        db.execute("INSERT INTO a VALUES (1), (2), (3)").unwrap();
        db.execute("INSERT INTO b VALUES (2), (3), (4)").unwrap();
        let r = db
            .execute("SELECT count(*) FROM a JOIN b ON a.id = b.id")
            .unwrap();
        assert!(r.rows[0][0].eq_sql(&Datum::Int(2)));
    }

    #[test]
    fn group_by_and_order_by() {
        let mut db = db();
        db.execute("CREATE TABLE t (k TEXT, v INT)").unwrap();
        db.execute("INSERT INTO t VALUES ('a', 1), ('a', 2), ('b', 5)")
            .unwrap();
        let r = db
            .execute("SELECT k, count(*), sum(v) FROM t GROUP BY k")
            .unwrap();
        assert_eq!(r.rows.len(), 2);
        let r2 = db
            .execute("SELECT v FROM t ORDER BY v DESC LIMIT 2")
            .unwrap();
        assert!(r2.rows[0][0].eq_sql(&Datum::Int(5)));
        assert_eq!(r2.rows.len(), 2);
    }

    #[test]
    fn delete_and_recount() {
        let mut db = db();
        db.execute("CREATE TABLE t (id INT)").unwrap();
        db.execute("INSERT INTO t VALUES (1), (2), (3)").unwrap();
        let r = db.execute("DELETE FROM t WHERE id < 3").unwrap();
        assert_eq!(r.affected, 2);
        let r = db.execute("SELECT count(*) FROM t").unwrap();
        assert!(r.rows[0][0].eq_sql(&Datum::Int(1)));
    }

    #[test]
    fn btree_index_used_for_point_query() {
        let mut db = db();
        db.execute("CREATE TABLE t (id INT, v TEXT)").unwrap();
        for i in 0..2000 {
            db.execute(&format!("INSERT INTO t VALUES ({i}, 'v{i}')"))
                .unwrap();
        }
        db.execute("CREATE INDEX t_id ON t (id) USING btree")
            .unwrap();
        db.execute("ANALYZE t").unwrap();
        let plan = db.execute("EXPLAIN SELECT v FROM t WHERE id = 77").unwrap();
        let text = plan.explain.unwrap();
        assert!(text.contains("Index Scan"), "plan was:\n{text}");
        let r = db.execute("SELECT v FROM t WHERE id = 77").unwrap();
        assert_eq!(r.rows.len(), 1);
        assert_eq!(r.rows[0][0].as_text(), Some("v77"));
    }

    #[test]
    fn set_and_show() {
        let mut db = db();
        db.execute("SET lexequal.threshold = 3").unwrap();
        let r = db.execute("SHOW lexequal.threshold").unwrap();
        assert_eq!(r.rows[0][0].as_text(), Some("3"));
    }

    #[test]
    fn analyze_populates_stats() {
        let mut db = db();
        db.execute("CREATE TABLE t (id INT)").unwrap();
        for i in 0..500 {
            db.execute(&format!("INSERT INTO t VALUES ({})", i % 50))
                .unwrap();
        }
        db.execute("ANALYZE t").unwrap();
        let catalog = db.catalog();
        let meta = catalog.table("t").unwrap();
        let stats = meta.stats.lock().clone();
        assert_eq!(stats.rows, 500);
        assert!(stats.pages >= 1);
        let col = stats.column(0).unwrap();
        assert!((col.n_distinct - 50.0).abs() < 1e-9);
    }

    #[test]
    fn explain_returns_plan_text() {
        let mut db = db();
        db.execute("CREATE TABLE t (id INT)").unwrap();
        let r = db
            .execute("EXPLAIN SELECT count(*) FROM t WHERE id = 1")
            .unwrap();
        let text = r.explain.unwrap();
        assert!(text.contains("Aggregate"));
        assert!(text.contains("Seq Scan"));
    }

    #[test]
    fn durable_database_recovers() {
        let dir = std::env::temp_dir().join(format!("mlql-db-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let mut db = Database::open(&dir).unwrap();
            db.execute("CREATE TABLE t (id INT, name TEXT)").unwrap();
            db.execute("CREATE INDEX t_id ON t (id) USING btree")
                .unwrap();
            db.execute("INSERT INTO t VALUES (1, 'one'), (2, 'two')")
                .unwrap();
            db.execute("DELETE FROM t WHERE id = 1").unwrap();
        } // crash (no clean shutdown needed)
        let mut db = Database::open(&dir).unwrap();
        let r = db.execute("SELECT name FROM t").unwrap();
        assert_eq!(r.rows.len(), 1);
        assert_eq!(r.rows[0][0].as_text(), Some("two"));
        // The index was rebuilt during replay and is usable.
        let r = db.execute("SELECT name FROM t WHERE id = 2").unwrap();
        assert_eq!(r.rows.len(), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn runtime_stats_reported() {
        let mut db = db();
        db.execute("CREATE TABLE t (id INT)").unwrap();
        for i in 0..100 {
            db.execute(&format!("INSERT INTO t VALUES ({i})")).unwrap();
        }
        let r = db.execute("SELECT count(*) FROM t").unwrap();
        assert!(r.stats.io.logical_reads > 0);
        assert!(r.stats.est_cost.unwrap() > 0.0);
    }

    #[test]
    fn insert_type_checks() {
        let mut db = db();
        db.execute("CREATE TABLE t (id INT, name TEXT)").unwrap();
        assert!(db.execute("INSERT INTO t VALUES ('oops', 3)").is_err());
        assert!(db.execute("INSERT INTO t VALUES (1)").is_err());
        // Int widens into float columns.
        db.execute("CREATE TABLE f (x FLOAT)").unwrap();
        db.execute("INSERT INTO f VALUES (3)").unwrap();
    }

    #[test]
    fn index_rebuild_helper() {
        let mut db = db();
        db.execute("CREATE TABLE t (id INT)").unwrap();
        db.execute("CREATE INDEX t_id ON t (id) USING btree")
            .unwrap();
        db.execute("INSERT INTO t VALUES (1), (2)").unwrap();
        rebuild_indexes(&mut db).unwrap();
        let r = db.execute("SELECT count(*) FROM t WHERE id = 1").unwrap();
        assert!(r.rows[0][0].eq_sql(&Datum::Int(1)));
    }

    #[test]
    fn connect_opens_independent_sessions() {
        let mut db = db();
        db.execute("CREATE TABLE t (id INT)").unwrap();
        db.execute("INSERT INTO t VALUES (1), (2)").unwrap();
        db.execute("SET max_rows = 99").unwrap();
        let mut other = db.connect();
        // Vars are copied at connect time, then diverge.
        assert_eq!(other.vars().get_int("max_rows", 0), 99);
        other.execute("SET max_rows = 1").unwrap();
        assert_eq!(db.session().get_int("max_rows", 0), 99);
        // Both see the shared data.
        let n = other.query("SELECT count(*) FROM t").unwrap();
        assert_eq!(n[0][0].as_int(), Some(2));
    }
}

#[cfg(test)]
mod dml_tests {
    use super::*;

    #[test]
    fn update_basic_and_filtered() {
        let mut db = Database::new_in_memory();
        db.execute("CREATE TABLE t (id INT, v TEXT)").unwrap();
        db.execute("INSERT INTO t VALUES (1,'a'), (2,'b'), (3,'c')")
            .unwrap();
        let r = db.execute("UPDATE t SET v = 'X' WHERE id >= 2").unwrap();
        assert_eq!(r.affected, 2);
        let rows = db.query("SELECT v FROM t ORDER BY id").unwrap();
        let vals: Vec<&str> = rows.iter().map(|r| r[0].as_text().unwrap()).collect();
        assert_eq!(vals, vec!["a", "X", "X"]);
        // Expression referencing the old row value.
        db.execute("UPDATE t SET id = id + 10").unwrap();
        let ids = db.query("SELECT id FROM t ORDER BY id").unwrap();
        assert_eq!(ids[0][0].as_int(), Some(11));
    }

    #[test]
    fn update_maintains_indexes() {
        let mut db = Database::new_in_memory();
        db.execute("CREATE TABLE t (id INT)").unwrap();
        db.execute("CREATE INDEX t_id ON t (id) USING btree")
            .unwrap();
        for i in 0..500 {
            db.execute(&format!("INSERT INTO t VALUES ({i})")).unwrap();
        }
        db.execute("ANALYZE t").unwrap();
        db.execute("UPDATE t SET id = 9999 WHERE id = 7").unwrap();
        db.execute("SET enable_seqscan = 0").unwrap();
        let gone = db.query("SELECT count(*) FROM t WHERE id = 7").unwrap();
        assert_eq!(gone[0][0].as_int(), Some(0));
        let there = db.query("SELECT count(*) FROM t WHERE id = 9999").unwrap();
        assert_eq!(there[0][0].as_int(), Some(1));
    }

    #[test]
    fn update_type_checks() {
        let mut db = Database::new_in_memory();
        db.execute("CREATE TABLE t (id INT)").unwrap();
        db.execute("INSERT INTO t VALUES (1)").unwrap();
        assert!(db.execute("UPDATE t SET id = 'nope'").is_err());
        // Row unchanged after the failed update.
        let r = db.query("SELECT id FROM t").unwrap();
        assert_eq!(r[0][0].as_int(), Some(1));
    }

    #[test]
    fn insert_select_copies_with_transform() {
        let mut db = Database::new_in_memory();
        db.execute("CREATE TABLE src (id INT, v TEXT)").unwrap();
        db.execute("CREATE TABLE dst (id INT, v TEXT)").unwrap();
        db.execute("INSERT INTO src VALUES (1,'a'), (2,'b'), (3,'c')")
            .unwrap();
        let r = db
            .execute("INSERT INTO dst SELECT id + 100, v FROM src WHERE id < 3")
            .unwrap();
        assert_eq!(r.affected, 2);
        let rows = db.query("SELECT id FROM dst ORDER BY id").unwrap();
        assert_eq!(rows[0][0].as_int(), Some(101));
        assert_eq!(rows[1][0].as_int(), Some(102));
    }

    #[test]
    fn insert_select_self_referencing_snapshot() {
        // INSERT INTO t SELECT FROM t must read a snapshot, not loop.
        let mut db = Database::new_in_memory();
        db.execute("CREATE TABLE t (id INT)").unwrap();
        db.execute("INSERT INTO t VALUES (1), (2)").unwrap();
        let r = db.execute("INSERT INTO t SELECT id + 10 FROM t").unwrap();
        assert_eq!(r.affected, 2);
        let n = db.query("SELECT count(*) FROM t").unwrap();
        assert_eq!(n[0][0].as_int(), Some(4));
    }
}

#[cfg(test)]
mod distinct_tests {
    use super::*;

    #[test]
    fn select_distinct_deduplicates() {
        let mut db = Database::new_in_memory();
        db.execute("CREATE TABLE t (v TEXT, n INT)").unwrap();
        db.execute("INSERT INTO t VALUES ('a',1), ('a',1), ('a',2), ('b',1)")
            .unwrap();
        let r = db.query("SELECT DISTINCT v FROM t").unwrap();
        assert_eq!(r.len(), 2);
        let r = db.query("SELECT DISTINCT v, n FROM t").unwrap();
        assert_eq!(r.len(), 3);
        // Plain select keeps duplicates.
        let r = db.query("SELECT v FROM t").unwrap();
        assert_eq!(r.len(), 4);
        // DISTINCT with WHERE composes.
        let r = db.query("SELECT DISTINCT v FROM t WHERE n = 1").unwrap();
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn distinct_star_and_limit() {
        let mut db = Database::new_in_memory();
        db.execute("CREATE TABLE t (v INT)").unwrap();
        db.execute("INSERT INTO t VALUES (1), (1), (2), (2), (3)")
            .unwrap();
        let r = db.query("SELECT DISTINCT * FROM t").unwrap();
        assert_eq!(r.len(), 3);
        let r = db.query("SELECT DISTINCT v FROM t LIMIT 2").unwrap();
        assert_eq!(r.len(), 2);
    }
}

#[cfg(test)]
mod explain_analyze_tests {
    use super::*;

    #[test]
    fn explain_analyze_reports_actuals() {
        let mut db = Database::new_in_memory();
        db.execute("CREATE TABLE t (id INT)").unwrap();
        for i in 0..500 {
            db.execute(&format!("INSERT INTO t VALUES ({i})")).unwrap();
        }
        let r = db
            .execute("EXPLAIN ANALYZE SELECT count(*) FROM t WHERE id < 100")
            .unwrap();
        let text = r.explain.unwrap();
        assert!(text.contains("Seq Scan"), "{text}");
        assert!(text.contains("Actual: rows=1"), "{text}");
        assert!(text.contains("logical_reads="), "{text}");
    }

    #[test]
    fn execute_script_runs_statements_in_order() {
        let mut db = Database::new_in_memory();
        let last = db
            .execute_script(
                "CREATE TABLE t (v TEXT); \
                 INSERT INTO t VALUES ('a;b'); -- semicolon inside a string\n \
                 INSERT INTO t VALUES ('c'); \
                 SELECT count(*) FROM t",
            )
            .unwrap();
        assert_eq!(last.rows[0][0].as_int(), Some(2));
        let v = db.query("SELECT v FROM t ORDER BY v LIMIT 1").unwrap();
        assert_eq!(v[0][0].as_text(), Some("a;b"));
    }
}

#[cfg(test)]
mod join_strategy_tests {
    use super::*;
    use crate::value::Datum;

    /// All join strategies (hash, NL materialized, NL rescanning) must
    /// return identical results; force each with the enable flags.
    #[test]
    fn join_strategies_agree() {
        let mut db = Database::new_in_memory();
        db.execute("CREATE TABLE a (id INT, v TEXT)").unwrap();
        db.execute("CREATE TABLE b (id INT, w TEXT)").unwrap();
        for i in 0..200 {
            db.execute(&format!("INSERT INTO a VALUES ({}, 'a{i}')", i % 50))
                .unwrap();
        }
        for i in 0..80 {
            db.execute(&format!("INSERT INTO b VALUES ({}, 'b{i}')", i % 50))
                .unwrap();
        }
        db.execute("ANALYZE a").unwrap();
        db.execute("ANALYZE b").unwrap();
        let q = "SELECT count(*) FROM a, b WHERE a.id = b.id";

        let hash = db.query(q).unwrap()[0][0].clone();
        db.execute("SET enable_hashjoin = 0").unwrap();
        let plan = db.plan_select(q).unwrap().explain();
        assert!(plan.contains("Nested Loop"), "{plan}");
        let nl_mat = db.query(q).unwrap()[0][0].clone();
        db.execute("SET enable_material = 0").unwrap();
        let plan = db.plan_select(q).unwrap().explain();
        assert!(!plan.contains("materialized"), "{plan}");
        let nl_rescan = db.query(q).unwrap()[0][0].clone();
        assert!(hash.eq_sql(&nl_mat), "{hash} vs {nl_mat}");
        assert!(hash.eq_sql(&nl_rescan), "{hash} vs {nl_rescan}");
        // Sanity: the count is the expected 200*80/50 ≈ join on mod-50 keys.
        assert!(hash.eq_sql(&Datum::Int(320)));
    }

    /// Residual predicates on hash joins are re-checked per match.
    #[test]
    fn hash_join_residual_filter() {
        let mut db = Database::new_in_memory();
        db.execute("CREATE TABLE a (id INT, x INT)").unwrap();
        db.execute("CREATE TABLE b (id INT, y INT)").unwrap();
        for i in 0..100 {
            db.execute(&format!("INSERT INTO a VALUES ({i}, {})", i * 2))
                .unwrap();
            db.execute(&format!("INSERT INTO b VALUES ({i}, {})", i * 3))
                .unwrap();
        }
        db.execute("ANALYZE a").unwrap();
        db.execute("ANALYZE b").unwrap();
        let q = "SELECT count(*) FROM a, b WHERE a.id = b.id AND a.x < b.y";
        let plan = db.plan_select(q).unwrap().explain();
        assert!(plan.contains("Hash Join"), "{plan}");
        // x < y ⇔ 2i < 3i ⇔ i > 0 → 99 matches.
        let n = db.query(q).unwrap();
        assert!(n[0][0].eq_sql(&Datum::Int(99)));
    }
}

#[cfg(test)]
mod script_comment_tests {
    use super::*;

    #[test]
    fn comments_with_semicolons_do_not_split() {
        let mut db = Database::new_in_memory();
        let last = db
            .execute_script(
                "CREATE TABLE t (v INT); -- not a statement; really not\nINSERT INTO t VALUES (1); SELECT count(*) FROM t",
            )
            .unwrap();
        assert_eq!(last.rows[0][0].as_int(), Some(1));
    }
}
