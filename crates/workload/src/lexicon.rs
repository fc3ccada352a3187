//! `lexicon_edit`: lexicographers editing entries while lookups keep
//! reading (after Barisevicius & Tamulynas's lexicon DBMS).
//!
//! A file-backed engine in a scratch directory holds a 150k-entry
//! lexicon `(id INT, headword UNITEXT, gloss TEXT)` — a 16 MB heap
//! (1,985 pages), twice the 8 MiB (1024-frame) buffer pool — with a
//! B-tree on `id` and an M-tree on `headword`.  (At 1.3x the pool the
//! clock sweep has two stable regimes — scans that keep hitting a
//! resident remainder, and scans that flood it — and a run lands in one
//! or the other, 30 % apart; at 2x every scan floods.)  Two sessions on two threads (= `nproc`),
//! closed loop, each run transactions on their own key partition:
//!
//! ```sql
//! BEGIN;
//! SELECT id, gloss FROM lexicon WHERE id = k;
//! UPDATE lexicon SET gloss = '…' WHERE id = k;
//! INSERT INTO lexicon VALUES (new_id, unitext(…), '…');
//! COMMIT;
//! ```
//!
//! A round is 17 transactions per session and then one checkpoint
//! (vacuum + snapshot + WAL truncation) from the driver thread — a
//! checkpoint requires that no transaction is open, which the round
//! boundary guarantees; ending *every* round with one makes all rounds
//! the same work.  The engine has no `CHECKPOINT` statement, so this one step calls
//! `Engine::checkpoint` instead of `Session::execute`.
//!
//! `wal_sync_mode = flush`, the same on both sides of any comparison:
//! fsync latency in a sandbox measures the host's disk, not the program.

use crate::fixture::{
    generate_names_over, open_durable, plan_stamp, unitext_literal, RowSet, Scale, SetupStages,
};
use crate::json::Json;
use crate::layers::{self, NamesProbe, ShadowIndexes};
use crate::measure::{OpRecord, Workload};
use crate::psi::tally_examined;
use crate::trace::{Passes, Recorder, Tallies, Traced};
use mlql_kernel::engine::{Engine, QueryResult, Session};
use mlql_kernel::storage::{encode_row, SharedWal, SyncMode, Wal, WalRecord};
use mlql_kernel::txn::TransactionManager;
use mlql_kernel::{Database, Datum, Error, Result};
use mlql_mural::types::{unitext_datum, unitext_of_datum};
use mlql_mural::Mural;
use mlql_unitext::UniText;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Transactions each session runs per round.  With 2 sessions and the
/// checkpoint a round is 35 ops, a 3-round segment 105: ten samples lie
/// beyond its p90.
pub const TXNS_PER_ROUND: usize = 17;
/// `OpRecord::key` of a checkpoint op.
pub const CHECKPOINT_KEY: u32 = u32::MAX;

/// How a client runs one statement: plain `Session::execute`, or the
/// traced pass's span-recording wrapper.
pub type Exec<'a> = &'a mut dyn FnMut(&mut Session, &str) -> Result<QueryResult>;

fn gloss(id: i64, rev: u32) -> String {
    format!("entry {id} rev {rev}")
}

/// One editing session and the harness-side model of what it has
/// committed (the oracle for its own key partition).
pub struct Client {
    pub session: Session,
    slot: usize,
    clients: usize,
    /// Transactions issued so far.
    pub next: usize,
    /// Committed revision of every entry this client has edited.
    revs: HashMap<i64, u32>,
    /// Committed inserts: (id, index into the new-headword pool).
    inserted: Vec<(i64, usize)>,
    errors: Vec<String>,
}

/// What a client has committed: revision per edited id, and inserts as
/// (id, index into the new-headword pool).
type Committed = (HashMap<i64, u32>, Vec<(i64, usize)>);

/// The statements of one transaction and what the model expects.
pub struct TxnPlan {
    pub key: i64,
    pub rev: u32,
    pub new_id: i64,
    pub word: usize,
    pub select: String,
    pub update: String,
    pub insert: String,
}

impl TxnPlan {
    pub fn statements(&self) -> [&str; 5] {
        ["BEGIN", &self.select, &self.update, &self.insert, "COMMIT"]
    }

    /// Bytes of user data the transaction writes: the new gloss, and the
    /// new entry's id, headword text and gloss.
    fn user_bytes(&self, headword: &UniText) -> u64 {
        (gloss(self.key, self.rev + 1).len()
            + 8
            + headword.text().len()
            + gloss(self.new_id, 0).len()) as u64
    }
}

impl Client {
    /// Plan transaction `n` of this client: keys walk the client's own
    /// partition (`id % clients == slot`) with a stride coprime to its
    /// size, so sessions never touch the same row.
    pub fn plan(&self, base: usize, words: &[String]) -> TxnPlan {
        let n = self.next;
        let partition = base / self.clients;
        let key = (self.slot + self.clients * ((n * 7919) % partition)) as i64;
        let rev = self.revs.get(&key).copied().unwrap_or(0);
        let new_id = (base + n * self.clients + self.slot) as i64;
        let word = (n * self.clients + self.slot) % words.len();
        TxnPlan {
            key,
            rev,
            new_id,
            word,
            select: format!("SELECT id, gloss FROM lexicon WHERE id = {key}"),
            update: format!(
                "UPDATE lexicon SET gloss = '{}' WHERE id = {key}",
                gloss(key, rev + 1)
            ),
            insert: format!(
                "INSERT INTO lexicon VALUES ({new_id}, {}, '{}')",
                words[word],
                gloss(new_id, 0)
            ),
        }
    }

    /// Run the planned transaction through `exec`; the whole transaction
    /// is one op.  The SELECT's row set is compared to the model inline
    /// (one map lookup), between statements, outside any statement timer.
    pub fn run(&mut self, plan: &TxnPlan, exec: Exec<'_>) -> OpRecord {
        let start = Instant::now();
        let outcome = (|| -> Result<u64> {
            exec(&mut self.session, "BEGIN")?;
            let read = exec(&mut self.session, &plan.select)?;
            let got = RowSet::of(&read.rows).checksum();
            let want = RowSet::of(&[vec![
                Datum::Int(plan.key),
                Datum::text(gloss(plan.key, plan.rev)),
            ]])
            .checksum();
            if got != want {
                return Err(Error::Execution(format!(
                    "lookup of id {} returned {:?}, model has rev {}",
                    plan.key, read.rows, plan.rev
                )));
            }
            for sql in [&plan.update, &plan.insert] {
                let r = exec(&mut self.session, sql)?;
                if r.affected != 1 {
                    return Err(Error::Execution(format!(
                        "{sql}: affected {} rows, expected 1",
                        r.affected
                    )));
                }
            }
            exec(&mut self.session, "COMMIT")?;
            Ok(got)
        })();
        let latency = start.elapsed();
        let key = self.next as u32;
        self.next += 1;
        match outcome {
            Ok(checksum) => {
                self.revs.insert(plan.key, plan.rev + 1);
                self.inserted.push((plan.new_id, plan.word));
                OpRecord {
                    key,
                    checksum,
                    latency,
                    ok: true,
                }
            }
            Err(e) => {
                // Leave the session usable; the transaction did not commit.
                let _ = self.session.execute("ROLLBACK");
                self.errors
                    .push(format!("session {} txn {key}: {e}", self.slot));
                OpRecord {
                    key,
                    checksum: 0,
                    latency,
                    ok: false,
                }
            }
        }
    }
}

pub struct Lexicon {
    dir: PathBuf,
    /// `None` once dropped for the reopen check.
    db: Option<Database>,
    pub mural: Mural,
    pub clients: Vec<Client>,
    /// How many of `clients` a round drives (all of them, except in the
    /// traced passes, which drive one so that counts repeat exactly).
    pub active: usize,
    /// Entries loaded at set-up (ids `0..base`).
    pub base: usize,
    /// `unitext(…)` literals of the headwords inserts draw from.
    new_words: Vec<String>,
    new_values: Vec<UniText>,
    pub stages: SetupStages,
    /// Duration of every checkpoint taken so far.
    checkpoints: Vec<Duration>,
    /// Bytes of the newest checkpoint on disk (snapshot + heap copies).
    checkpoint_last_bytes: Option<u64>,
    tallies: Tallies,
    /// Set by `verify`: how long the reopen (snapshot restore, WAL tail
    /// replay, index rebuild) took.
    reopen: Option<Duration>,
    /// Benchmark-owned stand-ins the replay writes to (built on first
    /// traced round).
    shadow: Option<Shadow>,
    errors: Vec<String>,
}

/// Shadow structures for replaying the write path without touching the
/// engine's own: indexes with the table's entries, a WAL in the same
/// sync mode, a transaction manager.
struct Shadow {
    indexes: Option<ShadowIndexes>,
    wal: SharedWal,
    wal_path: PathBuf,
    txns: TransactionManager,
}

/// What a `lexicon_edit` fixture measured beyond its passes.
pub struct DurableStats {
    pub checkpoint_mean_ms: Option<f64>,
    pub checkpoint_max_ms: Option<f64>,
    pub checkpoint_last_bytes: Option<u64>,
    pub scaling_2_sessions: Option<f64>,
    pub reopen_ms: Option<f64>,
}

static NEXT_DIR: AtomicU64 = AtomicU64::new(0);

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .flatten()
                .filter_map(|e| e.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

impl Lexicon {
    /// Build under `scratch` with `sessions` editing clients.
    pub fn build(seed: u64, scale: Scale, scratch: &Path, sessions: usize) -> Result<Lexicon> {
        let base = match scale {
            Scale::Full => 150_000,
            Scale::Mini => 4_000,
        };
        let dir = scratch.join(format!(
            "lexicon-{}-{}",
            std::process::id(),
            NEXT_DIR.fetch_add(1, Ordering::Relaxed)
        ));
        if dir.exists() {
            std::fs::remove_dir_all(&dir)?;
        }
        let mut stages = SetupStages::default();
        let (db, mural) = open_durable(&dir)?;
        let mut session = db.connect();
        session.execute("SET wal_sync_mode = 'flush'")?;

        // A lexicon's headwords are mostly distinct, unlike a names list.
        let (headwords, new_values): (Vec<UniText>, Vec<UniText>) = stages.time(
            |s| &mut s.generate_s,
            || {
                let gen = |n: usize, salt: u64| {
                    generate_names_over(&mural, n, n / 4, seed ^ salt)
                        .into_iter()
                        .map(|r| r.name)
                        .collect()
                };
                (gen(base, 0), gen(1 << 14, 0x1e8))
            },
        );
        session.execute("CREATE TABLE lexicon (id INT, headword UNITEXT, gloss TEXT)")?;
        stages.time(
            |s| &mut s.load_s,
            || -> Result<()> {
                session.execute("BEGIN")?;
                for (i, w) in headwords.iter().enumerate() {
                    session.insert_row(
                        "lexicon",
                        vec![
                            Datum::Int(i as i64),
                            unitext_datum(mural.unitext_type, w),
                            Datum::text(gloss(i as i64, 0)),
                        ],
                    )?;
                }
                session.execute("COMMIT")?;
                Ok(())
            },
        )?;
        stages.rows_loaded = base;
        drop(headwords);
        stages.time(
            |s| &mut s.index_build_s,
            || -> Result<()> {
                session.execute("CREATE INDEX lexicon_id ON lexicon (id) USING btree")?;
                session.execute("CREATE INDEX lexicon_mt ON lexicon (headword) USING mtree")?;
                Ok(())
            },
        )?;
        stages.time(|s| &mut s.analyze_s, || session.execute("ANALYZE lexicon"))?;
        // Start from a checkpointed state: the load leaves the WAL and the
        // timed phase begins with an empty tail.
        stages.time(|s| &mut s.load_s, || db.engine().checkpoint())?;
        drop(session);

        let clients = (0..sessions)
            .map(|slot| Client {
                session: db.connect(),
                slot,
                clients: sessions,
                next: 0,
                revs: HashMap::new(),
                inserted: Vec::new(),
                errors: Vec::new(),
            })
            .collect();
        let new_words = new_values
            .iter()
            .map(|v| unitext_literal(&mural, v))
            .collect();
        Ok(Lexicon {
            dir,
            db: Some(db),
            mural,
            clients,
            active: sessions,
            base,
            new_words,
            new_values,
            stages,
            checkpoints: Vec::new(),
            checkpoint_last_bytes: None,
            tallies: Tallies::default(),
            reopen: None,
            shadow: None,
            errors: Vec::new(),
        })
    }

    fn db(&self) -> &Database {
        self.db.as_ref().expect("engine open until verify")
    }

    pub fn stamp(&self) -> Json {
        let s = &self.clients[0].session;
        Json::Arr(vec![
            plan_stamp(
                s,
                "lexicon_lookup",
                "SELECT id, gloss FROM lexicon WHERE id = 77",
            ),
            Json::obj(vec![
                ("class", Json::str("lexicon_update / lexicon_insert")),
                (
                    "explain",
                    Json::str(
                        "DML is not planned: UPDATE selects its victims with a full heap scan, \
                         INSERT appends and maintains both indexes",
                    ),
                ),
            ]),
        ])
    }

    /// Checkpoint from the driver thread (no transaction is open between
    /// rounds) and log it as an op.
    fn checkpoint(&mut self) -> OpRecord {
        let start = Instant::now();
        let res = self.db().engine().checkpoint();
        let latency = start.elapsed();
        self.checkpoints.push(latency);
        match &res {
            Ok(()) => {
                let newest = mlql_kernel::snapshot::read_pointer(&self.dir)
                    .ok()
                    .flatten();
                let bytes = newest.map_or(0, |d| dir_bytes(&d));
                self.checkpoint_last_bytes = Some(bytes);
                self.tallies.checkpoint_bytes += bytes;
            }
            Err(e) => self.errors.push(format!("checkpoint: {e}")),
        }
        OpRecord {
            key: CHECKPOINT_KEY,
            checksum: 0,
            latency,
            ok: res.is_ok(),
        }
    }

    /// Drop the engine, reopen the directory, and check that every
    /// acknowledged transaction — and nothing else — is readable.
    fn reopen_check(&mut self) -> Result<Vec<String>> {
        let mut failures = Vec::new();
        // Taking the models out drops the sessions: nothing may hold the
        // old engine while the directory is reopened.
        let committed: Vec<Committed> = self
            .clients
            .drain(..)
            .map(|c| (c.revs, c.inserted))
            .collect();
        drop(self.db.take());
        let start = Instant::now();
        let (mut db, _mural) = open_durable(&self.dir)?;
        self.reopen = Some(start.elapsed());

        let mut inserted_total = 0usize;
        for (revs, inserted) in &committed {
            for (id, rev) in revs {
                let rows = db.query(&format!("SELECT gloss FROM lexicon WHERE id = {id}"))?;
                let want = gloss(*id, *rev);
                if rows.len() != 1 || rows[0][0] != Datum::text(&want) {
                    failures.push(format!(
                        "after reopen id {id}: {rows:?}, committed gloss {want:?}"
                    ));
                }
            }
            for (id, word) in inserted {
                let rows = db.query(&format!("SELECT headword FROM lexicon WHERE id = {id}"))?;
                let want = &self.new_values[*word];
                let ok = rows.len() == 1
                    && unitext_of_datum(&rows[0][0])
                        .is_ok_and(|v| v.text() == want.text() && v.lang() == want.lang());
                if !ok {
                    failures.push(format!(
                        "after reopen inserted id {id}: {rows:?}, committed headword {:?}",
                        want.text()
                    ));
                }
            }
            inserted_total += inserted.len();
        }
        // Nothing uncommitted may have surfaced, and no version twice.
        let count = db.query("SELECT count(*) FROM lexicon")?;
        let want = (self.base + inserted_total) as i64;
        if count[0][0].as_int() != Some(want) {
            failures.push(format!(
                "after reopen count(*) = {:?}, committed entries {want}",
                count[0][0]
            ));
        }
        Ok(failures)
    }

    /// After the one-session passes: run `rounds` more rounds with both
    /// sessions; returns `txn.scaling_2_sessions`, the two-session rate
    /// over twice the one-session rate.
    pub fn scaling_pass(&mut self, passes: &mut Passes, rounds: u64) -> Option<f64> {
        let one_session = passes.ops_a as f64 / passes.wall_a;
        self.active = self.clients.len();
        let from = passes.log.len();
        let start = Instant::now();
        for _ in 0..rounds {
            self.round(passes.next_round, &mut passes.log);
            passes.next_round += 1;
        }
        let two_sessions = (passes.log.len() - from) as f64 / start.elapsed().as_secs_f64();
        (one_session > 0.0).then(|| two_sessions / (2.0 * one_session))
    }

    /// Checkpoint and reopen figures; call after `verify` (which reopens).
    pub fn durable_stats(&self, scaling_2_sessions: Option<f64>) -> DurableStats {
        let ms: Vec<f64> = self
            .checkpoints
            .iter()
            .map(|d| d.as_secs_f64() * 1e3)
            .collect();
        DurableStats {
            checkpoint_mean_ms: (!ms.is_empty()).then(|| ms.iter().sum::<f64>() / ms.len() as f64),
            checkpoint_max_ms: ms.iter().copied().reduce(f64::max),
            checkpoint_last_bytes: self.checkpoint_last_bytes,
            scaling_2_sessions,
            reopen_ms: self.reopen.map(|r| r.as_secs_f64() * 1e3),
        }
    }

    fn shadow(&mut self, rec: &mut Recorder) -> Result<&mut Shadow> {
        if self.shadow.is_none() {
            let engine = Arc::clone(self.db().engine());
            let rows = layers::decode_scan(&engine, &*engine.catalog().table("lexicon")?)?;
            let indexes = ShadowIndexes::build(rec, &engine, &rows, 0, 1)?;
            let wal_path = self.dir.with_extension("shadow-wal");
            let _ = std::fs::remove_file(&wal_path);
            self.shadow = Some(Shadow {
                indexes: Some(indexes),
                wal: SharedWal::new(Wal::open(&wal_path, 0)?, SyncMode::Flush),
                wal_path,
                txns: TransactionManager::new(),
            });
        }
        Ok(self.shadow.as_mut().expect("just built"))
    }

    /// Replay the layer calls of one executed transaction.
    fn replay(&mut self, rec: &mut Recorder, op: u32, plan: &TxnPlan) -> Result<()> {
        let engine = Arc::clone(self.db().engine());
        let headword = self.new_values[plan.word].clone();
        let new_headword = crate::fixture::materialized(&self.mural, &headword);
        for sql in plan.statements() {
            layers::replay_frontend(rec, op, &self.clients[0].session, sql)?;
        }
        // SELECT: B-tree lookup, then the heap fetch.
        let index = layers::live_index(&engine, "lexicon", "btree")?.expect("lexicon_id exists");
        let found = layers::replay_btree_search(rec, op, index.instance.read().as_ref(), plan.key)?;
        let old = layers::replay_fetch(rec, op, &engine, "lexicon", &found.tids)?;
        // UPDATE: victims come from a full heap scan; the new version gets
        // entries in both indexes and a Delete + Insert pair in the WAL.
        layers::replay_decode(rec, op, &engine, "lexicon")?;
        let old_row = old.into_iter().next().unwrap_or_default();
        let mut new_row = old_row.clone();
        if let Some(g) = new_row.get_mut(2) {
            *g = Datum::text(gloss(plan.key, plan.rev + 1));
        }
        let inserted_row = vec![
            Datum::Int(plan.new_id),
            new_headword.clone(),
            Datum::text(gloss(plan.new_id, 0)),
        ];
        // INSERT: the type's insert hook converts the new headword.
        layers::replay_g2p(rec, op, &self.mural, &[&headword]);
        let shadow = self.shadow(rec)?;
        let txn = rec.span("txn.begin_commit", None, op, || {
            let id = shadow.txns.begin();
            std::hint::black_box(shadow.txns.snapshot());
            shadow.txns.commit(id);
            (id, 1)
        });
        let indexes = shadow.indexes.as_mut().expect("held between probes");
        if let Some(text) = new_row.get(1) {
            indexes.replay_insert(rec, op, &Datum::Int(plan.key), text)?;
        }
        indexes.replay_insert(rec, op, &Datum::Int(plan.new_id), &new_headword)?;
        let records = [
            WalRecord::Delete {
                table_id: 0,
                txn,
                tuple: encode_row(&old_row),
            },
            WalRecord::Insert {
                table_id: 0,
                txn,
                tuple: encode_row(&new_row),
            },
            WalRecord::Insert {
                table_id: 0,
                txn,
                tuple: encode_row(&inserted_row),
            },
            WalRecord::Commit { txn },
        ];
        for r in &records {
            rec.span("storage.wal.append", None, op, || (shadow.wal.append(r), 1))?;
        }
        rec.span("storage.wal.commit", None, op, || (shadow.wal.commit(), 1))
    }
}

impl Drop for Lexicon {
    fn drop(&mut self) {
        self.clients.clear();
        drop(self.db.take());
        let _ = std::fs::remove_dir_all(&self.dir);
        if let Some(s) = self.shadow.take() {
            let _ = std::fs::remove_file(&s.wal_path);
        }
    }
}

impl Workload for Lexicon {
    fn round(&mut self, _index: u64, log: &mut Vec<OpRecord>) {
        let (base, words, values) = (self.base, &self.new_words, &self.new_values);
        let per_client: Vec<(Vec<OpRecord>, u64)> = std::thread::scope(|scope| {
            let handles: Vec<_> = self.clients[..self.active]
                .iter_mut()
                .map(|c| {
                    scope.spawn(move || {
                        let mut user_bytes = 0;
                        let ops = (0..TXNS_PER_ROUND)
                            .map(|_| {
                                let plan = c.plan(base, words);
                                user_bytes += plan.user_bytes(&values[plan.word]);
                                c.run(&plan, &mut |s, sql| s.execute(sql))
                            })
                            .collect::<Vec<_>>();
                        (ops, user_bytes)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread panicked"))
                .collect()
        });
        for (ops, user_bytes) in per_client {
            self.tallies.txns += ops.len() as u64;
            self.tallies.user_bytes += user_bytes;
            log.extend(ops);
        }
        let op = self.checkpoint();
        log.push(op);
    }

    fn verify(&mut self, log: &[OpRecord]) -> Vec<String> {
        let mut failures = std::mem::take(&mut self.errors);
        for c in &mut self.clients {
            failures.append(&mut c.errors);
        }
        let flagged = log.iter().filter(|op| !op.ok).count();
        if flagged > failures.len() {
            failures.push(format!(
                "{flagged} ops flagged failed but {} errors recorded",
                failures.len()
            ));
        }
        match self.reopen_check() {
            Ok(mut f) => failures.append(&mut f),
            Err(e) => failures.push(format!("reopen failed: {e}")),
        }
        failures
    }
}

impl Traced for Lexicon {
    /// One session, statement by statement under the recorder.
    fn traced_round(&mut self, _index: u64, rec: &mut Recorder, log: &mut Vec<OpRecord>) {
        for _ in 0..TXNS_PER_ROUND {
            let op = log.len() as u32;
            let plan = self.clients[0].plan(self.base, &self.new_words);
            self.tallies.txns += 1;
            self.tallies.user_bytes += plan.user_bytes(&self.new_values[plan.word]);
            let record = self.clients[0].run(&plan, &mut |s, sql| {
                let r = rec.span("session.execute", None, op, || (s.execute(sql), 1));
                if let Ok(r) = &r {
                    tally_examined(rec, r);
                }
                r
            });
            let committed = record.ok;
            log.push(record);
            if committed {
                if let Err(e) = self.replay(rec, op, &plan) {
                    self.errors.push(format!("replay of op {op}: {e}"));
                }
            }
        }
        let op = self.checkpoint();
        log.push(op);
    }

    fn probe(&mut self, rec: &mut Recorder) -> Result<()> {
        let indexes = self.shadow(rec)?.indexes.take();
        let sample = self.clients[0].plan(self.base, &self.new_words);
        let probe = NamesProbe {
            session: &mut self.clients[0].session,
            mural: &self.mural,
            table: "lexicon",
            id_col: 0,
            text_col: 1,
            probes: self.new_values.clone(),
            threshold: 1,
            statements: sample.statements().map(String::from).to_vec(),
        };
        layers::names_probe(rec, probe, indexes)
    }

    fn engine(&self) -> Arc<Engine> {
        Arc::clone(self.db().engine())
    }

    fn stages(&self) -> SetupStages {
        self.stages.clone()
    }

    fn tallies(&self) -> Tallies {
        self.tallies
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch() -> PathBuf {
        std::env::temp_dir().join(format!("mlql-workload-test-{}", std::process::id()))
    }

    #[test]
    fn mini_edits_survive_reopen() {
        let mut w = Lexicon::build(9, Scale::Mini, &scratch(), 2).unwrap();
        let mut log = Vec::new();
        for r in 0..3 {
            w.round(r, &mut log);
        }
        // 3 rounds of 2 sessions x 17 txns + one checkpoint.
        assert_eq!(log.len(), (2 * TXNS_PER_ROUND + 1) * 3);
        assert!(log.iter().all(|op| op.ok));
        let dir = w.dir.clone();
        assert_eq!(w.verify(&log), Vec::<String>::new());
        assert!(w.reopen.is_some());
        drop(w);
        assert!(!dir.exists(), "scratch directory is removed on drop");
        let _ = std::fs::remove_dir(scratch());
    }

    #[test]
    fn lost_commit_is_reported() {
        let mut w = Lexicon::build(9, Scale::Mini, &scratch(), 1).unwrap();
        let mut log = Vec::new();
        w.round(0, &mut log);
        // Pretend a transaction the engine never saw was acknowledged.
        w.clients[0].revs.insert(2, 5);
        let failures = w.verify(&log);
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(failures[0].contains("id 2"));
        drop(w);
        let _ = std::fs::remove_dir(scratch());
    }
}
