//! Multi-session tests: concurrent sessions over one shared [`Engine`],
//! DDL and INSERTs interleaved with LexEQUAL/SemEQUAL reads, and
//! plan-cache invalidation across sessions.

use mlql::kernel::{obs, Error, Session};
use mlql::mural::install;
use mlql::taxonomy::SynsetId;
use mlql::unitext::UniText;
use std::sync::atomic::{AtomicBool, Ordering};

fn db() -> Session {
    let mut db = Session::new_in_memory();
    install(&mut db).unwrap();
    db
}

/// `Session::connect` opens a sibling that starts from a copy of this
/// session's variables — including the `lexequal.threshold` default
/// Mural installs — and then diverges; `Engine::connect` starts empty.
/// Both see the shared data.
#[test]
fn connect_inherits_vars_then_diverges() {
    let mut db = db();
    db.execute("CREATE TABLE t (id INT)").unwrap();
    db.execute("INSERT INTO t VALUES (1), (2)").unwrap();
    db.execute("SET max_rows = 99").unwrap();

    let mut sibling = db.connect();
    assert_eq!(sibling.vars().get_int("lexequal.threshold", -1), 2);
    assert_eq!(sibling.vars().get_int("max_rows", 0), 99);
    sibling.execute("SET max_rows = 1").unwrap();
    sibling.execute("SET lexequal.threshold = 0").unwrap();
    assert_eq!(db.vars().get_int("max_rows", 0), 99);
    assert_eq!(db.vars().get_int("lexequal.threshold", -1), 2);

    let mut bare = db.engine().connect();
    assert!(bare.vars().get("lexequal.threshold").is_none());
    assert!(bare.vars().get("max_rows").is_none());

    for s in [&mut sibling, &mut bare] {
        let n = s.query("SELECT count(*) FROM t").unwrap();
        assert_eq!(n[0][0].as_int(), Some(2));
    }
}

/// Readers run ψ/Ω selects from their own sessions while the writer
/// interleaves INSERTs and DDL.  No read may observe a torn row, counts
/// must be monotone (insert-only workload), and final counts must be
/// exact.
#[test]
fn ddl_and_inserts_interleave_with_multilingual_reads() {
    let mut db = db();
    db.execute("CREATE TABLE book (id INT, author UNITEXT, category UNITEXT, price FLOAT)")
        .unwrap();
    db.execute("SET lexequal.threshold = 2").unwrap();
    for (id, author, lang) in [
        (1, "Nehru", "English"),
        (2, "नेहरू", "Hindi"),
        (3, "நேரு", "Tamil"),
    ] {
        db.execute(&format!(
            "INSERT INTO book VALUES ({id}, unitext('{author}','{lang}'), unitext('History','English'), {id}.0)"
        ))
        .unwrap();
    }
    db.execute("ANALYZE book").unwrap();

    const EXTRA: i64 = 24;
    let stop = AtomicBool::new(false);
    // Sessions are created up front (they copy the writer's vars, so the
    // lexequal threshold carries over) and moved into the reader threads.
    let readers: Vec<_> = (0..4).map(|_| db.connect()).collect();

    std::thread::scope(|scope| {
        let stop = &stop;
        let mut handles = Vec::new();
        for mut session in readers {
            handles.push(scope.spawn(move || {
                let mut last_psi = 0i64;
                let mut iters = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    // ψ: phonetic match across three scripts.
                    let psi = session
                        .query("SELECT count(*) FROM book WHERE author LEXEQUAL unitext('Nehru','English')")
                        .unwrap()[0][0]
                        .as_int()
                        .unwrap();
                    assert!(psi >= last_psi, "ψ count went backwards: {last_psi} -> {psi}");
                    assert!((3..=3 + EXTRA).contains(&psi), "ψ count out of range: {psi}");
                    last_psi = psi;
                    // Ω: everything under History.
                    let omega = session
                        .query("SELECT count(*) FROM book WHERE category SEMEQUAL unitext('History','English')")
                        .unwrap()[0][0]
                        .as_int()
                        .unwrap();
                    assert!(omega >= 3, "Ω count dropped below the seed rows: {omega}");
                    // Torn-row check: the writer maintains price == id for
                    // every inserted row; a read must never see a half
                    // written pair.
                    for row in session
                        .query("SELECT id, price FROM book WHERE id >= 1000")
                        .unwrap()
                    {
                        let (id, price) = (row[0].as_int().unwrap(), row[1].as_float().unwrap());
                        assert_eq!(price, id as f64, "torn row: id={id} price={price}");
                    }
                    iters += 1;
                }
                iters
            }));
        }

        // Writer: inserts interleaved with DDL from the main session.
        for i in 0..EXTRA {
            let id = 1000 + i;
            db.execute(&format!(
                "INSERT INTO book VALUES ({id}, unitext('Nehru','English'), unitext('History','English'), {id}.0)"
            ))
            .unwrap();
            match i {
                6 => {
                    db.execute("CREATE TABLE scratch (id INT)").unwrap();
                }
                12 => {
                    db.execute("CREATE INDEX book_id ON book (id) USING btree")
                        .unwrap();
                }
                18 => {
                    db.execute("ANALYZE book").unwrap();
                }
                _ => {}
            }
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        stop.store(true, Ordering::Relaxed);
        let total: u64 = handles.into_iter().map(|h| h.join().unwrap()).sum();
        assert!(total > 0, "readers never completed an iteration");
    });

    // Final state is exact in every session.
    let mut fresh = db.connect();
    let psi = fresh
        .query("SELECT count(*) FROM book WHERE author LEXEQUAL unitext('Nehru','English')")
        .unwrap()[0][0]
        .as_int()
        .unwrap();
    assert_eq!(psi, 3 + EXTRA);
}

/// DDL or ANALYZE in one session must invalidate plans another session
/// cached; re-execution replans and stays correct.
#[test]
fn plan_cache_invalidates_across_sessions() {
    let mut db = db();
    db.execute("CREATE TABLE t (id INT)").unwrap();
    db.execute("INSERT INTO t VALUES (1), (2), (3)").unwrap();

    let metrics = mlql::kernel::obs::metrics();
    let mut s1 = db.connect();
    let q = "SELECT count(*) FROM t WHERE id >= 2";
    assert_eq!(s1.query(q).unwrap()[0][0].as_int(), Some(2));
    let hits0 = metrics.plan_cache_hits_total.get();
    assert_eq!(s1.query(q).unwrap()[0][0].as_int(), Some(2));
    assert!(
        metrics.plan_cache_hits_total.get() > hits0,
        "repeat did not hit the cache"
    );

    // DDL in a *different* session flushes the shared cache.
    let mut s2 = db.connect();
    s2.execute("CREATE TABLE u (id INT)").unwrap();
    assert_eq!(db.engine().cached_plan_count(), 0);

    // s1 replans transparently and stays correct; data changes from s2
    // are visible through the re-cached plan.
    assert_eq!(s1.query(q).unwrap()[0][0].as_int(), Some(2));
    s2.execute("INSERT INTO t VALUES (4)").unwrap();
    assert_eq!(s1.query(q).unwrap()[0][0].as_int(), Some(3));

    // ANALYZE invalidates too.
    assert!(db.engine().cached_plan_count() > 0);
    s2.execute("ANALYZE t").unwrap();
    assert_eq!(db.engine().cached_plan_count(), 0);

    // The cache counters are visible through SHOW STATS.
    let shown = s1.execute("SHOW stats").unwrap();
    let text: Vec<String> = shown
        .rows
        .iter()
        .map(|r| format!("{} {}", r[0], r[1]))
        .collect();
    let text = text.join("\n");
    assert!(
        text.contains("mlql_plan_cache_hits_total"),
        "SHOW STATS missing cache hits:\n{text}"
    );
    assert!(
        text.contains("mlql_plan_cache_invalidations_total"),
        "{text}"
    );
}

/// The `max_rows` guard is session-scoped and raises a typed error.
#[test]
fn max_rows_guard_is_per_session() {
    let mut db = db();
    db.execute("CREATE TABLE t (id INT)").unwrap();
    for i in 0..50 {
        db.execute(&format!("INSERT INTO t VALUES ({i})")).unwrap();
    }
    let mut limited = db.connect();
    limited.execute("SET max_rows = 10").unwrap();
    let err = limited.query("SELECT id FROM t").unwrap_err();
    assert!(
        matches!(err, Error::MaxRows { limit: 10 }),
        "unexpected error: {err}"
    );
    // Aggregates under the limit still work, and the default session is
    // unaffected.
    assert_eq!(
        limited.query("SELECT count(*) FROM t").unwrap()[0][0].as_int(),
        Some(50)
    );
    assert_eq!(db.query("SELECT id FROM t").unwrap().len(), 50);
}

/// Script failures report the 1-based ordinal and a snippet of the
/// failing statement.
#[test]
fn script_errors_locate_the_failing_statement() {
    let mut db = db();
    let err = db
        .execute_script(
            "CREATE TABLE t (id INT); INSERT INTO t VALUES (1); INSERT INTO t VALUES ('oops'); SELECT 1",
        )
        .unwrap_err();
    match err {
        Error::Script {
            ordinal,
            ref snippet,
            ..
        } => {
            assert_eq!(ordinal, 3);
            assert!(snippet.contains("oops"), "snippet: {snippet}");
        }
        other => panic!("expected Error::Script, got: {other}"),
    }
    // Statements before the failure committed.
    assert_eq!(
        db.query("SELECT count(*) FROM t").unwrap()[0][0].as_int(),
        Some(1)
    );
}

/// A CREATE INDEX whose heap back-fill fails must not leave a partially
/// built index registered — a later query would pick it and silently
/// miss rows.
#[test]
fn failed_index_backfill_unregisters_index() {
    let mut db = db();
    db.execute("CREATE TABLE t (id INT, name UNITEXT)").unwrap();
    db.execute("INSERT INTO t VALUES (1, unitext('Nehru','English'))")
        .unwrap();
    // mtree keys must be unitext, so back-filling from the INT column
    // fails after the index is registered in the catalog.
    assert!(db
        .execute("CREATE INDEX t_bad ON t (id) USING mtree")
        .is_err());
    {
        let catalog = db.engine().catalog();
        let meta = catalog.table("t").unwrap();
        assert!(
            catalog.indexes_of(meta.id).is_empty(),
            "failed back-fill left a partial index registered"
        );
    }
    // The name is free again: a valid definition succeeds, and queries
    // through it see every row.
    db.execute("CREATE INDEX t_bad ON t (name) USING mtree")
        .unwrap();
    db.execute("SET lexequal.threshold = 2").unwrap();
    assert_eq!(
        db.query("SELECT count(*) FROM t WHERE name LEXEQUAL unitext('Nehru','English')")
            .unwrap()[0][0]
            .as_int(),
        Some(1)
    );
}

/// Give Autobiography a second parent (History, next to Biography):
/// History's closure is unchanged but its subtree now emits an exception
/// edge, so interval misses under History (e.g. Fiction) defer to the
/// memoized closure walk — the only way to reach it.  Returns the
/// (History, Fiction) synsets for further grafting.
fn make_history_dirty(mural: &mlql::mural::Mural) -> (SynsetId, SynsetId) {
    let en = mural.langs.id_of("English");
    let synset = |w: &str| mural.sem.synsets_of(&UniText::compose(w, en))[0];
    mural
        .sem
        .add_hyponym(synset("History"), synset("Autobiography"));
    (synset("History"), synset("Fiction"))
}

/// Ω closure-cache invalidation is engine-wide: a taxonomy edit made
/// through one session's view of the shared [`SemState`] must be visible
/// to every other session immediately — no session may keep matching
/// against a memoized closure of the old hierarchy.
#[test]
fn omega_cache_invalidation_crosses_sessions() {
    let mut db = Session::new_in_memory();
    let mural = install(&mut db).unwrap();
    db.execute("CREATE TABLE docs (id INT, category UNITEXT)")
        .unwrap();
    db.execute("INSERT INTO docs VALUES (1, unitext('Fiction','English'))")
        .unwrap();
    db.execute("INSERT INTO docs VALUES (2, unitext('Biography','English'))")
        .unwrap();

    let omega = "SELECT count(*) FROM docs WHERE category SEMEQUAL unitext('History','English')";
    let mut s1 = db.connect();
    let mut s2 = db.connect();
    // On the tree-shaped fixture every probe is an interval compare: no
    // closure is ever materialized.
    assert_eq!(s1.query(omega).unwrap()[0][0].as_int(), Some(1));
    assert!(mural.sem.cache.is_empty(), "tree taxonomy: no closure walk");
    // This test is about the shared *closure cache* invalidation
    // protocol, reachable only under an exception-edge root.
    let (history, fiction) = make_history_dirty(&mural);
    let fallbacks_before = obs::metrics().omega_interval_fallbacks_total.get();
    // Both sessions warm the shared cache: only Biography is under History.
    assert_eq!(s1.query(omega).unwrap()[0][0].as_int(), Some(1));
    assert_eq!(s2.query(omega).unwrap()[0][0].as_int(), Some(1));
    assert!(!mural.sem.cache.is_empty(), "closure memoized");
    assert!(obs::metrics().omega_interval_fallbacks_total.get() >= fallbacks_before + 2);

    // Taxonomy INSERT (graft Fiction under History), conceptually issued
    // by session 1: the shared cache is invalidated...
    mural.sem.add_hyponym(history, fiction);
    assert!(mural.sem.cache.is_empty(), "mutation must clear the cache");
    // ...and *both* sessions see the new edge at once.
    assert_eq!(s1.query(omega).unwrap()[0][0].as_int(), Some(2));
    assert_eq!(s2.query(omega).unwrap()[0][0].as_int(), Some(2));

    // Taxonomy DELETE: the edge goes away for everyone, again at once.
    assert!(mural.sem.remove_hyponym(history, fiction));
    assert_eq!(s2.query(omega).unwrap()[0][0].as_int(), Some(1));
    assert_eq!(s1.query(omega).unwrap()[0][0].as_int(), Some(1));
}

/// Regression: DDL between taxonomy edits must not resurrect a stale
/// closure.  The failure mode guarded against: DDL flushes the *plan*
/// cache, a replanned query re-runs, and an unvalidated *closure* cache
/// would happily serve the pre-edit closure to the fresh plan.
#[test]
fn omega_cache_never_serves_stale_closure_after_ddl() {
    let mut db = Session::new_in_memory();
    let mural = install(&mut db).unwrap();
    db.execute("CREATE TABLE docs (id INT, category UNITEXT)")
        .unwrap();
    db.execute("INSERT INTO docs VALUES (1, unitext('Fiction','English'))")
        .unwrap();
    let omega = "SELECT count(*) FROM docs WHERE category SEMEQUAL unitext('History','English')";
    let mut s = db.connect();
    // Closure-walk fallback: this regression is about the *closure cache*
    // revalidating across taxonomy versions, which interval-decided
    // probes bypass entirely.
    let (history, fiction) = make_history_dirty(&mural);
    let fallbacks_before = obs::metrics().omega_interval_fallbacks_total.get();
    assert_eq!(s.query(omega).unwrap()[0][0].as_int(), Some(0));
    assert!(obs::metrics().omega_interval_fallbacks_total.get() > fallbacks_before);

    mural.sem.add_hyponym(history, fiction);
    // DDL from another session: flushes plans, replans everything.
    db.execute("CREATE TABLE scratch (id INT)").unwrap();
    db.execute("ANALYZE docs").unwrap();
    // The replanned query must see the post-edit taxonomy...
    assert_eq!(s.query(omega).unwrap()[0][0].as_int(), Some(1));
    // ...and after the edge is dropped plus more DDL, the match must not
    // come back from any cached closure.
    mural.sem.remove_hyponym(history, fiction);
    db.execute("CREATE INDEX docs_cat ON docs (category) USING mtree")
        .unwrap();
    assert_eq!(s.query(omega).unwrap()[0][0].as_int(), Some(0));
    let (hits, misses) = mural.sem.cache.stats();
    assert!(
        misses >= 3,
        "each taxonomy version computed afresh: {hits}/{misses}"
    );
}
