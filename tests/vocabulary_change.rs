//! A durable database reopened under a different taxonomy.
//!
//! UniText stores, at insert, the synset ids its word names, stamped with
//! the vocabulary fingerprint of the taxonomy they were resolved under.
//! Rows written under taxonomy A and read under taxonomy B — in which a
//! word names a different synset, a word is new and a word is gone, and
//! every synset id has moved — must answer Ω exactly as B's closure
//! oracle says: a stale stamp sends the row to the word lookup, never to
//! its stored ids.  Grouping must see one value per `(text, lang)`
//! whether its copy was stored under A or B, and replaying the WAL under
//! B must delete exactly the rows deleted under A.

use mlql::kernel::{recovery, Datum, Session};
use mlql::mural::install_with_taxonomy;
use mlql::mural::types::{stored_concepts, unitext_from_bytes};
use mlql::taxonomy::closure::compute_closure;
use mlql::taxonomy::{SynsetId, Taxonomy};
use mlql::unitext::{LangId, LanguageRegistry};
use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("mlql-vocab-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

/// Taxonomy A: History ⊐ Biography ⊐ Autobiography, Fiction ⊐ Novel,
/// Poetry, and French Histoire ≡ History.
fn taxonomy_a(langs: &LanguageRegistry) -> Taxonomy {
    let (en, fr) = (langs.id_of("English"), langs.id_of("French"));
    let mut t = Taxonomy::new();
    let history = t.add_synset(en, &["History"]);
    let biography = t.add_synset(en, &["Biography"]);
    let autobiography = t.add_synset(en, &["Autobiography"]);
    let fiction = t.add_synset(en, &["Fiction"]);
    let novel = t.add_synset(en, &["Novel"]);
    t.add_synset(en, &["Poetry"]);
    let histoire = t.add_synset(fr, &["Histoire"]);
    t.add_hyponym(history, biography);
    t.add_hyponym(biography, autobiography);
    t.add_hyponym(fiction, novel);
    t.add_equivalence(history, histoire);
    t
}

/// Taxonomy B, built in another order so every id moves: Novel now
/// names a synset under History, Memoir is new (under Biography), Poetry
/// is gone.
fn taxonomy_b(langs: &LanguageRegistry) -> Taxonomy {
    let (en, fr) = (langs.id_of("English"), langs.id_of("French"));
    let mut t = Taxonomy::new();
    t.add_synset(en, &["Fiction"]);
    let history = t.add_synset(en, &["History"]);
    let novel = t.add_synset(en, &["Novel"]);
    let biography = t.add_synset(en, &["Biography"]);
    let autobiography = t.add_synset(en, &["Autobiography"]);
    let memoir = t.add_synset(en, &["Memoir"]);
    let histoire = t.add_synset(fr, &["Histoire"]);
    t.add_hyponym(history, novel);
    t.add_hyponym(history, biography);
    t.add_hyponym(biography, autobiography);
    t.add_hyponym(biography, memoir);
    t.add_equivalence(history, histoire);
    t
}

/// The category words rows draw from: every word of A and B, untagged
/// text, and a word neither taxonomy knows.
const WORDS: [(&str, Option<&str>); 11] = [
    ("History", Some("English")),
    ("Biography", Some("English")),
    ("Autobiography", Some("English")),
    ("Fiction", Some("English")),
    ("Novel", Some("English")),
    ("Poetry", Some("English")),
    ("Memoir", Some("English")),
    ("Histoire", Some("French")),
    ("Novel", None),
    ("Poetry", None),
    ("Xylophone", Some("English")),
];

fn literal((text, lang): (&str, Option<&str>)) -> String {
    match lang {
        Some(l) => format!("unitext('{text}', '{l}')"),
        None => format!("unitext('{text}', 'Unknown')"),
    }
}

fn open(dir: &Path, taxonomy: fn(&LanguageRegistry) -> Taxonomy) -> (Session, u64) {
    let mut stamp = 0;
    let db = recovery::open(
        dir,
        |db| {
            let mural = install_with_taxonomy(db, taxonomy(&LanguageRegistry::new()))?;
            stamp = mural.sem.vocabulary_stamp();
            Ok(())
        },
        |b| b,
    )
    .unwrap();
    (db, stamp)
}

/// `(id, text, lang)` of every row of `t`, with the stamp its stored ids
/// carry (if any).
fn rows(db: &mut Session) -> Vec<(i64, String, LangId, Option<u64>)> {
    db.query("SELECT id, cat FROM t")
        .unwrap()
        .into_iter()
        .map(|r| {
            let Datum::Ext { bytes, .. } = &r[1] else {
                panic!("cat is a UniText: {:?}", r[1]);
            };
            let v = unitext_from_bytes(bytes).unwrap();
            let stamp = stored_concepts(bytes).map(|c| c.stamp);
            (
                r[0].as_int().unwrap(),
                v.text().to_string(),
                v.lang(),
                stamp,
            )
        })
        .collect()
}

/// `roots` holds every word twice: `rid` i written under A, `ROOTS_B + i`
/// under B.
const ROOTS_B: i64 = 100;

fn insert_roots(db: &mut Session, first: i64) {
    for (i, &w) in WORDS.iter().enumerate() {
        let rid = first + i as i64;
        db.execute(&format!("INSERT INTO roots VALUES ({rid}, {})", literal(w)))
            .unwrap();
    }
}

#[test]
fn rows_stored_under_another_vocabulary_fall_back_to_the_lookup() {
    let dir = tmpdir("reopen");
    let mut next_id = 0i64;
    let mut insert = |db: &mut Session, n: usize| {
        for _ in 0..n {
            let w = WORDS[next_id as usize % WORDS.len()];
            db.execute(&format!("INSERT INTO t VALUES ({next_id}, {})", literal(w)))
                .unwrap();
            next_id += 1;
        }
    };
    let stamp_a = {
        let (mut db, stamp_a) = open(&dir, taxonomy_a);
        db.execute("CREATE TABLE t (id INT, cat UNITEXT)").unwrap();
        db.execute("CREATE TABLE roots (rid INT, cat UNITEXT)")
            .unwrap();
        insert_roots(&mut db, 0);
        insert(&mut db, 40);
        // Half the rows reach B through the checkpoint's heap, half
        // through the WAL tail, with deletes and an update among them.
        db.engine().checkpoint().unwrap();
        insert(&mut db, 40);
        db.execute("DELETE FROM t WHERE id >= 30 AND id < 36")
            .unwrap();
        db.execute("DELETE FROM t WHERE id >= 60 AND id < 64")
            .unwrap();
        db.execute("UPDATE t SET id = id + 1000 WHERE id = 70")
            .unwrap();
        stamp_a
        // Dropped without a clean shutdown.
    };

    let (mut db, stamp_b) = open(&dir, taxonomy_b);
    assert_ne!(stamp_a, stamp_b);
    let reopened = rows(&mut db);
    let ids: BTreeSet<i64> = reopened.iter().map(|r| r.0).collect();
    let want: BTreeSet<i64> = (0..80)
        .filter(|id| !(30..36).contains(id) && !(60..64).contains(id))
        .map(|id| if id == 70 { 1070 } else { id })
        .collect();
    assert_eq!(ids, want, "replay under B deletes what A deleted");
    assert!(
        reopened.iter().all(|r| r.3.is_none_or(|s| s == stamp_a)),
        "rows keep the bytes they were written with"
    );
    assert!(reopened.iter().any(|r| r.3 == Some(stamp_a)));
    insert(&mut db, 40);
    let all = rows(&mut db);
    assert!(all.iter().any(|r| r.3 == Some(stamp_b)));
    db.execute("ANALYZE t").unwrap();

    // Ω, as a scan filter and as a join whose RHS rows are stored too
    // (under A and under B), against B's closure oracle.
    let langs = LanguageRegistry::new();
    let b = taxonomy_b(&langs);
    let synsets = |text: &str, lang: LangId| -> Vec<SynsetId> {
        if lang == LangId::UNKNOWN {
            b.lookup_any_lang(text)
        } else {
            b.lookup(text, lang).to_vec()
        }
    };
    let omega = |l: (&str, LangId), r: (&str, LangId)| {
        synsets(r.0, r.1).into_iter().any(|root| {
            let closure = compute_closure(&b, root);
            synsets(l.0, l.1).iter().any(|s| closure.contains(s))
        })
    };
    let lang_of = |w: (&str, Option<&str>)| w.1.map_or(LangId::UNKNOWN, |l| langs.id_of(l));
    insert_roots(&mut db, ROOTS_B);
    for &w in &WORDS {
        let want: BTreeSet<i64> = all
            .iter()
            .filter(|r| omega((&r.1, r.2), (w.0, lang_of(w))))
            .map(|r| r.0)
            .collect();
        let got: BTreeSet<i64> = db
            .query(&format!(
                "SELECT id FROM t WHERE cat SEMEQUAL {}",
                literal(w)
            ))
            .unwrap()
            .iter()
            .map(|r| r[0].as_int().unwrap())
            .collect();
        assert_eq!(got, want, "cat SEMEQUAL {w:?} under B");
    }
    let mut joined: Vec<(i64, i64)> = db
        .query("SELECT t.id, roots.rid FROM t, roots WHERE t.cat SEMEQUAL roots.cat")
        .unwrap()
        .iter()
        .map(|r| (r[0].as_int().unwrap(), r[1].as_int().unwrap()))
        .collect();
    joined.sort_unstable();
    let mut want = Vec::new();
    for r in &all {
        for (i, &w) in WORDS.iter().enumerate() {
            if omega((&r.1, r.2), (w.0, lang_of(w))) {
                want.extend([(r.0, i as i64), (r.0, ROOTS_B + i as i64)]);
            }
        }
    }
    want.sort_unstable();
    assert_eq!(joined, want, "t.cat SEMEQUAL roots.cat under B");

    // One group per (text, lang), whichever vocabulary stored the copy.
    let mut counts: BTreeMap<(String, LangId), i64> = BTreeMap::new();
    for r in &all {
        *counts.entry((r.1.clone(), r.2)).or_default() += 1;
    }
    let key = |d: &Datum| {
        let Datum::Ext { bytes, .. } = d else {
            panic!("cat is a UniText: {d:?}");
        };
        let v = unitext_from_bytes(bytes).unwrap();
        (v.text().to_string(), v.lang())
    };
    let distinct: Vec<(String, LangId)> = db
        .query("SELECT DISTINCT cat FROM t")
        .unwrap()
        .iter()
        .map(|r| key(&r[0]))
        .collect();
    assert_eq!(distinct.len(), counts.len(), "DISTINCT: {distinct:?}");
    assert_eq!(
        distinct.into_iter().collect::<BTreeSet<_>>(),
        counts.keys().cloned().collect()
    );
    let grouped: BTreeMap<(String, LangId), i64> = db
        .query("SELECT cat, count(*) FROM t GROUP BY cat")
        .unwrap()
        .iter()
        .map(|r| (key(&r[0]), r[1].as_int().unwrap()))
        .collect();
    assert_eq!(grouped, counts, "GROUP BY cat");
    let n_distinct = {
        let catalog = db.engine().catalog();
        let meta = catalog.table("t").unwrap();
        let stats = meta.stats.lock();
        stats.columns[1].as_ref().unwrap().n_distinct
    };
    assert_eq!(n_distinct, counts.len() as f64, "ANALYZE n_distinct");
    drop(db);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The same taxonomy reopened keeps the stamp: stored ids stay usable.
#[test]
fn the_same_taxonomy_reopened_keeps_the_stored_ids() {
    let dir = tmpdir("same");
    let stamp = {
        let (mut db, stamp) = open(&dir, taxonomy_a);
        db.execute("CREATE TABLE t (id INT, cat UNITEXT)").unwrap();
        db.execute("INSERT INTO t VALUES (1, unitext('Novel', 'English'))")
            .unwrap();
        stamp
    };
    let (mut db, again) = open(&dir, taxonomy_a);
    assert_eq!(stamp, again, "the fingerprint is stable across processes");
    let r = rows(&mut db);
    assert_eq!(r[0].3, Some(stamp));
    let hit = db
        .query("SELECT id FROM t WHERE cat SEMEQUAL unitext('Fiction', 'English')")
        .unwrap();
    assert_eq!(hit.len(), 1);
    drop(db);
    std::fs::remove_dir_all(&dir).unwrap();
}
