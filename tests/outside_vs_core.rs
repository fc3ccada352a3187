//! Equivalence tests: the outside-the-server PL implementations must be
//! *functionally identical* to the in-kernel operators — the paper's
//! Table 4 / Figure 8 comparisons are only meaningful because both sides
//! compute the same answers.

use mlql::datagen::{names_dataset, NamesConfig};
use mlql::kernel::pl::PlRuntime;
use mlql::kernel::{Datum, Session};
use mlql::mural::types::unitext_datum;
use mlql::mural::{install, mdi, outside, Mural};

fn corpus(records: usize) -> (Session, Mural) {
    let mut db = Session::new_in_memory();
    let mural = install(&mut db).unwrap();
    db.execute("CREATE TABLE names (name UNITEXT)").unwrap();
    db.execute("CREATE TABLE names_out (name TEXT, ph TEXT, mdi INT)")
        .unwrap();
    let data = names_dataset(
        &mural.langs,
        &NamesConfig {
            records,
            noise: 0.3,
            seed: 77,
            distinct: 200,
        },
    );
    for rec in data {
        db.insert_row("names", vec![unitext_datum(mural.unitext_type, &rec.name)])
            .unwrap();
        let ph = mural.converters.phonemes_of(&rec.name);
        db.insert_row(
            "names_out",
            vec![
                Datum::text(rec.name.text()),
                Datum::text(String::from_utf8_lossy(ph.as_bytes())),
                Datum::Int(mdi::mdi_key(ph.as_bytes(), mdi::DEFAULT_ANCHOR)),
            ],
        )
        .unwrap();
    }
    db.execute("CREATE INDEX names_out_mdi ON names_out (mdi) USING btree")
        .unwrap();
    (db, mural)
}

fn sorted_texts(rows: &[Vec<Datum>]) -> Vec<String> {
    let mut v: Vec<String> = rows
        .iter()
        .map(|r| match r[0].as_ext() {
            Some((_, bytes)) => mlql::mural::unitext_from_bytes(bytes)
                .unwrap()
                .text()
                .to_string(),
            None => r[0].as_text().unwrap().to_string(),
        })
        .collect();
    v.sort();
    v
}

#[test]
fn scan_results_identical_across_implementations() {
    let (mut db, mural) = corpus(400);
    for (probe, k) in [("Nehru", 1i64), ("Gandhi", 2), ("Sharma", 2), ("Xyzzy", 1)] {
        db.execute(&format!("SET lexequal.threshold = {k}"))
            .unwrap();
        // Core.
        let core = db
            .query(&format!(
                "SELECT name FROM names WHERE name LEXEQUAL unitext('{probe}','English')"
            ))
            .unwrap();
        // Outside, full scan with the *interpreted* edit distance.
        let v = mural.unitext(probe, "English").unwrap();
        let (_, bytes) = v.as_ext().unwrap();
        let ph = mlql::mural::types::phoneme_slice(bytes).unwrap().to_vec();
        let ph_text = String::from_utf8_lossy(&ph).into_owned();
        let scan_fn = outside::lexequal_scan_fn("names_out", "name", "ph");
        let mut rt = PlRuntime::new(&mut db);
        rt.register_function(outside::editdistance_pl_fn());
        let out_full = rt
            .call(&scan_fn, &[Datum::text(&ph_text), Datum::Int(k)])
            .unwrap();
        // Outside, MDI-banded.
        let mdi_fn = outside::lexequal_scan_mdi_fn("names_out", "name", "ph", "mdi");
        let key = mdi::mdi_key(&ph, mdi::DEFAULT_ANCHOR);
        let out_mdi = rt
            .call(
                &mdi_fn,
                &[Datum::text(&ph_text), Datum::Int(k), Datum::Int(key)],
            )
            .unwrap();

        let a = sorted_texts(&core);
        let b = sorted_texts(&out_full);
        let c = sorted_texts(&out_mdi);
        assert_eq!(a, b, "core vs outside full scan, probe {probe} k {k}");
        assert_eq!(b, c, "outside full vs MDI, probe {probe} k {k}");
    }
}

#[test]
fn join_results_identical_across_implementations() {
    let (mut db, mural) = corpus(150);
    // A small probe side.
    db.execute("CREATE TABLE probes (name UNITEXT)").unwrap();
    db.execute("CREATE TABLE probes_out (name TEXT, ph TEXT, mdi INT)")
        .unwrap();
    let data = names_dataset(
        &mural.langs,
        &NamesConfig {
            records: 25,
            noise: 0.3,
            seed: 5,
            distinct: 40,
        },
    );
    for rec in data {
        db.insert_row("probes", vec![unitext_datum(mural.unitext_type, &rec.name)])
            .unwrap();
        let ph = mural.converters.phonemes_of(&rec.name);
        db.insert_row(
            "probes_out",
            vec![
                Datum::text(rec.name.text()),
                Datum::text(String::from_utf8_lossy(ph.as_bytes())),
                Datum::Int(mdi::mdi_key(ph.as_bytes(), mdi::DEFAULT_ANCHOR)),
            ],
        )
        .unwrap();
    }
    db.execute("SET lexequal.threshold = 2").unwrap();
    let core = db
        .query("SELECT count(*) FROM probes p, names n WHERE p.name LEXEQUAL n.name")
        .unwrap();

    let join_fn = outside::lexequal_join_fn("probes_out", "name", "ph", "names_out", "name", "ph");
    let join_mdi = outside::lexequal_join_mdi_fn(
        "probes_out",
        "name",
        "ph",
        "mdi",
        "names_out",
        "name",
        "ph",
        "mdi",
    );
    let mut rt = PlRuntime::new(&mut db);
    rt.register_function(outside::editdistance_pl_fn());
    let full = rt.call(&join_fn, &[Datum::Int(2)]).unwrap();
    let banded = rt.call(&join_mdi, &[Datum::Int(2)]).unwrap();
    assert_eq!(
        core[0][0].as_int(),
        Some(full.len() as i64),
        "core vs outside join"
    );
    assert_eq!(full.len(), banded.len(), "outside join vs MDI join");
}

#[test]
fn closure_identical_between_sql_expansion_and_pinned() {
    use mlql::taxonomy::{generate, synsets_near_closure_sizes, GeneratorConfig};
    let mut db = Session::new_in_memory();
    let langs = mlql::unitext::LanguageRegistry::new();
    let taxonomy = generate(
        langs.id_of("English"),
        &GeneratorConfig {
            synsets: 3000,
            ..Default::default()
        },
    );
    let picks = synsets_near_closure_sizes(&taxonomy, &[30, 120, 400]);
    db.execute("CREATE TABLE edges (child INT, parent INT)")
        .unwrap();
    for id in taxonomy.ids() {
        for &c in taxonomy.children(id) {
            db.execute(&format!(
                "INSERT INTO edges VALUES ({}, {})",
                c.raw(),
                id.raw()
            ))
            .unwrap();
        }
    }
    db.execute("CREATE INDEX edges_parent ON edges (parent) USING btree")
        .unwrap();
    db.execute("CREATE TABLE scratch (id INT, done INT)")
        .unwrap();
    let f = outside::semequal_closure_fn("edges", "scratch");
    for (_, synset, expected) in picks {
        db.execute("DELETE FROM scratch").unwrap();
        let mut rt = PlRuntime::new(&mut db);
        let rows = rt.call(&f, &[Datum::Int(synset.raw() as i64)]).unwrap();
        let pinned = mlql::taxonomy::closure::compute_closure(&taxonomy, synset);
        assert_eq!(rows.len(), expected);
        assert_eq!(rows.len(), pinned.len());
        // Same members, not just the same count.
        let mut sql_ids: Vec<i64> = rows.iter().map(|r| r[0].as_int().unwrap()).collect();
        sql_ids.sort_unstable();
        let mut pin_ids: Vec<i64> = pinned.iter().map(|s| s.raw() as i64).collect();
        pin_ids.sort_unstable();
        assert_eq!(sql_ids, pin_ids);
    }
}
