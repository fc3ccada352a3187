//! Bookstore: a generated multilingual catalog at scale, exercising the
//! optimizer the way the paper's §5.2.1 example does.
//!
//! Loads a datagen Books.com catalog plus Author/Publisher side tables,
//! then runs: a phonemic author search with and without the M-Tree index,
//! a category SemEQUAL rollup, and the Example 5 three-way join — printing
//! `EXPLAIN` output so the plan choices are visible.
//!
//! Run: `cargo run --release --example bookstore [rows]`

use mlql::datagen::{books_catalog, names_dataset, NamesConfig};
use mlql::kernel::{Datum, Session};
use mlql::mural::install;
use mlql::mural::types::unitext_datum;
use std::time::Instant;

fn main() {
    let rows: usize = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(5000);
    let mut db = Session::new_in_memory();
    let mural = install(&mut db).expect("install mural");

    println!("loading {rows}-row catalog ...");
    db.execute("CREATE TABLE book (id INT, author UNITEXT, title UNITEXT, category UNITEXT, language TEXT, price FLOAT)")
        .unwrap();
    for r in books_catalog(&mural.langs, rows, 42) {
        db.insert_row(
            "book",
            vec![
                Datum::Int(r.id),
                unitext_datum(mural.unitext_type, &r.author),
                unitext_datum(mural.unitext_type, &r.title),
                unitext_datum(mural.unitext_type, &r.category),
                Datum::text(&r.language),
                Datum::Float(r.price),
            ],
        )
        .unwrap();
    }
    db.execute("CREATE TABLE publisher (pubid INT, pname UNITEXT)")
        .unwrap();
    for (i, rec) in names_dataset(
        &mural.langs,
        &NamesConfig {
            records: rows / 20 + 10,
            noise: 0.2,
            seed: 7,
            ..Default::default()
        },
    )
    .iter()
    .enumerate()
    {
        db.insert_row(
            "publisher",
            vec![
                Datum::Int(i as i64),
                unitext_datum(mural.unitext_type, &rec.name),
            ],
        )
        .unwrap();
    }
    db.execute("ANALYZE book").unwrap();
    db.execute("ANALYZE publisher").unwrap();
    db.execute("SET lexequal.threshold = 2").unwrap();

    // --- Phonemic author search, seq scan vs M-Tree. ---
    let search = "SELECT count(*) FROM book WHERE author LEXEQUAL unitext('Nehru','English')";
    let t = Instant::now();
    let n = db.query(search).unwrap();
    let seq = t.elapsed();
    println!(
        "\nauthor ~ 'Nehru' (seq scan): {} matches in {seq:?}",
        n[0][0]
    );

    db.execute("CREATE INDEX book_author_mt ON book (author) USING mtree")
        .unwrap();
    db.execute("SET enable_seqscan = 0").unwrap();
    let t = Instant::now();
    let n2 = db.query(search).unwrap();
    let idx = t.elapsed();
    db.execute("SET enable_seqscan = 1").unwrap();
    println!(
        "author ~ 'Nehru' (M-Tree):   {} matches in {idx:?}",
        n2[0][0]
    );
    assert!(n[0][0].eq_sql(&n2[0][0]), "index and scan must agree");

    // --- Category rollup through SemEQUAL. ---
    let rollup = "SELECT count(*) FROM book WHERE category SEMEQUAL unitext('History','English')";
    let t = Instant::now();
    let hist = db.query(rollup).unwrap();
    println!(
        "\nbooks under the History concept (all languages): {} in {:?}",
        hist[0][0],
        t.elapsed()
    );

    // --- Example 5: books whose author sounds like a publisher. ---
    db.execute("SET lexequal.threshold = 3").unwrap();
    let ex5 = "SELECT count(*) FROM book b, publisher p WHERE b.author LEXEQUAL p.pname";
    println!("\nExample-5-style join plan:");
    let plan = db.plan_select(ex5).unwrap();
    println!("{}", plan.explain());
    let t = Instant::now();
    let join = db.query(ex5).unwrap();
    println!(
        "matching (book, publisher) pairs: {} in {:?}",
        join[0][0],
        t.elapsed()
    );
}
