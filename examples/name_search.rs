//! Multilingual name search: probe a names corpus phonemically from the
//! command line.
//!
//! Builds the generated multilingual names table (Latin, Devanagari, Tamil
//! and Kannada scripts), then searches it for every name given on the
//! command line — showing the matches in all scripts, the threshold
//! behaviour, and the engine's plan.
//!
//! Run: `cargo run --release --example name_search -- Nehru Miller`
//! (defaults to a demo probe set; env `ROWS` overrides the corpus size).

use mlql::kernel::Session;
use mlql::mural::{install, unitext_from_bytes};
use std::time::Instant;

fn main() {
    let rows: usize = std::env::var("ROWS")
        .ok()
        .and_then(|r| r.parse().ok())
        .unwrap_or(20_000);
    let probes: Vec<String> = {
        let args: Vec<String> = std::env::args().skip(1).collect();
        if args.is_empty() {
            vec!["Nehru".into(), "Krishnan".into(), "Meyer".into()]
        } else {
            args
        }
    };

    let mut db = Session::new_in_memory();
    let mural = install(&mut db).expect("install mural");
    println!("loading {rows} multilingual names ...");
    db.execute("CREATE TABLE names (name UNITEXT)").unwrap();
    let data = mlql::datagen::names_dataset(
        &mural.langs,
        &mlql::datagen::NamesConfig {
            records: rows,
            noise: 0.25,
            seed: 99,
            ..Default::default()
        },
    );
    for rec in data {
        let d = mlql::mural::types::unitext_datum(mural.unitext_type, &rec.name);
        db.insert_row("names", vec![d]).unwrap();
    }
    db.execute("ANALYZE names").unwrap();
    db.execute("CREATE INDEX names_mt ON names (name) USING mtree")
        .unwrap();

    for probe in &probes {
        println!("\n=== {probe} ===");
        for k in [1i64, 2] {
            db.execute(&format!("SET lexequal.threshold = {k}"))
                .unwrap();
            let sql = format!(
                "SELECT name, lang_of(name) FROM names WHERE name LEXEQUAL unitext('{probe}','English')"
            );
            let t = Instant::now();
            let result = db.execute(&sql).unwrap();
            let dt = t.elapsed();
            println!("threshold {k}: {} matches in {dt:?}", result.rows.len());
            // Show a sample, one per language.
            let mut seen = std::collections::HashSet::new();
            for row in result.rows.iter() {
                let lang = row[1].as_text().unwrap_or("?").to_string();
                if seen.insert(lang.clone()) && seen.len() <= 4 {
                    let text = row[0]
                        .as_ext()
                        .and_then(|(_, b)| unitext_from_bytes(b).ok())
                        .map(|v| v.text().to_string())
                        .unwrap_or_default();
                    println!("    {text}  [{lang}]");
                }
            }
        }
    }

    // "Best match": k-nearest phonemic neighbours through the M-Tree.
    println!(
        "\n=== nearest neighbours of '{}' (kNN through the M-Tree) ===",
        probes[0]
    );
    let probe = mural.unitext(&probes[0], "English").unwrap();
    for row in mural.nearest(&db, "names", "names_mt", &probe, 5).unwrap() {
        if let Some((_, bytes)) = row[0].as_ext() {
            if let Ok(v) = unitext_from_bytes(bytes) {
                println!("    {}", v.text());
            }
        }
    }

    // Show what the optimizer does for a selective probe.
    db.execute("SET lexequal.threshold = 1").unwrap();
    let explain = db
        .execute(&format!(
            "EXPLAIN SELECT count(*) FROM names WHERE name LEXEQUAL unitext('{}','English')",
            probes[0]
        ))
        .unwrap();
    println!("\nplan at threshold 1:\n{}", explain.explain.unwrap());
}
