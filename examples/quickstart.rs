//! Quickstart: the paper's two running examples end to end.
//!
//! Builds the Books.com catalog of Figure 1, then runs the Figure 2
//! LexEQUAL query (phonemic name matching across scripts) and the Figure 4
//! SemEQUAL query (concept matching across languages), showing results and
//! `EXPLAIN` plans.
//!
//! Run: `cargo run --release --example quickstart`

use mlql::kernel::Session;
use mlql::mural::install;

fn show(db: &mut Session, sql: &str) {
    println!("mlql> {sql}");
    match db.execute(sql) {
        Ok(result) => {
            if let Some(plan) = &result.explain {
                if sql.trim_start().to_lowercase().starts_with("explain") {
                    println!("{plan}");
                    return;
                }
            }
            let names: Vec<&str> = result
                .schema
                .columns()
                .iter()
                .map(|c| c.name.as_str())
                .collect();
            if !names.is_empty() {
                println!("  {}", names.join(" | "));
            }
            for row in &result.rows {
                let cells: Vec<String> = row
                    .iter()
                    .map(|d| match d.as_ext() {
                        Some((_, bytes)) => mlql::mural::unitext_from_bytes(bytes)
                            .map(|v| v.text().to_string())
                            .unwrap_or_else(|_| d.to_string()),
                        None => d.to_string(),
                    })
                    .collect();
                println!("  {}", cells.join(" | "));
            }
            if result.affected > 0 {
                println!("  ({} rows affected)", result.affected);
            }
            println!();
        }
        Err(e) => println!("  ERROR: {e}\n"),
    }
}

fn main() {
    let mut db = Session::new_in_memory();
    let _mural = install(&mut db).expect("install the Mural extension");

    println!("=== The Books.com catalog (paper, Figure 1) ===\n");
    show(&mut db, "CREATE TABLE book (author UNITEXT, title UNITEXT, category UNITEXT, language TEXT, price FLOAT)");
    for (author, title, cat, cat_lang, lang, price) in [
        (
            "Nehru",
            "Glimpses of World History",
            "History",
            "English",
            "English",
            15.95,
        ),
        (
            "Nehru",
            "Letters from a Father",
            "Autobiography",
            "English",
            "English",
            12.50,
        ),
        (
            "नेहरू",
            "हिंदुस्तान की कहानी",
            "History",
            "English",
            "Hindi",
            9.75,
        ),
        ("நேரு", "கடிதங்கள்", "சரித்திரம்", "Tamil", "Tamil", 8.20),
        (
            "Gandhi",
            "The Story of My Experiments with Truth",
            "Autobiography",
            "English",
            "English",
            14.00,
        ),
        (
            "Michelet",
            "Histoire de France",
            "Histoire",
            "French",
            "French",
            22.40,
        ),
        (
            "Tolkien",
            "The Fellowship of the Ring",
            "Novel",
            "English",
            "English",
            18.00,
        ),
    ] {
        show(
            &mut db,
            &format!(
                "INSERT INTO book VALUES (unitext('{author}', '{lang}'), unitext('{title}', '{lang}'), unitext('{cat}', '{cat_lang}'), '{lang}', {price})"
            ),
        );
    }
    show(&mut db, "ANALYZE book");

    println!("=== Figure 2: multilingual name query (LexEQUAL) ===\n");
    show(&mut db, "SET lexequal.threshold = 2");
    show(
        &mut db,
        "SELECT author, title, language FROM book WHERE author LEXEQUAL unitext('Nehru','English') IN (English, Hindi, Tamil)",
    );
    show(
        &mut db,
        "EXPLAIN SELECT author, title, language FROM book WHERE author LEXEQUAL unitext('Nehru','English') IN (English, Hindi, Tamil)",
    );

    println!("=== Figure 4: multilingual concept query (SemEQUAL) ===\n");
    show(
        &mut db,
        "SELECT author, title, category FROM book WHERE category SEMEQUAL unitext('History','English') IN (English, French, Tamil)",
    );

    println!("=== UniText behaves like Text for ordinary operators (§3.2.1) ===\n");
    show(
        &mut db,
        "SELECT title FROM book WHERE price < 10.0 ORDER BY author",
    );
    show(
        &mut db,
        "SELECT language, count(*) FROM book GROUP BY language ORDER BY language",
    );
}
