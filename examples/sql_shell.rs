//! Interactive SQL shell over an in-memory engine with the Mural
//! extension installed — poke at LexEQUAL/SemEQUAL by hand.
//!
//! ```text
//! cargo run --release --example sql_shell
//! mlql> CREATE TABLE book (author UNITEXT);
//! mlql> INSERT INTO book VALUES (unitext('நேரு', 'Tamil'));
//! mlql> SELECT text_of(author) FROM book WHERE author LEXEQUAL unitext('Nehru','English');
//! ```
//!
//! Commands: SQL statements (one per line), `\d` to list tables,
//! `\timing` to toggle timings, `\q` to quit.  A small demo catalog is
//! preloaded.

use mlql::kernel::Session;
use mlql::mural::{install, unitext_from_bytes};
use std::io::{BufRead, Write};

fn render(d: &mlql::kernel::Datum) -> String {
    match d.as_ext() {
        Some((_, bytes)) => unitext_from_bytes(bytes)
            .map(|v| format!("⟨{}⟩", v.text()))
            .unwrap_or_else(|_| d.to_string()),
        None => d.to_string(),
    }
}

fn main() {
    let mut db = Session::new_in_memory();
    let _mural = install(&mut db).expect("install mural");
    // Demo data so SELECTs work immediately.
    db.execute("CREATE TABLE book (author UNITEXT, title TEXT, category UNITEXT)")
        .unwrap();
    for (a, al, t, c, cl) in [
        (
            "Nehru",
            "English",
            "Glimpses of World History",
            "History",
            "English",
        ),
        ("नेहरू", "Hindi", "Hindustan ki Kahani", "History", "English"),
        ("நேரு", "Tamil", "Kadithangal", "சரித்திரம்", "Tamil"),
        (
            "Gandhi",
            "English",
            "My Experiments with Truth",
            "Autobiography",
            "English",
        ),
    ] {
        db.execute(&format!(
            "INSERT INTO book VALUES (unitext('{a}','{al}'), '{t}', unitext('{c}','{cl}'))"
        ))
        .unwrap();
    }
    db.execute("ANALYZE book").unwrap();

    println!("mlql shell — demo table `book` loaded; \\d lists tables, \\q quits.");
    let stdin = std::io::stdin();
    let mut timing = false;
    loop {
        print!("mlql> ");
        std::io::stdout().flush().unwrap();
        let mut line = String::new();
        match stdin.lock().read_line(&mut line) {
            Ok(0) => break, // EOF
            Ok(_) => {}
            Err(e) => {
                eprintln!("read error: {e}");
                break;
            }
        }
        let line = line.trim();
        match line {
            "" => continue,
            "\\q" => break,
            "\\timing" => {
                timing = !timing;
                println!("timing {}", if timing { "on" } else { "off" });
                continue;
            }
            "\\d" => {
                for t in db.engine().catalog().tables() {
                    println!("{} {}", t.name, t.schema);
                }
                continue;
            }
            _ => {}
        }
        let start = std::time::Instant::now();
        match db.execute(line) {
            Ok(result) => {
                if !result.schema.is_empty() {
                    let header: Vec<&str> = result
                        .schema
                        .columns()
                        .iter()
                        .map(|c| c.name.as_str())
                        .collect();
                    println!("{}", header.join(" | "));
                }
                for row in &result.rows {
                    let cells: Vec<String> = row.iter().map(render).collect();
                    println!("{}", cells.join(" | "));
                }
                if result.affected > 0 {
                    println!("({} rows affected)", result.affected);
                } else if !result.rows.is_empty() {
                    println!("({} rows)", result.rows.len());
                }
                if timing {
                    println!("time: {:?}", start.elapsed());
                }
            }
            Err(e) => println!("ERROR: {e}"),
        }
    }
}
