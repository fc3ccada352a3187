//! Figure 7 / Example 5 — the motivating optimization example (§5.2.1).
//!
//! Schema: Author(authorid, aname), Publisher(pubid, pname),
//! Book(bookid, authorid, pubid).  Query: *books whose author's name
//! sounds like a publisher's name* (threshold 3).
//!
//! * **Plan 1** applies ψ early — Author ⋈ψ Publisher first, then joins
//!   Book on authorid.
//! * **Plan 2** materializes Book ⋈ Author first, then runs ψ between that
//!   (much larger) intermediate and Publisher.
//!
//! The paper reports predicted costs 2,439,370 vs 7,513,852 and runtimes
//! 82.15 s vs 2338.31 s, with the optimizer picking Plan 1.  We force each
//! plan with `SET force_join_order = 1` and the FROM-clause order, then
//! let the optimizer choose freely and check it matches Plan 1's cost.
//!
//! Run: `cargo run --release -p mlql-bench --bin fig7_plan_choice`

use mlql_bench::report::Report;
use mlql_bench::{mural_db, scale, timed};
use mlql_datagen::{names_dataset, NamesConfig};
use mlql_kernel::{Datum, Session};
use mlql_mural::types::unitext_datum;
use mlql_mural::Mural;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn load(db: &mut Session, mural: &Mural) {
    let n_auth = 1200 * scale();
    let n_pub = 300 * scale();
    let n_book = 3000 * scale();
    db.execute("CREATE TABLE author (authorid INT, aname UNITEXT)")
        .unwrap();
    db.execute("CREATE TABLE publisher (pubid INT, pname UNITEXT)")
        .unwrap();
    db.execute("CREATE TABLE book (bookid INT, authorid INT, pubid INT)")
        .unwrap();
    let a = names_dataset(
        &mural.langs,
        &NamesConfig {
            records: n_auth,
            noise: 0.25,
            seed: 11,
            ..NamesConfig::default()
        },
    );
    for (i, rec) in a.iter().enumerate() {
        db.insert_row(
            "author",
            vec![
                Datum::Int(i as i64),
                unitext_datum(mural.unitext_type, &rec.name),
            ],
        )
        .unwrap();
    }
    let p = names_dataset(
        &mural.langs,
        &NamesConfig {
            records: n_pub,
            noise: 0.25,
            seed: 22,
            ..NamesConfig::default()
        },
    );
    for (i, rec) in p.iter().enumerate() {
        db.insert_row(
            "publisher",
            vec![
                Datum::Int(i as i64),
                unitext_datum(mural.unitext_type, &rec.name),
            ],
        )
        .unwrap();
    }
    let mut rng = StdRng::seed_from_u64(33);
    for i in 0..n_book {
        db.insert_row(
            "book",
            vec![
                Datum::Int(i as i64),
                Datum::Int(rng.gen_range(0..n_auth) as i64),
                Datum::Int(rng.gen_range(0..n_pub) as i64),
            ],
        )
        .unwrap();
    }
    for t in ["author", "publisher", "book"] {
        db.execute(&format!("ANALYZE {t}")).unwrap();
    }
    db.execute("SET lexequal.threshold = 3").unwrap();
}

fn run(db: &mut Session, label: &str, sql: &str, forced: bool) -> (f64, f64) {
    db.execute(&format!(
        "SET force_join_order = {}",
        if forced { 1 } else { 0 }
    ))
    .unwrap();
    let plan = db.plan_select(sql).unwrap();
    let (res, secs) = timed(|| db.execute(sql).unwrap());
    println!("--- {label} ---");
    println!("{}", plan.explain());
    println!("predicted cost: {:>14.0}", plan.est_cost);
    println!(
        "runtime:        {:>11.2} s   (result: {} rows -> count = {})",
        secs,
        res.rows.len(),
        res.rows[0][0]
    );
    println!();
    (plan.est_cost, secs)
}

fn main() {
    println!("# Figure 7 / Example 5: Plan 1 vs Plan 2 (threshold 3)");
    let (mut db, mural) = mural_db();
    load(&mut db, &mural);

    // Plan 1: ψ early — FROM order author, publisher, book.
    let plan1_sql = "SELECT count(*) FROM author a, publisher p, book b \
                     WHERE a.aname LEXEQUAL p.pname AND b.authorid = a.authorid";
    // Plan 2: Book ⋈ Author materialized first, ψ last.
    let plan2_sql = "SELECT count(*) FROM book b, author a, publisher p \
                     WHERE b.authorid = a.authorid AND a.aname LEXEQUAL p.pname";

    let (c1, t1) = run(&mut db, "Plan 1 (forced: psi early)", plan1_sql, true);
    let (c2, t2) = run(&mut db, "Plan 2 (forced: join Book first)", plan2_sql, true);

    // Free choice: the optimizer must land on (approximately) Plan 1.
    let (cf, tf) = run(&mut db, "Optimizer free choice", plan1_sql, false);

    println!(
        "# Summary (paper: Plan 1 cost 2,439,370 / 82.15 s; Plan 2 cost 7,513,852 / 2338.31 s)"
    );
    println!("plan1: cost {c1:>14.0}  runtime {t1:>9.2} s");
    println!("plan2: cost {c2:>14.0}  runtime {t2:>9.2} s");
    println!("free:  cost {cf:>14.0}  runtime {tf:>9.2} s");
    println!();
    let cost_ok = c1 < c2;
    let time_ok = t1 < t2;
    let choice_ok = cf <= c1 * 1.001;
    println!("optimizer prefers Plan 1 by cost: {cost_ok}");
    println!("Plan 1 faster in practice:        {time_ok}");
    println!("free choice matches best plan:    {choice_ok}");

    let mut rep = Report::new("fig7_plan_choice");
    rep.num("plan1_cost", c1)
        .num("plan1_secs", t1)
        .num("plan2_cost", c2)
        .num("plan2_secs", t2)
        .num("free_cost", cf)
        .num("free_secs", tf)
        .flag("cost_prefers_plan1", cost_ok)
        .flag("plan1_faster", time_ok)
        .flag("free_choice_matches", choice_ok);
    rep.write_and_note();

    if !(cost_ok && time_ok && choice_ok) {
        std::process::exit(1);
    }
}
