//! Figure 6 — optimizer predicted cost vs. actual runtime.
//!
//! Reproduces §5.2: multilingual ψ-join queries under `count(*)`, over
//! tables of varying record counts, attribute counts/sizes and duplication
//! factors, at several thresholds; for each run we record the optimizer's
//! predicted cost and the measured runtime, then report the log-log
//! Pearson correlation (the paper reports "well over 0.9").
//!
//! Run: `cargo run --release -p mlql-bench --bin fig6_cost_prediction`
//! (set `MLQL_SCALE` to enlarge the grid's tables).

use mlql_bench::report::{obj, Report, Value};
use mlql_bench::{mural_db, pearson, scale, timed};
use mlql_datagen::{fig6_workload, names_dataset, NamesConfig};
use mlql_kernel::Datum;
use mlql_mural::types::unitext_datum;
use mlql_unitext::UniText;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn main() {
    let grid = fig6_workload(scale());
    println!("# Figure 6: optimizer predicted cost vs actual runtime");
    println!("# {} configurations, scale {}", grid.len(), scale());
    println!(
        "{:>10} {:>12} {:>12} {:>6} {:>14} {:>12}",
        "left_rows", "right_rows", "filler", "k", "pred_cost", "runtime_ms"
    );

    let mut costs = Vec::new();
    let mut times = Vec::new();
    let mut points = Vec::new();

    for (qi, q) in grid.iter().enumerate() {
        let (mut db, mural) = mural_db();
        // Tables with filler columns (attribute count/size variation).
        let filler_ddl: String = (0..q.filler_cols)
            .map(|i| format!(", pad{i} TEXT"))
            .collect();
        db.execute(&format!("CREATE TABLE l (name UNITEXT{filler_ddl})"))
            .unwrap();
        db.execute(&format!("CREATE TABLE r (name UNITEXT{filler_ddl})"))
            .unwrap();
        let pad = "x".repeat(q.filler_width);
        let load = |db: &mut mlql_kernel::Session, table: &str, rows: usize, seed: u64| {
            let data = names_dataset(
                &mural.langs,
                &NamesConfig {
                    records: rows,
                    noise: 0.25,
                    seed,
                    ..NamesConfig::default()
                },
            );
            for rec in data {
                let mut row = vec![unitext_datum(mural.unitext_type, &rec.name)];
                for _ in 0..q.filler_cols {
                    row.push(Datum::text(&pad));
                }
                db.insert_row(table, row).unwrap();
            }
        };
        load(&mut db, "l", q.left_rows, 100 + qi as u64);
        load(&mut db, "r", q.right_rows, 200 + qi as u64);
        // Duplication factor: re-insert the same data, then rebuild the
        // histograms (the paper's "duplicate records were introduced ...
        // and the histograms rebuilt").
        for d in 1..q.duplication {
            load(
                &mut db,
                "r",
                q.right_rows,
                200 + qi as u64 + d as u64 * 1000,
            );
        }
        db.execute("ANALYZE l").unwrap();
        db.execute("ANALYZE r").unwrap();
        db.execute(&format!("SET lexequal.threshold = {}", q.threshold))
            .unwrap();

        let sql = "SELECT count(*) FROM l, r WHERE l.name LEXEQUAL r.name";
        let plan = db.plan_select(sql).unwrap();
        let (result, secs) = timed(|| db.execute(sql).unwrap());
        let _ = result;
        let ms = secs * 1000.0;
        println!(
            "{:>10} {:>12} {:>12} {:>6} {:>14.0} {:>12.2}",
            q.left_rows,
            q.right_rows,
            format!("{}x{}", q.filler_cols, q.filler_width),
            q.threshold,
            plan.est_cost,
            ms
        );
        costs.push(plan.est_cost.max(1.0).log10());
        times.push(ms.max(0.001).log10());
        points.push(obj(vec![
            ("op", Value::Str("psi".into())),
            ("left_rows", Value::Int(q.left_rows as i64)),
            ("right_rows", Value::Int(q.right_rows as i64)),
            ("filler_cols", Value::Int(q.filler_cols as i64)),
            ("filler_width", Value::Int(q.filler_width as i64)),
            ("threshold", Value::Int(q.threshold)),
            ("pred_cost", Value::Num(plan.est_cost)),
            ("runtime_ms", Value::Num(ms)),
        ]));
    }

    // ---- Ω-join configurations (the paper's grid used "a multilingual
    // operator"; cover both ψ and Ω). ----
    for (di, &(n_docs, n_concepts)) in [(2000usize, 20usize), (6000, 40), (12000, 80)]
        .iter()
        .enumerate()
    {
        let mut db = mlql_kernel::Session::new_in_memory();
        let synsets = 5000 * scale();
        let langs = mlql_unitext::LanguageRegistry::new();
        let taxonomy = mlql_taxonomy::generate(
            langs.id_of("English"),
            &mlql_taxonomy::GeneratorConfig {
                synsets,
                ..Default::default()
            },
        );
        let mural = mlql_mural::install_with_taxonomy(&mut db, taxonomy).unwrap();
        db.execute("CREATE TABLE docs (category UNITEXT)").unwrap();
        db.execute("CREATE TABLE concepts (name UNITEXT)").unwrap();
        let taxonomy = mural.sem.taxonomy();
        let en = mural.langs.id_of("English");
        let mut rng = StdRng::seed_from_u64(900 + di as u64);
        for _ in 0..(n_docs * scale()) {
            let sid = mlql_taxonomy::SynsetId(rng.gen_range(0..synsets as u32));
            let word = taxonomy.words(sid)[0].clone();
            db.insert_row(
                "docs",
                vec![unitext_datum(
                    mural.unitext_type,
                    &UniText::compose(word, en),
                )],
            )
            .unwrap();
        }
        for _ in 0..(n_concepts * scale()) {
            let sid = mlql_taxonomy::SynsetId(rng.gen_range(0..synsets as u32));
            let word = taxonomy.words(sid)[0].clone();
            db.insert_row(
                "concepts",
                vec![unitext_datum(
                    mural.unitext_type,
                    &UniText::compose(word, en),
                )],
            )
            .unwrap();
        }
        db.execute("ANALYZE docs").unwrap();
        db.execute("ANALYZE concepts").unwrap();
        let sql = "SELECT count(*) FROM concepts c, docs d WHERE d.category SEMEQUAL c.name";
        let plan = db.plan_select(sql).unwrap();
        let (_, secs) = timed(|| db.execute(sql).unwrap());
        let ms = secs * 1000.0;
        println!(
            "{:>10} {:>12} {:>12} {:>6} {:>14.0} {:>12.2}",
            n_docs * scale(),
            n_concepts * scale(),
            "omega",
            "-",
            plan.est_cost,
            ms
        );
        costs.push(plan.est_cost.max(1.0).log10());
        times.push(ms.max(0.001).log10());
        points.push(obj(vec![
            ("op", Value::Str("omega".into())),
            ("left_rows", Value::Int((n_concepts * scale()) as i64)),
            ("right_rows", Value::Int((n_docs * scale()) as i64)),
            ("pred_cost", Value::Num(plan.est_cost)),
            ("runtime_ms", Value::Num(ms)),
        ]));
    }

    let r = pearson(&costs, &times);
    println!("\nlog-log Pearson correlation (predicted cost vs runtime): {r:.3}");
    println!("paper: \"computed correlation coefficient on the plot is well over 0.9\"");

    let mut rep = Report::new("fig6_cost_prediction");
    rep.set("points", Value::Arr(points))
        .num("loglog_pearson", r);
    rep.write_and_note();
}
