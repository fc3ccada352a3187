//! Figure 8 — Ω closure-computation performance vs. closure size (§5.4).
//!
//! Four curves on a log-log plot in the paper:
//!
//! * outside-the-server, no index        (slowest)
//! * outside-the-server, B+Tree on parent
//! * core, no index                      (≈1 order faster than outside)
//! * core, B+Tree on parent              (≳2 orders faster; tens of ms at
//!   the typical closure size)
//!
//! Plus, as a footnote, the §4.3 pinned-memory closure walk (the
//! `pinned_memo` column: one cold `compute_closure` per point) — faster
//! still, since the hierarchy lives in main memory.  The Ω operator itself
//! no longer walks closures at query time; it reads interval-set labels.
//!
//! Run: `cargo run --release -p mlql-bench --bin fig8_semequal`
//! (`MLQL_SCALE` grows the taxonomy; `MLQL_FIG8_MAX` raises the largest
//! closure target, default 1000 — the paper's 10⁴ point takes the outside
//! no-index curve into paper-like thousands of seconds.)

use mlql_bench::report::{obj, Report, Value};
use mlql_bench::{core_closure_via_tables, mural_db, scale, timed};
use mlql_kernel::pl::PlRuntime;
use mlql_kernel::Datum;
use mlql_mural::outside::{semequal_closure_fn, semequal_closure_setsql_fn};
use mlql_taxonomy::{generate, synsets_near_closure_sizes, GeneratorConfig};

fn main() {
    let synsets = 8000 * scale();
    let max_target: usize = std::env::var("MLQL_FIG8_MAX")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1000);
    let targets: Vec<usize> = [50usize, 100, 300, 1000, 3000, 10_000]
        .into_iter()
        .filter(|&t| t <= max_target && t <= synsets / 2)
        .collect();
    println!("# Figure 8: SemEQUAL closure computation (log-log in the paper)");
    println!("# taxonomy: {synsets} synsets; targets {targets:?}");
    if max_target < 10_000 {
        println!("# NOTE: closure sizes above {max_target} skipped (set MLQL_FIG8_MAX=10000 for the paper's full x-range)");
    }

    let (mut db, mural) = mural_db();
    let lang = mural.langs.id_of("English");
    let taxonomy = generate(
        lang,
        &GeneratorConfig {
            synsets,
            ..GeneratorConfig::default()
        },
    );
    let picks = synsets_near_closure_sizes(&taxonomy, &targets);

    // Store the hierarchy relationally: edges(child, parent).
    db.execute("CREATE TABLE edges (child INT, parent INT)")
        .unwrap();
    for id in taxonomy.ids() {
        for &c in taxonomy.children(id) {
            db.insert_row(
                "edges",
                vec![Datum::Int(c.raw() as i64), Datum::Int(id.raw() as i64)],
            )
            .unwrap();
        }
    }
    db.execute("ANALYZE edges").unwrap();
    db.execute("CREATE TABLE scratch (id INT, done INT)")
        .unwrap();
    db.execute("CREATE TABLE cl (id INT)").unwrap();
    db.execute("CREATE TABLE fr (id INT)").unwrap();
    db.execute("CREATE TABLE fr2 (id INT)").unwrap();
    let closure_fn = semequal_closure_fn("edges", "scratch");
    let setsql_fn = semequal_closure_setsql_fn("edges", "cl", "fr", "fr2");

    // ---- Phase 1: no-index measurements for every target. ----
    // target, actual, out_noidx, out_setsql, core_noidx
    let mut rows: Vec<(usize, usize, f64, f64, f64)> = Vec::new();
    for &(target, synset, actual) in &picks {
        let root = synset.raw() as i64;
        db.execute("DELETE FROM scratch").unwrap();
        let (n1, t_out_noidx) = timed(|| {
            let mut rt = PlRuntime::new(&mut db);
            rt.call(&closure_fn, &[Datum::Int(root)]).unwrap().len()
        });
        assert_eq!(n1, actual, "outside closure size");
        // Set-based SQL-scripts variant (one INSERT..SELECT per level).
        db.execute("DELETE FROM cl").unwrap();
        db.execute("DELETE FROM fr").unwrap();
        db.execute("DELETE FROM fr2").unwrap();
        let (n_set, t_out_setsql) = timed(|| {
            let mut rt = PlRuntime::new(&mut db);
            rt.call(&setsql_fn, &[Datum::Int(root)]).unwrap().len()
        });
        assert_eq!(n_set, actual, "set-based closure size");
        let (n2, t_core_noidx) =
            timed(|| core_closure_via_tables(&db, "edges", None, root).unwrap());
        assert_eq!(n2, actual);
        rows.push((target, actual, t_out_noidx, t_out_setsql, t_core_noidx));
    }

    // ---- Phase 2: build the B+Tree on parent, re-measure. ----
    db.execute("CREATE INDEX edges_parent ON edges (parent) USING btree")
        .unwrap();
    db.execute("ANALYZE edges").unwrap();

    println!();
    println!(
        "{:>8} {:>8} | {:>15} {:>15} {:>15} {:>13} {:>13} {:>13}",
        "target",
        "actual",
        "outside_noidx",
        "outside_setsql",
        "outside_btree",
        "core_noidx",
        "core_btree",
        "pinned_memo"
    );
    let mut curves = Vec::new();
    for (i, &(target, synset, actual)) in picks.iter().enumerate() {
        let root = synset.raw() as i64;
        db.execute("DELETE FROM scratch").unwrap();
        let (n3, t_out_btree) = timed(|| {
            let mut rt = PlRuntime::new(&mut db);
            rt.call(&closure_fn, &[Datum::Int(root)]).unwrap().len()
        });
        assert_eq!(n3, actual);
        let (n4, t_core_btree) =
            timed(|| core_closure_via_tables(&db, "edges", Some("edges_parent"), root).unwrap());
        assert_eq!(n4, actual);
        // Pinned, un-memoized computation (§4.3's closure walk, cold).
        let (n5, t_pinned) =
            timed(|| mlql_taxonomy::closure::compute_closure(&taxonomy, synset).len());
        assert_eq!(n5, actual);
        let (_, _, t_out_noidx, t_out_setsql, t_core_noidx) = rows[i];
        println!(
            "{:>8} {:>8} | {:>13.4} s {:>13.4} s {:>13.4} s {:>11.4} s {:>11.4} s {:>11.5} s",
            target,
            actual,
            t_out_noidx,
            t_out_setsql,
            t_out_btree,
            t_core_noidx,
            t_core_btree,
            t_pinned
        );
        curves.push(obj(vec![
            ("target", Value::Int(target as i64)),
            ("closure_size", Value::Int(actual as i64)),
            ("outside_noidx_secs", Value::Num(t_out_noidx)),
            ("outside_setsql_secs", Value::Num(t_out_setsql)),
            ("outside_btree_secs", Value::Num(t_out_btree)),
            ("core_noidx_secs", Value::Num(t_core_noidx)),
            ("core_btree_secs", Value::Num(t_core_btree)),
            ("pinned_memo_secs", Value::Num(t_pinned)),
        ]));
    }

    println!();
    println!("# paper shape: core no-index ≈ 1 order faster than outside no-index;");
    println!("# core + B+Tree ≳ 2 orders faster than outside; tens of ms at typical sizes.");

    let mut rep = Report::new("fig8_semequal");
    rep.int("synsets", synsets as i64)
        .set("points", Value::Arr(curves));
    rep.write_and_note();
}
