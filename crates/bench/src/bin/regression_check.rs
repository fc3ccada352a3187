//! §5.1 regression claim — "the multilingual additions do not adversely
//! impact the current functionality and performance".
//!
//! Runs an identical standard relational workload (DDL, loads, point
//! queries, range scans, equi-joins, aggregates, deletes) on two engines —
//! one bare, one with the Mural extension installed — and compares both
//! the results (must be identical) and the runtimes (must be within noise).
//!
//! Run: `cargo run --release -p mlql-bench --bin regression_check`
//!
//! Writes `BENCH_regression_check.json` (see `mlql_bench::report`).  With
//! `--baseline <path>` the run also compares its normalized latency (the
//! extended/plain wall-time ratio, which cancels out machine speed)
//! against a committed baseline report and fails on a >20% regression —
//! this is what `scripts/bench_check.sh` gates CI on.

use mlql_bench::report::{json_num_field, Report};
use mlql_bench::{scale, timed};
use mlql_kernel::Session;
use mlql_mural::install;

fn workload(db: &mut Session, rows: usize) -> Vec<String> {
    let mut outputs = Vec::new();
    db.execute("CREATE TABLE orders (id INT, customer TEXT, amount FLOAT, region INT)")
        .unwrap();
    db.execute("CREATE TABLE customers (name TEXT, region INT)")
        .unwrap();
    for i in 0..rows {
        db.execute(&format!(
            "INSERT INTO orders VALUES ({i}, 'cust{}', {}.5, {})",
            i % 97,
            i % 450,
            i % 12
        ))
        .unwrap();
    }
    for i in 0..97 {
        db.execute(&format!(
            "INSERT INTO customers VALUES ('cust{i}', {})",
            i % 12
        ))
        .unwrap();
    }
    db.execute("CREATE INDEX orders_id ON orders (id) USING btree")
        .unwrap();
    db.execute("ANALYZE orders").unwrap();
    db.execute("ANALYZE customers").unwrap();
    let queries = [
        "SELECT count(*) FROM orders WHERE id = 137",
        "SELECT count(*) FROM orders WHERE amount < 100.0",
        "SELECT count(*), sum(amount) FROM orders WHERE region = 3",
        "SELECT count(*) FROM orders o, customers c WHERE o.customer = c.name AND c.region = 5",
        "SELECT region, count(*) FROM orders GROUP BY region ORDER BY region",
        // `id` breaks the ties in `amount`, so the answer does not
        // depend on the order a parallel scan delivers rows in.
        "SELECT customer FROM orders ORDER BY amount DESC, id LIMIT 5",
    ];
    for q in queries {
        let r = db.execute(q).unwrap();
        outputs.push(format!(
            "{q} => {:?}",
            r.rows
                .iter()
                .map(|row| row.iter().map(|d| d.to_string()).collect::<Vec<_>>())
                .collect::<Vec<_>>()
        ));
    }
    db.execute("DELETE FROM orders WHERE region = 11").unwrap();
    let r = db.execute("SELECT count(*) FROM orders").unwrap();
    outputs.push(format!("post-delete count => {}", r.rows[0][0]));
    outputs
}

fn main() {
    let baseline_path = {
        let mut args = std::env::args().skip(1);
        let mut path = None;
        while let Some(a) = args.next() {
            match a.as_str() {
                "--baseline" => path = args.next(),
                other => {
                    eprintln!("unknown argument {other:?} (expected --baseline <path>)");
                    std::process::exit(2);
                }
            }
        }
        path
    };
    let rows = 5000 * scale();
    println!("# Regression check: standard workload with and without Mural installed");
    println!("# {rows} order rows, scale {}", scale());

    // Warm-up run to stabilize allocator/caches, then measured runs.
    let trials = 3;
    let mut plain_secs = Vec::new();
    let mut extended_secs = Vec::new();
    let mut plain_out = Vec::new();
    let mut ext_out = Vec::new();
    for t in 0..=trials {
        let mut plain = Session::new_in_memory();
        let (out_a, secs_a) = timed(|| workload(&mut plain, rows));
        let mut extended = Session::new_in_memory();
        let _mural = install(&mut extended).unwrap();
        let (out_b, secs_b) = timed(|| workload(&mut extended, rows));
        assert_eq!(out_a, out_b, "results must be identical");
        if t > 0 {
            plain_secs.push(secs_a);
            extended_secs.push(secs_b);
        }
        plain_out = out_a;
        ext_out = out_b;
    }
    let avg = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    let (pa, ea) = (avg(&plain_secs), avg(&extended_secs));
    println!("plain engine:    {pa:.3} s (avg of {trials})");
    println!("with extension:  {ea:.3} s (avg of {trials})");
    let overhead = (ea / pa - 1.0) * 100.0;
    println!("overhead: {overhead:+.1}%  (paper: \"no statistically significant degradation\")");
    println!("identical results across {} checks: true", plain_out.len());
    let _ = ext_out;

    let ratio = ea / pa;
    let mut rep = Report::new("regression_check");
    rep.int("rows", rows as i64)
        .int("trials", trials as i64)
        .num("plain_secs", pa)
        .num("extended_secs", ea)
        .num("overhead_ratio", ratio)
        .num("overhead_pct", overhead)
        .int("identical_checks", plain_out.len() as i64);
    rep.write_and_note();

    // Allow generous noise; fail only on a gross regression.
    if overhead > 25.0 {
        eprintln!("FAIL: extension overhead exceeds 25%");
        std::process::exit(1);
    }

    // Baseline gate: compare the machine-independent extended/plain ratio
    // against the committed report; >20% worse is a regression.
    if let Some(path) = baseline_path {
        let text = match std::fs::read_to_string(&path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("FAIL: cannot read baseline {path}: {e}");
                std::process::exit(1);
            }
        };
        let Some(base_ratio) = json_num_field(&text, "overhead_ratio") else {
            eprintln!("FAIL: baseline {path} has no overhead_ratio field");
            std::process::exit(1);
        };
        let regression = (ratio / base_ratio - 1.0) * 100.0;
        println!(
            "baseline ratio {base_ratio:.4}, current {ratio:.4} ({regression:+.1}% vs baseline)"
        );
        if ratio > base_ratio * 1.20 {
            eprintln!("FAIL: normalized latency regressed >20% vs baseline");
            std::process::exit(1);
        }
    }
}
