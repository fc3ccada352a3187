//! §5.1 regression claim at test granularity: every standard relational
//! behaviour produces identical results with and without the Mural
//! extension installed ("the UniText datatype and operators were added ...
//! without affecting the existing datatypes and features").

use mlql::kernel::Session;
use mlql::mural::install;

/// Run the same statement sequence on both engines and compare every
/// result row-for-row.
fn compare(statements: &[&str]) {
    let mut plain = Session::new_in_memory();
    let mut extended = Session::new_in_memory();
    install(&mut extended).unwrap();
    for stmt in statements {
        let a = plain.execute(stmt);
        let b = extended.execute(stmt);
        match (a, b) {
            (Ok(ra), Ok(rb)) => {
                assert_eq!(ra.rows.len(), rb.rows.len(), "row count for {stmt}");
                for (x, y) in ra.rows.iter().zip(&rb.rows) {
                    for (dx, dy) in x.iter().zip(y) {
                        assert_eq!(dx.to_string(), dy.to_string(), "value mismatch for {stmt}");
                    }
                }
                assert_eq!(ra.affected, rb.affected, "affected for {stmt}");
            }
            (Err(ea), Err(eb)) => {
                // Same class of failure is enough.
                assert_eq!(
                    std::mem::discriminant(&ea),
                    std::mem::discriminant(&eb),
                    "error class for {stmt}: {ea} vs {eb}"
                );
            }
            (a, b) => panic!("divergence for {stmt}: {a:?} vs {b:?}"),
        }
    }
}

#[test]
fn ddl_dml_queries_unchanged() {
    let mut stmts: Vec<String> = vec![
        "CREATE TABLE orders (id INT, customer TEXT, amount FLOAT, region INT)".into(),
        "CREATE INDEX orders_id ON orders (id) USING btree".into(),
    ];
    for i in 0..300 {
        stmts.push(format!(
            "INSERT INTO orders VALUES ({i}, 'cust{}', {}.25, {})",
            i % 13,
            i % 90,
            i % 4
        ));
    }
    stmts.extend(
        [
            "ANALYZE orders",
            "SELECT count(*) FROM orders",
            "SELECT count(*) FROM orders WHERE id = 250",
            "SELECT count(*), sum(amount), min(amount), max(amount) FROM orders WHERE region = 2",
            "SELECT region, count(*) FROM orders GROUP BY region ORDER BY region",
            "SELECT customer FROM orders WHERE amount > 80.0 ORDER BY amount DESC, id ASC LIMIT 7",
            "SELECT avg(amount) FROM orders WHERE customer = 'cust7'",
            "DELETE FROM orders WHERE region = 3",
            "SELECT count(*) FROM orders",
            "EXPLAIN SELECT count(*) FROM orders WHERE id = 17",
        ]
        .map(String::from),
    );
    let refs: Vec<&str> = stmts.iter().map(String::as_str).collect();
    compare(&refs);
}

#[test]
fn joins_and_errors_unchanged() {
    let stmts = [
        "CREATE TABLE a (id INT, v TEXT)",
        "CREATE TABLE b (id INT, w TEXT)",
        "INSERT INTO a VALUES (1,'x'), (2,'y'), (3,'z')",
        "INSERT INTO b VALUES (2,'Y'), (3,'Z'), (4,'W')",
        "SELECT a.v, b.w FROM a, b WHERE a.id = b.id ORDER BY a.id",
        "SELECT count(*) FROM a JOIN b ON a.id = b.id WHERE a.id > 2",
        "SELECT count(*) FROM a, b",
        // Error cases: same error class either way.
        "SELECT nope FROM a",
        "SELECT * FROM missing",
        "INSERT INTO a VALUES (1)",
        "SELECT * FROM a WHERE v > 3",
    ];
    compare(&stmts);
}

#[test]
fn optimizer_costs_of_plain_queries_unchanged() {
    // The extension must not alter cost estimates of queries that never
    // touch it (same catalog stats → same plans → same costs).
    let setup = |db: &mut Session| {
        db.execute("CREATE TABLE t (id INT, v TEXT)").unwrap();
        for i in 0..500 {
            db.execute(&format!("INSERT INTO t VALUES ({i}, 'v{}')", i % 10))
                .unwrap();
        }
        db.execute("ANALYZE t").unwrap();
    };
    let mut plain = Session::new_in_memory();
    setup(&mut plain);
    let mut extended = Session::new_in_memory();
    install(&mut extended).unwrap();
    setup(&mut extended);
    for q in [
        "SELECT count(*) FROM t WHERE id < 100",
        "SELECT v, count(*) FROM t GROUP BY v",
        "SELECT count(*) FROM t x, t y WHERE x.id = y.id",
    ] {
        let a = plain.plan_select(q).unwrap();
        let b = extended.plan_select(q).unwrap();
        assert_eq!(a.est_cost, b.est_cost, "cost divergence for {q}");
        assert_eq!(a.explain(), b.explain(), "plan divergence for {q}");
    }
}
