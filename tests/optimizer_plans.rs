//! Optimizer behaviour tests: access-path selection, join ordering, ψ
//! pushdown (the §5.2.1 plan-choice story), and the `enable_*` force
//! flags the experiments rely on.

use mlql::kernel::{Database, Datum};
use mlql::mural::install;
use mlql::mural::types::unitext_datum;

fn db() -> (Database, mlql::mural::Mural) {
    let mut db = Database::new_in_memory();
    let m = install(&mut db).unwrap();
    // The default worker count is the host's core count, and a parallel
    // scan's CPU term divides by it: pin it so the plan shapes asserted
    // here are the same on every machine.
    db.execute("SET parallel_workers = 1").unwrap();
    (db, m)
}

fn load_names(db: &mut Database, m: &mlql::mural::Mural, table: &str, n: usize, seed: u64) {
    db.execute(&format!("CREATE TABLE {table} (name UNITEXT, id INT)"))
        .unwrap();
    let data = mlql::datagen::names_dataset(
        &m.langs,
        &mlql::datagen::NamesConfig {
            records: n,
            noise: 0.25,
            seed,
            ..Default::default()
        },
    );
    for (i, rec) in data.iter().enumerate() {
        db.insert_row(
            table,
            vec![
                unitext_datum(m.unitext_type, &rec.name),
                Datum::Int(i as i64),
            ],
        )
        .unwrap();
    }
    db.execute(&format!("ANALYZE {table}")).unwrap();
}

#[test]
fn selective_btree_probe_beats_seq_scan() {
    let (mut db, m) = db();
    load_names(&mut db, &m, "t", 3000, 1);
    db.execute("CREATE INDEX t_id ON t (id) USING btree")
        .unwrap();
    let plan = db
        .plan_select("SELECT count(*) FROM t WHERE id = 1234")
        .unwrap();
    assert!(
        plan.explain().contains("Index Scan using t_id"),
        "{}",
        plan.explain()
    );
    // A non-selective range stays sequential.
    let plan = db
        .plan_select("SELECT count(*) FROM t WHERE id >= 0")
        .unwrap();
    assert!(plan.explain().contains("Seq Scan"), "{}", plan.explain());
}

#[test]
fn mtree_chosen_only_when_it_wins() {
    let (mut db, m) = db();
    load_names(&mut db, &m, "t", 3000, 2);
    db.execute("CREATE INDEX t_mt ON t (name) USING mtree")
        .unwrap();
    // Low threshold: the approximate index's traversal fraction is small →
    // the optimizer should pick it.
    db.execute("SET lexequal.threshold = 1").unwrap();
    let plan = db
        .plan_select("SELECT count(*) FROM t WHERE name LEXEQUAL unitext('Nehru','English')")
        .unwrap();
    assert!(
        plan.explain().contains("Index Scan using t_mt"),
        "{}",
        plan.explain()
    );
    // Very high threshold: traversal fraction saturates → seq scan wins
    // (the paper's "marginal effectiveness" regime).
    db.execute("SET lexequal.threshold = 8").unwrap();
    let plan = db
        .plan_select("SELECT count(*) FROM t WHERE name LEXEQUAL unitext('Nehru','English')")
        .unwrap();
    assert!(plan.explain().contains("Seq Scan"), "{}", plan.explain());
}

#[test]
fn enable_flags_force_paths() {
    let (mut db, m) = db();
    load_names(&mut db, &m, "t", 1000, 3);
    db.execute("CREATE INDEX t_id ON t (id) USING btree")
        .unwrap();
    db.execute("SET enable_indexscan = 0").unwrap();
    let plan = db
        .plan_select("SELECT count(*) FROM t WHERE id = 5")
        .unwrap();
    assert!(plan.explain().contains("Seq Scan"));
    db.execute("SET enable_indexscan = 1").unwrap();
    db.execute("SET enable_seqscan = 0").unwrap();
    let plan = db
        .plan_select("SELECT count(*) FROM t WHERE id = 5")
        .unwrap();
    assert!(plan.explain().contains("Index Scan"));
    db.execute("SET enable_seqscan = 1").unwrap();
}

#[test]
fn psi_applied_early_in_free_join_order() {
    // The Example 5 story at test scale: with a three-way join the free
    // optimizer must cost ψ-early at or below the forced alternatives.
    let (mut db, m) = db();
    load_names(&mut db, &m, "author", 400, 4);
    load_names(&mut db, &m, "publisher", 100, 5);
    db.execute("CREATE TABLE book (bookid INT, authorid INT)")
        .unwrap();
    for i in 0..800 {
        db.insert_row("book", vec![Datum::Int(i), Datum::Int(i % 400)])
            .unwrap();
    }
    db.execute("ANALYZE book").unwrap();
    db.execute("SET lexequal.threshold = 3").unwrap();

    let q_psi_early = "SELECT count(*) FROM author a, publisher p, book b \
                       WHERE a.name LEXEQUAL p.name AND b.authorid = a.id";
    let q_book_first = "SELECT count(*) FROM book b, author a, publisher p \
                        WHERE b.authorid = a.id AND a.name LEXEQUAL p.name";

    db.execute("SET force_join_order = 1").unwrap();
    let c1 = db.plan_select(q_psi_early).unwrap().est_cost;
    let c2 = db.plan_select(q_book_first).unwrap().est_cost;
    db.execute("SET force_join_order = 0").unwrap();
    let free = db.plan_select(q_psi_early).unwrap().est_cost;
    assert!(c1 < c2, "psi-early must cost less: {c1} vs {c2}");
    assert!(
        free <= c1 * 1.001,
        "free choice ({free}) must match the best ({c1})"
    );

    // And the two forced plans agree on results.
    db.execute("SET force_join_order = 1").unwrap();
    let r1 = db.query(q_psi_early).unwrap();
    let r2 = db.query(q_book_first).unwrap();
    assert!(r1[0][0].eq_sql(&r2[0][0]));
}

#[test]
fn predicted_rows_track_reality_for_psi() {
    let (mut db, m) = db();
    load_names(&mut db, &m, "t", 4000, 6);
    db.execute("SET lexequal.threshold = 2").unwrap();
    let sql = "SELECT count(*) FROM t WHERE name LEXEQUAL unitext('Nehru','English')";
    let plan = db.plan_select(sql).unwrap();
    let actual = db.query(sql).unwrap()[0][0].as_int().unwrap() as f64;
    // Filter-node row estimate: within 2 orders of magnitude of reality
    // (the paper's §3.4.1 heuristic is coarse but must not be absurd).
    let est = plan.est_rows.max(0.5);
    // est_rows of the aggregate root is 1; inspect the plan text instead.
    let _ = est;
    let text = plan.explain();
    let scan_rows: f64 = text
        .lines()
        .find(|l| l.contains("Seq Scan") || l.contains("Index Scan"))
        .and_then(|l| l.split("rows=").nth(1))
        .and_then(|s| s.trim_end_matches(')').trim().parse().ok())
        .unwrap();
    assert!(
        scan_rows <= (actual.max(1.0)) * 100.0 && scan_rows * 100.0 >= actual,
        "estimate {scan_rows} vs actual {actual}\n{text}"
    );
}

#[test]
fn hash_join_for_equi_nl_for_theta() {
    let (mut db, m) = db();
    load_names(&mut db, &m, "a", 500, 7);
    load_names(&mut db, &m, "b", 500, 8);
    let equi = db
        .plan_select("SELECT count(*) FROM a, b WHERE a.id = b.id")
        .unwrap();
    assert!(equi.explain().contains("Hash Join"), "{}", equi.explain());
    db.execute("SET lexequal.threshold = 2").unwrap();
    let theta = db
        .plan_select("SELECT count(*) FROM a, b WHERE a.name LEXEQUAL b.name")
        .unwrap();
    assert!(
        theta.explain().contains("Nested Loop"),
        "{}",
        theta.explain()
    );
    // Force the hash join off; the equi query still plans (penalized path).
    db.execute("SET enable_hashjoin = 0").unwrap();
    let forced = db
        .plan_select("SELECT count(*) FROM a, b WHERE a.id = b.id")
        .unwrap();
    assert!(
        !forced.explain().contains("Hash Join"),
        "{}",
        forced.explain()
    );
    db.execute("SET enable_hashjoin = 1").unwrap();
}

#[test]
fn fig6_style_correlation_holds_at_test_scale() {
    // A miniature Figure 6: predicted cost must rank runtimes sensibly
    // (Spearman-ish check: the cheapest-predicted query is not the slowest).
    let (mut db, m) = db();
    load_names(&mut db, &m, "small", 200, 9);
    load_names(&mut db, &m, "big", 2000, 10);
    db.execute("SET lexequal.threshold = 2").unwrap();
    let queries = [
        "SELECT count(*) FROM small WHERE name LEXEQUAL unitext('Nehru','English')",
        "SELECT count(*) FROM big WHERE name LEXEQUAL unitext('Nehru','English')",
        "SELECT count(*) FROM small s, big b WHERE s.name LEXEQUAL b.name",
    ];
    let mut measured = Vec::new();
    for q in queries {
        let plan = db.plan_select(q).unwrap();
        let t = std::time::Instant::now();
        db.query(q).unwrap();
        measured.push((plan.est_cost, t.elapsed().as_secs_f64()));
    }
    // Costs must be strictly increasing across the three query classes,
    // and so must runtimes.
    assert!(
        measured[0].0 < measured[1].0 && measured[1].0 < measured[2].0,
        "{measured:?}"
    );
    assert!(measured[0].1 < measured[2].1, "{measured:?}");
}

#[test]
fn omega_estimates_never_print_zero_rows() {
    // Golden (§3.4.2 floor): an Ω scan over a non-empty table must never
    // be estimated at zero rows — a leaf concept's closure still covers
    // the concept itself, and an unknown RHS concept falls back to the
    // structural heuristic — so EXPLAIN must not print `rows=0` (or a
    // `rows=<1` produced by a literally-zero estimate) on the scan node.
    let (mut db, _m) = db();
    db.execute("CREATE TABLE docs (id INT, category UNITEXT)")
        .unwrap();
    for i in 0..50 {
        db.execute(&format!(
            "INSERT INTO docs VALUES ({i}, unitext('Novel','English'))"
        ))
        .unwrap();
    }
    db.execute("ANALYZE docs").unwrap();

    // A leaf concept (closure = itself), a mid-tree concept, and a
    // concept the taxonomy has never heard of.
    for rhs in ["Autobiography", "History", "Zeppelin"] {
        let sql =
            format!("SELECT count(*) FROM docs WHERE category SEMEQUAL unitext('{rhs}','English')");
        let plan = db.plan_select(&sql).unwrap();
        let text = plan.explain();
        let scan = text
            .lines()
            .find(|l| l.contains("Scan on docs"))
            .unwrap_or_else(|| panic!("no scan line in:\n{text}"));
        assert!(
            !scan.contains("rows=0"),
            "Ω scan estimated at zero rows for RHS {rhs}:\n{text}"
        );
        let est: f64 = plan.est_rows;
        assert!(
            est > 0.0,
            "root estimate must be positive for RHS {rhs}: {est}\n{text}"
        );
    }
}
