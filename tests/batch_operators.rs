//! Batch-contract tests for the operators that emit from their own state
//! rather than passing a child's batch through: index scan, both
//! nested-loops joins, hash join, aggregate and sort.  Under `LIMIT n`
//! each must hand out exactly the first `n` rows of its unlimited result
//! at every batch size, and do no more ψ work at one batch size than at
//! another.  (`VALUES` has no SQL surface; it and the NL-join rescan are
//! covered by the unit tests next to the operators.)

use mlql::kernel::{Datum, Session};
use mlql::mural::install;
use mlql::mural::types::unitext_datum;
use std::collections::HashMap;

const BATCH_SIZES: [usize; 3] = [1, 3, 1024];
const LIMITS: [usize; 3] = [1, 3, 50];

/// `a (id, grp, name)` with an M-tree on `name`, and a smaller
/// `b (id, name)`; serial plans, threshold 2.
fn fixture() -> Session {
    let mut db = Session::new_in_memory();
    let mural = install(&mut db).unwrap();
    db.execute("CREATE TABLE a (id INT, grp INT, name UNITEXT)")
        .unwrap();
    db.execute("CREATE TABLE b (id INT, name UNITEXT)").unwrap();
    for (table, records, seed) in [("a", 120, 1), ("b", 30, 2)] {
        let config = mlql::datagen::NamesConfig {
            records,
            noise: 0.25,
            seed,
            // Few stems, so the Nehru probe and the ψ join select plenty.
            distinct: 10,
        };
        let data = mlql::datagen::names_dataset(&mural.langs, &config);
        for (i, rec) in data.iter().enumerate() {
            let mut row = vec![Datum::Int(i as i64)];
            if table == "a" {
                row.push(Datum::Int(i as i64 % 7));
            }
            row.push(unitext_datum(mural.unitext_type, &rec.name));
            db.insert_row(table, row).unwrap();
        }
    }
    db.execute("CREATE INDEX a_mt ON a (name) USING mtree")
        .unwrap();
    db.execute("ANALYZE a").unwrap();
    db.execute("ANALYZE b").unwrap();
    db.execute("SET parallel_workers = 1").unwrap();
    db.execute("SET lexequal.threshold = 2").unwrap();
    db
}

#[test]
fn limit_returns_the_unlimited_prefix_at_every_batch_size() {
    let psi_join = "SELECT a.id, b.id FROM a, b WHERE a.name LEXEQUAL b.name";
    // (operator the plan must contain, session setup, query)
    let cases: [(&str, &[&str], &str); 6] = [
        (
            "Index Scan using a_mt",
            &["SET enable_seqscan = 0"],
            "SELECT id FROM a WHERE name LEXEQUAL unitext('Nehru','English')",
        ),
        ("Nested Loop (materialized inner)", &[], psi_join),
        ("Nested Loop  Join", &["SET enable_material = 0"], psi_join),
        (
            "Hash Join",
            &[],
            "SELECT a.id, b.id FROM a, b WHERE a.grp = b.id",
        ),
        (
            "GroupAggregate",
            &[],
            "SELECT grp, count(*) FROM a GROUP BY grp",
        ),
        ("Sort", &[], "SELECT id FROM a ORDER BY id DESC"),
    ];
    let db = fixture();
    for (operator, setup, sql) in cases {
        // (plan digest, LIMIT) → ext_op_calls, which must not depend on
        // the batch size the plan ran at.
        let mut psi_work: HashMap<(Option<u64>, usize), u64> = HashMap::new();
        for batch_size in BATCH_SIZES {
            let mut s = db.connect();
            for stmt in setup {
                s.execute(stmt).unwrap();
            }
            s.execute(&format!("SET batch_size = {batch_size}"))
                .unwrap();
            let full = s.execute(sql).unwrap();
            let plan = full.explain.as_deref().unwrap_or_default();
            assert!(plan.contains(operator), "{sql}:\n{plan}");
            assert!(full.rows.len() > 3, "{sql}: fixture too small");
            for n in LIMITS {
                let limited = s.execute(&format!("{sql} LIMIT {n}")).unwrap();
                let want = &full.rows[..n.min(full.rows.len())];
                assert_eq!(
                    limited.rows, want,
                    "{operator}: batch_size={batch_size} LIMIT {n}"
                );
                let calls = limited.stats.ext_op_calls;
                let seen = *psi_work
                    .entry((limited.stats.plan_digest, n))
                    .or_insert(calls);
                assert_eq!(
                    calls, seen,
                    "{operator}: ψ calls differ at batch_size={batch_size} LIMIT {n}"
                );
            }
        }
    }
}
