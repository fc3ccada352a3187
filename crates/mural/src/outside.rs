//! Outside-the-server implementations of ψ and Ω (§5.3, §5.4 baselines).
//!
//! These are the PL programs a user would have written against a stock
//! engine with no multilingual support: row-at-a-time cursors through the
//! SPI, per-row interpreted `editdistance` calls across the function-
//! manager boundary, dynamic SQL for the index-assisted variants, and
//! level-by-level SQL expansion for transitive closures ("recursive SQL
//! constructs").  They are *correct* — integration tests check they return
//! exactly what the in-kernel operators return — just architecturally slow,
//! which is the paper's Table 4 / Figure 8 comparison.

use mlql_kernel::expr::CmpOp;
use mlql_kernel::pl::build::*;
use mlql_kernel::pl::{PlFunction, PlStmt};

/// ψ scan, no index: cursor over the whole table, interpreted edit
/// distance per row.
///
/// Parameters: `q` (query phoneme string, TEXT), `k` (threshold, INT).
/// The table must expose `text_col` and its materialized phoneme string in
/// `phoneme_col`.  Returns matching `text_col` values.
pub fn lexequal_scan_fn(table: &str, text_col: &str, phoneme_col: &str) -> PlFunction {
    PlFunction {
        name: format!("lexequal_scan_{table}"),
        params: vec!["q".into(), "k".into()],
        body: vec![PlStmt::ForQuery {
            var: "r".into(),
            sql: text(&format!("SELECT {text_col}, {phoneme_col} FROM {table}")),
            body: vec![PlStmt::If {
                cond: cmp(
                    CmpOp::Le,
                    call("editdistance", vec![field("r", phoneme_col), var("q")]),
                    var("k"),
                ),
                then_branch: vec![PlStmt::ReturnNext(vec![field("r", text_col)])],
                else_branch: vec![],
            }],
        }],
    }
}

/// ψ scan with the MDI (B-Tree) pre-filter: dynamic SQL narrows the cursor
/// to the `[qmdi − k, qmdi + k]` key range (which the engine serves with
/// its B-Tree), then the interpreted edit distance verifies candidates.
///
/// Parameters: `q` (query phoneme), `k` (threshold), `qmdi` (the query's
/// MDI key, precomputed by the caller with [`crate::mdi::mdi_key`]).
pub fn lexequal_scan_mdi_fn(
    table: &str,
    text_col: &str,
    phoneme_col: &str,
    mdi_col: &str,
) -> PlFunction {
    PlFunction {
        name: format!("lexequal_scan_mdi_{table}"),
        params: vec!["q".into(), "k".into(), "qmdi".into()],
        body: vec![
            PlStmt::Assign("lo".into(), PlExprSub(var("qmdi"), var("k"))),
            PlStmt::Assign("hi".into(), PlExprAdd(var("qmdi"), var("k"))),
            PlStmt::ForQuery {
                var: "r".into(),
                sql: concat(vec![
                    text(&format!(
                        "SELECT {text_col}, {phoneme_col} FROM {table} WHERE {mdi_col} >= "
                    )),
                    var("lo"),
                    text(&format!(" AND {mdi_col} <= ")),
                    var("hi"),
                ]),
                body: vec![PlStmt::If {
                    cond: cmp(
                        CmpOp::Le,
                        call("editdistance", vec![field("r", phoneme_col), var("q")]),
                        var("k"),
                    ),
                    then_branch: vec![PlStmt::ReturnNext(vec![field("r", text_col)])],
                    else_branch: vec![],
                }],
            },
        ],
    }
}

/// ψ join, no index: nested cursors — one SPI statement over the outer
/// table, then one SPI statement over the inner table *per outer row*.
/// Returns matching `(outer_text, inner_text)` pairs.
pub fn lexequal_join_fn(
    outer_table: &str,
    outer_text: &str,
    outer_ph: &str,
    inner_table: &str,
    inner_text: &str,
    inner_ph: &str,
) -> PlFunction {
    PlFunction {
        name: format!("lexequal_join_{outer_table}_{inner_table}"),
        params: vec!["k".into()],
        body: vec![PlStmt::ForQuery {
            var: "o".into(),
            sql: text(&format!(
                "SELECT {outer_text}, {outer_ph} FROM {outer_table}"
            )),
            body: vec![PlStmt::ForQuery {
                var: "i".into(),
                sql: text(&format!(
                    "SELECT {inner_text}, {inner_ph} FROM {inner_table}"
                )),
                body: vec![PlStmt::If {
                    cond: cmp(
                        CmpOp::Le,
                        call(
                            "editdistance",
                            vec![field("o", outer_ph), field("i", inner_ph)],
                        ),
                        var("k"),
                    ),
                    then_branch: vec![PlStmt::ReturnNext(vec![
                        field("o", outer_text),
                        field("i", inner_text),
                    ])],
                    else_branch: vec![],
                }],
            }],
        }],
    }
}

/// ψ join with the MDI pre-filter on the inner table: the inner cursor per
/// outer row is narrowed to the MDI key band around the outer row's key.
#[allow(clippy::too_many_arguments)]
pub fn lexequal_join_mdi_fn(
    outer_table: &str,
    outer_text: &str,
    outer_ph: &str,
    outer_mdi: &str,
    inner_table: &str,
    inner_text: &str,
    inner_ph: &str,
    inner_mdi: &str,
) -> PlFunction {
    PlFunction {
        name: format!("lexequal_join_mdi_{outer_table}_{inner_table}"),
        params: vec!["k".into()],
        body: vec![PlStmt::ForQuery {
            var: "o".into(),
            sql: text(&format!(
                "SELECT {outer_text}, {outer_ph}, {outer_mdi} FROM {outer_table}"
            )),
            body: vec![
                PlStmt::Assign("lo".into(), PlExprSub(field("o", outer_mdi), var("k"))),
                PlStmt::Assign("hi".into(), PlExprAdd(field("o", outer_mdi), var("k"))),
                PlStmt::ForQuery {
                    var: "i".into(),
                    sql: concat(vec![
                        text(&format!(
                            "SELECT {inner_text}, {inner_ph} FROM {inner_table} WHERE {inner_mdi} >= "
                        )),
                        var("lo"),
                        text(&format!(" AND {inner_mdi} <= ")),
                        var("hi"),
                    ]),
                    body: vec![PlStmt::If {
                        cond: cmp(
                            CmpOp::Le,
                            call("editdistance", vec![field("o", outer_ph), field("i", inner_ph)]),
                            var("k"),
                        ),
                        then_branch: vec![PlStmt::ReturnNext(vec![
                            field("o", outer_text),
                            field("i", inner_text),
                        ])],
                        else_branch: vec![],
                    }],
                },
            ],
        }],
    }
}

/// Ω transitive closure through SQL — the "recursive SQL constructs" path
/// of §5.4.  The closure is accumulated in a scratch table
/// (`scratch(id INT, done INT)`, created/emptied by the caller) by
/// frontier expansion: repeatedly pick an unexpanded node, mark it done,
/// and insert its children (one `SELECT` per node against the taxonomy's
/// edge table `edges(child INT, parent INT)`; a B+Tree on `parent` is what
/// the "B+Tree index" curve of Figure 8 adds).
///
/// Parameters: `root` (synset id, INT).  Returns one row per closure
/// member.
pub fn semequal_closure_fn(edges_table: &str, scratch_table: &str) -> PlFunction {
    PlFunction {
        name: format!("semequal_closure_{edges_table}"),
        params: vec!["root".into()],
        body: vec![
            // Seed the frontier.
            PlStmt::Perform(concat(vec![
                text(&format!("INSERT INTO {scratch_table} VALUES (")),
                var("root"),
                text(", 0)"),
            ])),
            PlStmt::Assign("more".into(), int(1)),
            PlStmt::While {
                cond: cmp(CmpOp::Eq, var("more"), int(1)),
                body: vec![
                    PlStmt::Assign("more".into(), int(0)),
                    // Pick one unexpanded node.
                    PlStmt::ForQuery {
                        var: "n".into(),
                        sql: text(&format!(
                            "SELECT id FROM {scratch_table} WHERE done = 0 LIMIT 1"
                        )),
                        body: vec![
                            PlStmt::Assign("more".into(), int(1)),
                            // Mark done: delete the frontier row, insert a done row.
                            PlStmt::Perform(concat(vec![
                                text(&format!("DELETE FROM {scratch_table} WHERE id = ")),
                                field("n", "id"),
                                text(" AND done = 0"),
                            ])),
                            PlStmt::Perform(concat(vec![
                                text(&format!("INSERT INTO {scratch_table} VALUES (")),
                                field("n", "id"),
                                text(", 1)"),
                            ])),
                            // Expand children (the indexed statement).
                            PlStmt::ForQuery {
                                var: "c".into(),
                                sql: concat(vec![
                                    text(&format!(
                                        "SELECT child FROM {edges_table} WHERE parent = "
                                    )),
                                    field("n", "id"),
                                ]),
                                body: vec![
                                    // Deduplicate: only enqueue unseen nodes.
                                    PlStmt::Assign("seen".into(), int(0)),
                                    PlStmt::ForQuery {
                                        var: "s".into(),
                                        sql: concat(vec![
                                            text(&format!(
                                                "SELECT count(*) AS cnt FROM {scratch_table} WHERE id = "
                                            )),
                                            field("c", "child"),
                                        ]),
                                        body: vec![PlStmt::Assign(
                                            "seen".into(),
                                            field("s", "cnt"),
                                        )],
                                    },
                                    PlStmt::If {
                                        cond: cmp(CmpOp::Eq, var("seen"), int(0)),
                                        then_branch: vec![PlStmt::Perform(concat(vec![
                                            text(&format!(
                                                "INSERT INTO {scratch_table} VALUES ("
                                            )),
                                            field("c", "child"),
                                            text(", 0)"),
                                        ]))],
                                        else_branch: vec![],
                                    },
                                ],
                            },
                        ],
                    },
                ],
            },
            // Emit the closure.
            PlStmt::ForQuery {
                var: "m".into(),
                sql: text(&format!("SELECT id FROM {scratch_table}")),
                body: vec![PlStmt::ReturnNext(vec![field("m", "id")])],
            },
        ],
    }
}

/// Ω transitive closure through *set-based* SQL — the "SQL scripts"
/// flavour of §5.3/§5.4: one `INSERT INTO ... SELECT` join per hierarchy
/// level instead of one statement per node.  Far fewer SPI round-trips
/// than [`semequal_closure_fn`], still architecturally outside the server.
///
/// Uses two scratch tables the caller creates and empties:
/// `closure(id INT)` and `frontier(id INT)`.  Correct for tree-shaped
/// hierarchies (each node has one parent, so no level re-visits a node);
/// DAG inputs would need an anti-join the dialect doesn't have, which is
/// exactly the kind of limitation that pushed the paper toward the
/// in-kernel implementation.
pub fn semequal_closure_setsql_fn(
    edges_table: &str,
    closure_table: &str,
    frontier_table: &str,
    frontier_next_table: &str,
) -> PlFunction {
    PlFunction {
        name: format!("semequal_closure_set_{edges_table}"),
        params: vec!["root".into()],
        body: vec![
            PlStmt::Perform(concat(vec![
                text(&format!("INSERT INTO {closure_table} VALUES (")),
                var("root"),
                text(")"),
            ])),
            PlStmt::Perform(concat(vec![
                text(&format!("INSERT INTO {frontier_table} VALUES (")),
                var("root"),
                text(")"),
            ])),
            PlStmt::Assign("grew".into(), int(1)),
            PlStmt::While {
                cond: cmp(CmpOp::Eq, var("grew"), int(1)),
                body: vec![
                    // next level = children of the current frontier — one
                    // set-based join per level.
                    PlStmt::Perform(text(&format!(
                        "INSERT INTO {frontier_next_table} SELECT e.child FROM {edges_table} e, {frontier_table} f WHERE e.parent = f.id"
                    ))),
                    // Swap the frontier buffers and fold into the closure.
                    PlStmt::Perform(text(&format!("DELETE FROM {frontier_table}"))),
                    PlStmt::Perform(text(&format!(
                        "INSERT INTO {frontier_table} SELECT id FROM {frontier_next_table}"
                    ))),
                    PlStmt::Perform(text(&format!("DELETE FROM {frontier_next_table}"))),
                    PlStmt::Perform(text(&format!(
                        "INSERT INTO {closure_table} SELECT id FROM {frontier_table}"
                    ))),
                    // Terminate when the level was empty.
                    PlStmt::Assign("n".into(), int(0)),
                    PlStmt::ForQuery {
                        var: "c".into(),
                        sql: text(&format!("SELECT count(*) AS n FROM {frontier_table}")),
                        body: vec![PlStmt::Assign("n".into(), field("c", "n"))],
                    },
                    PlStmt::If {
                        cond: cmp(CmpOp::Gt, var("n"), int(0)),
                        then_branch: vec![PlStmt::Assign("grew".into(), int(1))],
                        else_branch: vec![PlStmt::Assign("grew".into(), int(0))],
                    },
                ],
            },
            PlStmt::ForQuery {
                var: "m".into(),
                sql: text(&format!("SELECT id FROM {closure_table}")),
                body: vec![PlStmt::ReturnNext(vec![field("m", "id")])],
            },
        ],
    }
}

/// The interpreted Levenshtein UDF — the heart of the outside-the-server
/// baseline's cost profile.
///
/// The paper's outside implementation wrote `editdistance` in PL/SQL;
/// every DP cell is an interpreted statement over boxed values, which is
/// why Table 4's outside rows are orders of magnitude above the core's
/// native C edit distance.  Register this with
/// [`mlql_kernel::pl::PlRuntime::register_function`]: the local name
/// `editdistance` then *shadows* the native catalog function, so the same
/// scan/join PL programs run fully outside-the-server.
pub fn editdistance_pl_fn() -> PlFunction {
    use mlql_kernel::expr::ArithOp;
    use mlql_kernel::pl::PlExpr;
    let add = |l: PlExpr, r: PlExpr| PlExpr::Arith(ArithOp::Add, Box::new(l), Box::new(r));
    let strlen = |e: PlExpr| PlExpr::StrLen(Box::new(e));
    let charat = |e: PlExpr, i: PlExpr| PlExpr::CharAt(Box::new(e), Box::new(i));
    let get = |name: &str, i: PlExpr| PlExpr::ListGet(name.into(), Box::new(i));

    PlFunction {
        name: "editdistance".into(),
        params: vec!["a".into(), "b".into()],
        body: vec![
            PlStmt::Assign("n".into(), strlen(var("a"))),
            PlStmt::Assign("m".into(), strlen(var("b"))),
            // prev := [0, 1, ..., m]
            PlStmt::ListNew("prev".into()),
            PlStmt::Assign("j".into(), int(0)),
            PlStmt::While {
                cond: cmp(CmpOp::Le, var("j"), var("m")),
                body: vec![
                    PlStmt::ListPush("prev".into(), var("j")),
                    PlStmt::Assign("j".into(), add(var("j"), int(1))),
                ],
            },
            // row loop
            PlStmt::Assign("i".into(), int(0)),
            PlStmt::While {
                cond: cmp(CmpOp::Lt, var("i"), var("n")),
                body: vec![
                    PlStmt::ListNew("curr".into()),
                    PlStmt::ListPush("curr".into(), add(var("i"), int(1))),
                    PlStmt::Assign("j".into(), int(0)),
                    PlStmt::While {
                        cond: cmp(CmpOp::Lt, var("j"), var("m")),
                        body: vec![
                            PlStmt::If {
                                cond: cmp(
                                    CmpOp::Eq,
                                    charat(var("a"), var("i")),
                                    charat(var("b"), var("j")),
                                ),
                                then_branch: vec![PlStmt::Assign("cost".into(), int(0))],
                                else_branch: vec![PlStmt::Assign("cost".into(), int(1))],
                            },
                            PlStmt::Assign("best".into(), add(get("prev", var("j")), var("cost"))),
                            PlStmt::Assign(
                                "up".into(),
                                add(get("prev", add(var("j"), int(1))), int(1)),
                            ),
                            PlStmt::If {
                                cond: cmp(CmpOp::Lt, var("up"), var("best")),
                                then_branch: vec![PlStmt::Assign("best".into(), var("up"))],
                                else_branch: vec![],
                            },
                            PlStmt::Assign("left".into(), add(get("curr", var("j")), int(1))),
                            PlStmt::If {
                                cond: cmp(CmpOp::Lt, var("left"), var("best")),
                                then_branch: vec![PlStmt::Assign("best".into(), var("left"))],
                                else_branch: vec![],
                            },
                            PlStmt::ListPush("curr".into(), var("best")),
                            PlStmt::Assign("j".into(), add(var("j"), int(1))),
                        ],
                    },
                    PlStmt::ListCopy("prev".into(), "curr".into()),
                    PlStmt::Assign("i".into(), add(var("i"), int(1))),
                ],
            },
            PlStmt::ReturnNext(vec![get("prev", var("m"))]),
        ],
    }
}

// Small arithmetic helpers (the PL builder module only exposes generic
// constructors; these keep the programs above readable).
#[allow(non_snake_case)]
fn PlExprAdd(l: mlql_kernel::pl::PlExpr, r: mlql_kernel::pl::PlExpr) -> mlql_kernel::pl::PlExpr {
    mlql_kernel::pl::PlExpr::Arith(mlql_kernel::expr::ArithOp::Add, Box::new(l), Box::new(r))
}

#[allow(non_snake_case)]
fn PlExprSub(l: mlql_kernel::pl::PlExpr, r: mlql_kernel::pl::PlExpr) -> mlql_kernel::pl::PlExpr {
    mlql_kernel::pl::PlExpr::Arith(mlql_kernel::expr::ArithOp::Sub, Box::new(l), Box::new(r))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::install::install;
    use mlql_kernel::pl::PlRuntime;
    use mlql_kernel::{Datum, Session};

    /// Build a small names table with materialized phoneme and MDI columns,
    /// the way an outside-the-server deployment would.
    fn names_db() -> Session {
        let mut db = Session::new_in_memory();
        let _ = install(&mut db).unwrap();
        db.execute("CREATE TABLE names (name TEXT, ph TEXT, mdi INT)")
            .unwrap();
        for n in ["nehru", "neru", "nero", "gandhi", "patel", "bose", "naidu"] {
            let mdi = crate::mdi::mdi_key(n.as_bytes(), crate::mdi::DEFAULT_ANCHOR);
            // Phoneme string == romanized name here: these are already
            // phonemic spellings, which keeps expectations obvious.
            db.execute(&format!("INSERT INTO names VALUES ('{n}', '{n}', {mdi})"))
                .unwrap();
        }
        db
    }

    #[test]
    fn outside_scan_matches_reference() {
        let mut db = names_db();
        let f = lexequal_scan_fn("names", "name", "ph");
        let mut rt = PlRuntime::new(&mut db);
        let rows = rt.call(&f, &[Datum::text("nehru"), Datum::Int(1)]).unwrap();
        let mut got: Vec<&str> = rows.iter().map(|r| r[0].as_text().unwrap()).collect();
        got.sort_unstable();
        assert_eq!(got, vec!["nehru", "neru"]);
        assert!(rt.stats().spi_statements >= 1);
        assert!(rt.stats().udf_calls > 7, "per-row fmgr crossings");
    }

    #[test]
    fn outside_scan_mdi_agrees_with_full_scan() {
        let mut db = names_db();
        db.execute("CREATE INDEX names_mdi ON names (mdi) USING btree")
            .unwrap();
        let full = lexequal_scan_fn("names", "name", "ph");
        let mdi = lexequal_scan_mdi_fn("names", "name", "ph", "mdi");
        for (q, k) in [("nehru", 1i64), ("nero", 2), ("bose", 0), ("xyz", 1)] {
            let qmdi = crate::mdi::mdi_key(q.as_bytes(), crate::mdi::DEFAULT_ANCHOR);
            let mut rt = PlRuntime::new(&mut db);
            let a = rt.call(&full, &[Datum::text(q), Datum::Int(k)]).unwrap();
            let b = rt
                .call(&mdi, &[Datum::text(q), Datum::Int(k), Datum::Int(qmdi)])
                .unwrap();
            let norm = |rows: Vec<Vec<Datum>>| {
                let mut v: Vec<String> = rows
                    .iter()
                    .map(|r| r[0].as_text().unwrap().to_string())
                    .collect();
                v.sort();
                v
            };
            assert_eq!(norm(a), norm(b), "q={q} k={k}");
        }
    }

    #[test]
    fn outside_join_small() {
        let mut db = names_db();
        db.execute("CREATE TABLE pubs (name TEXT, ph TEXT, mdi INT)")
            .unwrap();
        for n in ["neru", "bose"] {
            let mdi = crate::mdi::mdi_key(n.as_bytes(), crate::mdi::DEFAULT_ANCHOR);
            db.execute(&format!("INSERT INTO pubs VALUES ('{n}', '{n}', {mdi})"))
                .unwrap();
        }
        let join = lexequal_join_fn("pubs", "name", "ph", "names", "name", "ph");
        let mut rt = PlRuntime::new(&mut db);
        let rows = rt.call(&join, &[Datum::Int(1)]).unwrap();
        // neru ↔ {nehru, neru, nero}; bose ↔ {bose}.
        assert_eq!(rows.len(), 4);
        // Inner SPI statement re-issued per outer row.
        assert!(rt.stats().spi_statements >= 3);

        let join_mdi =
            lexequal_join_mdi_fn("pubs", "name", "ph", "mdi", "names", "name", "ph", "mdi");
        let mut rt2 = PlRuntime::new(&mut db);
        let rows2 = rt2.call(&join_mdi, &[Datum::Int(1)]).unwrap();
        assert_eq!(rows2.len(), 4, "MDI join agrees");
    }

    #[test]
    fn setsql_closure_matches_per_node_closure() {
        let mut db = Session::new_in_memory();
        let mural = install(&mut db).unwrap();
        db.execute("CREATE TABLE edges (child INT, parent INT)")
            .unwrap();
        let taxonomy = mural.sem.taxonomy();
        for id in taxonomy.ids() {
            for &c in taxonomy.children(id) {
                db.execute(&format!(
                    "INSERT INTO edges VALUES ({}, {})",
                    c.raw(),
                    id.raw()
                ))
                .unwrap();
            }
        }
        db.execute("CREATE TABLE cl (id INT)").unwrap();
        db.execute("CREATE TABLE fr (id INT)").unwrap();
        db.execute("CREATE TABLE fr2 (id INT)").unwrap();
        let langs = &mural.langs;
        let history = mlql_unitext::UniText::compose("History", langs.id_of("English"));
        let root = mural.sem.synsets_of(&history)[0];
        // Within one language tree (the edges table here has no
        // equivalence edges), expected size = the English subtree only.
        let f = semequal_closure_setsql_fn("edges", "cl", "fr", "fr2");
        let mut rt = PlRuntime::new(&mut db);
        let rows = rt.call(&f, &[Datum::Int(root.raw() as i64)]).unwrap();
        // History subtree in English: History, Historiography, Biography,
        // Autobiography.
        assert_eq!(rows.len(), 4);
        // Far fewer SPI statements than the per-node variant would need.
        assert!(rt.stats().spi_statements < 40, "{:?}", rt.stats());
    }

    #[test]
    fn interpreted_editdistance_matches_native() {
        let mut db = Session::new_in_memory();
        let _ = install(&mut db).unwrap();
        let ed = editdistance_pl_fn();
        let mut rt = PlRuntime::new(&mut db);
        for (a, b, want) in [
            ("kitten", "sitting", 3i64),
            ("", "", 0),
            ("abc", "", 3),
            ("", "xy", 2),
            ("same", "same", 0),
            ("nehru", "neru", 1),
            ("flaw", "lawn", 2),
        ] {
            let rows = rt.call(&ed, &[Datum::text(a), Datum::text(b)]).unwrap();
            assert_eq!(rows[0][0].as_int(), Some(want), "{a} vs {b}");
        }
    }

    #[test]
    fn local_udf_shadows_native_in_scan() {
        let mut db = names_db();
        let f = lexequal_scan_fn("names", "name", "ph");
        let mut rt = PlRuntime::new(&mut db);
        rt.register_function(editdistance_pl_fn());
        let rows = rt.call(&f, &[Datum::text("nehru"), Datum::Int(1)]).unwrap();
        let mut got: Vec<&str> = rows.iter().map(|r| r[0].as_text().unwrap()).collect();
        got.sort_unstable();
        assert_eq!(
            got,
            vec!["nehru", "neru"],
            "interpreted UDF gives identical results"
        );
    }

    #[test]
    fn outside_closure_matches_pinned_closure() {
        let mut db = Session::new_in_memory();
        let mural = install(&mut db).unwrap();
        // Store the taxonomy's edges relationally.
        db.execute("CREATE TABLE edges (child INT, parent INT)")
            .unwrap();
        let taxonomy = mural.sem.taxonomy();
        for id in taxonomy.ids() {
            for &c in taxonomy.children(id) {
                db.execute(&format!(
                    "INSERT INTO edges VALUES ({}, {})",
                    c.raw(),
                    id.raw()
                ))
                .unwrap();
            }
            for &e in taxonomy.equivalents(id) {
                // Equivalence edges are traversed like child edges.
                db.execute(&format!(
                    "INSERT INTO edges VALUES ({}, {})",
                    e.raw(),
                    id.raw()
                ))
                .unwrap();
            }
        }
        db.execute("CREATE TABLE scratch (id INT, done INT)")
            .unwrap();
        let langs = &mural.langs;
        let history = mlql_unitext::UniText::compose("History", langs.id_of("English"));
        let root = mural.sem.synsets_of(&history)[0];
        let expected = mural.sem.closure_size_of(&history).unwrap();

        let f = semequal_closure_fn("edges", "scratch");
        let mut rt = PlRuntime::new(&mut db);
        let rows = rt.call(&f, &[Datum::Int(root.raw() as i64)]).unwrap();
        assert_eq!(rows.len(), expected, "SQL-expanded closure size");
        let stats = rt.stats();
        assert!(
            stats.spi_statements as usize > expected,
            "at least one statement per closure member: {stats:?}"
        );
    }
}
