//! Cost-model calibration grid: where the constants of `opt/cost.rs`
//! come from, and the check that the planner picks the plan the clock
//! says wins (the paper's Figure 6 argument, applied to plan choice).
//!
//! Fixtures: multilingual names at 5k and 50k rows, first without and
//! then with an M-tree; an INT table at 60k rows with a B-tree; a 6k-row
//! Ω table shaped like the standing benchmark's `book`; and a table of
//! deleted rows, whose scan reads pages and produces nothing.  Query
//! classes: ψ selects at thresholds 0–3, unfiltered `count(*)`, an
//! 80 %-selective range, a B-tree point lookup, an Ω select, a ψ join of
//! 300 × 600 names, and the same two tables cross-joined, which builds a
//! row for every pair and evaluates nothing.
//!
//! Each class is planned at `parallel_workers` 1 and 2 under every
//! combination of `enable_seqscan` / `enable_indexscan`; the serial scan
//! is also run as a parallel scan where the flags cannot reach that path.
//! Every distinct plan is timed (median of [`RUNS`] warm executions, see
//! [`median_ns`]) and run once instrumented, as `EXPLAIN ANALYZE` runs
//! it, for its work counts: pages, rows decoded, operator cost units,
//! M-tree keys, heap fetches, worker rounds (as the scan counted them),
//! rows gathered and rows a join builds.  Least-squares fits turn the
//! counts into nanoseconds per unit; divided by the nanoseconds of
//! reading one page (the deleted-rows scan) they are the constants
//! `CostParams` commits.
//!
//! `max_plan_regret` is the worst, over classes × worker counts, of the
//! time of the plan the planner picks over the time of the fastest plan
//! it could have picked; `scripts/bench_check.sh` fails above 1.5.  The
//! picks also run through `Session::execute`, so the plan store's fit of
//! log elapsed against log `est_cost` is reported alongside.
//!
//! Run: `cargo run --release -p mlql-bench --bin calibration`
//! Pin output with `MLQL_BENCH_DIR`.

use mlql_bench::report::{obj, Report, Value};
use mlql_bench::{loglog_fit, mural_db};
use mlql_datagen::{names_dataset, NamesConfig};
use mlql_kernel::catalog::{Catalog, SessionVars};
use mlql_kernel::exec::{build_instrumented, drain_to_vec, run_to_vec, ExecCtx, ExecStats};
use mlql_kernel::obs::planstore;
use mlql_kernel::opt::CostParams;
use mlql_kernel::plan::{PhysNode, PhysOp};
use mlql_kernel::{Datum, Session};
use mlql_mural::types::unitext_datum;
use mlql_mural::Mural;
use std::sync::Arc;
use std::time::Instant;

type PerTupleCost = Arc<dyn Fn(&SessionVars, f64) -> f64 + Send + Sync>;

/// Timed executions per plan; the median is kept.
const RUNS: usize = 5;

/// Passes over the grid's plans; see [`median_ns`].
const PASSES: usize = 3;

/// Minimum time each plan runs before it is timed.
const WARM_UP: std::time::Duration = std::time::Duration::from_millis(50);

/// Worker counts every class is planned at.
const WORKERS: [usize; 2] = [1, 2];

/// The ψ fixtures.
const NAME_SIZES: [(&str, usize); 2] = [("names5k", 5_000), ("names50k", 50_000)];

/// The join classes' sides.
const JOIN_SIZES: [(&str, usize); 2] = [("authors", 300), ("publishers", 600)];

/// Rows of the INT fixture; the range class keeps 80 % of them.
const INT_ROWS: i64 = 60_000;

/// Rows of the Ω fixture.
const BOOK_ROWS: usize = 6_000;

/// One query class of the grid.
struct Class {
    name: String,
    sql: String,
    /// Statements run before the class is planned (the ψ threshold).
    setup: Vec<String>,
    /// Cost units of one predicate evaluation, as the planner prices it
    /// (`per_tuple_cost`, or 1 for a built-in comparison).
    op_units: f64,
}

/// What one plan of a class did, and how long it took.
#[derive(Default)]
struct Run {
    shape: String,
    ns: f64,
    workers: usize,
    parallel: bool,
    index: bool,
    join: bool,
    pages: f64,
    rows_decoded: f64,
    op_units: f64,
    mtree_keys: f64,
    heap_fetches: f64,
    rounds: f64,
    out_rows: f64,
    /// Predicate evaluations of a join.
    pairs: f64,
}

/// A class with its plans, and per worker count the plan the planner
/// picks with every path enabled.
struct Measured {
    class: Class,
    /// The session the class's plans run under (its setup applied).
    vars: SessionVars,
    plans: Vec<PhysNode>,
    runs: Vec<Run>,
    picks: Vec<(usize, usize)>,
}

fn main() {
    println!("# Cost-model calibration grid");
    let (mut db, mural) = mural_db();
    for (table, rows) in NAME_SIZES.into_iter().chain(JOIN_SIZES) {
        load_names(&mut db, &mural, table, rows);
    }
    load_ints(&mut db, "ints", INT_ROWS);
    db.execute("CREATE INDEX ints_id ON ints (id) USING btree")
        .unwrap();
    load_books(&mut db, &mural);
    load_ints(&mut db, "dead", INT_ROWS);
    db.execute("DELETE FROM dead").unwrap();
    db.execute("ANALYZE dead").unwrap();

    // One sequential page: a scan of deleted rows reads and checks every
    // page and decodes nothing.
    let dead = db.plan_select("SELECT count(*) FROM dead").unwrap();

    let mut classes = psi_classes(&db, "");
    let plain = |name: &str, sql: String, op_units: f64| Class {
        name: name.to_string(),
        sql,
        setup: Vec::new(),
        op_units,
    };
    for table in ["ints", "names50k", "book"] {
        classes.push(plain(
            &format!("count {table}"),
            format!("SELECT count(*) FROM {table}"),
            0.0,
        ));
    }
    classes.push(plain(
        "range 80% ints",
        format!("SELECT count(*) FROM ints WHERE id < {}", INT_ROWS * 4 / 5),
        1.0,
    ));
    classes.push(plain(
        "btree point ints",
        "SELECT id FROM ints WHERE id = 31337".into(),
        1.0,
    ));
    let mut vars = db.vars().clone();
    vars.set("lexequal.threshold", Datum::Int(1));
    classes.push(Class {
        name: "psi join".into(),
        sql: "SELECT count(*) FROM authors a, publishers p WHERE a.name LEXEQUAL p.name".into(),
        setup: vec!["SET lexequal.threshold = 1".into()],
        op_units: per_tuple_cost(&db, "lexequal")(&vars, avg_width(&db, "publishers")),
    });
    classes.push(plain(
        "cross join",
        "SELECT count(*) FROM authors a, publishers p".into(),
        0.0,
    ));
    let omega = per_tuple_cost(&db, "semequal");
    classes.push(plain(
        "omega book",
        "SELECT count(*) FROM book WHERE category SEMEQUAL unitext('History','English')".into(),
        omega(db.vars(), 0.0),
    ));

    let mut grid: Vec<Measured> = classes.into_iter().map(|c| measure(&mut db, c)).collect();
    // The ψ classes again, with an M-tree to choose.
    for (table, _) in NAME_SIZES {
        db.execute(&format!(
            "CREATE INDEX {table}_mt ON {table} (name) USING mtree"
        ))
        .unwrap();
    }
    for class in psi_classes(&db, " +mtree") {
        grid.push(measure(&mut db, class));
    }

    let dead_vars = db.vars().clone();
    let plans: Vec<(&PhysNode, &SessionVars)> = grid
        .iter()
        .flat_map(|m| m.plans.iter().map(move |p| (p, &m.vars)))
        .chain([(&dead, &dead_vars)])
        .collect();
    let mut ns = median_ns(&db, &plans).into_iter();
    for m in &mut grid {
        for run in &mut m.runs {
            run.ns = ns.next().unwrap();
            println!(
                "{:<24} {:>8.3} ms  pages={} rows={} units={:.0} keys={} fetches={} rounds={} out={}  {}",
                m.class.name,
                run.ns / 1e6,
                run.pages,
                run.rows_decoded,
                run.op_units,
                run.mtree_keys,
                run.heap_fetches,
                run.rounds,
                run.out_rows,
                run.shape.lines().last().unwrap_or("").trim()
            );
        }
    }
    let page_ns = ns.next().unwrap() / count_work(&db, &dead_vars, &dead, 0.0).pages;
    println!("seq page: {page_ns:.0} ns");

    let fit = Fit::new(page_ns, &grid);
    fit.print();

    println!();
    println!(
        "{:<24} {:>2} {:>9} {:>9} {:>7}  pick",
        "class", "w", "pick_ms", "best_ms", "regret"
    );
    let mut max_regret: f64 = 1.0;
    let mut regret = Vec::new();
    for m in &grid {
        for &(w, pick) in &m.picks {
            // Any plan at w workers or fewer was the planner's to pick.
            let best = m
                .runs
                .iter()
                .filter(|r| r.workers <= w)
                .map(|r| r.ns)
                .fold(f64::INFINITY, f64::min);
            let pick = &m.runs[pick];
            let ratio = pick.ns / best;
            max_regret = max_regret.max(ratio);
            let node = pick
                .shape
                .lines()
                .nth(1)
                .unwrap_or(&pick.shape)
                .trim()
                .to_string();
            println!(
                "{:<24} {w:>2} {:>9.3} {:>9.3} {ratio:>7.2}  {node}",
                m.class.name,
                pick.ns / 1e6,
                best / 1e6
            );
            regret.push(obj(vec![
                ("class", Value::Str(m.class.name.clone())),
                ("workers", Value::Int(w as i64)),
                ("pick_ms", Value::Num(pick.ns / 1e6)),
                ("best_ms", Value::Num(best / 1e6)),
                ("regret", Value::Num(ratio)),
                ("pick", Value::Str(node)),
            ]));
        }
    }
    println!("max_plan_regret {max_regret:.3}");

    // The picks through the ordinary execution path, for the plan store.
    for m in &grid {
        for &(w, _) in &m.picks {
            apply(&mut db, &m.class, &flags(w, true, true));
            for _ in 0..RUNS {
                db.execute(&m.class.sql).unwrap();
            }
        }
    }
    let snap = planstore::snapshot(Some(db.engine().engine_id()));
    let points: Vec<(f64, f64)> = snap
        .iter()
        .filter(|e| e.calls > 0 && e.est_cost > 0.0)
        .map(|e| (e.est_cost, e.mean().as_secs_f64() * 1e3))
        .collect();
    let store = loglog_fit(&points);
    println!(
        "plan store: {} plans, log10(ms) = {:.3} * log10(cost) + {:.3}, log-log Pearson {:.3}",
        points.len(),
        store.slope,
        store.intercept,
        store.pearson
    );

    let mut rep = Report::new("calibration");
    rep.num("max_plan_regret", max_regret)
        .set("fitted", fit.json())
        .int("plans", snap.len() as i64)
        .num("slope", store.slope)
        .num("intercept", store.intercept)
        .num("residual_stddev", store.residual_stddev)
        .num("loglog_pearson", store.pearson)
        .set("regret", Value::Arr(regret));
    rep.write_and_note();
}

/// The ψ classes over both name tables at thresholds 0–3.
fn psi_classes(db: &Session, suffix: &str) -> Vec<Class> {
    let lexequal = per_tuple_cost(db, "lexequal");
    let mut out = Vec::new();
    for (table, _) in NAME_SIZES {
        for k in 0..=3 {
            let mut vars = db.vars().clone();
            vars.set("lexequal.threshold", Datum::Int(k));
            out.push(Class {
                name: format!("psi k={k} {table}{suffix}"),
                sql: format!(
                    "SELECT id, name FROM {table} WHERE name LEXEQUAL unitext('Nehru','English')"
                ),
                setup: vec![format!("SET lexequal.threshold = {k}")],
                op_units: lexequal(&vars, avg_width(db, table)),
            });
        }
    }
    out
}

/// The registered cost hook of extension operator `name`.
fn per_tuple_cost(db: &Session, name: &str) -> PerTupleCost {
    let catalog = db.engine().catalog();
    Arc::clone(&catalog.operator(name).expect("registered").per_tuple_cost)
}

/// The operand width the planner scales extension-operator costs by.
fn avg_width(db: &Session, table: &str) -> f64 {
    let meta = db.engine().catalog().table(table).unwrap();
    let stats = meta.stats.lock();
    let ws: Vec<f64> = stats
        .columns
        .iter()
        .flatten()
        .map(|c| c.avg_width)
        .filter(|&w| w > 0.0)
        .collect();
    ws.iter().sum::<f64>() / ws.len().max(1) as f64
}

/// `table (id INT, name UNITEXT)` with `rows` names of the Table 4
/// generator.
fn load_names(db: &mut Session, mural: &Mural, table: &str, rows: usize) {
    db.execute(&format!("CREATE TABLE {table} (id INT, name UNITEXT)"))
        .unwrap();
    let config = NamesConfig {
        records: rows,
        noise: 0.25,
        seed: rows as u64,
        ..NamesConfig::default()
    };
    db.execute("BEGIN").unwrap();
    for (i, rec) in names_dataset(&mural.langs, &config).iter().enumerate() {
        let name = unitext_datum(mural.unitext_type, &rec.name);
        db.insert_row(table, vec![Datum::Int(i as i64), name])
            .unwrap();
    }
    db.execute("COMMIT").unwrap();
    db.execute(&format!("ANALYZE {table}")).unwrap();
}

/// `table (id INT)` holding `0..rows`.
fn load_ints(db: &mut Session, table: &str, rows: i64) {
    db.execute(&format!("CREATE TABLE {table} (id INT)"))
        .unwrap();
    db.execute("BEGIN").unwrap();
    for i in 0..rows {
        db.insert_row(table, vec![Datum::Int(i)]).unwrap();
    }
    db.execute("COMMIT").unwrap();
    db.execute(&format!("ANALYZE {table}")).unwrap();
}

/// `book (bookid, authorid, pubid, category)` over category words of the
/// installed taxonomy.
fn load_books(db: &mut Session, mural: &Mural) {
    db.execute("CREATE TABLE book (bookid INT, authorid INT, pubid INT, category UNITEXT)")
        .unwrap();
    let en = mural.langs.id_of("English");
    let cats = [
        "History",
        "Historiography",
        "Autobiography",
        "Novel",
        "Fiction",
    ];
    db.execute("BEGIN").unwrap();
    for i in 0..BOOK_ROWS {
        let cat = mlql_unitext::UniText::compose(cats[i % cats.len()], en);
        let row = vec![
            Datum::Int(i as i64),
            Datum::Int((i % 2400) as i64),
            Datum::Int((i % 600) as i64),
            unitext_datum(mural.unitext_type, &cat),
        ];
        db.insert_row("book", row).unwrap();
    }
    db.execute("COMMIT").unwrap();
    db.execute("ANALYZE book").unwrap();
}

/// Session settings for planning at `workers` with the two scan paths
/// enabled or not.
fn flags(workers: usize, seq: bool, index: bool) -> [String; 3] {
    [
        format!("SET parallel_workers = {workers}"),
        format!("SET enable_seqscan = {}", seq as u8),
        format!("SET enable_indexscan = {}", index as u8),
    ]
}

fn apply(db: &mut Session, class: &Class, flags: &[String]) {
    for s in flags.iter().chain(&class.setup) {
        db.execute(s).unwrap();
    }
}

/// EXPLAIN text with the `(cost=… rows=…)` estimates stripped.
fn shape(plan: &PhysNode) -> String {
    plan.explain()
        .lines()
        .map(|l| l.find("  (cost=").map_or(l, |at| &l[..at]))
        .collect::<Vec<_>>()
        .join("\n")
}

/// `plan` with its serial heap scans made parallel at `workers`.
fn parallelized(plan: &PhysNode, workers: usize) -> PhysNode {
    let mut plan = plan.clone();
    fn walk(node: &mut PhysNode, workers: usize) {
        match &mut node.op {
            PhysOp::SeqScan { workers: w, .. } => *w = workers,
            PhysOp::Filter { input, .. }
            | PhysOp::Project { input, .. }
            | PhysOp::Aggregate { input, .. }
            | PhysOp::Sort { input, .. }
            | PhysOp::Limit { input, .. } => walk(input, workers),
            _ => {}
        }
    }
    walk(&mut plan, workers);
    plan
}

/// Plan `class` under every setting and time each distinct plan.
fn measure(db: &mut Session, class: Class) -> Measured {
    let mut candidates: Vec<(usize, PhysNode, bool)> = Vec::new();
    for w in WORKERS {
        for (seq, index) in [(true, true), (true, false), (false, true)] {
            apply(db, &class, &flags(w, seq, index));
            let plan = db.plan_select(&class.sql).unwrap();
            candidates.push((w, plan, seq && index));
        }
        if w > 1 {
            apply(db, &class, &flags(1, true, false));
            let serial = db.plan_select(&class.sql).unwrap();
            candidates.push((w, parallelized(&serial, w), false));
        }
    }
    let mut plans: Vec<PhysNode> = Vec::new();
    let mut picks = Vec::new();
    for (w, plan, is_pick) in candidates {
        let at = match plans.iter().position(|p| shape(p) == shape(&plan)) {
            Some(at) => at,
            None => {
                plans.push(plan);
                plans.len() - 1
            }
        };
        if is_pick {
            picks.push((w, at));
        }
    }
    let vars = db.vars().clone();
    let runs = plans
        .iter()
        .map(|p| count_work(db, &vars, p, class.op_units))
        .collect();
    Measured {
        class,
        vars,
        plans,
        runs,
        picks,
    }
}

/// Per plan, the median time of [`RUNS`] back-to-back executions after
/// warming up for at least [`WARM_UP`] — the closed loop the standing
/// benchmark runs (a cold second vCPU costs a parallel plan its speedup
/// for the first tens of milliseconds).  [`PASSES`] passes over all the
/// plans spread each plan's runs over the whole grid; the median of the
/// passes is kept, so one slow spell on the host moves no plan.
fn median_ns(db: &Session, plans: &[(&PhysNode, &SessionVars)]) -> Vec<f64> {
    let engine = db.engine();
    let catalog = engine.catalog();
    let stats = ExecStats::default();
    let run = |&(plan, vars): &(&PhysNode, &SessionVars)| {
        let ctx = exec_ctx(db, vars, &catalog, &stats);
        let start = Instant::now();
        run_to_vec(plan, &ctx).unwrap();
        start.elapsed()
    };
    let median = |mut v: Vec<f64>| {
        v.sort_by(f64::total_cmp);
        v[v.len() / 2]
    };
    let mut passes = vec![Vec::new(); plans.len()];
    for _ in 0..PASSES {
        for (plan, times) in plans.iter().zip(&mut passes) {
            let warm = Instant::now();
            while warm.elapsed() < WARM_UP {
                run(plan);
            }
            times.push(median(
                (0..RUNS).map(|_| run(plan).as_nanos() as f64).collect(),
            ));
        }
    }
    passes.into_iter().map(median).collect()
}

/// A context for running `db`'s plans directly under `vars`, as an
/// autocommit statement would.
fn exec_ctx<'a>(
    db: &'a Session,
    vars: &'a SessionVars,
    catalog: &'a Catalog,
    stats: &'a ExecStats,
) -> ExecCtx<'a> {
    ExecCtx {
        catalog,
        pool: db.engine().pool(),
        session: vars,
        stats,
        vis: db.engine().fresh_visibility(),
    }
}

/// The work counts of one instrumented run of `plan`, as `EXPLAIN
/// ANALYZE` counts them, under `vars`.  `op_units` prices one predicate
/// evaluation.
fn count_work(db: &Session, vars: &SessionVars, plan: &PhysNode, op_units: f64) -> Run {
    let engine = db.engine();
    let catalog = engine.catalog();
    let m = mlql_kernel::obs::metrics();
    let keys_before = m.mtree_distance_computations_total.get();
    let stats = ExecStats::default();
    let ctx = exec_ctx(db, vars, &catalog, &stats);
    let (mut exec, instr) = build_instrumented(plan, &ctx).unwrap();
    drain_to_vec(exec.as_mut(), &ctx).unwrap();
    let keys = (m.mtree_distance_computations_total.get() - keys_before) as f64;
    let table_rows = |table: &str| catalog.table(table).unwrap().stats.lock().rows as f64;
    if let PhysOp::NlJoin { .. } = scan_of(plan) {
        // A join evaluates its predicate once per pair and builds a row
        // per pair that passes; every scan under it decodes its table once.
        let root = &instr.per_node[0];
        let mut rows_decoded = 0.0;
        let mut out_rows = 0.0;
        for (node, actuals) in preorder(plan).into_iter().zip(&instr.per_node) {
            match &node.op {
                PhysOp::SeqScan { table, .. } => {
                    rows_decoded += table_rows(table);
                }
                PhysOp::NlJoin { .. } => out_rows = actuals.rows.get() as f64,
                _ => {}
            }
        }
        let pairs = root.ext_op_calls.get() as f64;
        return Run {
            shape: shape(plan),
            workers: 1,
            join: true,
            pages: root.logical_reads.get() as f64,
            rows_decoded,
            op_units: pairs * op_units,
            out_rows,
            pairs,
            ..Run::default()
        };
    }
    // Single-table plans: the scan is the last node in pre-order.
    let scan = instr.per_node.last().expect("a scan node");
    let rows_out = scan.rows.get() as f64;
    let ext_calls = scan.ext_op_calls.get() as f64;
    let mut run = Run {
        shape: shape(plan),
        workers: 1,
        pages: scan.logical_reads.get() as f64,
        out_rows: rows_out,
        ..Run::default()
    };
    match scan_of(plan) {
        PhysOp::IndexScan { .. } => {
            run.index = true;
            run.mtree_keys = keys;
            // Every fetched tuple is rechecked: a ψ recheck is an operator
            // call, and a B-tree's matches all pass theirs.  Every M-tree
            // key compared is one distance, priced like a recheck.
            run.heap_fetches = if keys > 0.0 { ext_calls } else { rows_out };
            run.op_units = (run.heap_fetches + keys) * op_units;
        }
        PhysOp::SeqScan { table, workers, .. } => {
            run.rows_decoded = table_rows(table);
            run.op_units = run.rows_decoded * op_units;
            if *workers > 1 {
                run.parallel = true;
                run.workers = *workers;
                run.rounds = instr.parallel[0].rounds.get() as f64;
            }
        }
        other => unreachable!("not a single-table plan: {other:?}"),
    }
    run
}

/// The nodes of `plan` in pre-order, the order of `EXPLAIN` lines and of
/// instrumented actuals.
fn preorder(plan: &PhysNode) -> Vec<&PhysNode> {
    let mut out = vec![plan];
    match &plan.op {
        PhysOp::Filter { input, .. }
        | PhysOp::Project { input, .. }
        | PhysOp::Aggregate { input, .. }
        | PhysOp::Sort { input, .. }
        | PhysOp::Limit { input, .. } => out.extend(preorder(input)),
        PhysOp::NlJoin { outer, inner, .. } => {
            out.extend(preorder(outer));
            out.extend(preorder(inner));
        }
        PhysOp::HashJoin { left, right, .. } => {
            out.extend(preorder(left));
            out.extend(preorder(right));
        }
        _ => {}
    }
    out
}

/// The scan (or join) under a plan's single-input operators.
fn scan_of(plan: &PhysNode) -> &PhysOp {
    match &plan.op {
        PhysOp::Filter { input, .. }
        | PhysOp::Project { input, .. }
        | PhysOp::Aggregate { input, .. }
        | PhysOp::Sort { input, .. }
        | PhysOp::Limit { input, .. } => scan_of(input),
        op => op,
    }
}

/// Nanoseconds per unit of work.
struct Fit {
    page_ns: f64,
    page_decode_ns: f64,
    decode_ns: f64,
    operator_ns: f64,
    spawn_ns: f64,
    gather_ns: f64,
    tuple_ns: f64,
    fetch_ns: f64,
    /// The ψ join's time per pair beyond its scans, predicate and rows.
    pair_ns: f64,
    /// M-tree keys compared per table row: `a + b·k` at threshold k.
    fraction: (f64, f64),
}

impl Fit {
    /// Staged fits over the grid's runs, each stage on the plans that
    /// isolate its terms, given the measured page.
    fn new(page_ns: f64, grid: &[Measured]) -> Fit {
        let runs: Vec<&Run> = grid.iter().flat_map(|m| &m.runs).collect();
        // One stage: `y(run) ≈ x(run)·β` over the runs `keep` selects, in
        // relative error — each run weighted by its measured time, so a
        // microsecond probe counts as much as a 20 ms scan.
        let stage =
            |keep: fn(&Run) -> bool, x: &dyn Fn(&Run) -> Vec<f64>, y: &dyn Fn(&Run) -> f64| {
                let runs: Vec<&Run> = runs.iter().copied().filter(|r| keep(r)).collect();
                nnls(
                    &runs.iter().map(|r| x(r)).collect::<Vec<_>>(),
                    &runs.iter().map(|r| y(r)).collect::<Vec<_>>(),
                    &runs.iter().map(|r| r.ns).collect::<Vec<_>>(),
                )
            };

        // Serial scans: what reading their pages leaves, over pages and
        // rows decoded and operator units.
        let b = stage(
            |r| !r.index && !r.parallel && !r.join,
            &|r| vec![r.pages, r.rows_decoded, r.op_units],
            &|r| r.ns - page_ns * r.pages,
        );
        let (page_decode_ns, decode_ns, operator_ns) = (b[0], b[1], b[2]);
        let scan = |r: &Run| {
            (page_ns + page_decode_ns) * r.pages
                + decode_ns * r.rows_decoded
                + operator_ns * r.op_units
        };

        // Parallel scans: what the serial terms leave, the decode and
        // filter work divided, over the worker rounds they ran and the
        // rows they gathered.  Fitted on the scans that ran more than one
        // round: in a selective ψ scan one round is a fraction of a
        // percent of the time, well inside its run-to-run noise.
        let b = stage(
            |r| r.parallel && r.rounds > 1.0,
            &|r| vec![r.rounds * r.workers as f64, r.out_rows],
            &|r| r.ns - scan(r) + (scan(r) - page_ns * r.pages) * (1.0 - 1.0 / r.workers as f64),
        );
        let (spawn_ns, gather_ns) = (b[0], b[1]);

        // Index probes: heap fetches, after the operator units (an M-tree
        // key's distance is one).
        let b = stage(|r| r.index, &|r| vec![r.heap_fetches], &|r| {
            r.ns - operator_ns * r.op_units
        });
        let fetch_ns = b[0];

        // Rows built: what the cross join's scans leave, over its rows.
        let b = stage(|r| r.join && r.pairs == 0.0, &|r| vec![r.out_rows], &|r| {
            r.ns - scan(r)
        });
        let tuple_ns = b[0];
        // What the ψ join's scans, predicate and rows leave, per pair: the
        // price no constant charges.
        let psi_join = runs.iter().find(|r| r.join && r.pairs > 0.0);
        let pair_ns = psi_join.map_or(0.0, |r| (r.ns - scan(r) - tuple_ns * r.out_rows) / r.pairs);

        // The M-tree visit fraction, linear in the threshold (§3.3).
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for m in grid {
            let Some(k) = m.class.setup.first().and_then(|s| s.rsplit(' ').next()) else {
                continue;
            };
            let k: f64 = k.parse().unwrap();
            let rows = m.runs.iter().map(|r| r.rows_decoded).fold(0.0, f64::max);
            for r in m.runs.iter().filter(|r| r.mtree_keys > 0.0) {
                xs.push(vec![1.0, k]);
                ys.push(r.mtree_keys / rows);
            }
        }
        let b = nnls(&xs, &ys, &vec![1.0; ys.len()]);
        Fit {
            page_ns,
            page_decode_ns,
            decode_ns,
            operator_ns,
            spawn_ns,
            gather_ns,
            tuple_ns,
            fetch_ns,
            pair_ns,
            fraction: (b[0], b[1]),
        }
    }

    /// `(CostParams field, fitted ns, committed cost units)`.
    fn rows(&self) -> [(&'static str, f64, f64); 7] {
        let c = CostParams::default();
        [
            (
                "cpu_page_decode_cost",
                self.page_decode_ns,
                c.cpu_page_decode_cost,
            ),
            ("cpu_decode_cost", self.decode_ns, c.cpu_decode_cost),
            ("cpu_operator_cost", self.operator_ns, c.cpu_operator_cost),
            ("parallel_spawn_cost", self.spawn_ns, c.parallel_spawn_cost),
            (
                "parallel_gather_cost",
                self.gather_ns,
                c.parallel_gather_cost,
            ),
            ("cpu_tuple_cost", self.tuple_ns, c.cpu_tuple_cost),
            ("heap_fetch_cost", self.fetch_ns, c.heap_fetch_cost),
        ]
    }

    fn print(&self) {
        println!();
        println!(
            "{:<20} {:>10} {:>12} {:>12}",
            "constant", "ns", "fitted", "committed"
        );
        println!(
            "{:<20} {:>10.1} {:>12.6} {:>12.6}",
            "seq_page_cost", self.page_ns, 1.0, 1.0
        );
        for (name, ns, committed) in self.rows() {
            println!(
                "{name:<20} {ns:>10.2} {:>12.6} {committed:>12.6}",
                ns / self.page_ns
            );
        }
        println!(
            "mtree visit fraction = {:.3} + {:.3}·k",
            self.fraction.0, self.fraction.1
        );
        println!(
            "psi join: {:.1} ns per pair beyond its predicate (unpriced)",
            self.pair_ns
        );
    }

    fn json(&self) -> Value {
        let mut pairs = vec![("seq_page_ns", Value::Num(self.page_ns))];
        for (name, ns, _) in self.rows() {
            pairs.push((name, Value::Num(ns / self.page_ns)));
        }
        pairs.push(("mtree_fraction_intercept", Value::Num(self.fraction.0)));
        pairs.push(("mtree_fraction_slope", Value::Num(self.fraction.1)));
        pairs.push(("psi_join_pair_ns", Value::Num(self.pair_ns)));
        obj(pairs)
    }
}

/// Non-negative least squares `y ≈ X·β` with each row divided by its
/// `scale`: ordinary least squares on the active columns, dropping the
/// most negative coefficient until none is (dropped terms fit as 0).
fn nnls(xs: &[Vec<f64>], ys: &[f64], scale: &[f64]) -> Vec<f64> {
    let n = xs[0].len();
    let ys: Vec<f64> = ys.iter().zip(scale).map(|(y, s)| y / s).collect();
    let mut active: Vec<usize> = (0..n).collect();
    loop {
        let sub: Vec<Vec<f64>> = xs
            .iter()
            .zip(scale)
            .map(|(x, s)| active.iter().map(|&j| x[j] / s).collect())
            .collect();
        let b = lstsq(&sub, &ys);
        let worst = (0..active.len())
            .filter(|&i| b[i] < 0.0)
            .min_by(|&i, &j| b[i].total_cmp(&b[j]));
        match worst {
            Some(i) => {
                active.remove(i);
            }
            None => {
                let mut out = vec![0.0; n];
                for (i, &j) in active.iter().enumerate() {
                    out[j] = b[i];
                }
                return out;
            }
        }
    }
}

/// Ordinary least squares by the normal equations (Gauss-Jordan with
/// partial pivoting; a handful of unknowns).
fn lstsq(xs: &[Vec<f64>], ys: &[f64]) -> Vec<f64> {
    let n = xs.first().map_or(0, Vec::len);
    let mut a = vec![vec![0.0; n + 1]; n];
    for (x, y) in xs.iter().zip(ys) {
        for i in 0..n {
            for j in 0..n {
                a[i][j] += x[i] * x[j];
            }
            a[i][n] += x[i] * y;
        }
    }
    for c in 0..n {
        let p = (c..n)
            .max_by(|&i, &j| a[i][c].abs().total_cmp(&a[j][c].abs()))
            .unwrap();
        a.swap(c, p);
        let d = a[c][c];
        if d.abs() < 1e-12 {
            continue;
        }
        for v in a[c].iter_mut() {
            *v /= d;
        }
        let pivot = a[c].clone();
        for (r, row) in a.iter_mut().enumerate() {
            if r != c {
                let f = row[c];
                for (v, p) in row.iter_mut().zip(&pivot) {
                    *v -= f * p;
                }
            }
        }
    }
    a.iter().map(|row| row[n]).collect()
}
