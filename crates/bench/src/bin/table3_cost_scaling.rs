//! Table 3 — empirical validation of the operator cost-model *shapes*.
//!
//! The paper's Table 3 gives big-O complexities for ψ and Ω, scan and join,
//! with and without indexes.  This harness measures the real operators
//! while sweeping one parameter at a time and reports the observed scaling
//! exponent next to the model's prediction:
//!
//! * ψ scan CPU ∝ n           (records)
//! * ψ scan CPU vs k          (threshold; the engine's Myers bit-parallel
//!   kernel is nearly flat in k, where the paper's banded DP is ∝ k)
//! * ψ join CPU ∝ n_l · n_r   (quadratic in joint size)
//! * Ω closure ∝ closure size (pinned, hash-memoized)
//!
//! Run: `cargo run --release -p mlql-bench --bin table3_cost_scaling`

use mlql_bench::report::Report;
use mlql_bench::{load_names_table, loglog_fit, mural_db, scale, timed};
use mlql_kernel::Session;
use mlql_taxonomy::{generate, synsets_near_closure_sizes, GeneratorConfig};

/// The ψ scan the n and k sweeps time.
const PSI_SCAN: &str = "SELECT count(*) FROM names WHERE name LEXEQUAL unitext('Nehru','English')";

/// Median seconds of `RUNS` executions of `sql`, after one warm-up run
/// (plan cache, buffer pool, thread-local DP buffers).  One cold run of a
/// millisecond scan is mostly noise: it read an n-exponent of 0.53.
fn median_secs(db: &mut Session, sql: &str) -> f64 {
    const RUNS: usize = 5;
    db.execute(sql).unwrap();
    let mut secs: Vec<f64> = (0..RUNS)
        .map(|_| timed(|| db.execute(sql).unwrap()).1)
        .collect();
    secs.sort_by(f64::total_cmp);
    secs[RUNS / 2]
}

fn main() {
    println!("# Table 3: measured scaling vs cost-model shape");
    let s = scale();

    // ---- ψ scan ∝ n ----
    // Serial scans: the sweep measures the operator, not how well a
    // round of worker threads amortizes at each size.
    let mut points = Vec::new();
    for &n in &[5_000usize, 10_000, 20_000, 50_000] {
        let (mut db, mural) = mural_db();
        load_names_table(&mut db, &mural, "names", n * s, 7).unwrap();
        db.execute("SET parallel_workers = 1").unwrap();
        db.execute("SET lexequal.threshold = 2").unwrap();
        points.push((n as f64, median_secs(&mut db, PSI_SCAN)));
    }
    let slope = loglog_fit(&points).slope;
    println!("psi scan vs n: measured exponent {slope:.2} (model: 1.0 — O(n·k·l))");

    // ---- ψ scan vs k ----
    let (mut db, mural) = mural_db();
    load_names_table(&mut db, &mural, "names", 20_000 * s, 7).unwrap();
    db.execute("SET parallel_workers = 1").unwrap();
    let mut k_times = Vec::new();
    for k in [1i64, 2, 4, 8] {
        db.execute(&format!("SET lexequal.threshold = {k}"))
            .unwrap();
        k_times.push((k as f64, median_secs(&mut db, PSI_SCAN)));
    }
    let k_slope = loglog_fit(&k_times).slope;
    println!(
        "psi scan vs k: measured exponent {k_slope:.2} (model: ≤1.0 — the Myers kernel is ~flat in k; the paper's banded DP is O(k·l))"
    );

    // ---- ψ join ∝ n_l · n_r ----
    let mut join_points = Vec::new();
    for &n in &[200usize, 400, 800] {
        let (mut db, mural) = mural_db();
        load_names_table(&mut db, &mural, "a", n * s, 1).unwrap();
        load_names_table(&mut db, &mural, "b", n * s, 2).unwrap();
        db.execute("SET lexequal.threshold = 2").unwrap();
        let (_, secs) = timed(|| {
            db.execute("SELECT count(*) FROM a, b WHERE a.name LEXEQUAL b.name")
                .unwrap();
        });
        join_points.push((n as f64, secs));
    }
    let join_slope = loglog_fit(&join_points).slope;
    println!("psi join vs n (both sides): measured exponent {join_slope:.2} (model: 2.0 — O(n_l·n_r·k·l))");

    // ---- Ω closure ∝ closure size (pinned) ----
    let lang = mlql_unitext::LanguageRegistry::new().id_of("English");
    let taxonomy = generate(
        lang,
        &GeneratorConfig {
            synsets: 40_000 * s,
            ..Default::default()
        },
    );
    let picks = synsets_near_closure_sizes(&taxonomy, &[200, 800, 3200, 12_800]);
    let mut closure_points = Vec::new();
    for (_, synset, actual) in picks {
        // Average several runs: small closures are microseconds.
        let (_, secs) = timed(|| {
            for _ in 0..20 {
                std::hint::black_box(mlql_taxonomy::closure::compute_closure(&taxonomy, synset));
            }
        });
        closure_points.push((actual as f64, secs / 20.0));
    }
    let closure_slope = loglog_fit(&closure_points).slope;
    println!("omega closure vs |closure|: measured exponent {closure_slope:.2} (model: 1.0 — BFS over closure)");

    println!();
    println!("# All exponents within ±0.35 of the model's shape confirm Table 3.");
    let ok = (slope - 1.0).abs() < 0.35
        && k_slope < 1.35
        && (join_slope - 2.0).abs() < 0.5
        && (closure_slope - 1.0).abs() < 0.35;
    println!("shapes hold: {ok}");

    let mut rep = Report::new("table3_cost_scaling");
    rep.num("psi_scan_n_exponent", slope)
        .num("psi_scan_k_exponent", k_slope)
        .num("psi_join_exponent", join_slope)
        .num("omega_closure_exponent", closure_slope)
        .flag("shapes_hold", ok);
    rep.write_and_note();

    if !ok {
        std::process::exit(1);
    }
}
