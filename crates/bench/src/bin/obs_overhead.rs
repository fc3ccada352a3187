//! Tracing-overhead guard: the observability layer (query contexts,
//! activity slots, wait try-lock fast paths, flight recording) must stay
//! within noise of the uninstrumented engine on the Figure 6 ψ scan.
//!
//! Method: run the same CPU-heavy LexEQUAL sequential scan with
//! observability enabled (the default, `slow_query_ms = 0` so every
//! statement is flight-recorded — the worst case) and disabled
//! (`obs::set_enabled(false)`), min-of-N each, interleaved A/B so slow
//! drift hits both arms equally.  The report records the ratio; the
//! committed baseline plus `scripts/bench_check.sh` gate regressions.
//! The enabled arm also feeds the per-digest plan store (est-vs-actual
//! recording on every execution), so the measured ratio covers that
//! hot-path cost too; the run asserts the store actually populated.
//!
//! Targets: `overhead_target_met` when the ratio is ≤ 1.03 (the
//! acceptance bar); the run itself hard-fails above 1.10 so CI catches a
//! hot-path regression even before the baseline diff.
//!
//! Run: `cargo run --release -p mlql-bench --bin obs_overhead`
//! Scale with `MLQL_SCALE`; pin output with `MLQL_BENCH_DIR`.

use mlql_bench::report::Report;
use mlql_bench::{load_names_table, mural_db, scale, timed};
use mlql_kernel::{obs, Session};

/// Interleaved A/B rounds; each arm keeps its per-round minimum.
const ROUNDS: usize = 7;

/// ψ probes per timed round (amortizes per-statement noise).
const PROBES: &[(&str, &str)] = &[
    ("Nehru", "English"),
    ("Gandhi", "English"),
    ("Miller", "English"),
    ("Krishnan", "English"),
];

fn scan_secs(db: &mut Session) -> f64 {
    let (_, secs) = timed(|| {
        for (name, lang) in PROBES {
            db.execute(&format!(
                "SELECT count(*) FROM names WHERE name LEXEQUAL unitext('{name}','{lang}')"
            ))
            .unwrap();
        }
    });
    secs / PROBES.len() as f64
}

fn main() {
    let n_names = 2000 * scale();
    println!("# Observability overhead guard: instrumented vs bare ψ scan");
    println!("# names table: {n_names} rows; scale {}", scale());

    let (mut db, mural) = mural_db();
    db.execute("SET lexequal.threshold = 3").unwrap();
    // Serial scan: the per-row hot path is where instrumentation
    // overhead would show, not in worker scheduling noise.
    db.execute("SET parallel_workers = 1").unwrap();
    // Record every statement — the flight recorder's worst case.
    db.execute("SET slow_query_ms = 0").unwrap();
    load_names_table(&mut db, &mural, "names", n_names, 1).unwrap();

    // Warm both paths (plan cache, buffer pool, phoneme cache).
    obs::set_enabled(true);
    scan_secs(&mut db);
    obs::set_enabled(false);
    scan_secs(&mut db);

    let mut enabled = f64::INFINITY;
    let mut disabled = f64::INFINITY;
    for _ in 0..ROUNDS {
        obs::set_enabled(true);
        enabled = enabled.min(scan_secs(&mut db));
        obs::set_enabled(false);
        disabled = disabled.min(scan_secs(&mut db));
    }
    obs::set_enabled(true);

    // The timed enabled rounds must have exercised plan-store recording
    // (a silently skipped record would make the ratio meaningless for
    // that path).
    let plan_entries = obs::planstore::snapshot(Some(db.engine().engine_id()));
    assert!(
        !plan_entries.is_empty(),
        "enabled arm must populate the plan store"
    );
    let plan_store_calls: u64 = plan_entries.iter().map(|e| e.calls).sum();

    let ratio = enabled / disabled.max(1e-9);
    let target_met = ratio <= 1.03;
    println!();
    println!("ψ scan, observability enabled:  {:.3} ms", enabled * 1e3);
    println!("ψ scan, observability disabled: {:.3} ms", disabled * 1e3);
    println!("overhead ratio: {ratio:.4} (target ≤ 1.03, hard limit 1.10)");
    if !target_met {
        println!("NOTE: ratio above the 1.03 target — check recent hot-path changes.");
    }

    let mut rep = Report::new("obs");
    rep.int("names_rows", n_names as i64)
        .num("enabled_ms", enabled * 1e3)
        .num("disabled_ms", disabled * 1e3)
        .num("overhead_ratio", ratio)
        .int("plan_store_plans", plan_entries.len() as i64)
        .int("plan_store_calls", plan_store_calls as i64)
        .flag("overhead_target_met", target_met);
    rep.write_and_note();

    // Hard gate: a >10% regression fails the run outright (the 1.03
    // acceptance target is asserted against min-of-7 with CI-jitter
    // margin by the baseline diff in bench_check.sh).
    assert!(
        ratio <= 1.10,
        "observability overhead {ratio:.4} exceeds the 1.10 hard limit"
    );
}
