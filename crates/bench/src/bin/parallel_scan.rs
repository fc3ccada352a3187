//! Morsel-driven parallel scan: serial vs N-worker speedup curves on the
//! Table 4 ψ seq-scan workload, plus an Ω scan sharing the sharded
//! closure cache across workers.
//!
//! The ψ predicate is CPU-heavy (phoneme conversion + banded edit
//! distance per row, Table 3), which is exactly the regime where
//! morsel-driven parallelism pays: the planner's cost model divides the
//! CPU term across workers at 85% efficiency, so on a machine with ≥ 4
//! cores the 4-worker scan should run ≥ 2x faster than serial.  The
//! report records `cpu_parallelism` so a run on fewer cores (where the
//! workers timeshare one core and the curve flattens to ~1x) is
//! interpretable rather than alarming.
//!
//! Run: `cargo run --release -p mlql-bench --bin parallel_scan`
//! Scale with `MLQL_SCALE`; pin output with `MLQL_BENCH_DIR`.

use mlql_bench::report::Report;
use mlql_bench::{load_names_table, mural_db, scale, timed};
use mlql_kernel::Session;

/// Probe names of the Table 4 scan measurements (averaged).
const PROBES: &[(&str, &str)] = &[
    ("Nehru", "English"),
    ("Gandhi", "English"),
    ("Miller", "English"),
    ("Krishnan", "English"),
];

/// Measurement repetitions; the minimum is reported (steady-state, least
/// scheduler noise).
const REPS: usize = 3;

fn psi_scan_secs(db: &mut Session, workers: usize) -> f64 {
    db.execute(&format!("SET parallel_workers = {workers}"))
        .unwrap();
    let mut best = f64::INFINITY;
    for _ in 0..REPS {
        let (_, secs) = timed(|| {
            for (name, lang) in PROBES {
                db.execute(&format!(
                    "SELECT count(*) FROM names WHERE name LEXEQUAL unitext('{name}','{lang}')"
                ))
                .unwrap();
            }
        });
        best = best.min(secs / PROBES.len() as f64);
    }
    best
}

fn omega_scan_secs(db: &mut Session, workers: usize) -> f64 {
    db.execute(&format!("SET parallel_workers = {workers}"))
        .unwrap();
    let mut best = f64::INFINITY;
    for _ in 0..REPS {
        let (_, secs) = timed(|| {
            db.execute(
                "SELECT count(*) FROM docs WHERE category SEMEQUAL unitext('History','English')",
            )
            .unwrap();
        });
        best = best.min(secs);
    }
    best
}

fn main() {
    let n_names = 2000 * scale();
    println!("# Parallel morsel-driven scan: serial vs N workers");
    println!(
        "# names table: {n_names} rows; ψ threshold 3; scale {}",
        scale()
    );

    let (mut db, mural) = mural_db();
    db.execute("SET lexequal.threshold = 3").unwrap();
    load_names_table(&mut db, &mural, "names", n_names, 1).unwrap();

    // Ω workload: documents categorized by taxonomy word forms.
    db.execute("CREATE TABLE docs (category UNITEXT)").unwrap();
    let cats = ["History", "Biography", "Fiction", "Novel", "Science"];
    for i in 0..n_names {
        let w = cats[i % cats.len()];
        db.execute(&format!(
            "INSERT INTO docs VALUES (unitext('{w}','English'))"
        ))
        .unwrap();
    }
    db.execute("ANALYZE docs").unwrap();

    // The 4-worker ψ plan must actually be parallel, or the curve below
    // silently measures serial-vs-serial.
    db.execute("SET parallel_workers = 4").unwrap();
    let plan = db
        .execute(
            "EXPLAIN SELECT count(*) FROM names WHERE name LEXEQUAL unitext('Nehru','English')",
        )
        .unwrap()
        .explain
        .expect("explain text");
    assert!(
        plan.contains("Parallel Seq Scan on names"),
        "expected a parallel plan at 4 workers:\n{plan}"
    );

    let serial = psi_scan_secs(&mut db, 1);
    let two = psi_scan_secs(&mut db, 2);
    let four = psi_scan_secs(&mut db, 4);
    let omega_serial = omega_scan_secs(&mut db, 1);
    let omega_four = omega_scan_secs(&mut db, 4);

    let speedup_2 = serial / two.max(1e-9);
    let speedup_4 = serial / four.max(1e-9);
    let omega_speedup_4 = omega_serial / omega_four.max(1e-9);
    let cpus = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);

    println!();
    println!("| workers | ψ scan (ms) | speedup |");
    println!("|---------|-------------|---------|");
    println!("|       1 | {:>11.3} |    1.00 |", serial * 1e3);
    println!("|       2 | {:>11.3} | {speedup_2:>7.2} |", two * 1e3);
    println!("|       4 | {:>11.3} | {speedup_4:>7.2} |", four * 1e3);
    println!();
    println!(
        "Ω scan: serial {:.3} ms, 4 workers {:.3} ms ({omega_speedup_4:.2}x, sharded closure cache)",
        omega_serial * 1e3,
        omega_four * 1e3
    );
    println!("machine cpu parallelism: {cpus}");
    if cpus < 4 {
        println!(
            "NOTE: {cpus} core(s) available — 4 workers timeshare, the speedup \
             curve flattens; run on ≥ 4 cores for the ≥ 2x ψ figure."
        );
    }

    let mut rep = Report::new("parallel");
    rep.int("names_rows", n_names as i64)
        .int("cpu_parallelism", cpus as i64)
        .num("psi_serial_ms", serial * 1e3)
        .num("psi_workers2_ms", two * 1e3)
        .num("psi_workers4_ms", four * 1e3)
        .num("psi_speedup_2", speedup_2)
        .num("psi_speedup_4", speedup_4)
        .num("omega_serial_ms", omega_serial * 1e3)
        .num("omega_workers4_ms", omega_four * 1e3)
        .num("omega_speedup_4", omega_speedup_4);
    rep.write_and_note();
}
