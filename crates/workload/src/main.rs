//! `mlql-workload` — the repo's standing benchmark (see
//! `benchmarks/workload/README.md` and the root `BENCHMARK.json`).
//!
//! ```text
//! mlql-workload --workload W [--seed N] [--trace 0|1] [--seconds S]
//!               [--commit HASH] [--out-dir DIR]
//! mlql-workload manifest        # print BENCHMARK.json
//! mlql-workload selfcheck [--runs N] [--report FILE]   # A/A test
//! ```
//!
//! One process runs one workload, for a frozen number of ops
//! (`manifest.rs`).  `--seconds` is the benchmark driver's flag: it
//! passes `BENCHMARK.json`'s `run_seconds`, which selects exactly the
//! frozen counts, and any other value scales them.  Every metric is printed as
//! `name value unit`; the last line of stdout is the JSON object the
//! benchmark driver reads.  Exit status is non-zero on any failed op.

mod fig7;
mod fixture;
mod json;
mod layers;
mod lexicon;
mod manifest;
mod measure;
mod psi;
mod selfcheck;
mod trace;

use fixture::Scale;
use json::Json;
use measure::{OpRecord, Workload};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

/// The documented default seed; `run.sh --selfcheck` validates on
/// [`VALIDATION_SEED`] as well.
pub const DEFAULT_SEED: u64 = 20060403;
pub const VALIDATION_SEED: u64 = 115424;
/// Set-up is repeated and `setup_s` is the median, so one slow
/// allocation burst does not decide it.
const SETUP_REPEATS: usize = 3;

/// Untimed warm-up rounds before a timed phase of `timed_rounds`: 5 % of
/// it, in whole rounds (at least the one that fills the plan cache).
fn warm_up_rounds(timed_rounds: u64) -> u64 {
    (timed_rounds / 20).max(1)
}

pub struct Args {
    pub workload: &'static manifest::WorkloadDef,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub commit: String,
    pub out_dir: PathBuf,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = String::new();
    let mut args = Args {
        workload: &manifest::WORKLOADS[0],
        seed: DEFAULT_SEED,
        seconds: manifest::RUN_SECONDS as f64,
        trace: false,
        commit: "unknown".into(),
        out_dir: PathBuf::from("benchmarks/workload/out"),
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .cloned()
        };
        let bad = |v: &str| format!("bad value {v:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = value()?,
            "--seed" => {
                let v = value()?;
                args.seed = v.parse().map_err(|_| bad(&v))?;
            }
            "--seconds" => {
                let v = value()?;
                args.seconds = v.parse().map_err(|_| bad(&v))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err(bad(&v));
                }
            }
            "--trace" => {
                let v = value()?;
                args.trace = match v.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&v)),
                };
            }
            "--commit" => args.commit = value()?,
            "--out-dir" => args.out_dir = PathBuf::from(value()?),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    args.workload = manifest::WorkloadDef::named(&workload).ok_or_else(|| {
        let names: Vec<_> = manifest::WORKLOADS.iter().map(|w| w.name).collect();
        format!("--workload must be one of {names:?}, got {workload:?}")
    })?;
    Ok(args)
}

/// A built workload plus what the result file stamps about it.
pub struct Built {
    pub workload: Box<dyn Workload>,
    /// `EXPLAIN` text + plan digest per statement class.
    pub plans: Json,
    /// Effective engine settings of the workload's session.
    pub engine: Json,
}

fn engine_stamp(session: &mlql_kernel::engine::Session) -> Json {
    let wal = session.engine().wal_sync_mode();
    Json::obj(vec![
        (
            "parallel_workers",
            Json::Int(mlql_kernel::exec::effective_workers(session.vars()) as i64),
        ),
        (
            "batch_size",
            Json::Int(mlql_kernel::exec::effective_batch_size(session.vars()) as i64),
        ),
        (
            "wal_sync_mode",
            Json::str(wal.map_or("none (in-memory)", |m| m.as_str())),
        ),
    ])
}

/// Build the named workload's full-size fixture.
fn build(name: &str, seed: u64, scratch: &Path) -> mlql_kernel::Result<Built> {
    Ok(match name {
        "psi_scan" | "psi_probe" => {
            let w = psi::Psi::build(psi::Kind::of(name), seed, Scale::Full)?;
            Built {
                plans: w.stamp(),
                engine: engine_stamp(&w.session),
                workload: Box::new(w),
            }
        }
        "fig7_join" => {
            let w = fig7::Fig7::build(seed, Scale::Full)?;
            Built {
                plans: w.stamp(),
                engine: engine_stamp(&w.session),
                workload: Box::new(w),
            }
        }
        "lexicon_edit" => {
            let w = lexicon::Lexicon::build(seed, Scale::Full, scratch, 2)?;
            Built {
                plans: w.stamp(),
                engine: engine_stamp(&w.clients[0].session),
                workload: Box::new(w),
            }
        }
        other => unreachable!("workload {other:?} passed validation"),
    })
}

/// One measured value, in print order.
pub struct Reading {
    pub name: String,
    pub value: f64,
    pub unit: String,
}

pub fn reading(name: &str, value: f64, unit: &str) -> Reading {
    Reading {
        name: name.into(),
        value,
        unit: unit.into(),
    }
}

/// Everything a run hands to the reporter.
pub struct Outcome {
    /// The gated metrics for this mode, in manifest order.
    pub metrics: Vec<Reading>,
    /// Printed and filed, not part of the driver's JSON line.
    pub extras: Vec<Reading>,
    /// Printed as `# ...` lines under the metrics.
    pub notes: Vec<String>,
    pub attempted: usize,
    pub failures: Vec<String>,
    /// Extra sections of the result file.
    pub detail: Vec<(String, Json)>,
}

/// Build the fixture and run its `warm_up` rounds; returns the wall time
/// of both — one `setup_s` sample.
fn timed_setup(
    args: &Args,
    scratch: &Path,
    warm_up: u64,
) -> mlql_kernel::Result<(Built, Vec<OpRecord>, f64)> {
    let start = Instant::now();
    let mut built = build(args.workload.name, args.seed, scratch)?;
    let mut warm = Vec::new();
    for round in 0..warm_up {
        built.workload.round(round, &mut warm);
    }
    Ok((built, warm, start.elapsed().as_secs_f64()))
}

fn run_untraced(args: &Args, scratch: &Path) -> mlql_kernel::Result<Outcome> {
    let segment_rounds = args.workload.segment_rounds_for(args.seconds);
    let warm_up = warm_up_rounds(manifest::SEGMENTS * segment_rounds);
    // Set-up = generate + load + index build + ANALYZE + warm-up.
    let (mut built, warm, first_setup) = timed_setup(args, scratch, warm_up)?;
    let timed = measure::run_timed(built.workload.as_mut(), warm_up, segment_rounds);
    // Read before the oracle and the repeated set-ups allocate: the peak
    // is that of one fixture and its timed phase.
    let rss = measure::rss_peak_mb();

    let mut log = warm;
    let (warm_ops, timed_ops) = (log.len(), timed.log.len());
    log.extend(timed.log.iter().cloned());
    let failures = built.workload.verify(&log);
    let Built { plans, engine, .. } = built;

    // `setup_s` is the median of repeated set-ups.  The repeats run after
    // the measurement so that their leftovers (freed arenas, exited pool
    // threads) cannot reach the timed phase or the memory peak.
    let mut setup_s = vec![first_setup];
    for _ in 1..SETUP_REPEATS {
        let (repeat, _warm, secs) = timed_setup(args, scratch, warm_up)?;
        setup_s.push(secs);
        drop(repeat);
    }

    let metrics = manifest::END_TO_END
        .iter()
        .map(|def| {
            let value = match def.name {
                "setup_s" => measure::median(&setup_s),
                "ops_per_s" => timed.ops_per_s(),
                "lat_p50_ms" => timed.lat_p50_ms(),
                "lat_p90_ms" => timed.lat_p90_ms(),
                "cpu_ms_per_op" => timed.cpu_ms_per_op(),
                "rss_peak_mb" => rss,
                other => unreachable!("end-to-end metric {other} has no reading"),
            };
            reading(def.name, value, def.unit)
        })
        .collect();
    // Percentiles over every timed op of the phase: printed, not gated
    // (p99 has too few samples beyond it; see the README for the others).
    let extras = manifest::PHASE_PERCENTILES
        .iter()
        .map(|(name, p)| reading(name, timed.phase_lat_ms(*p), "ms"))
        .collect();
    let segments = Json::Arr(
        timed
            .segments
            .iter()
            .map(|s| {
                Json::obj(vec![
                    ("ops", Json::Int(s.ops as i64)),
                    ("wall_s", Json::Num(s.wall_s)),
                    ("cpu_s", Json::Num(s.cpu_s)),
                    ("p50_ms", Json::Num(s.p50_ms)),
                    ("p90_ms", Json::Num(s.p90_ms)),
                ])
            })
            .collect(),
    );
    let detail = vec![
        ("plans".to_string(), plans),
        ("engine".to_string(), engine),
        (
            "op_counts".to_string(),
            Json::obj(vec![
                ("warm_up", Json::Int(warm_ops as i64)),
                ("timed", Json::Int(timed_ops as i64)),
                (
                    "timed_rounds",
                    Json::Int((manifest::SEGMENTS * segment_rounds) as i64),
                ),
            ]),
        ),
        (
            "setup_s_repeats".to_string(),
            Json::Arr(setup_s.iter().map(|s| Json::Num(*s)).collect()),
        ),
        ("segments".to_string(), segments),
    ];
    Ok(Outcome {
        metrics,
        extras,
        notes: Vec::new(),
        attempted: log.len(),
        failures,
        detail,
    })
}

/// Non-zero counters and gauges of the engine's metrics registry.
fn registry_snapshot() -> Json {
    Json::Obj(
        mlql_kernel::obs::global()
            .samples()
            .into_iter()
            .filter(|(_, v)| *v != 0.0)
            .map(|(k, v)| (k, Json::Num(v)))
            .collect(),
    )
}

fn report(args: &Args, outcome: &Outcome) -> std::io::Result<()> {
    for r in outcome.metrics.iter().chain(&outcome.extras) {
        println!("{} {} {}", r.name, r.value, r.unit);
    }
    for note in &outcome.notes {
        println!("# {note}");
    }
    println!("attempted {} count", outcome.attempted);
    println!("failed {} count", outcome.failures.len());
    for f in outcome.failures.iter().take(20) {
        println!(
            "FAILED workload={} seed={} {f}",
            args.workload.name, args.seed
        );
    }
    let metrics = Json::Obj(
        outcome
            .metrics
            .iter()
            .map(|r| {
                (
                    r.name.clone(),
                    Json::obj(vec![
                        ("value", Json::Num(r.value)),
                        ("unit", Json::str(&r.unit)),
                    ]),
                )
            })
            .collect(),
    );
    let summary = vec![
        ("correct", Json::Bool(outcome.failures.is_empty())),
        ("attempted", Json::Int(outcome.attempted as i64)),
        ("failed", Json::Int(outcome.failures.len() as i64)),
        ("metrics", metrics),
    ];

    let mut file = vec![
        ("workload", Json::str(args.workload.name)),
        ("seed", Json::Int(args.seed as i64)),
        ("seconds", Json::Num(args.seconds)),
        ("trace", Json::Bool(args.trace)),
        ("commit", Json::str(&args.commit)),
        (
            "nproc",
            Json::Int(std::thread::available_parallelism().map_or(0, |n| n.get() as i64)),
        ),
    ];
    file.extend(summary.iter().cloned());
    let mut file: Vec<(String, Json)> = file.into_iter().map(|(k, v)| (k.to_string(), v)).collect();
    file.push((
        "extras".into(),
        Json::Obj(
            outcome
                .extras
                .iter()
                .map(|r| (format!("{} [{}]", r.name, r.unit), Json::Num(r.value)))
                .collect(),
        ),
    ));
    file.extend(outcome.detail.iter().cloned());
    file.push((
        "failures".into(),
        Json::Arr(outcome.failures.iter().map(Json::str).collect()),
    ));
    file.push(("registry".into(), registry_snapshot()));
    std::fs::create_dir_all(&args.out_dir)?;
    let suffix = if args.trace { "-trace" } else { "" };
    std::fs::write(
        args.out_dir
            .join(format!("result-{}{suffix}.json", args.workload.name)),
        Json::Obj(file).render_pretty(),
    )?;

    // Last line of stdout: what the benchmark driver parses.
    println!("{}", Json::obj(summary).render());
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("manifest") {
        print!("{}", manifest::benchmark_json());
        return ExitCode::SUCCESS;
    }
    if argv.first().map(String::as_str) == Some("selfcheck") {
        return selfcheck::main(&argv[1..]);
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("mlql-workload: {e}");
            return ExitCode::from(2);
        }
    };
    let scratch = args.out_dir.join("scratch");
    let run = if args.trace {
        trace::run_traced(&args, &scratch)
    } else {
        run_untraced(&args, &scratch)
    };
    let outcome = match run {
        Ok(o) => o,
        Err(e) => {
            eprintln!("mlql-workload: {} failed to run: {e}", args.workload.name);
            return ExitCode::from(1);
        }
    };
    if let Err(e) = report(&args, &outcome) {
        eprintln!("mlql-workload: cannot write results: {e}");
        return ExitCode::from(1);
    }
    if outcome.failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
