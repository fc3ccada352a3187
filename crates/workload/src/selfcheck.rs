//! `mlql-workload selfcheck`: the A/A test that proves the bounds.
//!
//! Runs the whole suite `2 x runs` times with this same binary — one
//! child process per workload run, sets A and B interleaved so slow
//! drift of the host hits both — each run index on its own seed, the
//! way the benchmark driver samples.  For every workload and end-to-end
//! metric it reports both sets' medians, the gap between them (positive
//! = set B worse) and each set's quartile spread (IQR / median, with
//! Python's `statistics.quantiles(n=4)` cut points), and fails when a
//! gap exceeds the metric's bound, when a spread other than `setup_s`'s
//! does, or when any run had a failed op.  The report is committed as
//! `benchmarks/workload/baseline.json`.

use crate::json::Json;
use crate::manifest::{MetricDef, END_TO_END, PHASE_PERCENTILES, WORKLOADS};
use crate::measure::median;
use crate::{DEFAULT_SEED, VALIDATION_SEED};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, ExitCode};

/// Seed of run `i`: the documented default, the validation seed, then
/// the default's successors.
fn seed_of(i: usize) -> u64 {
    match i {
        0 => DEFAULT_SEED,
        1 => VALIDATION_SEED,
        _ => DEFAULT_SEED + i as u64 - 1,
    }
}

/// Quartile cut points as Python's `statistics.quantiles(values, n=4)`
/// (the default "exclusive" method) computes them; needs >= 2 values.
fn quartiles(values: &[f64]) -> [f64; 3] {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let m = v.len();
    let cut = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    [cut(1), cut(2), cut(3)]
}

/// IQR as a share of the median.
fn spread(values: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(values);
    (q3 - q1) / q2
}

/// How much worse `b` is than `a`, as a share of `a` (negative = better).
fn worse_by(def: &MetricDef, a: f64, b: f64) -> f64 {
    if def.better == "lower" {
        (b - a) / a
    } else {
        (a - b) / a
    }
}

struct RunResult {
    metrics: BTreeMap<String, f64>,
    failed: u64,
}

fn run_child(workload: &str, seed: u64, out_dir: &str) -> Result<RunResult, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args(["--workload", workload, "--trace", "0"])
        .args(["--seed", &seed.to_string()])
        .args(["--out-dir", out_dir])
        .output()
        .map_err(|e| format!("cannot start child: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let mut r = RunResult {
        metrics: BTreeMap::new(),
        failed: 0,
    };
    for line in stdout.lines() {
        let mut f = line.split_whitespace();
        if let (Some(name), Some(value), Some(_unit), None) =
            (f.next(), f.next(), f.next(), f.next())
        {
            if let Ok(v) = value.parse::<f64>() {
                if name == "failed" {
                    r.failed = v as u64;
                } else {
                    r.metrics.insert(name.to_string(), v);
                }
            }
        }
    }
    if r.metrics.is_empty() {
        return Err(format!(
            "{workload} seed {seed} printed no metrics (exit {:?}): {}",
            out.status.code(),
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    Ok(r)
}

pub fn main(argv: &[String]) -> ExitCode {
    let mut runs = 5usize;
    let mut report = PathBuf::from("benchmarks/workload/out/selfcheck.json");
    let mut out_dir = "benchmarks/workload/out".to_string();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().cloned().unwrap_or_default();
        match flag.as_str() {
            "--runs" => runs = value.parse().unwrap_or(0),
            "--report" => report = PathBuf::from(value),
            "--out-dir" => out_dir = value,
            other => {
                eprintln!("mlql-workload selfcheck: unknown argument {other:?}");
                return ExitCode::from(2);
            }
        }
    }
    if runs < 5 {
        eprintln!("mlql-workload selfcheck: needs --runs >= 5");
        return ExitCode::from(2);
    }

    // values[workload][metric][set] = one value per run
    let mut values: BTreeMap<&str, BTreeMap<&str, [Vec<f64>; 2]>> = BTreeMap::new();
    let mut problems: Vec<String> = Vec::new();
    for i in 0..runs {
        for set in 0..2 {
            for w in &WORKLOADS {
                let seed = seed_of(i);
                eprintln!(
                    "selfcheck: run {}/{runs} set {} {} seed {seed}",
                    i + 1,
                    ["A", "B"][set],
                    w.name
                );
                match run_child(w.name, seed, &out_dir) {
                    Ok(r) => {
                        if r.failed > 0 {
                            problems
                                .push(format!("{} seed {seed}: {} failed ops", w.name, r.failed));
                        }
                        let gated = END_TO_END.iter().map(|d| d.name);
                        for name in gated.chain(PHASE_PERCENTILES.iter().map(|p| p.0)) {
                            match r.metrics.get(name) {
                                Some(v) => {
                                    values.entry(w.name).or_default().entry(name).or_default()[set]
                                        .push(*v)
                                }
                                None => problems.push(format!("{} seed {seed}: no {name}", w.name)),
                            }
                        }
                    }
                    Err(e) => problems.push(e),
                }
            }
        }
    }

    let mut rows = Vec::new();
    for w in &WORKLOADS {
        for def in &END_TO_END {
            let Some([a, b]) = values.get(w.name).and_then(|m| m.get(def.name)) else {
                continue;
            };
            if a.len() < runs || b.len() < runs {
                continue;
            }
            let (ma, mb) = (median(a), median(b));
            let gap = worse_by(def, ma, mb);
            let (sa, sb) = (spread(a), spread(b));
            let widest = sa.max(sb);
            println!(
                "{} {}: A {ma} B {mb} {} gap {:+.4} spread A {sa:.4} B {sb:.4} bound {}",
                w.name, def.name, def.unit, gap, def.bound
            );
            if gap.abs() > def.bound {
                problems.push(format!(
                    "{} {}: sets differ by {:.4}, bound {}",
                    w.name, def.name, gap, def.bound
                ));
            }
            if def.name != "setup_s" && widest > def.bound {
                problems.push(format!(
                    "{} {}: spread {widest:.4} exceeds bound {}",
                    w.name, def.name, def.bound
                ));
            } else if def.name != "setup_s" && widest > def.bound / 3.0 {
                println!("  note: spread {widest:.4} is above a third of the bound");
            }
            rows.push(Json::obj(vec![
                ("workload", Json::str(w.name)),
                ("metric", Json::str(def.name)),
                ("unit", Json::str(def.unit)),
                ("bound", Json::Num(def.bound)),
                ("median_a", Json::Num(ma)),
                ("median_b", Json::Num(mb)),
                ("b_worse_by", Json::Num(gap)),
                ("spread_a", Json::Num(sa)),
                ("spread_b", Json::Num(sb)),
                (
                    "values_a",
                    Json::Arr(a.iter().map(|v| Json::Num(*v)).collect()),
                ),
                (
                    "values_b",
                    Json::Arr(b.iter().map(|v| Json::Num(*v)).collect()),
                ),
            ]));
        }
    }
    // The whole-phase percentiles of the same runs, for comparison with
    // the gated segment medians: spreads only, nothing fails on them.
    let mut ungated = Vec::new();
    for w in &WORKLOADS {
        for (name, _) in &PHASE_PERCENTILES {
            let Some([a, b]) = values.get(w.name).and_then(|m| m.get(name)) else {
                continue;
            };
            if a.len() < runs || b.len() < runs {
                continue;
            }
            let (sa, sb) = (spread(a), spread(b));
            println!("{} {name} (not gated): spread A {sa:.4} B {sb:.4}", w.name);
            ungated.push(Json::obj(vec![
                ("workload", Json::str(w.name)),
                ("metric", Json::str(*name)),
                ("median_a", Json::Num(median(a))),
                ("median_b", Json::Num(median(b))),
                ("spread_a", Json::Num(sa)),
                ("spread_b", Json::Num(sb)),
            ]));
        }
    }
    let doc = Json::obj(vec![
        ("runs_per_set", Json::Int(runs as i64)),
        (
            "seeds",
            Json::Arr((0..runs).map(|i| Json::Int(seed_of(i) as i64)).collect()),
        ),
        (
            "nproc",
            Json::Int(std::thread::available_parallelism().map_or(0, |n| n.get() as i64)),
        ),
        ("pass", Json::Bool(problems.is_empty())),
        (
            "problems",
            Json::Arr(problems.iter().map(Json::str).collect()),
        ),
        ("results", Json::Arr(rows)),
        ("ungated_phase_percentiles", Json::Arr(ungated)),
    ]);
    if let Some(dir) = report.parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    if let Err(e) = std::fs::write(&report, doc.render_pretty()) {
        eprintln!(
            "mlql-workload selfcheck: cannot write {}: {e}",
            report.display()
        );
        return ExitCode::from(1);
    }
    for p in &problems {
        println!("SELFCHECK FAILED: {p}");
    }
    if problems.is_empty() {
        println!("selfcheck passed; report in {}", report.display());
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 4, 1, 5], n=4) == [1.0, 3.0, 4.5]
        assert_eq!(quartiles(&[3.0, 1.0, 4.0, 1.0, 5.0]), [1.0, 3.0, 4.5]);
        assert_eq!(quartiles(&[2.0, 4.0]), [1.5, 3.0, 4.5]);
    }

    #[test]
    fn worse_by_follows_direction() {
        let lower = &END_TO_END[0];
        let higher = &END_TO_END[1];
        assert_eq!(lower.better, "lower");
        assert_eq!(higher.better, "higher");
        assert!((worse_by(lower, 10.0, 11.0) - 0.1).abs() < 1e-12);
        assert!((worse_by(higher, 10.0, 9.0) - 0.1).abs() < 1e-12);
        assert!(worse_by(higher, 10.0, 11.0) < 0.0);
    }
}
