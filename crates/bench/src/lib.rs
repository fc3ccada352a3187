//! Shared helpers for the benchmark harnesses (see DESIGN.md's experiment
//! index: one binary per table/figure of the paper's evaluation).

pub mod report;

use mlql_datagen::{names_dataset, NamesConfig};
use mlql_kernel::{Datum, Result, Session};
use mlql_mural::{install, mdi, Mural};
use std::time::Instant;

/// Environment-tunable scale factor (`MLQL_SCALE`, default 1).  The paper
/// ran minutes-to-hours experiments on a 2.3 GHz Pentium-IV; scale 1 keeps
/// every harness in CI territory while preserving the comparative shapes.
pub fn scale() -> usize {
    std::env::var("MLQL_SCALE")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1)
        .max(1)
}

/// Time a closure, returning (result, seconds).
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// A least-squares line `y ≈ slope·x + intercept`.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LineFit {
    /// Fitted slope (0 when x has no spread).
    pub slope: f64,
    /// Fitted intercept.
    pub intercept: f64,
    /// Standard deviation of the residuals around the line.
    pub residual_stddev: f64,
    /// Pearson correlation (0 when either axis has no spread).
    pub pearson: f64,
}

/// Ordinary least squares over `(x, y)` points; fewer than two points
/// fit nothing (all zeros).
fn line_fit(points: &[(f64, f64)]) -> LineFit {
    if points.len() < 2 {
        return LineFit::default();
    }
    let n = points.len() as f64;
    let mx = points.iter().map(|p| p.0).sum::<f64>() / n;
    let my = points.iter().map(|p| p.1).sum::<f64>() / n;
    let (mut sxy, mut sxx, mut syy) = (0.0, 0.0, 0.0);
    for (x, y) in points {
        sxy += (x - mx) * (y - my);
        sxx += (x - mx) * (x - mx);
        syy += (y - my) * (y - my);
    }
    let slope = if sxx > 0.0 { sxy / sxx } else { 0.0 };
    let intercept = my - slope * mx;
    let rss: f64 = points
        .iter()
        .map(|(x, y)| (y - (slope * x + intercept)).powi(2))
        .sum();
    let pearson = if sxx > 0.0 && syy > 0.0 {
        sxy / (sxx * syy).sqrt()
    } else {
        0.0
    };
    LineFit {
        slope,
        intercept,
        residual_stddev: (rss / n).sqrt(),
        pearson,
    }
}

/// [`line_fit`] in log10–log10 space (both axes floored at 1e-9): the
/// slope is the exponent of a power law `y ∝ x^slope`.
pub fn loglog_fit(points: &[(f64, f64)]) -> LineFit {
    let logs: Vec<(f64, f64)> = points
        .iter()
        .map(|&(x, y)| (x.max(1e-9).log10(), y.max(1e-9).log10()))
        .collect();
    line_fit(&logs)
}

/// Pearson correlation coefficient.
pub fn pearson(xs: &[f64], ys: &[f64]) -> f64 {
    assert_eq!(xs.len(), ys.len());
    let points: Vec<(f64, f64)> = xs.iter().copied().zip(ys.iter().copied()).collect();
    line_fit(&points).pearson
}

/// Create a fresh in-memory database with the Mural extension installed.
pub fn mural_db() -> (Session, Mural) {
    let mut db = Session::new_in_memory();
    let mural = install(&mut db).expect("install mural");
    (db, mural)
}

/// Load a names table `name(n UNITEXT)` with `records` rows of the
/// multilingual names dataset.  Uses the bulk `insert_row` path.
pub fn load_names_table(
    db: &mut Session,
    mural: &Mural,
    table: &str,
    records: usize,
    seed: u64,
) -> Result<()> {
    db.execute(&format!("CREATE TABLE {table} (name UNITEXT)"))?;
    let data = names_dataset(
        &mural.langs,
        &NamesConfig {
            records,
            noise: 0.25,
            seed,
            ..NamesConfig::default()
        },
    );
    for rec in data {
        let d = mlql_mural::types::unitext_datum(mural.unitext_type, &rec.name);
        db.insert_row(table, vec![d])?;
    }
    db.analyze(table)?;
    Ok(())
}

/// Load the outside-the-server shadow of a names table:
/// `name TEXT, ph TEXT, mdi INT` — materialized phoneme strings and MDI
/// keys, the way an outside deployment prepares its data (§5.3: "the
/// performance experiments were run after the phoneme strings ... had been
/// materialized and stored explicitly in the table").
pub fn load_names_outside(
    db: &mut Session,
    mural: &Mural,
    table: &str,
    records: usize,
    seed: u64,
) -> Result<()> {
    db.execute(&format!(
        "CREATE TABLE {table} (name TEXT, ph TEXT, mdi INT)"
    ))?;
    let data = names_dataset(
        &mural.langs,
        &NamesConfig {
            records,
            noise: 0.25,
            seed,
            ..NamesConfig::default()
        },
    );
    for rec in data {
        let ph = mural.converters.phonemes_of(&rec.name);
        let key = mdi::mdi_key(ph.as_bytes(), mdi::DEFAULT_ANCHOR);
        db.insert_row(
            table,
            vec![
                Datum::text(rec.name.text()),
                Datum::text(String::from_utf8_lossy(ph.as_bytes())),
                Datum::Int(key),
            ],
        )?;
    }
    db.analyze(table)?;
    Ok(())
}

/// Transitive closure computed *inside the engine* against a relational
/// `edges(child INT, parent INT)` table — the "core" curves of Figure 8.
/// No SQL parsing, no function-manager crossings: frontier expansion calls
/// the heap/index access layer directly, the way the paper's in-kernel C
/// implementation did before pinning.  `index_name = Some(..)` uses the
/// B+Tree on the `parent` attribute (§5.4); `None` seq-scans per node.
pub fn core_closure_via_tables(
    db: &Session,
    edges_table: &str,
    index_name: Option<&str>,
    root: i64,
) -> Result<usize> {
    use mlql_kernel::storage::{decode_row, split_version};
    use std::collections::HashSet;

    let meta = db.engine().catalog().table(edges_table)?;
    let arity = meta.schema.len();
    let index = index_name.and_then(|n| {
        db.engine()
            .catalog()
            .indexes_of(meta.id)
            .into_iter()
            .find(|i| i.name == n)
    });
    // Direct heap access still honors MVCC: read under a fresh snapshot.
    let vis = db.engine().fresh_visibility();
    let mut seen: HashSet<i64> = HashSet::new();
    let mut stack = vec![root];
    seen.insert(root);
    while let Some(node) = stack.pop() {
        match &index {
            Some(idx) => {
                let hits = idx
                    .instance
                    .read()
                    .search("eq", &Datum::Int(node), &Datum::Null)?;
                for tid in hits.tids {
                    if let Some(bytes) = meta.heap.get(db.engine().pool(), tid)? {
                        let (xmin, xmax, rest) = split_version(&bytes)?;
                        if !vis.sees(xmin, xmax) {
                            continue;
                        }
                        let row = decode_row(rest, arity)?;
                        if let Some(child) = row[0].as_int() {
                            if seen.insert(child) {
                                stack.push(child);
                            }
                        }
                    }
                }
            }
            None => {
                let mut children = Vec::new();
                meta.heap.scan(db.engine().pool(), |_, bytes| {
                    let Ok((xmin, xmax, rest)) = split_version(bytes) else {
                        return true;
                    };
                    if !vis.sees(xmin, xmax) {
                        return true;
                    }
                    if let Ok(row) = decode_row(rest, arity) {
                        if row[1].as_int() == Some(node) {
                            if let Some(c) = row[0].as_int() {
                                children.push(c);
                            }
                        }
                    }
                    true
                })?;
                for child in children {
                    if seen.insert(child) {
                        stack.push(child);
                    }
                }
            }
        }
    }
    Ok(seen.len())
}

/// Render a markdown-ish results table row.
pub fn print_row(cols: &[&str], widths: &[usize]) {
    let cells: Vec<String> = cols
        .iter()
        .zip(widths)
        .map(|(c, w)| format!("{c:<w$}", w = w))
        .collect();
    println!("| {} |", cells.join(" | "));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pearson_of_perfect_line_is_one() {
        let xs: Vec<f64> = (0..10).map(|i| i as f64).collect();
        let ys: Vec<f64> = xs.iter().map(|x| 3.0 * x + 1.0).collect();
        assert!((pearson(&xs, &ys) - 1.0).abs() < 1e-12);
        let neg: Vec<f64> = xs.iter().map(|x| -x).collect();
        assert!((pearson(&xs, &neg) + 1.0).abs() < 1e-12);
    }

    #[test]
    fn pearson_degenerate_cases() {
        assert_eq!(pearson(&[1.0], &[2.0]), 0.0);
        assert_eq!(pearson(&[1.0, 1.0], &[1.0, 2.0]), 0.0);
    }

    #[test]
    fn loglog_fit_of_a_perfect_power_law() {
        // ms = cost / 100 → slope 1.0 in log-log space.
        let fit = loglog_fit(&[(100.0, 1.0), (1000.0, 10.0), (10000.0, 100.0)]);
        assert!((fit.slope - 1.0).abs() < 1e-9, "{fit:?}");
        assert!((fit.intercept + 2.0).abs() < 1e-9, "{fit:?}");
        assert!(fit.residual_stddev < 1e-9, "{fit:?}");
        assert!((fit.pearson - 1.0).abs() < 1e-9, "{fit:?}");
        // Degenerate inputs do not fit.
        assert_eq!(loglog_fit(&[(100.0, 1.0)]), LineFit::default());
        assert_eq!(loglog_fit(&[]), LineFit::default());
    }

    #[test]
    fn loaders_build_queryable_tables() {
        let (mut db, mural) = mural_db();
        load_names_table(&mut db, &mural, "names", 200, 1).unwrap();
        let n = db.query("SELECT count(*) FROM names").unwrap();
        assert!(n[0][0].eq_sql(&Datum::Int(200)));
        load_names_outside(&mut db, &mural, "names_out", 200, 1).unwrap();
        let m = db
            .query("SELECT count(*) FROM names_out WHERE mdi >= 0")
            .unwrap();
        assert!(m[0][0].eq_sql(&Datum::Int(200)));
    }
}
