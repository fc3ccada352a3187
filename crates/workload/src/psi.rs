//! `psi_scan` and `psi_probe`: LEXEQUAL selections over the paper's
//! 50k-name table.
//!
//! * `psi_scan` — threshold 3, no ψ index, 64 probe literals rotating
//!   over Latin / Devanagari / Tamil / Kannada.  64 statements fit the
//!   256-entry plan cache, so after warm-up every op is a cache hit and
//!   the scan spine does all the work.
//! * `psi_probe` — the same table with an M-tree on `name` and a B-tree
//!   on `id`, threshold 1, literals drawn Zipf(1.0) from 4,096 distinct
//!   names: 16x the plan cache, so hits and misses both occur and
//!   parse/bind/plan/G2P are on the op path.
//!
//! The 431-page heap fits the 1024-frame pool; both are closed loops
//! with one client.

use crate::fixture::{
    generate_names, load_id_name, materialized, open_memory, plan_stamp, unitext_literal, RowSet,
    Scale, SetupStages,
};
use crate::json::Json;
use crate::layers::{self, NamesProbe};
use crate::measure::{OpRecord, Workload};
use crate::trace::{Recorder, Traced};
use mlql_kernel::engine::{Engine, QueryResult, Session};
use mlql_kernel::{Datum, Result};
use mlql_mural::lexequal::psi_matches;
use mlql_mural::types::unitext_datum;
use mlql_mural::Mural;
use mlql_unitext::UniText;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use std::time::Instant;

/// Ops per round (and the size of `psi_scan`'s probe set).
pub const ROUND_OPS: usize = 64;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Scan,
    Probe,
}

impl Kind {
    /// The kind a workload name selects.
    pub fn of(workload: &str) -> Kind {
        if workload == "psi_scan" {
            Kind::Scan
        } else {
            Kind::Probe
        }
    }
}

pub struct Probe {
    pub value: UniText,
    pub sql: String,
}

pub struct Psi {
    pub mural: Mural,
    pub session: Session,
    /// The generated table contents — the oracle's only input.
    pub names: Vec<(i64, UniText)>,
    pub probes: Vec<Probe>,
    /// Probe index of every op, walked cyclically.
    seq: Vec<u32>,
    pub threshold: usize,
    pub stages: SetupStages,
    /// Per probe: does the planner probe the M-tree (else it scans)?
    uses_mtree: HashMap<u32, bool>,
    errors: Vec<String>,
}

impl Psi {
    pub fn build(kind: Kind, seed: u64, scale: Scale) -> Result<Psi> {
        let (records, distinct_probes) = match (scale, kind) {
            (Scale::Full, Kind::Scan) => (50_000, ROUND_OPS),
            (Scale::Full, Kind::Probe) => (50_000, 4096),
            (Scale::Mini, Kind::Scan) => (2_000, ROUND_OPS),
            (Scale::Mini, Kind::Probe) => (2_000, 256),
        };
        let threshold = match kind {
            Kind::Scan => 3,
            Kind::Probe => 1,
        };
        let mut stages = SetupStages::default();
        let (db, mural) = open_memory(None)?;
        let mut session = db.connect();

        let names: Vec<(i64, UniText)> = stages.time(
            |s| &mut s.generate_s,
            || {
                generate_names(&mural, records, seed)
                    .into_iter()
                    .enumerate()
                    .map(|(i, r)| (i as i64, r.name))
                    .collect()
            },
        );

        session.execute("CREATE TABLE names (id INT, name UNITEXT)")?;
        // The datums go in without a phoneme cache: materializing it is
        // the engine's insert-time work (§4.2), part of `setup_s`.
        let rows: Vec<(i64, Datum)> = names
            .iter()
            .map(|(id, v)| (*id, unitext_datum(mural.unitext_type, v)))
            .collect();
        stages.time(
            |s| &mut s.load_s,
            || load_id_name(&mut session, "names", &rows),
        )?;
        stages.rows_loaded = rows.len();
        drop(rows);

        if kind == Kind::Probe {
            stages.time(
                |s| &mut s.index_build_s,
                || -> Result<()> {
                    session.execute("CREATE INDEX names_id ON names (id) USING btree")?;
                    session.execute("CREATE INDEX names_mt ON names (name) USING mtree")?;
                    Ok(())
                },
            )?;
        }
        stages.time(|s| &mut s.analyze_s, || session.execute("ANALYZE names"))?;
        session.execute(&format!("SET lexequal.threshold = {threshold}"))?;

        let probes = pick_probes(&mural, &names, kind, distinct_probes);
        let seq = match kind {
            // Probe j is language j % 4's (j / 4)-th name: every round
            // visits all 64 once.
            Kind::Scan => (0..probes.len() as u32).collect(),
            Kind::Probe => zipf_sequence(probes.len(), 1 << 16, seed),
        };
        Ok(Psi {
            mural,
            session,
            names,
            probes,
            seq,
            threshold,
            stages,
            uses_mtree: HashMap::new(),
            errors: Vec::new(),
        })
    }

    /// Probe index of op `n` of the sequence.
    pub fn key_of(&self, n: usize) -> u32 {
        self.seq[n % self.seq.len()]
    }

    pub fn stamp(&self) -> Json {
        Json::Arr(vec![plan_stamp(
            &self.session,
            "psi_select",
            &self.probes[0].sql,
        )])
    }

    /// Expected row set of one probe by brute force over the generated
    /// names — no parser, planner or executor involved.
    fn oracle(&self, table: &[(i64, Datum)], key: u32) -> u64 {
        let probe = materialized(&self.mural, &self.probes[key as usize].value);
        let mut set = RowSet::default();
        for (id, name) in table {
            let hit = psi_matches(name, &probe, self.threshold, &self.mural.converters)
                .expect("generated names decode");
            if hit {
                set.add(&[Datum::Int(*id), name.clone()]);
            }
        }
        set.checksum()
    }
}

/// `psi_scan`: the first 16 distinct names of each of the four scripts,
/// interleaved.  `psi_probe`: the first `count` distinct names.
fn pick_probes(mural: &Mural, names: &[(i64, UniText)], kind: Kind, count: usize) -> Vec<Probe> {
    let mut seen = HashSet::new();
    let distinct = names
        .iter()
        .map(|(_, v)| v)
        .filter(|v| seen.insert((v.lang(), v.text().to_string())));
    let picked: Vec<&UniText> = match kind {
        Kind::Probe => distinct.take(count).collect(),
        Kind::Scan => {
            let langs = ["English", "Hindi", "Tamil", "Kannada"].map(|l| mural.langs.id_of(l));
            let per_lang = count / langs.len();
            let mut buckets: Vec<Vec<&UniText>> = vec![Vec::new(); langs.len()];
            for v in distinct {
                if let Some(b) = langs.iter().position(|l| *l == v.lang()) {
                    if buckets[b].len() < per_lang {
                        buckets[b].push(v);
                    }
                }
                if buckets.iter().all(|b| b.len() == per_lang) {
                    break;
                }
            }
            (0..count)
                .map(|j| buckets[j % langs.len()][j / langs.len()])
                .collect()
        }
    };
    assert_eq!(picked.len(), count, "dataset too small for the probe set");
    picked
        .into_iter()
        .map(|v| Probe {
            value: v.clone(),
            sql: format!(
                "SELECT id, name FROM names WHERE name LEXEQUAL {}",
                unitext_literal(mural, v)
            ),
        })
        .collect()
}

/// `len` draws from Zipf(1.0) over ranks `0..n` (inverse-CDF sampling).
pub fn zipf_sequence(n: usize, len: usize, seed: u64) -> Vec<u32> {
    let mut cdf = Vec::with_capacity(n);
    let mut acc = 0.0;
    for rank in 1..=n {
        acc += 1.0 / rank as f64;
        cdf.push(acc);
    }
    let mut rng = StdRng::seed_from_u64(seed ^ 0x21bf);
    (0..len)
        .map(|_| {
            let u = rng.gen_range(0.0..acc);
            cdf.partition_point(|c| *c <= u).min(n - 1) as u32
        })
        .collect()
}

/// Reduce one executed statement to its op record.
pub fn record_select(
    key: u32,
    sql: &str,
    res: &Result<QueryResult>,
    latency: std::time::Duration,
    errors: &mut Vec<String>,
) -> OpRecord {
    let (checksum, ok) = match res {
        Ok(r) => (RowSet::of(&r.rows).checksum(), true),
        Err(e) => {
            errors.push(format!("{sql}: {e}"));
            (0, false)
        }
    };
    OpRecord {
        key,
        checksum,
        latency,
        ok,
    }
}

impl Workload for Psi {
    fn round(&mut self, index: u64, log: &mut Vec<OpRecord>) {
        let base = index as usize * ROUND_OPS;
        for j in 0..ROUND_OPS {
            let key = self.key_of(base + j);
            let sql = &self.probes[key as usize].sql;
            let start = Instant::now();
            let res = self.session.execute(sql);
            let latency = start.elapsed();
            log.push(record_select(key, sql, &res, latency, &mut self.errors));
        }
    }

    fn verify(&mut self, log: &[OpRecord]) -> Vec<String> {
        let table: Vec<(i64, Datum)> = self
            .names
            .iter()
            .map(|(id, v)| (*id, materialized(&self.mural, v)))
            .collect();
        let mut expected: HashMap<u32, u64> = HashMap::new();
        let mut failures = std::mem::take(&mut self.errors);
        for (i, op) in log.iter().enumerate() {
            if !op.ok {
                failures.push(format!("op {i} (probe {}): statement failed", op.key));
                continue;
            }
            let want = *expected
                .entry(op.key)
                .or_insert_with(|| self.oracle(&table, op.key));
            if want != op.checksum {
                failures.push(format!(
                    "op {i} (probe {}): row-set checksum {:016x}, oracle {want:016x}",
                    op.key, op.checksum
                ));
            }
        }
        failures
    }
}

/// Tally what a statement examined and returned, for
/// `exec.rows_examined_per_row_returned`: ψ/Ω evaluations when the
/// statement has any, else the rows it touched by key.
pub fn tally_examined(rec: &mut Recorder, r: &QueryResult) {
    let returned = r.rows.len() as u64 + r.affected;
    rec.count("exec.examined", r.stats.ext_op_calls.max(returned) as f64);
    rec.count("exec.returned", returned as f64);
}

impl Psi {
    /// Replay the layer calls of one executed ψ selection.
    fn replay(&mut self, rec: &mut Recorder, op: u32, key: u32, missed: bool) -> Result<()> {
        let probe = &self.probes[key as usize];
        if missed {
            // Only a plan-cache miss parses, binds, plans and converts
            // the literal; a hit reuses the plan with its folded constant.
            layers::replay_frontend(rec, op, &self.session, &probe.sql)?;
            layers::replay_g2p(rec, op, &self.mural, &[&probe.value]);
        }
        let uses_mtree = match self.uses_mtree.get(&key) {
            Some(u) => *u,
            None => {
                let plan = self.session.plan_select(&probe.sql)?;
                let u = plan.explain().contains("names_mt");
                self.uses_mtree.insert(key, u);
                u
            }
        };
        let engine = Arc::clone(self.session.engine());
        let batch = mlql_kernel::exec::effective_batch_size(self.session.vars());
        let constant = materialized(&self.mural, &probe.value);
        let rows = if uses_mtree {
            let index = layers::live_index(&engine, "names", "mtree")?
                .expect("plan names an M-tree that exists");
            let found = layers::replay_mtree_range(
                rec,
                op,
                index.instance.read().as_ref(),
                &constant,
                self.threshold,
            )?;
            layers::replay_fetch(rec, op, &engine, "names", &found.tids)?
        } else {
            layers::replay_decode(rec, op, &engine, "names")?
        };
        let lefts: Vec<&Datum> = rows.iter().map(|r| &r[1]).collect();
        layers::replay_lexequal(
            rec,
            op,
            &self.mural,
            &lefts,
            &[&constant],
            self.threshold,
            batch,
        )?;
        Ok(())
    }
}

impl Traced for Psi {
    fn traced_round(&mut self, index: u64, rec: &mut Recorder, log: &mut Vec<OpRecord>) {
        let misses = &mlql_kernel::obs::metrics().plan_cache_misses_total;
        let base = index as usize * ROUND_OPS;
        for j in 0..ROUND_OPS {
            let op = log.len() as u32;
            let key = self.key_of(base + j);
            let sql = &self.probes[key as usize].sql;
            let misses_before = misses.get();
            let start = Instant::now();
            let res = rec.span("session.execute", None, op, || {
                (self.session.execute(sql), 1)
            });
            let latency = start.elapsed();
            let missed = misses.get() > misses_before;
            log.push(record_select(key, sql, &res, latency, &mut self.errors));
            if let Ok(r) = &res {
                tally_examined(rec, r);
            }
            if let Err(e) = self.replay(rec, op, key, missed) {
                self.errors.push(format!("replay of op {op}: {e}"));
            }
        }
    }

    fn probe(&mut self, rec: &mut Recorder) -> Result<()> {
        let probe = NamesProbe {
            session: &mut self.session,
            mural: &self.mural,
            table: "names",
            id_col: 0,
            text_col: 1,
            probes: self.probes.iter().map(|p| p.value.clone()).collect(),
            threshold: self.threshold,
            statements: self.probes.iter().map(|p| p.sql.clone()).collect(),
        };
        layers::names_probe(rec, probe, None)
    }

    fn engine(&self) -> Arc<Engine> {
        Arc::clone(self.session.engine())
    }

    fn stages(&self) -> SetupStages {
        self.stages.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_is_skewed_and_in_range() {
        let seq = zipf_sequence(256, 20_000, 7);
        assert!(seq.iter().all(|k| (*k as usize) < 256));
        let top = seq.iter().filter(|k| **k == 0).count();
        let tail = seq.iter().filter(|k| **k == 255).count();
        // Rank 1 carries 1/H(256) ~ 16% of the mass, rank 256 ~ 0.06%.
        assert!(top > 2_500 && top < 4_000, "rank-1 draws {top}");
        assert!(tail < 60, "rank-256 draws {tail}");
        assert_eq!(seq, zipf_sequence(256, 20_000, 7));
    }

    #[test]
    fn mini_workloads_agree_with_the_oracle() {
        for kind in [Kind::Scan, Kind::Probe] {
            let mut w = Psi::build(kind, 3, Scale::Mini).unwrap();
            let mut log = Vec::new();
            w.round(0, &mut log);
            assert_eq!(log.len(), ROUND_OPS);
            assert_eq!(w.verify(&log), Vec::<String>::new());
            // A corrupted result must be caught.
            log[0].checksum ^= 1;
            assert_eq!(w.verify(&log).len(), 1);
        }
    }
}
