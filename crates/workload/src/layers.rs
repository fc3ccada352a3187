//! Calls into each layer's public functions, timed from outside.
//!
//! The traced run uses these twice: right after an op, to *replay* the
//! layer calls that op made on the same inputs (one span per call — the
//! shares and `unattributed_share`), and in [`names_probe`], a fixed
//! sweep over the workload's own table that gives every index, scan and
//! kernel layer a unit cost even when the planner's choice keeps it off
//! the op path (e.g. `mtree.range_us` while the planner prefers a scan).
//!
//! Layer = module name.  Span names are the per-layer metric prefixes.

use crate::trace::Recorder;
use mlql_kernel::catalog::TableMeta;
use mlql_kernel::engine::{Engine, Session};
use mlql_kernel::index::{IndexInstance, IndexSearch};
use mlql_kernel::schema::Row;
use mlql_kernel::storage::{decode_row, split_version, HeapFile, TupleId};
use mlql_kernel::{Datum, Error, Result};
use mlql_mural::lexequal::psi_matches_batch;
use mlql_mural::types::phoneme_slice;
use mlql_mural::Mural;
use mlql_phonetics::distance::{DistanceBuffer, MyersMatcher};
use mlql_unitext::UniText;
use std::sync::Arc;

/// `sql.parse`, `sql.bind`, `opt.plan` for one statement; bind and plan
/// only exist for SELECTs (DML binds inside its executor).
pub fn replay_frontend(rec: &mut Recorder, op: u32, session: &Session, sql: &str) -> Result<()> {
    use mlql_kernel::sql::{self, Statement};
    let stmt = rec.span("sql.parse", None, op, || (sql::parse(sql), 1))?;
    let Statement::Select(select) = stmt else {
        return Ok(());
    };
    let engine = session.engine();
    let catalog = engine.catalog();
    let logical = rec.span("sql.bind", None, op, || (sql::bind(&select, &catalog), 1))?;
    rec.span("opt.plan", None, op, || {
        (
            mlql_kernel::opt::plan(&logical, &catalog, engine.pool(), session.vars()),
            1,
        )
    })?;
    Ok(())
}

/// `phonetics.g2p`: grapheme-to-phoneme conversion of fresh values.
pub fn replay_g2p(rec: &mut Recorder, op: u32, mural: &Mural, values: &[&UniText]) {
    rec.span("phonetics.g2p", None, op, || {
        for v in values {
            std::hint::black_box(mural.converters.phonemes_of(v));
        }
        ((), values.len() as u64)
    });
}

/// `storage.decode`: every visible row of a table — `scan_pages` +
/// `split_version` + snapshot visibility + `decode_row`, what the scan
/// spine does before any predicate runs.
pub fn decode_scan(engine: &Engine, meta: &TableMeta) -> Result<Vec<Row>> {
    let vis = engine.fresh_visibility();
    let arity = meta.schema.len();
    let mut rows = Vec::new();
    let mut failed = None;
    meta.heap.scan_pages(engine.pool(), |_, page| {
        for (_, tuple) in HeapFile::page_tuples(page) {
            let row = split_version(tuple).and_then(|(xmin, xmax, rest)| {
                if vis.sees(xmin, xmax) {
                    decode_row(rest, arity).map(Some)
                } else {
                    Ok(None)
                }
            });
            match row {
                Ok(Some(r)) => rows.push(r),
                Ok(None) => {}
                Err(e) => {
                    failed = Some(e);
                    return false;
                }
            }
        }
        true
    })?;
    match failed {
        Some(e) => Err(e),
        None => Ok(rows),
    }
}

pub fn replay_decode(
    rec: &mut Recorder,
    op: u32,
    engine: &Engine,
    table: &str,
) -> Result<Vec<Row>> {
    let meta = engine.catalog().table(table)?;
    rec.span("storage.decode", None, op, || {
        let rows = decode_scan(engine, &meta);
        let n = rows.as_ref().map_or(0, |r| r.len() as u64);
        (rows, n)
    })
}

/// `storage.fetch`: heap lookups by tuple id (index scans), with the
/// same version split, visibility check and decode.
pub fn replay_fetch(
    rec: &mut Recorder,
    op: u32,
    engine: &Engine,
    table: &str,
    tids: &[TupleId],
) -> Result<Vec<Row>> {
    let meta = engine.catalog().table(table)?;
    rec.span("storage.fetch", None, op, || {
        let vis = engine.fresh_visibility();
        let fetched = (|| -> Result<Vec<Row>> {
            let mut rows = Vec::with_capacity(tids.len());
            for tid in tids {
                if let Some(bytes) = meta.heap.get(engine.pool(), *tid)? {
                    let (xmin, xmax, rest) = split_version(&bytes)?;
                    if vis.sees(xmin, xmax) {
                        rows.push(decode_row(rest, meta.schema.len())?);
                    }
                }
            }
            Ok(rows)
        })();
        (fetched, tids.len() as u64)
    })
}

/// `mural.lexequal`: every `lefts[i] ψ constant` for each constant, in
/// executor-sized batches; then — as its logical child —
/// `phonetics.distance`, the bare distance kernel over the same phoneme
/// pairs.  Returns the verdicts, one vector per constant.
pub fn replay_lexequal(
    rec: &mut Recorder,
    op: u32,
    mural: &Mural,
    lefts: &[&Datum],
    constants: &[&Datum],
    threshold: usize,
    batch: usize,
) -> Result<Vec<Vec<bool>>> {
    let pairs = (lefts.len() * constants.len()) as u64;
    let (verdicts, psi) = rec.span_id("mural.lexequal", None, op, || {
        let run = || -> Result<Vec<Vec<bool>>> {
            let mut all = Vec::with_capacity(constants.len());
            for c in constants {
                let mut out = Vec::with_capacity(lefts.len());
                for chunk in lefts.chunks(batch.max(1)) {
                    let v = psi_matches_batch(chunk, c, threshold, &mural.converters, true)?;
                    out.extend(v.iter().map(Datum::is_true));
                }
                all.push(out);
            }
            Ok(all)
        };
        (run(), pairs)
    });
    let verdicts = verdicts?;

    // Myers' bit-parallel kernel when the constant's phonemes fit a
    // word, the banded DP otherwise — the choice the ψ batch path makes.
    let slice = |d: &Datum| match d {
        Datum::Ext { bytes, .. } => phoneme_slice(bytes).map(<[u8]>::to_vec),
        _ => None,
    };
    let texts: Vec<Vec<u8>> = lefts.iter().filter_map(|d| slice(d)).collect();
    let patterns: Vec<Vec<u8>> = constants.iter().filter_map(|d| slice(d)).collect();
    rec.span("phonetics.distance", Some(psi), op, || {
        let mut within = 0u64;
        let mut dp = DistanceBuffer::new();
        for pattern in &patterns {
            match MyersMatcher::new(pattern) {
                Some(m) => {
                    for t in &texts {
                        within += u64::from(m.distance_within(t, threshold).is_some());
                    }
                }
                None => {
                    for t in &texts {
                        within += u64::from(dp.distance_within(t, pattern, threshold).is_some());
                    }
                }
            }
        }
        (
            std::hint::black_box(within),
            (texts.len() * patterns.len()) as u64,
        )
    });
    Ok(verdicts)
}

/// The live index of `table` built by access method `am`, if any.
pub fn live_index(
    engine: &Engine,
    table: &str,
    am: &str,
) -> Result<Option<Arc<mlql_kernel::catalog::IndexMeta>>> {
    let catalog = engine.catalog();
    let meta = catalog.table(table)?;
    Ok(catalog.indexes_of(meta.id).into_iter().find(|i| i.am == am))
}

/// `mtree.range` on an index instance; also accumulates the probe's
/// node visits and distance computations.
pub fn replay_mtree_range(
    rec: &mut Recorder,
    op: u32,
    index: &dyn IndexInstance,
    probe: &Datum,
    threshold: usize,
) -> Result<IndexSearch> {
    let found = rec.span("mtree.range", None, op, || {
        (
            index.search("within", probe, &Datum::Int(threshold as i64)),
            1,
        )
    })?;
    rec.count("mtree.dist_comps_per_probe", found.comparisons as f64);
    rec.count("mtree.nodes_per_probe", found.node_visits as f64);
    Ok(found)
}

pub fn replay_btree_search(
    rec: &mut Recorder,
    op: u32,
    index: &dyn IndexInstance,
    key: i64,
) -> Result<IndexSearch> {
    rec.span("index.btree.search", None, op, || {
        (index.search("eq", &Datum::Int(key), &Datum::Null), 1)
    })
}

/// Shadow copies of a table's B-tree (on an INT column) and M-tree (on
/// a UNITEXT column): same access methods, same entries, owned by the
/// benchmark, so index *writes* can be replayed without touching the
/// engine's own structures.
pub struct ShadowIndexes {
    pub btree: Box<dyn IndexInstance>,
    pub mtree: Box<dyn IndexInstance>,
    next_tid: u32,
}

/// Tuple id of the `n`-th shadow entry (any distinct address will do).
fn shadow_tid(n: u32) -> TupleId {
    TupleId {
        page: n / 100,
        slot: (n % 100) as u16,
    }
}

impl ShadowIndexes {
    /// Build both from decoded rows (`index.build` spans, one per tree).
    pub fn build(
        rec: &mut Recorder,
        engine: &Engine,
        rows: &[Row],
        id_col: usize,
        text_col: usize,
    ) -> Result<ShadowIndexes> {
        let create = |am: &str| -> Result<Box<dyn IndexInstance>> {
            engine
                .catalog()
                .access_method(am)
                .ok_or_else(|| Error::Catalog(format!("no access method {am:?}")))?
                .create()
        };
        let (mut btree, mut mtree) = (create("btree")?, create("mtree")?);
        for (tree, col) in [(&mut btree, id_col), (&mut mtree, text_col)] {
            rec.span("index.build", None, crate::trace::NO_OP, || {
                let built = rows
                    .iter()
                    .enumerate()
                    .try_for_each(|(i, r)| tree.insert(&r[col], shadow_tid(i as u32)));
                (built, 1)
            })?;
        }
        Ok(ShadowIndexes {
            btree,
            mtree,
            next_tid: rows.len() as u32,
        })
    }

    /// `index.btree.insert` + `mtree.insert` of one new row version.
    pub fn replay_insert(
        &mut self,
        rec: &mut Recorder,
        op: u32,
        id: &Datum,
        text: &Datum,
    ) -> Result<()> {
        let tid = shadow_tid(self.next_tid);
        self.next_tid += 1;
        rec.span("index.btree.insert", None, op, || {
            (self.btree.insert(id, tid), 1)
        })?;
        rec.span("mtree.insert", None, op, || {
            (self.mtree.insert(text, tid), 1)
        })
    }
}

/// What [`names_probe`] sweeps: a table with an INT id column and a
/// UNITEXT column, and the values the workload probes it with.
pub struct NamesProbe<'a> {
    pub session: &'a mut Session,
    pub mural: &'a Mural,
    pub table: &'a str,
    pub id_col: usize,
    pub text_col: usize,
    pub probes: Vec<UniText>,
    pub threshold: usize,
    /// Distinct statements of the workload, for the front-end layers.
    pub statements: Vec<String>,
}

/// Probe values swept per layer (fewer exist in some fixtures).
const PROBE_SAMPLE: usize = 64;

/// The fixed per-layer sweep.  `shadow` is reused when a replay already
/// built the shadow indexes of this table.
pub fn names_probe(
    rec: &mut Recorder,
    p: NamesProbe<'_>,
    shadow: Option<ShadowIndexes>,
) -> Result<()> {
    let op = crate::trace::NO_OP;
    let engine = Arc::clone(p.session.engine());
    let batch = mlql_kernel::exec::effective_batch_size(p.session.vars());

    for sql in p.statements.iter().take(PROBE_SAMPLE) {
        replay_frontend(rec, op, p.session, sql)?;
    }

    // exec.scan: the executor's predicate-free scan, through the session.
    let count_sql = format!("SELECT count(*) FROM {}", p.table);
    p.session.execute(&count_sql)?;
    for _ in 0..3 {
        rec.span("exec.scan", None, op, || {
            let r = p.session.execute(&count_sql);
            let n = r
                .as_ref()
                .ok()
                .and_then(|r| r.rows.first()?.first()?.as_int())
                .unwrap_or(0);
            (r, n as u64)
        })?;
    }

    let mut rows = Vec::new();
    for _ in 0..3 {
        rows = replay_decode(rec, op, &engine, p.table)?;
    }

    let probes: Vec<&UniText> = p.probes.iter().take(PROBE_SAMPLE).collect();
    replay_g2p(rec, op, p.mural, &probes);
    let constants: Vec<Datum> = probes
        .iter()
        .map(|v| crate::fixture::materialized(p.mural, v))
        .collect();
    let lefts: Vec<&Datum> = rows.iter().map(|r| &r[p.text_col]).collect();
    let some: Vec<&Datum> = constants.iter().take(8).collect();
    replay_lexequal(rec, op, p.mural, &lefts, &some, p.threshold, batch)?;

    let mut shadow = match shadow {
        Some(s) => s,
        None => ShadowIndexes::build(rec, &engine, &rows, p.id_col, p.text_col)?,
    };
    for (i, c) in constants.iter().enumerate() {
        replay_mtree_range(rec, op, shadow.mtree.as_ref(), c, p.threshold)?;
        let key = rows[(i * 7919) % rows.len()][p.id_col]
            .as_int()
            .unwrap_or(0);
        replay_btree_search(rec, op, shadow.btree.as_ref(), key)?;
        // Re-inserting an existing (id, text) pair under a fresh tuple id
        // is what an UPDATE's new version does.
        shadow.replay_insert(rec, op, &Datum::Int(key), c)?;
    }
    Ok(())
}
