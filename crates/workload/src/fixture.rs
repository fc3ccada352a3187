//! Helpers shared by the workload fixtures: opening engines, loading
//! names tables, SQL literals, and the row-set checksum both the executor
//! results and the oracle are reduced to.

use mlql_datagen::{names_dataset, NameRecord, NamesConfig};
use mlql_kernel::engine::Session;
use mlql_kernel::{Database, Datum, Result};
use mlql_mural::types::{unitext_datum, unitext_of_datum};
use mlql_mural::Mural;
use mlql_taxonomy::Taxonomy;
use mlql_unitext::UniText;
use std::path::Path;
use std::time::Instant;

/// Fixture size: the benchmark's own, or the miniature the traced runs
/// build for layers their primary workload does not exercise.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    Mini,
}

/// Wall time of each set-up stage (seconds) and what it processed.
#[derive(Debug, Clone, Default)]
pub struct SetupStages {
    pub generate_s: f64,
    pub load_s: f64,
    pub rows_loaded: usize,
    pub index_build_s: f64,
    pub analyze_s: f64,
}

impl SetupStages {
    /// Run `f`, adding its wall time to the stage `slot` selects.
    pub fn time<T>(
        &mut self,
        slot: impl FnOnce(&mut Self) -> &mut f64,
        f: impl FnOnce() -> T,
    ) -> T {
        let start = Instant::now();
        let out = f();
        *slot(self) += start.elapsed().as_secs_f64();
        out
    }
}

/// A fresh in-memory engine with Mural installed (default Books taxonomy
/// unless one is given).
pub fn open_memory(taxonomy: Option<Taxonomy>) -> Result<(Database, Mural)> {
    let mut db = Database::new_in_memory();
    let mural = match taxonomy {
        Some(t) => mlql_mural::install_with_taxonomy(&mut db, t)?,
        None => mlql_mural::install(&mut db)?,
    };
    Ok((db, mural))
}

/// Open (or recover) a file-backed engine under `dir` with Mural
/// installed before WAL replay.
pub fn open_durable(dir: &Path) -> Result<(Database, Mural)> {
    let mut mural = None;
    let db = Database::open_with_extensions(dir, |db| {
        mural = Some(mlql_mural::install(db)?);
        Ok(())
    })?;
    Ok((db, mural.expect("install ran")))
}

/// Generate `records` multilingual names for `seed`, over the datagen
/// default of 8,000 distinct stems (the paper's names corpus).
pub fn generate_names(mural: &Mural, records: usize, seed: u64) -> Vec<NameRecord> {
    generate_names_over(mural, records, NamesConfig::default().distinct, seed)
}

/// Like [`generate_names`] with an explicit number of distinct stems.
pub fn generate_names_over(
    mural: &Mural,
    records: usize,
    distinct: usize,
    seed: u64,
) -> Vec<NameRecord> {
    names_dataset(
        &mural.langs,
        &NamesConfig {
            records,
            seed,
            distinct,
            ..NamesConfig::default()
        },
    )
}

/// The engine datum of a generated value, phonemes materialized the way
/// the type's insert hook stores it.
pub fn materialized(mural: &Mural, v: &UniText) -> Datum {
    let mut v = v.clone();
    mural.converters.materialize(&mut v);
    unitext_datum(mural.unitext_type, &v)
}

/// `unitext('text','Language')` for a generated value.
pub fn unitext_literal(mural: &Mural, v: &UniText) -> String {
    let lang = &mural
        .langs
        .get(v.lang())
        .expect("generated values carry a registered language")
        .name;
    assert!(
        !v.text().contains('\''),
        "generated text must not need SQL quoting: {:?}",
        v.text()
    );
    format!("unitext('{}','{lang}')", v.text())
}

/// Bulk-load `(id, name)` rows through the session's direct insert path,
/// inside one transaction.
pub fn load_id_name(session: &mut Session, table: &str, rows: &[(i64, Datum)]) -> Result<()> {
    session.execute("BEGIN")?;
    for (id, name) in rows {
        session.insert_row(table, vec![Datum::Int(*id), name.clone()])?;
    }
    session.execute("COMMIT")?;
    Ok(())
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv(mut h: u64, bytes: &[u8]) -> u64 {
    for b in bytes {
        h = (h ^ u64::from(*b)).wrapping_mul(FNV_PRIME);
    }
    h
}

/// Hash of one row.  UniText values hash by (language, text) — what a
/// client sees — not by their stored bytes, so the oracle does not have
/// to reproduce the phoneme cache.
pub fn row_hash(row: &[Datum]) -> u64 {
    let mut h = FNV_OFFSET;
    for d in row {
        h = match d {
            Datum::Null => fnv(h, b"N"),
            Datum::Bool(b) => fnv(fnv(h, b"B"), &[u8::from(*b)]),
            Datum::Int(v) => fnv(fnv(h, b"I"), &v.to_le_bytes()),
            Datum::Float(v) => fnv(fnv(h, b"F"), &v.to_bits().to_le_bytes()),
            Datum::Text(s) => fnv(fnv(h, b"T"), s.as_bytes()),
            Datum::Ext { .. } => match unitext_of_datum(d) {
                Ok(v) => fnv(
                    fnv(fnv(h, b"U"), &v.lang().raw().to_le_bytes()),
                    v.text().as_bytes(),
                ),
                Err(_) => fnv(h, b"?"),
            },
        };
    }
    h
}

/// Order-independent checksum of a row set: the wrapping sum of the row
/// hashes, mixed with the row count.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RowSet {
    sum: u64,
    count: u64,
}

impl RowSet {
    pub fn add(&mut self, row: &[Datum]) {
        self.sum = self.sum.wrapping_add(row_hash(row));
        self.count += 1;
    }

    pub fn of(rows: &[Vec<Datum>]) -> RowSet {
        let mut s = RowSet::default();
        for r in rows {
            s.add(r);
        }
        s
    }

    pub fn checksum(&self) -> u64 {
        self.sum ^ self.count.wrapping_mul(0x9e37_79b9_7f4a_7c15)
    }
}

/// `EXPLAIN` text and plan digest of one statement class, for the result
/// file's plan stamp.
pub fn plan_stamp(session: &Session, class: &str, sql: &str) -> crate::json::Json {
    use crate::json::Json;
    match session.plan_select(sql) {
        Ok(plan) => Json::obj(vec![
            ("class", Json::str(class)),
            ("sql", Json::str(sql)),
            ("plan_digest", Json::str(format!("{:016x}", plan.digest()))),
            ("explain", Json::str(plan.explain())),
        ]),
        Err(e) => Json::obj(vec![
            ("class", Json::str(class)),
            ("sql", Json::str(sql)),
            ("error", Json::str(e.to_string())),
        ]),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rowset_ignores_order_but_not_content() {
        let a = vec![Datum::Int(1), Datum::text("x")];
        let b = vec![Datum::Int(2), Datum::text("y")];
        let ab = RowSet::of(&[a.clone(), b.clone()]);
        let ba = RowSet::of(&[b.clone(), a.clone()]);
        assert_eq!(ab.checksum(), ba.checksum());
        assert_ne!(
            ab.checksum(),
            RowSet::of(std::slice::from_ref(&a)).checksum()
        );
        assert_ne!(ab.checksum(), RowSet::of(&[a.clone(), a]).checksum());
    }

    #[test]
    fn unitext_hashes_by_text_and_language_not_phoneme_cache() {
        let (_db, mural) = open_memory(None).unwrap();
        let v = UniText::compose("Nehru", mural.langs.id_of("English"));
        let plain = unitext_datum(mural.unitext_type, &v);
        let cached = materialized(&mural, &v);
        assert_ne!(plain, cached);
        assert_eq!(row_hash(&[plain]), row_hash(&[cached]));
    }
}
