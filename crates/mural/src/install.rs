//! Extension installation — the `CREATE EXTENSION mural` equivalent.
//!
//! One call wires everything the paper added to PostgreSQL into the
//! kernel's catalog: the UniText type with its support functions, the ψ
//! and Ω operators with cost models and selectivity estimators, the
//! M-Tree access method, the SQL constructor/decomposition functions, and
//! default session variables.  Nothing in the kernel changes — the point
//! of the Mural algebra being "organically added ... with little impact on
//! existing functionality" (§1).

use crate::functions::mural_functions;
use crate::lexequal::{lexequal_operator, DEFAULT_THRESHOLD, THRESHOLD_VAR};
use crate::mtree_am::MTreeAm;
use crate::semequal::{semequal_operator, SemState};
use crate::types::unitext_type_def;
use mlql_kernel::{Datum, ExtTypeId, Result, Session};
use mlql_phonetics::ConverterRegistry;
use mlql_taxonomy::{books_fragment, Taxonomy};
use mlql_unitext::LanguageRegistry;
use std::sync::Arc;

/// Handle to the installed extension's shared state.
pub struct Mural {
    /// Known languages.
    pub langs: Arc<LanguageRegistry>,
    /// Grapheme-to-phoneme converters.
    pub converters: Arc<ConverterRegistry>,
    /// The registered UniText type id.
    pub unitext_type: ExtTypeId,
    /// Ω's pinned taxonomy + interval index.
    pub sem: Arc<SemState>,
}

impl Mural {
    /// k-nearest phonemic neighbours of `probe` through a table's M-Tree
    /// index — the "best match" flavour of LexEQUAL.  Returns full rows in
    /// ascending phonemic distance.
    pub fn nearest(
        &self,
        session: &Session,
        table: &str,
        index: &str,
        probe: &Datum,
        k: usize,
    ) -> Result<Vec<Vec<Datum>>> {
        let meta = session.engine().catalog().table(table)?;
        let idx = session
            .engine()
            .catalog()
            .indexes_of(meta.id)
            .into_iter()
            .find(|i| i.name == index)
            .ok_or_else(|| mlql_kernel::Error::Catalog(format!("no index {index:?}")))?;
        let search = idx
            .instance
            .read()
            .search("nearest", probe, &Datum::Int(k as i64))?;
        // Index entries address versions; a fresh snapshot filters the
        // dead and in-flight ones (same policy as the kernel's IndexScan).
        let vis = session.engine().fresh_visibility();
        let mut out = Vec::with_capacity(search.tids.len());
        for tid in search.tids {
            if let Some(bytes) = meta.heap.get(session.engine().pool(), tid)? {
                let (xmin, xmax, rest) = mlql_kernel::storage::split_version(&bytes)?;
                if !vis.sees(xmin, xmax) {
                    continue;
                }
                out.push(mlql_kernel::storage::decode_row(rest, meta.schema.len())?);
            }
        }
        Ok(out)
    }

    /// Convenience: build a UniText datum for direct (non-SQL) inserts.
    pub fn unitext(&self, text: &str, lang: &str) -> Result<Datum> {
        let id = self
            .langs
            .lookup(lang)
            .ok_or_else(|| mlql_kernel::Error::Binder(format!("unknown language {lang:?}")))?
            .id;
        let mut v = mlql_unitext::UniText::compose(text, id);
        self.converters.materialize(&mut v);
        Ok(crate::types::unitext_datum(self.unitext_type, &v))
    }
}

/// Install with the default worked-example taxonomy (the Books fragment of
/// Figures 1 and 4).
pub fn install(session: &mut Session) -> Result<Mural> {
    let langs = Arc::new(LanguageRegistry::new());
    let (taxonomy, _) = books_fragment(&langs);
    install_inner(session, langs, taxonomy)
}

/// Install with a caller-provided taxonomy (benches load the WordNet-scale
/// synthetic hierarchy).
pub fn install_with_taxonomy(session: &mut Session, taxonomy: Taxonomy) -> Result<Mural> {
    let langs = Arc::new(LanguageRegistry::new());
    install_inner(session, langs, taxonomy)
}

fn install_inner(
    session: &mut Session,
    langs: Arc<LanguageRegistry>,
    taxonomy: Taxonomy,
) -> Result<Mural> {
    let converters = Arc::new(ConverterRegistry::with_builtins(&langs));
    let mut catalog = session.engine().catalog_mut();

    // Ω's pinned taxonomy (§4.3), built first: UniText's insert hook
    // stores the synset ids a value names.
    let sem = SemState::new(Arc::new(taxonomy));

    // 1. The UniText datatype (§3.1) with insertion-time phoneme and
    //    concept materialization (§4.2).
    let unitext_type =
        catalog.register_type(unitext_type_def(Arc::clone(&converters), Arc::clone(&sem)));

    // 2. The M-Tree access method through the GiST-equivalent hook (§4.2.1).
    catalog.register_access_method(Arc::new(MTreeAm::new(Arc::clone(&converters))));

    // 3. ψ with cost model, selectivity estimator and index pairing.
    catalog.register_operator(lexequal_operator(
        unitext_type,
        Arc::clone(&converters),
        Arc::clone(&langs),
    ));

    // 4. Ω over the pinned taxonomy.
    catalog.register_operator(semequal_operator(
        unitext_type,
        Arc::clone(&sem),
        Arc::clone(&langs),
    ));

    // 4b. The ≐ identity operator (§3.2.1): true only when *both* the text
    //     and the language components are equal.
    catalog.register_operator(mlql_kernel::catalog::ExtOperator {
        name: "uniteq".into(),
        operand_type: mlql_kernel::DataType::Ext(unitext_type),
        eval: Arc::new(|l, r, _| {
            let (lv, rv) = (
                crate::types::unitext_of_datum(l)?,
                crate::types::unitext_of_datum(r)?,
            );
            Ok(Datum::Bool(lv.identical(&rv)))
        }),
        eval_batch: None,
        prepare_batch: None,
        kind: mlql_kernel::catalog::OperatorKind {
            commutative: true,
            distributes_over_union: true,
        },
        per_tuple_cost: Arc::new(|_, _| 1.0),
        selectivity: Arc::new(|input| match (input.column, input.constant) {
            (Some(stats), Some(c)) => stats.eq_selectivity(c),
            _ => 0.005,
        }),
        index_strategy: None,
        index_extra: None,
        modifier_filter: None,
        index_scan_fraction: None,
        strategy_label: None,
    });

    // 5. SQL functions (⊕/⊗ constructors, transform, editdistance).
    for f in mural_functions(unitext_type, Arc::clone(&langs), Arc::clone(&converters)) {
        catalog.register_function(f);
    }

    // 6. Session defaults (the paper's system-table threshold, §4.2).
    drop(catalog); // release the catalog write lock before touching session state
    session
        .vars_mut()
        .set(THRESHOLD_VAR, Datum::Int(DEFAULT_THRESHOLD));

    Ok(Mural {
        langs,
        converters,
        unitext_type,
        sem,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (Session, Mural) {
        let mut db = Session::new_in_memory();
        let mural = install(&mut db).unwrap();
        (db, mural)
    }

    #[test]
    fn figure2_lexequal_query() {
        let (mut db, _) = setup();
        db.execute("CREATE TABLE book (author UNITEXT, title UNITEXT, language TEXT)")
            .unwrap();
        for (author, title, lang) in [
            ("Nehru", "Glimpses of World History", "English"),
            ("नेहरू", "हिंदुस्तान की कहानी", "Hindi"),
            ("நேரு", "கடிதங்கள்", "Tamil"),
            ("Gandhi", "My Experiments with Truth", "English"),
        ] {
            db.execute(&format!(
                "INSERT INTO book VALUES (unitext('{author}', '{lang}'), unitext('{title}', '{lang}'), '{lang}')"
            ))
            .unwrap();
        }
        db.execute("SET lexequal.threshold = 2").unwrap();
        // Figure 2: SELECT ... WHERE Author LexEQUAL 'Nehru' IN English, Hindi, Tamil
        let rows = db
            .query(
                "SELECT language FROM book WHERE author LEXEQUAL unitext('Nehru','English') IN (English, Hindi, Tamil)",
            )
            .unwrap();
        let mut langs: Vec<String> = rows
            .iter()
            .map(|r| r[0].as_text().unwrap().to_string())
            .collect();
        langs.sort();
        assert_eq!(langs, vec!["English", "Hindi", "Tamil"]);
    }

    #[test]
    fn figure4_semequal_query() {
        let (mut db, _) = setup();
        db.execute("CREATE TABLE book (title TEXT, category UNITEXT)")
            .unwrap();
        for (title, cat, lang) in [
            ("Discovery of India", "History", "English"),
            (
                "The Debate on the English Revolution",
                "Historiography",
                "English",
            ),
            ("Wings of Fire", "Autobiography", "English"),
            ("Histoire de France", "Histoire", "French"),
            ("வரலாறு நூல்", "சரித்திரம்", "Tamil"),
            ("A Novel", "Fiction", "English"),
        ] {
            db.execute(&format!(
                "INSERT INTO book VALUES ('{title}', unitext('{cat}', '{lang}'))"
            ))
            .unwrap();
        }
        // Figure 4: Category SemEQUAL 'History' IN English, French, Tamil.
        let rows = db
            .query(
                "SELECT title FROM book WHERE category SEMEQUAL unitext('History','English') IN (English, French, Tamil)",
            )
            .unwrap();
        assert_eq!(
            rows.len(),
            5,
            "everything under History in the three languages"
        );
        assert!(!rows.iter().any(|r| r[0].as_text() == Some("A Novel")));
    }

    #[test]
    fn language_modifier_restricts_output_languages() {
        let (mut db, _) = setup();
        db.execute("CREATE TABLE book (author UNITEXT)").unwrap();
        for (author, lang) in [("Nehru", "English"), ("नेहरू", "Hindi"), ("நேரு", "Tamil")]
        {
            db.execute(&format!(
                "INSERT INTO book VALUES (unitext('{author}', '{lang}'))"
            ))
            .unwrap();
        }
        db.execute("SET lexequal.threshold = 2").unwrap();
        let only_tamil = db
            .query("SELECT author FROM book WHERE author LEXEQUAL unitext('Nehru','English') IN (Tamil)")
            .unwrap();
        assert_eq!(only_tamil.len(), 1);
        // No modifier: all languages match.
        let all = db
            .query("SELECT author FROM book WHERE author LEXEQUAL unitext('Nehru','English')")
            .unwrap();
        assert_eq!(all.len(), 3);
    }

    #[test]
    fn unitext_ordinary_text_operators() {
        let (mut db, _) = setup();
        db.execute("CREATE TABLE t (v UNITEXT)").unwrap();
        db.execute("INSERT INTO t VALUES (unitext('banana', 'English'))")
            .unwrap();
        db.execute("INSERT INTO t VALUES (unitext('apple', 'French'))")
            .unwrap();
        // §3.2.1: ordinary comparisons see only the text component.
        let rows = db.query("SELECT text_of(v) FROM t ORDER BY v").unwrap();
        assert_eq!(rows[0][0].as_text(), Some("apple"));
        let eq = db
            .query("SELECT count(*) FROM t WHERE v = unitext('apple', 'Tamil')")
            .unwrap();
        assert!(
            eq[0][0].eq_sql(&Datum::Int(1)),
            "text-only equality crosses languages"
        );
    }

    #[test]
    fn mtree_index_serves_lexequal_probe() {
        let (mut db, _) = setup();
        db.execute("CREATE TABLE names (n UNITEXT)").unwrap();
        for i in 0..300 {
            db.execute(&format!(
                "INSERT INTO names VALUES (unitext('person{i}', 'English'))"
            ))
            .unwrap();
        }
        db.execute("INSERT INTO names VALUES (unitext('Nehru', 'English'))")
            .unwrap();
        db.execute("CREATE INDEX names_mt ON names (n) USING mtree")
            .unwrap();
        db.execute("ANALYZE names").unwrap();
        db.execute("SET lexequal.threshold = 1").unwrap();
        // Force the index path to prove it works end to end.
        db.execute("SET enable_seqscan = 0").unwrap();
        let r = db
            .execute("SELECT count(*) FROM names WHERE n LEXEQUAL unitext('Neru','English')")
            .unwrap();
        assert!(r.rows[0][0].eq_sql(&Datum::Int(1)));
        assert!(r.explain.unwrap().contains("Index Scan"));
        assert!(r.stats.index_node_visits > 0);
    }

    #[test]
    fn nearest_api_orders_by_phonemic_distance() {
        let (mut db, mural) = setup();
        db.execute("CREATE TABLE names (n UNITEXT)").unwrap();
        for name in ["Nehru", "Neru", "Nero", "Gandhi", "Patel", "Bose"] {
            db.execute(&format!(
                "INSERT INTO names VALUES (unitext('{name}','English'))"
            ))
            .unwrap();
        }
        db.execute("CREATE INDEX names_mt ON names (n) USING mtree")
            .unwrap();
        let probe = mural.unitext("Nehru", "English").unwrap();
        let rows = mural.nearest(&db, "names", "names_mt", &probe, 3).unwrap();
        assert_eq!(rows.len(), 3);
        let texts: Vec<String> = rows
            .iter()
            .map(|r| {
                crate::types::unitext_of_datum(&r[0])
                    .unwrap()
                    .text()
                    .to_string()
            })
            .collect();
        assert_eq!(texts[0], "Nehru");
        assert!(texts.contains(&"Neru".to_string()));
    }

    #[test]
    fn phoneme_materialized_on_insert() {
        let (mut db, mural) = setup();
        db.execute("CREATE TABLE t (v UNITEXT)").unwrap();
        db.execute("INSERT INTO t VALUES (unitext('Nehru', 'English'))")
            .unwrap();
        let rows = db.query("SELECT phoneme_of(v) FROM t").unwrap();
        assert_eq!(rows[0][0].as_text(), Some("nehru"));
        let _ = mural;
    }

    #[test]
    fn direct_api_unitext_construction() {
        let (mut db, mural) = setup();
        db.execute("CREATE TABLE t (v UNITEXT)").unwrap();
        let d = mural.unitext("நேரு", "Tamil").unwrap();
        db.insert_row("t", vec![d]).unwrap();
        let rows = db.query("SELECT lang_of(v) FROM t").unwrap();
        assert_eq!(rows[0][0].as_text(), Some("Tamil"));
        assert!(mural.unitext("x", "Klingon").is_err());
    }

    #[test]
    fn existing_functionality_unaffected() {
        // The §5.1 sanity claim at unit scale: a plain relational workload
        // runs identically with the extension installed.
        let mut plain = Session::new_in_memory();
        let mut extended = Session::new_in_memory();
        let _ = install(&mut extended).unwrap();
        for db in [&mut plain, &mut extended] {
            db.execute("CREATE TABLE t (id INT, v TEXT)").unwrap();
            for i in 0..50 {
                db.execute(&format!("INSERT INTO t VALUES ({i}, 'v{i}')"))
                    .unwrap();
            }
        }
        let a = plain.query("SELECT count(*) FROM t WHERE id < 25").unwrap();
        let b = extended
            .query("SELECT count(*) FROM t WHERE id < 25")
            .unwrap();
        assert!(a[0][0].eq_sql(&b[0][0]));
    }
}
