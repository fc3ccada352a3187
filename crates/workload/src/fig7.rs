//! `fig7_join`: the paper's Figure-7 query — books whose author's name
//! sounds like a publisher's name (ψ in join position, threshold 3) —
//! with the Figure-2 `category SEMEQUAL` filter, over tables in the
//! paper's 4 : 1 : 10 ratio and a WordNet-scale taxonomy.
//!
//! The taxonomy stands in for WordNet, a fixed corpus: its 115k-synset
//! tree and the 1 % grafted second parents (exception edges that force
//! the closure fallback) come from a fixed corpus seed, so the 32
//! category roots have the same closure sizes (10² … 3·10⁴) under every
//! `--seed`.  The seed drives the author and publisher names, each
//! book's author, publisher and category, and the order the roots are
//! queried in.  Categories are stratified over the tree's preorder, so
//! a root's closure holds its share of the books exactly rather than in
//! expectation — the per-round work does not wander with the seed.
//!
//! 32 statements fit the plan cache (always hits after warm-up); all
//! tables fit the buffer pool; closed loop, one client.

use crate::fixture::{
    generate_names, load_id_name, materialized, open_memory, plan_stamp, RowSet, Scale, SetupStages,
};
use crate::json::Json;
use crate::layers::{self, NamesProbe};
use crate::measure::{OpRecord, Workload};
use crate::psi::{record_select, tally_examined};
use crate::trace::{Recorder, Traced};
use mlql_kernel::engine::{Engine, Session};
use mlql_kernel::{Datum, Result};
use mlql_mural::lexequal::psi_matches;
use mlql_mural::types::unitext_datum;
use mlql_mural::Mural;
use mlql_taxonomy::closure::compute_closure;
use mlql_taxonomy::{
    generate, synsets_near_closure_sizes, GeneratorConfig, IntervalIndex, SynsetId, Taxonomy,
};
use mlql_unitext::UniText;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use std::time::Instant;

/// Category roots, and ops per round.
pub const ROOTS: usize = 32;
pub const THRESHOLD: usize = 3;
/// Seed of the WordNet stand-in (tree and grafts), the same for every run.
const CORPUS_SEED: u64 = 0x0d1ce;

pub struct Book {
    pub id: i64,
    pub author: usize,
    pub publisher: usize,
    pub category: SynsetId,
}

pub struct Root {
    pub synset: SynsetId,
    pub tree_closure: usize,
    pub literal: Datum,
    pub sql: String,
}

pub struct Fig7 {
    pub mural: Mural,
    pub session: Session,
    pub authors: Vec<UniText>,
    pub publishers: Vec<UniText>,
    pub books: Vec<Book>,
    pub roots: Vec<Root>,
    /// Root index of every op of a round.
    order: Vec<u32>,
    pub stages: SetupStages,
    errors: Vec<String>,
}

struct Sizes {
    synsets: usize,
    authors: usize,
    publishers: usize,
    books: usize,
    closure_lo: f64,
    closure_hi: f64,
}

impl Fig7 {
    pub fn build(seed: u64, scale: Scale) -> Result<Fig7> {
        let sz = match scale {
            Scale::Full => Sizes {
                synsets: 115_000,
                authors: 2400,
                publishers: 600,
                books: 6000,
                closure_lo: 1e2,
                closure_hi: 3e4,
            },
            Scale::Mini => Sizes {
                synsets: 5_000,
                authors: 200,
                publishers: 50,
                books: 500,
                closure_lo: 10.0,
                closure_hi: 1.5e3,
            },
        };
        let mut stages = SetupStages::default();
        let mut rng = StdRng::seed_from_u64(seed ^ 0xf167);
        let en = mlql_unitext::LanguageRegistry::new().id_of("English");

        // --- the corpus: tree, roots, preorder, then the grafts ----------
        let (taxonomy, roots, preorder) = stages.time(
            |s| &mut s.generate_s,
            || {
                let mut t = generate(
                    en,
                    &GeneratorConfig {
                        synsets: sz.synsets,
                        seed: CORPUS_SEED,
                        ..GeneratorConfig::default()
                    },
                );
                let roots = pick_roots(&t, sz.closure_lo, sz.closure_hi);
                let preorder = tree_preorder(&t);
                let mut corpus_rng = StdRng::seed_from_u64(CORPUS_SEED ^ 0x6af7);
                for _ in 0..sz.synsets / 100 {
                    // parent < child keeps the hierarchy acyclic (ids grow
                    // with creation order).
                    let child = corpus_rng.gen_range(2..sz.synsets);
                    let parent = corpus_rng.gen_range(1..child);
                    t.add_hyponym(SynsetId(parent as u32), SynsetId(child as u32));
                }
                (t, roots, preorder)
            },
        );
        let word_of = |t: &Taxonomy, s: SynsetId| UniText::compose(t.words(s)[0].as_str(), en);
        let root_words: Vec<UniText> = roots.iter().map(|(s, _)| word_of(&taxonomy, *s)).collect();

        // --- the catalog --------------------------------------------------
        let stride = sz.synsets / sz.books;
        let books: Vec<Book> = (0..sz.books)
            .map(|i| Book {
                id: i as i64,
                author: rng.gen_range(0..sz.authors),
                publisher: rng.gen_range(0..sz.publishers),
                category: preorder[i * stride + rng.gen_range(0..stride)],
            })
            .collect();
        let book_cats: Vec<UniText> = books
            .iter()
            .map(|b| word_of(&taxonomy, b.category))
            .collect();

        let (db, mural) = open_memory(Some(taxonomy))?;
        let mut session = db.connect();

        let (authors, publishers): (Vec<UniText>, Vec<UniText>) = stages.time(
            |s| &mut s.generate_s,
            || {
                let names = |n, salt| {
                    generate_names(&mural, n, seed ^ salt)
                        .into_iter()
                        .map(|r| r.name)
                        .collect()
                };
                (names(sz.authors, 0xa7), names(sz.publishers, 0x9b))
            },
        );

        session.execute("CREATE TABLE author (authorid INT, aname UNITEXT)")?;
        session.execute("CREATE TABLE publisher (pubid INT, pname UNITEXT)")?;
        session
            .execute("CREATE TABLE book (bookid INT, authorid INT, pubid INT, category UNITEXT)")?;
        let ty = mural.unitext_type;
        let id_name = |vs: &[UniText]| -> Vec<(i64, Datum)> {
            vs.iter()
                .enumerate()
                .map(|(i, v)| (i as i64, unitext_datum(ty, v)))
                .collect()
        };
        stages.time(
            |s| &mut s.load_s,
            || -> Result<()> {
                load_id_name(&mut session, "author", &id_name(&authors))?;
                load_id_name(&mut session, "publisher", &id_name(&publishers))?;
                session.execute("BEGIN")?;
                for (b, cat) in books.iter().zip(&book_cats) {
                    session.insert_row(
                        "book",
                        vec![
                            Datum::Int(b.id),
                            Datum::Int(b.author as i64),
                            Datum::Int(b.publisher as i64),
                            unitext_datum(ty, cat),
                        ],
                    )?;
                }
                session.execute("COMMIT")?;
                Ok(())
            },
        )?;
        stages.rows_loaded = sz.authors + sz.publishers + sz.books;
        stages.time(
            |s| &mut s.analyze_s,
            || -> Result<()> {
                for t in ["author", "publisher", "book"] {
                    session.execute(&format!("ANALYZE {t}"))?;
                }
                Ok(())
            },
        )?;
        session.execute(&format!("SET lexequal.threshold = {THRESHOLD}"))?;

        let roots = roots
            .into_iter()
            .zip(root_words)
            .map(|((synset, tree_closure), word)| Root {
                synset,
                tree_closure,
                literal: materialized(&mural, &word),
                sql: format!(
                    "SELECT b.bookid, p.pubid FROM author a, publisher p, book b \
                     WHERE a.aname LEXEQUAL p.pname AND b.authorid = a.authorid \
                     AND b.category SEMEQUAL unitext('{}','English')",
                    word.text()
                ),
            })
            .collect();

        // Every round queries all 32 roots, in an order the seed shuffles.
        let mut order: Vec<u32> = (0..ROOTS as u32).collect();
        for i in (1..order.len()).rev() {
            order.swap(i, rng.gen_range(0..i + 1));
        }
        Ok(Fig7 {
            mural,
            session,
            authors,
            publishers,
            books,
            roots,
            order,
            stages,
            errors: Vec::new(),
        })
    }

    pub fn key_of(&self, n: usize) -> u32 {
        self.order[n % self.order.len()]
    }

    pub fn stamp(&self) -> Json {
        // The smallest and the largest closure may plan differently.
        let small = self.roots.iter().min_by_key(|r| r.tree_closure);
        let large = self.roots.iter().max_by_key(|r| r.tree_closure);
        let (small, large) = (small.expect("32 roots"), large.expect("32 roots"));
        Json::Arr(vec![
            plan_stamp(&self.session, "fig7_join.small_closure", &small.sql),
            plan_stamp(&self.session, "fig7_join.large_closure", &large.sql),
        ])
    }

    /// For every author, the publishers whose name ψ-matches, by nested
    /// loops over the generated names.
    fn psi_pairs(&self) -> Vec<Vec<i64>> {
        let pubs: Vec<Datum> = self
            .publishers
            .iter()
            .map(|v| materialized(&self.mural, v))
            .collect();
        self.authors
            .iter()
            .map(|a| {
                let a = materialized(&self.mural, a);
                pubs.iter()
                    .enumerate()
                    .filter(|(_, p)| {
                        psi_matches(&a, p, THRESHOLD, &self.mural.converters)
                            .expect("generated names decode")
                    })
                    .map(|(i, _)| i as i64)
                    .collect()
            })
            .collect()
    }

    /// Expected row set of one root: Ω by an uncached closure walk, the
    /// join by nested loops over that and the ψ pairs.
    fn oracle(&self, taxonomy: &Taxonomy, pairs: &[Vec<i64>], key: u32) -> u64 {
        let closure = compute_closure(taxonomy, self.roots[key as usize].synset);
        let mut set = RowSet::default();
        for b in self.books.iter().filter(|b| closure.contains(&b.category)) {
            for p in &pairs[b.author] {
                set.add(&[Datum::Int(b.id), Datum::Int(*p)]);
            }
        }
        set.checksum()
    }
}

/// 32 distinct synsets whose subtree sizes are spread log-uniformly over
/// `[lo, hi]` (fewer candidates exist than targets at the large end, so
/// oversample the targets and thin the distinct hits evenly).
fn pick_roots(tree: &Taxonomy, lo: f64, hi: f64) -> Vec<(SynsetId, usize)> {
    let targets: Vec<usize> = (0..4 * ROOTS)
        .map(|i| (lo * (hi / lo).powf(i as f64 / (4 * ROOTS - 1) as f64)) as usize)
        .collect();
    let mut seen = HashSet::new();
    let mut distinct: Vec<(SynsetId, usize)> = synsets_near_closure_sizes(tree, &targets)
        .into_iter()
        .filter(|(_, s, _)| seen.insert(*s))
        .map(|(_, s, size)| (s, size))
        .collect();
    distinct.sort_by_key(|(s, size)| (*size, s.raw()));
    assert!(
        distinct.len() >= ROOTS,
        "taxonomy too small for {ROOTS} roots"
    );
    (0..ROOTS)
        .map(|i| distinct[i * (distinct.len() - 1) / (ROOTS - 1)])
        .collect()
}

/// Preorder of the (still tree-shaped) hierarchy from synset 0.
fn tree_preorder(tree: &Taxonomy) -> Vec<SynsetId> {
    let mut order = Vec::with_capacity(tree.len());
    let mut stack = vec![SynsetId(0)];
    while let Some(s) = stack.pop() {
        order.push(s);
        stack.extend(tree.children(s).iter().rev());
    }
    assert_eq!(order.len(), tree.len(), "generated hierarchy is one tree");
    order
}

impl Workload for Fig7 {
    fn round(&mut self, index: u64, log: &mut Vec<OpRecord>) {
        let base = index as usize * ROOTS;
        for j in 0..ROOTS {
            let key = self.key_of(base + j);
            let sql = &self.roots[key as usize].sql;
            let start = Instant::now();
            let res = self.session.execute(sql);
            let latency = start.elapsed();
            log.push(record_select(key, sql, &res, latency, &mut self.errors));
        }
    }

    fn verify(&mut self, log: &[OpRecord]) -> Vec<String> {
        let taxonomy = self.mural.sem.taxonomy();
        let pairs = self.psi_pairs();
        let expected: Vec<u64> = (0..ROOTS as u32)
            .map(|k| self.oracle(&taxonomy, &pairs, k))
            .collect();
        let mut failures = std::mem::take(&mut self.errors);
        for (i, op) in log.iter().enumerate() {
            let want = expected[op.key as usize];
            if !op.ok {
                failures.push(format!("op {i} (root {}): statement failed", op.key));
            } else if want != op.checksum {
                failures.push(format!(
                    "op {i} (root {}): row-set checksum {:016x}, oracle {want:016x}",
                    op.key, op.checksum
                ));
            }
        }
        failures
    }
}

impl Fig7 {
    /// Replay the layer calls of one executed join: decode the three
    /// tables, Ω over every book's category (interval containment as its
    /// child), then ψ between each surviving book's author and every
    /// publisher — the order the planner picks (Ω filter, hash join on
    /// `authorid`, ψ nested loop).
    fn replay(&mut self, rec: &mut Recorder, op: u32, key: u32, missed: bool) -> Result<()> {
        let root = &self.roots[key as usize];
        if missed {
            layers::replay_frontend(rec, op, &self.session, &root.sql)?;
        }
        let engine = Arc::clone(self.session.engine());
        let batch = mlql_kernel::exec::effective_batch_size(self.session.vars());
        let authors = layers::replay_decode(rec, op, &engine, "author")?;
        let publishers = layers::replay_decode(rec, op, &engine, "publisher")?;
        let books = layers::replay_decode(rec, op, &engine, "book")?;

        let categories: Vec<&Datum> = books.iter().map(|r| &r[3]).collect();
        let sem = &self.mural.sem;
        let (kept, omega) = rec.span_id("mural.semequal", None, op, || {
            let run = || -> Result<Vec<bool>> {
                let mut out = Vec::with_capacity(categories.len());
                for chunk in categories.chunks(batch.max(1)) {
                    let v = sem.omega_matches_batch(chunk, &root.literal)?;
                    out.extend(v.iter().map(Datum::is_true));
                }
                Ok(out)
            };
            (run(), categories.len() as u64)
        });
        let kept = kept?;
        rec.span("taxonomy.intervals", Some(omega), op, || {
            let index = sem.intervals();
            let mut inside = 0u64;
            for b in &self.books {
                inside += u64::from(index.contains(root.synset, b.category) == Some(true));
            }
            (std::hint::black_box(inside), self.books.len() as u64)
        });

        let name_of: HashMap<i64, &Datum> = authors
            .iter()
            .filter_map(|r| Some((r[0].as_int()?, &r[1])))
            .collect();
        let outer: Vec<&Datum> = books
            .iter()
            .zip(&kept)
            .filter(|(_, keep)| **keep)
            .filter_map(|(b, _)| name_of.get(&b[1].as_int()?).copied())
            .collect();
        let inner: Vec<&Datum> = publishers.iter().map(|r| &r[1]).collect();
        layers::replay_lexequal(rec, op, &self.mural, &inner, &outer, THRESHOLD, batch)?;
        Ok(())
    }
}

impl Traced for Fig7 {
    fn traced_round(&mut self, index: u64, rec: &mut Recorder, log: &mut Vec<OpRecord>) {
        let misses = &mlql_kernel::obs::metrics().plan_cache_misses_total;
        let base = index as usize * ROOTS;
        for j in 0..ROOTS {
            let op = log.len() as u32;
            let key = self.key_of(base + j);
            let sql = &self.roots[key as usize].sql;
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
                rec.count("exec.join.pairs", r.stats.ext_op_calls as f64);
                rec.count("exec.join.exec_s", r.stats.exec_time.as_secs_f64());
            }
            if let Err(e) = self.replay(rec, op, key, missed) {
                self.errors.push(format!("replay of op {op}: {e}"));
            }
        }
    }

    fn probe(&mut self, rec: &mut Recorder) -> Result<()> {
        let taxonomy = self.mural.sem.taxonomy();
        rec.span(
            "taxonomy.intervals.build",
            None,
            crate::trace::NO_OP,
            || (std::hint::black_box(IntervalIndex::build(&taxonomy)), 1),
        );
        let probe = NamesProbe {
            session: &mut self.session,
            mural: &self.mural,
            table: "author",
            id_col: 0,
            text_col: 1,
            probes: self.publishers.clone(),
            threshold: THRESHOLD,
            statements: self.roots.iter().map(|r| r.sql.clone()).collect(),
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
    fn mini_join_agrees_with_the_oracle() {
        let mut w = Fig7::build(5, Scale::Mini).unwrap();
        assert_eq!(w.roots.len(), ROOTS);
        let distinct: HashSet<_> = w.roots.iter().map(|r| r.synset).collect();
        assert_eq!(distinct.len(), ROOTS);
        let mut log = Vec::new();
        w.round(0, &mut log);
        assert_eq!(w.verify(&log), Vec::<String>::new());
        // Some root must return rows, or the check is vacuous.
        let empty = RowSet::default().checksum();
        assert!(log.iter().any(|op| op.checksum != empty));
        log[3].checksum ^= 1;
        assert_eq!(w.verify(&log).len(), 1);
    }
}
