//! The M-Tree access method — the paper's GiST-registered metric index
//! (§4.2.1) serving ψ probes through the `"within"` strategy.
//!
//! Keys are the *materialized phoneme strings* of UniText values ("indexes
//! being created on the materialized phoneme strings", §3.3); the metric is
//! the Levenshtein edit distance, and its sketch is the key's
//! [`phone_set`].  So besides the paper's triangle-inequality pruning, a
//! probe skips every entry and subtree whose length/phone-set lower bound
//! exceeds its radius before computing any distance — a deviation from the
//! paper, whose M-tree pruned "poorly" on short phoneme strings (§5.3).
//! Inserts and splits use the one-shot distance; a probe compiles its
//! phonemes once into the [`PhonemeProbe`] ψ's scans and joins run and
//! asks only "is this key within the pruning bound, and at what distance",
//! so it visits, computes and prunes exactly what the generic metric
//! would, at the kernel's price per key.  The planner prices a probe per
//! visited key (the fitted visit fraction of
//! `lexequal::approx_index_fraction`), not per page: the tree is
//! memory-resident.  Deletion uses tombstones — the underlying M-Tree,
//! like PostgreSQL-era GiST, does not reclaim entries online.  Checkpoint
//! vacuum tombstones one entry per dead version and nothing compacts the
//! set before the index is rebuilt; a probe skips tombstoned entries
//! inside the walk, so they never take a place among a `nearest` probe's
//! k best.

use crate::types::unitext_of_datum;
use mlql_kernel::index::{AccessMethod, IndexInstance, IndexSearch};
use mlql_kernel::storage::TupleId;
use mlql_kernel::{Datum, Error, Result};
use mlql_mtree::{MTree, Metric, QueryStats};
use mlql_phonetics::distance::{edit_distance, phone_set, PhonemeProbe};
use mlql_phonetics::ConverterRegistry;
use std::collections::HashSet;
use std::sync::Arc;

/// The seed of every index's random split, so builds are reproducible.
pub const SPLIT_SEED: u64 = 0x3713;

/// Edit distance over phonemes, sketched by the phone set.
struct PhonemeMetric;

impl Metric for PhonemeMetric {
    fn distance(&self, a: &[u8], b: &[u8]) -> f64 {
        edit_distance(a, b) as f64
    }

    fn sketch(&self, key: &[u8]) -> Option<u64> {
        Some(phone_set(key))
    }
}

/// One live M-Tree index instance.
pub struct MTreeIndex {
    tree: MTree<TupleId, PhonemeMetric>,
    deleted: HashSet<(Vec<u8>, TupleId)>,
    converters: Arc<ConverterRegistry>,
    live: usize,
}

impl MTreeIndex {
    fn new(converters: Arc<ConverterRegistry>) -> Self {
        MTreeIndex {
            tree: MTree::with_options(PhonemeMetric, mlql_mtree::DEFAULT_NODE_CAPACITY, SPLIT_SEED),
            deleted: HashSet::new(),
            converters,
            live: 0,
        }
    }

    /// Phoneme key bytes of an indexed datum.
    fn key_of(&self, d: &Datum) -> Result<Vec<u8>> {
        let v = unitext_of_datum(d)?;
        Ok(self.converters.phonemes_of(&v).as_bytes().to_vec())
    }

    /// Whether the entry `(key, tid)` is not tombstoned.
    fn is_live(&self, key: &[u8], tid: TupleId) -> bool {
        self.deleted.is_empty() || !self.deleted.contains(&(key.to_vec(), tid))
    }

    /// Serve `strategy` for the phoneme key `key`: the live tuple ids and
    /// the tree's query stats.
    ///
    /// The query side is compiled once per probe into one
    /// [`PhonemeProbe`], and each entry that passes the tree's phone-set
    /// bound costs one capped kernel run, so the tree visits, computes and
    /// prunes exactly what the generic [`PhonemeMetric`] search does.
    fn probe(
        &self,
        key: &[u8],
        strategy: &str,
        extra: &Datum,
    ) -> Result<(Vec<TupleId>, QueryStats)> {
        let mut probe = PhonemeProbe::new(key);
        // Edit distances are integers, so truncating the cap is exact.
        let dq =
            |entry: &[u8], cap: f64| probe.distance_within(entry, cap as usize).map(|d| d as f64);
        let live = |entry: &[u8], tid: &TupleId| self.is_live(entry, *tid);
        let (hits, stats) = match strategy {
            "within" => {
                let radius = extra.as_int().unwrap_or(0).max(0) as f64;
                self.tree.range_with(key, dq, radius, live)
            }
            // k-nearest phonemic neighbours — the "best match" LexEQUAL
            // variation the companion papers describe.
            "nearest" => {
                let k = extra.as_int().unwrap_or(1).max(1) as usize;
                self.tree.nearest_with(key, dq, k, live)
            }
            other => {
                return Err(Error::Execution(format!(
                    "mtree does not support strategy {other:?}"
                )))
            }
        };
        Ok((hits.into_iter().map(|(_, tid, _)| tid).collect(), stats))
    }
}

impl IndexInstance for MTreeIndex {
    fn insert(&mut self, key: &Datum, tid: TupleId) -> Result<()> {
        let ph = self.key_of(key)?;
        // A pending tombstone means the physical entry is still in the
        // tree: clearing the tombstone resurrects it; inserting again
        // would duplicate it.
        if !self.deleted.remove(&(ph.clone(), tid)) {
            self.tree.insert(&ph, tid);
        }
        self.live += 1;
        Ok(())
    }

    fn delete(&mut self, key: &Datum, tid: TupleId) -> Result<()> {
        let ph = self.key_of(key)?;
        if self.deleted.insert((ph, tid)) {
            self.live = self.live.saturating_sub(1);
        }
        Ok(())
    }

    fn search(&self, strategy: &str, probe: &Datum, extra: &Datum) -> Result<IndexSearch> {
        let (tids, stats) = self.probe(&self.key_of(probe)?, strategy, extra)?;
        mlql_kernel::obs::metrics()
            .mtree_distance_computations_total
            .add(stats.dist_computations);
        Ok(IndexSearch {
            tids,
            node_visits: stats.nodes_visited,
            comparisons: stats.dist_computations,
        })
    }

    fn pages(&self) -> u64 {
        self.tree.node_count() as u64
    }

    fn len(&self) -> usize {
        self.live
    }
}

/// The `"mtree"` access method, registered in the catalog the way the
/// paper registered the M-Tree through GiST.
pub struct MTreeAm {
    converters: Arc<ConverterRegistry>,
}

impl MTreeAm {
    /// The M-tree access method; its trees split at random, the paper's
    /// choice ("best index modification time").
    pub fn new(converters: Arc<ConverterRegistry>) -> Self {
        MTreeAm { converters }
    }
}

impl AccessMethod for MTreeAm {
    fn name(&self) -> &str {
        "mtree"
    }

    fn strategies(&self) -> &[&str] {
        &["within", "nearest"]
    }

    fn create(&self) -> Result<Box<dyn IndexInstance>> {
        Ok(Box::new(MTreeIndex::new(Arc::clone(&self.converters))))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::unitext_datum;
    use mlql_kernel::ExtTypeId;
    use mlql_unitext::{LanguageRegistry, UniText};

    fn setup() -> (Arc<LanguageRegistry>, Box<dyn IndexInstance>) {
        let langs = Arc::new(LanguageRegistry::new());
        let convs = Arc::new(ConverterRegistry::with_builtins(&langs));
        let am = MTreeAm::new(convs);
        (langs, am.create().unwrap())
    }

    fn ut(langs: &LanguageRegistry, text: &str, lang: &str) -> Datum {
        unitext_datum(ExtTypeId(0), &UniText::compose(text, langs.id_of(lang)))
    }

    fn tid(n: u32) -> TupleId {
        TupleId { page: n, slot: 0 }
    }

    #[test]
    fn within_search_finds_cross_script_homophones() {
        let (langs, mut idx) = setup();
        idx.insert(&ut(&langs, "Nehru", "English"), tid(1)).unwrap();
        idx.insert(&ut(&langs, "நேரு", "Tamil"), tid(2)).unwrap();
        idx.insert(&ut(&langs, "नेहरू", "Hindi"), tid(3)).unwrap();
        idx.insert(&ut(&langs, "Gandhi", "English"), tid(4))
            .unwrap();
        let probe = ut(&langs, "Nehru", "English");
        let r = idx.search("within", &probe, &Datum::Int(2)).unwrap();
        let mut pages: Vec<u32> = r.tids.iter().map(|t| t.page).collect();
        pages.sort_unstable();
        assert_eq!(pages, vec![1, 2, 3]);
    }

    #[test]
    fn tombstoned_entries_disappear() {
        let (langs, mut idx) = setup();
        let key = ut(&langs, "Nehru", "English");
        idx.insert(&key, tid(1)).unwrap();
        idx.insert(&key, tid(2)).unwrap();
        idx.delete(&key, tid(1)).unwrap();
        let r = idx.search("within", &key, &Datum::Int(0)).unwrap();
        assert_eq!(r.tids, vec![tid(2)]);
        assert_eq!(idx.len(), 1);
        // Re-insert resurrects.
        idx.insert(&key, tid(1)).unwrap();
        let r = idx.search("within", &key, &Datum::Int(0)).unwrap();
        assert_eq!(r.tids.len(), 2);
    }

    /// Tombstones never touch the tree: `pages()` (the tree's node
    /// counter) is what the same inserts give a fresh index, through
    /// deletes and resurrecting re-inserts alike.
    #[test]
    fn pages_unmoved_by_tombstones() {
        let (langs, mut idx) = setup();
        let (_, mut twin) = setup();
        let key = |i: u32| ut(&langs, &format!("name{}", i % 700), "English");
        for i in 0..2_000 {
            idx.insert(&key(i), tid(i)).unwrap();
            twin.insert(&key(i), tid(i)).unwrap();
        }
        let pages = idx.pages();
        assert!(pages > 1 && pages == twin.pages());
        for i in (0..2_000).step_by(3) {
            idx.delete(&key(i), tid(i)).unwrap();
        }
        assert_eq!(idx.pages(), pages);
        assert_eq!(idx.len(), 2_000 - 667);
        for i in (0..2_000).step_by(6) {
            idx.insert(&key(i), tid(i)).unwrap();
        }
        assert_eq!(idx.pages(), pages);
    }

    #[test]
    fn nearest_strategy_returns_k_best() {
        let (langs, mut idx) = setup();
        for (i, n) in ["Nehru", "Neru", "Nero", "Gandhi", "Patel"]
            .iter()
            .enumerate()
        {
            idx.insert(&ut(&langs, n, "English"), tid(i as u32))
                .unwrap();
        }
        let probe = ut(&langs, "Nehru", "English");
        let r = idx.search("nearest", &probe, &Datum::Int(3)).unwrap();
        let pages: Vec<u32> = r.tids.iter().map(|t| t.page).collect();
        assert_eq!(pages.len(), 3);
        assert_eq!(pages[0], 0, "exact match first");
        assert!(
            pages.contains(&1) && pages.contains(&2),
            "homophones next: {pages:?}"
        );
        // Tombstoned entries are skipped without shrinking the result.
        idx.delete(&ut(&langs, "Neru", "English"), tid(1)).unwrap();
        let r2 = idx.search("nearest", &probe, &Datum::Int(3)).unwrap();
        assert_eq!(r2.tids.len(), 3);
        assert!(!r2.tids.iter().any(|t| t.page == 1));
    }

    #[test]
    fn unsupported_strategy_rejected() {
        let (langs, idx) = setup();
        let probe = ut(&langs, "x", "English");
        assert!(idx.search("eq", &probe, &Datum::Null).is_err());
    }

    #[test]
    fn search_reports_node_visits() {
        let (langs, mut idx) = setup();
        for i in 0..500 {
            idx.insert(&ut(&langs, &format!("name{i}"), "English"), tid(i))
                .unwrap();
        }
        let r = idx
            .search("within", &ut(&langs, "name250", "English"), &Datum::Int(1))
            .unwrap();
        assert!(r.node_visits >= 1);
        assert!(r.comparisons > 0);
        assert!(idx.pages() > 1);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use mlql_unitext::LanguageRegistry;
    use proptest::collection::vec;
    use proptest::prelude::*;

    /// A phoneme key over a five-symbol alphabet in which `A` and `0xC1`,
    /// and `k` and `+`, fold onto one [`phone_set`] bit: short (empty
    /// included) or, in one case of four, a 60-symbol stem plus a short
    /// tail, so keys and queries straddle the 64-symbol word of the Myers
    /// matcher.
    fn key() -> impl Strategy<Value = Vec<u8>> {
        const SYMBOLS: [u8; 5] = [b'A', 0xC1, b'k', b'+', b'n'];
        (vec((0usize..5).prop_map(|s| SYMBOLS[s]), 0..10), 0u8..4).prop_map(|(tail, long)| {
            let stem = if long == 0 { 60 } else { 0 };
            (0..stem).map(|i| SYMBOLS[i % 3]).chain(tail).collect()
        })
    }

    fn tid(n: usize) -> TupleId {
        TupleId {
            page: n as u32,
            slot: 0,
        }
    }

    /// An index over `keys` (one tuple each, duplicates allowed) with the
    /// entries `dead` marks tombstoned.
    fn index(keys: &[Vec<u8>], dead: &[bool]) -> MTreeIndex {
        let langs = LanguageRegistry::new();
        let convs = Arc::new(ConverterRegistry::with_builtins(&langs));
        let mut idx = MTreeIndex::new(convs);
        for (i, (k, &dead)) in keys.iter().zip(dead).enumerate() {
            idx.tree.insert(k, tid(i));
            if dead {
                idx.deleted.insert((k.clone(), tid(i)));
            }
        }
        idx
    }

    fn sorted(mut tids: Vec<TupleId>) -> Vec<TupleId> {
        tids.sort_unstable_by_key(|t| (t.page, t.slot));
        tids
    }

    /// The edit distance from `query` to each live key, by tuple id: the
    /// linear scan a probe must agree with.
    fn linear(keys: &[Vec<u8>], dead: &[bool], query: &[u8]) -> Vec<(TupleId, usize)> {
        keys.iter()
            .zip(dead)
            .enumerate()
            .filter(|(_, (_, &dead))| !dead)
            .map(|(i, (k, _))| (tid(i), edit_distance(query, k)))
            .collect()
    }

    /// The distances of a nearest probe's tids, ascending.
    fn distances(keys: &[Vec<u8>], query: &[u8], tids: &[TupleId]) -> Vec<usize> {
        let mut d: Vec<usize> = tids
            .iter()
            .map(|t| edit_distance(query, &keys[t.page as usize]))
            .collect();
        d.sort_unstable();
        d
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        /// The compiled probe returns what a linear scan of the live keys
        /// returns, and visits, computes and prunes what the generic-metric
        /// search does.
        #[test]
        fn compiled_probe_equals_generic_metric(
            entries in vec((key(), 0u8..5), 1..160),
            query in key(),
            k in 1usize..6,
        ) {
            let keys: Vec<Vec<u8>> = entries.iter().map(|(k, _)| k.clone()).collect();
            let dead: Vec<bool> = entries.iter().map(|&(_, d)| d == 0).collect();
            let idx = index(&keys, &dead);
            let scan = linear(&keys, &dead, &query);
            for radius in 0..=4i64 {
                let (tids, stats) = idx.probe(&query, "within", &Datum::Int(radius)).unwrap();
                let (_, want) = idx.tree.range(&query, radius as f64);
                prop_assert_eq!(stats, want, "within {}", radius);
                let expect: Vec<TupleId> = scan.iter()
                    .filter(|&&(_, d)| d as i64 <= radius)
                    .map(|&(t, _)| t)
                    .collect();
                prop_assert_eq!(sorted(tids), sorted(expect), "within {}", radius);
            }
            let (tids, stats) = idx.probe(&query, "nearest", &Datum::Int(k as i64)).unwrap();
            let generic = |key: &[u8], cap: f64| {
                let d = edit_distance(&query, key) as f64;
                (d <= cap).then_some(d)
            };
            let (_, want) = idx.tree.nearest_with(&query, generic, k, |key, t| idx.is_live(key, *t));
            prop_assert_eq!(stats, want, "nearest {}", k);
            prop_assert!(tids.iter().all(|t| !dead[t.page as usize]));
            let mut expect: Vec<usize> = scan.iter().map(|&(_, d)| d).collect();
            expect.sort_unstable();
            expect.truncate(k);
            prop_assert_eq!(distances(&keys, &query, &tids), expect, "nearest {}", k);
        }
    }

    /// Tombstones far from the query neither change a `nearest` result nor
    /// cost it distances: they never enter the best k, and the phone-set
    /// bound skips them.
    #[test]
    fn far_tombstones_do_not_widen_nearest() {
        let mut keys: Vec<Vec<u8>> = Vec::new();
        for i in 0..300usize {
            keys.push(
                (0..4 + i % 5)
                    .map(|j| b"abcde"[(i * 7 + j * 3) % 5])
                    .collect(),
            );
        }
        let far = 3_000;
        for i in 0..far {
            keys.push(
                (0..16 + i % 4)
                    .map(|j| b"pqrstuvwxyz"[(i * 5 + j) % 11])
                    .collect(),
            );
        }
        let query = b"abcd".to_vec();
        let mut comps = Vec::new();
        for dead_far in [0, 1_000, far] {
            let dead: Vec<bool> = (0..keys.len())
                .map(|i| i >= keys.len() - dead_far)
                .collect();
            let idx = index(&keys, &dead);
            let (tids, stats) = idx.probe(&query, "nearest", &Datum::Int(5)).unwrap();
            let mut expect: Vec<usize> = linear(&keys, &dead, &query)
                .iter()
                .map(|&(_, d)| d)
                .collect();
            expect.sort_unstable();
            expect.truncate(5);
            assert_eq!(
                distances(&keys, &query, &tids),
                expect,
                "{dead_far} tombstones"
            );
            comps.push(stats.dist_computations);
        }
        assert!(
            comps.iter().all(|&c| c == comps[0]),
            "distances by tombstone count: {comps:?}"
        );
    }
}
