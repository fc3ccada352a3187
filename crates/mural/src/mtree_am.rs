//! The M-Tree access method — the paper's GiST-registered metric index
//! (§4.2.1) serving ψ probes through the `"within"` strategy.
//!
//! Keys are the *materialized phoneme strings* of UniText values ("indexes
//! being created on the materialized phoneme strings", §3.3); the metric is
//! the Levenshtein edit distance.  Inserts and splits use the one-shot
//! distance; a probe compiles its phonemes once into the ψ scan's
//! bit-parallel Myers matcher and asks only "is this key within the
//! pruning bound, and at what distance", so it visits, computes and
//! prunes exactly what the generic metric would, at the kernel's price
//! per key.  The planner prices a probe per visited key (the fitted
//! visit fraction of `lexequal::approx_index_fraction`), not per page: the
//! tree is memory-resident.  Deletion uses tombstones — the
//! underlying M-Tree, like PostgreSQL-era GiST, does not reclaim entries
//! online.  Checkpoint vacuum tombstones one entry per dead version and
//! nothing compacts the set before the index is rebuilt, so a `nearest`
//! probe's over-fetch grows with the table's lifetime updates.

use crate::types::unitext_of_datum;
use mlql_kernel::index::{AccessMethod, IndexInstance, IndexSearch};
use mlql_kernel::storage::TupleId;
use mlql_kernel::{Datum, Error, Result};
use mlql_mtree::{MTree, QueryStats};
use mlql_phonetics::distance::{edit_distance, DistanceBuffer, MyersMatcher};
use mlql_phonetics::ConverterRegistry;
use std::collections::HashSet;
use std::sync::Arc;

#[allow(clippy::ptr_arg)]
fn phoneme_metric(a: &Vec<u8>, b: &Vec<u8>) -> f64 {
    edit_distance(a, b) as f64
}

type Metric = fn(&Vec<u8>, &Vec<u8>) -> f64;

/// One live M-Tree index instance.
pub struct MTreeIndex {
    tree: MTree<Vec<u8>, TupleId, Metric>,
    deleted: HashSet<(Vec<u8>, TupleId)>,
    converters: Arc<ConverterRegistry>,
    live: usize,
}

impl MTreeIndex {
    fn new(converters: Arc<ConverterRegistry>) -> Self {
        MTreeIndex {
            tree: MTree::with_options(
                phoneme_metric as Metric,
                mlql_mtree::DEFAULT_NODE_CAPACITY,
                0x3713,
            ),
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

    /// Serve `strategy` for the phoneme key `key`: the live tuple ids and
    /// the tree's query stats.
    ///
    /// The query side is compiled once per probe — one [`MyersMatcher`]
    /// over `key` — and each visited entry costs one capped bit-parallel
    /// distance.  Keys the matcher cannot hold (empty, or longer than a
    /// machine word) take the banded DP in one reused buffer.  Either way
    /// the tree visits, computes and prunes exactly what the generic
    /// [`phoneme_metric`] search does.
    fn probe(
        &self,
        key: &[u8],
        strategy: &str,
        extra: &Datum,
    ) -> Result<(Vec<TupleId>, QueryStats)> {
        let matcher = MyersMatcher::new(key);
        let mut buf = DistanceBuffer::new();
        let dq = |entry: &Vec<u8>, cap: f64| {
            // Edit distances are integers no larger than the longer
            // string, so clamping there and truncating the cap is exact.
            let cap = cap.min(key.len().max(entry.len()) as f64) as usize;
            match &matcher {
                Some(m) => m.distance_within(entry, cap),
                None => buf.distance_within(key, entry, cap),
            }
            .map(|d| d as f64)
        };
        let (hits, stats, limit) = match strategy {
            "within" => {
                let radius = extra.as_int().unwrap_or(0).max(0) as f64;
                let (hits, stats) = self.tree.range_with(dq, radius);
                (hits, stats, usize::MAX)
            }
            // k-nearest phonemic neighbours — the "best match" LexEQUAL
            // variation the companion papers describe; over-fetch to absorb
            // tombstoned entries, then trim.
            "nearest" => {
                let k = extra.as_int().unwrap_or(1).max(1) as usize;
                let (hits, stats) = self.tree.nearest_with(dq, k + self.deleted.len());
                (hits, stats, k)
            }
            other => {
                return Err(Error::Execution(format!(
                    "mtree does not support strategy {other:?}"
                )))
            }
        };
        Ok((self.live(hits, limit), stats))
    }

    /// The first `limit` hits whose entries are not tombstoned.
    fn live(&self, hits: Vec<(Vec<u8>, TupleId, f64)>, limit: usize) -> Vec<TupleId> {
        hits.into_iter()
            .filter(|(k, tid, _)| !self.deleted.contains(&(k.clone(), *tid)))
            .take(limit)
            .map(|(_, tid, _)| tid)
            .collect()
    }
}

impl IndexInstance for MTreeIndex {
    fn insert(&mut self, key: &Datum, tid: TupleId) -> Result<()> {
        let ph = self.key_of(key)?;
        // A pending tombstone means the physical entry is still in the
        // tree: clearing the tombstone resurrects it; inserting again
        // would duplicate it.
        if !self.deleted.remove(&(ph.clone(), tid)) {
            self.tree.insert(ph, tid);
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

    /// A phoneme key over a three-symbol alphabet: short (empty included)
    /// or, in one case of four, a 60-symbol stem plus a short tail, so
    /// keys and queries straddle the 64-symbol word of the Myers matcher.
    fn key() -> impl Strategy<Value = Vec<u8>> {
        (vec(0u8..3, 0..10), 0u8..4).prop_map(|(tail, long)| {
            let stem = if long == 0 { 60 } else { 0 };
            (0..stem).map(|i| (i % 3) as u8).chain(tail).collect()
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
            idx.tree.insert(k.clone(), tid(i));
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

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        /// The compiled probe returns what the generic-metric search
        /// returns, with identical visit, distance and prune counts.
        #[test]
        fn compiled_probe_equals_generic_metric(
            entries in vec((key(), 0u8..5), 1..160),
            query in key(),
            k in 1usize..6,
        ) {
            let keys: Vec<Vec<u8>> = entries.iter().map(|(k, _)| k.clone()).collect();
            let dead: Vec<bool> = entries.iter().map(|&(_, d)| d == 0).collect();
            let idx = index(&keys, &dead);
            for radius in 0..=4i64 {
                let (tids, stats) = idx.probe(&query, "within", &Datum::Int(radius)).unwrap();
                let (hits, want) = idx.tree.range(&query, radius as f64);
                prop_assert_eq!(stats, want, "within {}", radius);
                prop_assert_eq!(sorted(tids), sorted(idx.live(hits, usize::MAX)));
            }
            let (tids, stats) = idx.probe(&query, "nearest", &Datum::Int(k as i64)).unwrap();
            let (hits, want) = idx.tree.nearest(&query, k + idx.deleted.len());
            prop_assert_eq!(stats, want, "nearest {}", k);
            prop_assert_eq!(sorted(tids), sorted(idx.live(hits, k)));
        }
    }
}
