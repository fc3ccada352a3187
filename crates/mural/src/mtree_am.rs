//! The M-Tree access method — the paper's GiST-registered metric index
//! (§4.2.1) serving ψ probes through the `"within"` strategy.
//!
//! Keys are the *materialized phoneme strings* of UniText values ("indexes
//! being created on the materialized phoneme strings", §3.3); the metric is
//! the Levenshtein edit distance.  Deletion uses tombstones — the
//! underlying M-Tree, like PostgreSQL-era GiST, does not reclaim entries
//! online.  Checkpoint vacuum tombstones one entry per dead version and
//! nothing compacts the set before the index is rebuilt, so a `nearest`
//! probe's over-fetch grows with the table's lifetime updates.

use crate::types::unitext_of_datum;
use mlql_kernel::index::{AccessMethod, IndexInstance, IndexSearch, TaskRunner};
use mlql_kernel::storage::TupleId;
use mlql_kernel::{Datum, Error, Result};
use mlql_mtree::{MTree, QueryStats, SplitPolicy};
use mlql_phonetics::distance::edit_distance;
use mlql_phonetics::ConverterRegistry;
use parking_lot::Mutex;
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
    fn new(converters: Arc<ConverterRegistry>, policy: SplitPolicy) -> Self {
        MTreeIndex {
            tree: MTree::with_options(
                phoneme_metric as Metric,
                mlql_mtree::DEFAULT_NODE_CAPACITY,
                policy,
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

    /// Publish metrics, drop tombstoned hits, and package a `"within"`
    /// result — shared by the serial and parallel paths so both report
    /// identically.
    fn finish_within(&self, hits: Vec<(Vec<u8>, TupleId, f64)>, stats: QueryStats) -> IndexSearch {
        let m = mlql_kernel::obs::metrics();
        m.mtree_node_visits_total.add(stats.nodes_visited);
        m.mtree_distance_computations_total
            .add(stats.dist_computations);
        let tids = hits
            .into_iter()
            .filter(|(k, tid, _)| !self.deleted.contains(&(k.clone(), *tid)))
            .map(|(_, tid, _)| tid)
            .collect();
        IndexSearch {
            tids,
            node_visits: stats.nodes_visited,
            comparisons: stats.dist_computations,
        }
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
        let key = self.key_of(probe)?;
        match strategy {
            "within" => {
                let radius = extra.as_int().unwrap_or(0).max(0) as f64;
                let (hits, stats) = self.tree.range(&key, radius);
                Ok(self.finish_within(hits, stats))
            }
            // k-nearest phonemic neighbours — the "best match" LexEQUAL
            // variation the companion papers describe; over-fetch to absorb
            // tombstoned entries, then trim.
            "nearest" => {
                let k = extra.as_int().unwrap_or(1).max(1) as usize;
                let (hits, stats) = self.tree.nearest(&key, k + self.deleted.len());
                let m = mlql_kernel::obs::metrics();
                m.mtree_node_visits_total.add(stats.nodes_visited);
                m.mtree_distance_computations_total
                    .add(stats.dist_computations);
                let tids: Vec<_> = hits
                    .into_iter()
                    .filter(|(kk, tid, _)| !self.deleted.contains(&(kk.clone(), *tid)))
                    .take(k)
                    .map(|(_, tid, _)| tid)
                    .collect();
                Ok(IndexSearch {
                    tids,
                    node_visits: stats.nodes_visited,
                    comparisons: stats.dist_computations,
                })
            }
            other => Err(Error::Execution(format!(
                "mtree does not support strategy {other:?}"
            ))),
        }
    }

    /// `"within"` probes partition at the root: each surviving root
    /// subtree becomes one task on the engine's worker pool, accumulating
    /// hits and [`QueryStats`] under a local mutex.  `run_all` blocks
    /// until every task finishes, so borrowing `self.tree` (behind the
    /// caller's per-index read guard) is sound.  Results and reported
    /// stats are bit-identical to the serial path (`tests` prove it).
    fn search_parallel(
        &self,
        strategy: &str,
        probe: &Datum,
        extra: &Datum,
        runner: &dyn TaskRunner,
    ) -> Result<IndexSearch> {
        if strategy != "within" {
            return self.search(strategy, probe, extra);
        }
        let key = self.key_of(probe)?;
        let radius = extra.as_int().unwrap_or(0).max(0) as f64;
        let (root_hits, subtrees, root_stats) = self.tree.range_partitioned(&key, radius);
        if subtrees.is_empty() {
            // Leaf root or everything pruned — nothing to fan out.
            return Ok(self.finish_within(root_hits, root_stats));
        }
        let acc = Mutex::new((root_hits, root_stats));
        let tree = &self.tree;
        let key_ref = &key;
        let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = subtrees
            .iter()
            .map(|sub| {
                let acc = &acc;
                Box::new(move || {
                    let (h, s) = tree.range_subtree(key_ref, radius, sub);
                    let mut g = acc.lock();
                    g.0.extend(h);
                    g.1.absorb(s);
                }) as Box<dyn FnOnce() + Send + '_>
            })
            .collect();
        runner.run_all(tasks);
        let (hits, stats) = acc.into_inner();
        Ok(self.finish_within(hits, stats))
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
    policy: SplitPolicy,
}

impl MTreeAm {
    /// Random split — the paper's choice ("best index modification time").
    pub fn new(converters: Arc<ConverterRegistry>) -> Self {
        MTreeAm {
            converters,
            policy: SplitPolicy::Random,
        }
    }

    /// Alternative split policy (the mM_RAD ablation).
    pub fn with_policy(converters: Arc<ConverterRegistry>, policy: SplitPolicy) -> Self {
        MTreeAm { converters, policy }
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
        Ok(Box::new(MTreeIndex::new(
            Arc::clone(&self.converters),
            self.policy,
        )))
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

    /// A runner that executes tasks inline — the serial reference
    /// implementation of the `TaskRunner` contract.
    struct InlineRunner;
    impl TaskRunner for InlineRunner {
        fn run_all(&self, tasks: Vec<Box<dyn FnOnce() + Send + '_>>) {
            for t in tasks {
                t();
            }
        }
    }

    #[test]
    fn parallel_within_matches_serial_exactly() {
        let (langs, mut idx) = setup();
        for i in 0..800 {
            idx.insert(&ut(&langs, &format!("name{i}"), "English"), tid(i))
                .unwrap();
        }
        // Tombstone a few so the parallel path also exercises filtering.
        idx.delete(&ut(&langs, "name10", "English"), tid(10))
            .unwrap();
        idx.delete(&ut(&langs, "name20", "English"), tid(20))
            .unwrap();
        for radius in [0i64, 1, 2, 4] {
            let probe = ut(&langs, "name250", "English");
            let serial = idx.search("within", &probe, &Datum::Int(radius)).unwrap();
            let par = idx
                .search_parallel("within", &probe, &Datum::Int(radius), &InlineRunner)
                .unwrap();
            let mut a: Vec<_> = serial.tids.iter().map(|t| (t.page, t.slot)).collect();
            let mut b: Vec<_> = par.tids.iter().map(|t| (t.page, t.slot)).collect();
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b, "radius={radius}");
            assert_eq!(serial.node_visits, par.node_visits, "radius={radius}");
            assert_eq!(serial.comparisons, par.comparisons, "radius={radius}");
        }
    }

    #[test]
    fn parallel_falls_back_to_serial_for_other_strategies() {
        let (langs, mut idx) = setup();
        for (i, n) in ["Nehru", "Neru", "Gandhi"].iter().enumerate() {
            idx.insert(&ut(&langs, n, "English"), tid(i as u32))
                .unwrap();
        }
        let probe = ut(&langs, "Nehru", "English");
        let r = idx
            .search_parallel("nearest", &probe, &Datum::Int(2), &InlineRunner)
            .unwrap();
        assert_eq!(r.tids.len(), 2);
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
