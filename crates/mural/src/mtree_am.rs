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
use mlql_kernel::index::{AccessMethod, IndexInstance, IndexSearch};
use mlql_kernel::storage::TupleId;
use mlql_kernel::{Datum, Error, Result};
use mlql_mtree::{MTree, SplitPolicy};
use mlql_phonetics::distance::edit_distance;
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
        let (hits, stats, limit) = match strategy {
            "within" => {
                let radius = extra.as_int().unwrap_or(0).max(0) as f64;
                let (hits, stats) = self.tree.range(&key, radius);
                (hits, stats, usize::MAX)
            }
            // k-nearest phonemic neighbours — the "best match" LexEQUAL
            // variation the companion papers describe; over-fetch to absorb
            // tombstoned entries, then trim.
            "nearest" => {
                let k = extra.as_int().unwrap_or(1).max(1) as usize;
                let (hits, stats) = self.tree.nearest(&key, k + self.deleted.len());
                (hits, stats, k)
            }
            other => {
                return Err(Error::Execution(format!(
                    "mtree does not support strategy {other:?}"
                )))
            }
        };
        let m = mlql_kernel::obs::metrics();
        m.mtree_node_visits_total.add(stats.nodes_visited);
        m.mtree_distance_computations_total
            .add(stats.dist_computations);
        let tids = hits
            .into_iter()
            .filter(|(k, tid, _)| !self.deleted.contains(&(k.clone(), *tid)))
            .take(limit)
            .map(|(_, tid, _)| tid)
            .collect();
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
