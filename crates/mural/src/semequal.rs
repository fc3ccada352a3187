//! The SemEQUAL operator Ω as a first-class engine operator.
//!
//! Ω(LHS, RHS) is true when the LHS concept lies in the transitive closure
//! of the RHS concept within the interlinked multilingual taxonomy
//! (Figure 5 of the paper).  The core implementation follows §4.3: the
//! hierarchy is *pinned in main memory* and closures are *materialized as
//! hash tables* keyed by the RHS synset, so a join evaluating many LHS
//! values against few RHS values amortizes closure computation — exactly
//! the paper's nested-loops-with-RHS-outer optimization.

use crate::selectivity::{omega_join_selectivity, omega_scan_selectivity};
use crate::types::unitext_of_datum;
use mlql_kernel::catalog::{ExtOperator, OperatorKind};
use mlql_kernel::{DataType, Datum, ExtTypeId};
use mlql_taxonomy::{IntervalIndex, SharedClosureCache, SynsetId, Taxonomy};
use mlql_unitext::{LangId, LanguageRegistry, UniText};
use parking_lot::RwLock;
use std::sync::Arc;

/// Shared Ω state: the pinned taxonomy and its closure cache.
///
/// The cache is *sharded* ([`SharedClosureCache`]) so parallel scan
/// workers evaluating Ω concurrently share transitive-closure work without
/// serializing on one mutex.  The taxonomy itself is clone-on-write: the
/// mutation API swaps in a modified copy under the write lock and
/// invalidates every memoized closure before any reader can see the new
/// hierarchy — a query never observes a closure computed against a
/// different taxonomy than the one it reads.
pub struct SemState {
    /// The interlinked multilingual hierarchy.  Readers hold the guard
    /// across closure computation + memoization, which is what makes
    /// invalidation race-free (see `add_hyponym`).
    taxonomy: RwLock<Arc<Taxonomy>>,
    /// Interval-labeled reachability index over the same hierarchy — the
    /// Ω fast path.  Swapped (never mutated in place) while the taxonomy
    /// write guard is held, so any reader holding the taxonomy read guard
    /// sees an index consistent with its snapshot.  The common Ω probe is
    /// one interval comparison with no shard lock at all; only probes the
    /// index defers (exception-edge regions) touch the closure cache.
    intervals: RwLock<Arc<IntervalIndex>>,
    /// Generation counter: how many times the index has been rebuilt by
    /// the mutation API since install.
    interval_version: std::sync::atomic::AtomicU64,
    /// Memoized closures (§4.3), shared by all sessions and workers.
    pub cache: SharedClosureCache,
    /// Structural statistics captured at install time (drive §3.4.2).
    /// Deliberately *not* refreshed by the mutation API: cost-model
    /// parameters stay stable across small taxonomy edits, like ANALYZE
    /// statistics in a conventional engine.
    pub stats: mlql_taxonomy::TaxonomyStats,
}

impl SemState {
    /// Wrap a taxonomy.
    pub fn new(taxonomy: Arc<Taxonomy>) -> Arc<SemState> {
        // Contended closure-cache shard acquisitions count as
        // `omega_cache` waits on whichever query is running on the
        // blocked thread (idempotent; first install wins).
        mlql_taxonomy::set_shard_wait_observer(|d| {
            mlql_kernel::obs::waits::observe(mlql_kernel::obs::WaitClass::OmegaCache, d)
        });
        let stats = taxonomy.stats();
        let intervals = Arc::new(IntervalIndex::build(&taxonomy));
        Arc::new(SemState {
            taxonomy: RwLock::new(taxonomy),
            intervals: RwLock::new(intervals),
            interval_version: std::sync::atomic::AtomicU64::new(0),
            cache: SharedClosureCache::new(),
            stats,
        })
    }

    /// Current taxonomy snapshot (an `Arc` clone; cheap).
    pub fn taxonomy(&self) -> Arc<Taxonomy> {
        Arc::clone(&self.taxonomy.read())
    }

    /// Current interval-index snapshot (an `Arc` clone; cheap).
    pub fn intervals(&self) -> Arc<IntervalIndex> {
        Arc::clone(&self.intervals.read())
    }

    /// Interval-index rebuild generation (0 at install).
    pub fn interval_version(&self) -> u64 {
        self.interval_version
            .load(std::sync::atomic::Ordering::Relaxed)
    }

    /// Rebuild the interval index against `t` and publish the new
    /// generation.  MUST be called while the taxonomy *write* guard is
    /// held: readers take the taxonomy read guard before reading the
    /// index, so the swap is invisible until the mutation commits.
    fn rebuild_intervals(&self, t: &Taxonomy) {
        *self.intervals.write() = Arc::new(IntervalIndex::build(t));
        self.interval_version
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        mlql_kernel::obs::metrics()
            .omega_interval_rebuilds_total
            .add(1);
    }

    /// Add a hyponym edge (clone-on-write), invalidate all memoized
    /// closures and rebuild the interval index.  Both happen while the
    /// write guard is held, so no in-flight query can re-memoize a closure
    /// (or read an interval label) of the old hierarchy after the swap —
    /// readers hold the read guard across memoization.
    pub fn add_hyponym(&self, parent: SynsetId, child: SynsetId) {
        let mut guard = self.taxonomy.write();
        let mut t = Taxonomy::clone(&guard);
        t.add_hyponym(parent, child);
        self.rebuild_intervals(&t);
        *guard = Arc::new(t);
        self.cache.invalidate();
    }

    /// Remove a hyponym edge (clone-on-write) with the same invalidation
    /// protocol as [`Self::add_hyponym`]; returns whether the edge existed.
    pub fn remove_hyponym(&self, parent: SynsetId, child: SynsetId) -> bool {
        let mut guard = self.taxonomy.write();
        let mut t = Taxonomy::clone(&guard);
        let removed = t.remove_hyponym(parent, child);
        self.rebuild_intervals(&t);
        *guard = Arc::new(t);
        self.cache.invalidate();
        removed
    }

    /// Link two synsets as cross-lingual equivalents (clone-on-write),
    /// with the same invalidation protocol as [`Self::add_hyponym`].
    pub fn add_equivalence(&self, a: SynsetId, b: SynsetId) {
        let mut guard = self.taxonomy.write();
        let mut t = Taxonomy::clone(&guard);
        t.add_equivalence(a, b);
        self.rebuild_intervals(&t);
        *guard = Arc::new(t);
        self.cache.invalidate();
    }

    /// Synsets a UniText value names within `taxonomy`: exact (word, lang)
    /// entries, falling back to any-language lookup for untagged values.
    fn synsets_in(taxonomy: &Taxonomy, v: &UniText) -> Vec<SynsetId> {
        if v.lang() == LangId::UNKNOWN {
            taxonomy.lookup_any_lang(v.text())
        } else {
            taxonomy.lookup_unitext(v).to_vec()
        }
    }

    /// Synsets a UniText value names in the current taxonomy.
    pub fn synsets_of(&self, v: &UniText) -> Vec<SynsetId> {
        Self::synsets_in(&self.taxonomy.read(), v)
    }

    /// Interval verdict for one LHS value: whether some `(root, s)` pair
    /// is an interval hit, and otherwise the positions in `rhs` of the
    /// roots whose miss the index defers (dirty subtrees).  A miss with
    /// nothing deferred is an exact negative.
    fn probe_intervals(
        idx: &IntervalIndex,
        rhs: &[SynsetId],
        lhs: &[SynsetId],
    ) -> (bool, Vec<usize>) {
        let mut undecided = Vec::new();
        for (i, &root) in rhs.iter().enumerate() {
            let mut deferred = false;
            for &s in lhs {
                match idx.contains(root, s) {
                    Some(true) => return (true, Vec::new()),
                    Some(false) => {}
                    None => deferred = true,
                }
            }
            if deferred {
                undecided.push(i);
            }
        }
        (false, undecided)
    }

    /// The Ω membership test of Figure 5.  The probe is decided by
    /// interval containment — one range comparison per (RHS, LHS) synset
    /// pair, no shard lock — and falls back to the memoized hash closure
    /// only for the roots the index defers (interval miss under an
    /// exception-edge subtree).
    pub fn omega_matches(&self, l: &UniText, r: &UniText) -> bool {
        let taxonomy = self.taxonomy.read();
        let rhs = Self::synsets_in(&taxonomy, r);
        if rhs.is_empty() {
            return false;
        }
        let lhs = Self::synsets_in(&taxonomy, l);
        if lhs.is_empty() {
            return false;
        }
        let m = mlql_kernel::obs::metrics();
        let (hit, undecided) = Self::probe_intervals(&self.intervals.read(), &rhs, &lhs);
        if hit || undecided.is_empty() {
            m.omega_interval_hits_total.add(1);
            return hit;
        }
        m.omega_interval_fallbacks_total.add(1);
        let (hits_before, misses_before) = self.cache.stats();
        let matched = undecided.iter().any(|&i| {
            let closure = self.cache.closure(&taxonomy, rhs[i]);
            lhs.iter().any(|s| closure.contains(s))
        });
        self.publish_cache_delta(hits_before, misses_before);
        matched
    }

    /// Batch Ω: `lefts[i] Ω r` for a whole batch against one constant RHS.
    ///
    /// Result-identical to [`Self::omega_matches`] on every element, but
    /// one taxonomy read guard covers the batch, the RHS synsets are
    /// resolved once and each distinct LHS value is probed once —
    /// repeated hierarchy values, the common case in a scan, hit a
    /// batch-local memo.  A distinct LHS value costs one range comparison
    /// per RHS synset; the shared closure cache is touched only for
    /// probes the index defers, each needed closure is fetched from it
    /// **once** per batch, and interval hit/fallback counters are
    /// accumulated locally and published once per batch.
    pub fn omega_matches_batch(
        &self,
        lefts: &[&Datum],
        r: &Datum,
    ) -> mlql_kernel::Result<Vec<Datum>> {
        use std::collections::{HashMap, HashSet};
        let rv = unitext_of_datum(r)?;
        let taxonomy = self.taxonomy.read();
        let rhs = Self::synsets_in(&taxonomy, &rv);
        let idx = Arc::clone(&self.intervals.read());
        let (hits_before, misses_before) = self.cache.stats();
        // Closures resolve lazily (scalar Ω short-circuits across RHS
        // synsets, so an always-matching first root never pays for the
        // second root's closure) but at most once per batch.
        let mut closures: Vec<Option<Arc<HashSet<SynsetId>>>> = vec![None; rhs.len()];
        let mut memo: HashMap<&Datum, bool> = HashMap::new();
        let mut interval_hits = 0u64;
        let mut interval_fallbacks = 0u64;
        let mut out = Vec::with_capacity(lefts.len());
        for &l in lefts {
            let verdict = match memo.get(l) {
                Some(&v) => v,
                None => {
                    let lv = unitext_of_datum(l)?;
                    let lhs = if rhs.is_empty() {
                        Vec::new()
                    } else {
                        Self::synsets_in(&taxonomy, &lv)
                    };
                    let v = if lhs.is_empty() {
                        false
                    } else {
                        let (hit, undecided) = Self::probe_intervals(&idx, &rhs, &lhs);
                        if hit || undecided.is_empty() {
                            interval_hits += 1;
                            hit
                        } else {
                            interval_fallbacks += 1;
                            undecided.iter().any(|&i| {
                                let closure = closures[i]
                                    .get_or_insert_with(|| self.cache.closure(&taxonomy, rhs[i]));
                                lhs.iter().any(|s| closure.contains(s))
                            })
                        }
                    };
                    memo.insert(l, v);
                    v
                }
            };
            out.push(Datum::Bool(verdict));
        }
        let m = mlql_kernel::obs::metrics();
        if interval_hits > 0 {
            m.omega_interval_hits_total.add(interval_hits);
        }
        if interval_fallbacks > 0 {
            m.omega_interval_fallbacks_total.add(interval_fallbacks);
        }
        self.publish_cache_delta(hits_before, misses_before);
        Ok(out)
    }

    /// Push the closure-cache hit/miss delta of one operation into the
    /// engine metrics (the cache's own counters are cumulative).
    fn publish_cache_delta(&self, hits_before: u64, misses_before: u64) {
        let (hits, misses) = self.cache.stats();
        let m = mlql_kernel::obs::metrics();
        m.taxonomy_closure_cache_hits_total
            .add(hits.saturating_sub(hits_before));
        m.taxonomy_closure_cache_misses_total
            .add(misses.saturating_sub(misses_before));
    }

    /// Exact closure size of the concept a constant names, if resolvable —
    /// the §3.4.2 "closures pre-computed and stored" selectivity variant.
    ///
    /// The interval index answers this in O(1) per root (`subtree_size`)
    /// wherever the subtree is exception-free; only roots in dirty
    /// regions materialize a closure, so planning a query over a
    /// tree-shaped taxonomy costs no closure computation at all.
    pub fn closure_size_of(&self, v: &UniText) -> Option<usize> {
        let taxonomy = self.taxonomy.read();
        let roots = Self::synsets_in(&taxonomy, v);
        if roots.is_empty() {
            return None;
        }
        let idx = self.intervals.read();
        Some(
            roots
                .iter()
                .map(|&r| {
                    idx.subtree_size(r)
                        .unwrap_or_else(|| self.cache.closure_size(&taxonomy, r))
                })
                .max()
                .expect("non-empty roots"),
        )
    }
}

/// Per-pair CPU cost of Ω (Table 3 units): a UniText decode plus a single
/// range comparison — the same order as a ψ band check.
pub const OMEGA_INTERVAL_TUPLE_COST: f64 = 12.0;

/// Build the Ω [`ExtOperator`].
pub fn semequal_operator(
    unitext_type: ExtTypeId,
    state: Arc<SemState>,
    langs: Arc<LanguageRegistry>,
) -> ExtOperator {
    let eval_state = Arc::clone(&state);
    let batch_state = Arc::clone(&state);
    let sel_state = Arc::clone(&state);
    ExtOperator {
        name: "semequal".into(),
        operand_type: DataType::Ext(unitext_type),
        eval: Arc::new(move |l, r, _| {
            let lv = unitext_of_datum(l)?;
            let rv = unitext_of_datum(r)?;
            Ok(Datum::Bool(eval_state.omega_matches(&lv, &rv)))
        }),
        eval_batch: Some(Arc::new(move |lefts, r, _| {
            batch_state.omega_matches_batch(lefts, r)
        })),
        // Table 1: Ω does NOT commute (subsumption is directional) but
        // distributes over ∪.
        kind: OperatorKind {
            commutative: false,
            distributes_over_union: true,
        },
        // Per evaluated pair: no shard lock, no hash probe — one range
        // comparison, costed like a cheap range predicate.
        per_tuple_cost: Arc::new(|_, _| OMEGA_INTERVAL_TUPLE_COST),
        // §3.4.2.
        selectivity: Arc::new(move |input| {
            let exact = input
                .constant
                .and_then(|c| unitext_of_datum(c).ok())
                .and_then(|v| sel_state.closure_size_of(&v));
            let st = &sel_state.stats;
            if input.constant.is_some() {
                omega_scan_selectivity(exact, st.synsets, st.avg_fanout, st.height)
            } else {
                omega_join_selectivity(None, st.synsets, st.avg_fanout, st.height)
            }
        }),
        // The pinned-memory implementation needs no index; the B+Tree on
        // the taxonomy's parent attribute only serves the SQL-expansion
        // (outside-the-server) path benchmarked in Figure 8.
        index_strategy: None,
        index_extra: None,
        modifier_filter: Some(Arc::new(move |l, mods| {
            let Ok(v) = unitext_of_datum(l) else {
                return false;
            };
            mods.iter().any(|m| {
                langs
                    .lookup(m)
                    .map(|lang| lang.id == v.lang())
                    .unwrap_or(false)
            })
        })),
        index_scan_fraction: None,
        // EXPLAIN names the containment implementation on the scan node.
        strategy_label: Some("intervals"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::unitext_datum;
    use mlql_kernel::catalog::SessionVars;
    use mlql_taxonomy::books_fragment;

    fn setup() -> (Arc<LanguageRegistry>, Arc<SemState>, ExtOperator) {
        let langs = Arc::new(LanguageRegistry::new());
        let (taxonomy, _) = books_fragment(&langs);
        let state = SemState::new(Arc::new(taxonomy));
        let op = semequal_operator(ExtTypeId(0), Arc::clone(&state), Arc::clone(&langs));
        (langs, state, op)
    }

    fn ut(langs: &LanguageRegistry, text: &str, lang: &str) -> Datum {
        unitext_datum(ExtTypeId(0), &UniText::compose(text, langs.id_of(lang)))
    }

    #[test]
    fn figure4_query_semantics() {
        let (langs, _, op) = setup();
        let session = SessionVars::new();
        let history = ut(&langs, "History", "English");
        // Subclasses in any language match.
        for (cat, lang) in [
            ("Historiography", "English"),
            ("Autobiography", "English"),
            ("Histoire", "French"),
            ("சரித்திரம்", "Tamil"),
            ("History", "English"), // reflexive
        ] {
            let lhs = ut(&langs, cat, lang);
            assert!(
                (op.eval)(&lhs, &history, &session).unwrap().is_true(),
                "{cat} must be under History"
            );
        }
        // Fiction does not.
        let fiction = ut(&langs, "Fiction", "English");
        assert!(!(op.eval)(&fiction, &history, &session).unwrap().is_true());
    }

    #[test]
    fn omega_is_directional() {
        let (langs, _, op) = setup();
        let session = SessionVars::new();
        let history = ut(&langs, "History", "English");
        let biography = ut(&langs, "Biography", "English");
        // Biography Ω History: true (Biography ⊑ History).
        assert!((op.eval)(&biography, &history, &session).unwrap().is_true());
        // History Ω Biography: false — Table 1's "Ω does not commute".
        assert!(!(op.eval)(&history, &biography, &session).unwrap().is_true());
        assert!(!op.kind.commutative);
    }

    #[test]
    fn unknown_concepts_never_match() {
        let (langs, _, op) = setup();
        let session = SessionVars::new();
        let unknown = ut(&langs, "Astrogation", "English");
        let history = ut(&langs, "History", "English");
        assert!(!(op.eval)(&unknown, &history, &session).unwrap().is_true());
        assert!(!(op.eval)(&history, &unknown, &session).unwrap().is_true());
    }

    /// Give Autobiography a second parent (History, next to Biography):
    /// History's closure is unchanged, but its subtree now emits an
    /// exception edge, so interval misses under it defer to the closure
    /// walk — the only way to reach that path.
    fn make_history_dirty(langs: &LanguageRegistry, state: &SemState) {
        let en = langs.id_of("English");
        let h = state.synsets_of(&UniText::compose("History", en))[0];
        let a = state.synsets_of(&UniText::compose("Autobiography", en))[0];
        state.add_hyponym(h, a);
        assert!(state.intervals().has_exceptions());
    }

    #[test]
    fn closure_cache_amortizes_repeated_rhs() {
        let (langs, state, op) = setup();
        make_history_dirty(&langs, &state);
        let session = SessionVars::new();
        let history = ut(&langs, "History", "English");
        let fallbacks = || {
            mlql_kernel::obs::metrics()
                .omega_interval_fallbacks_total
                .get()
        };
        let fallbacks_before = fallbacks();
        let verdicts: Vec<bool> = ["Historiography", "Autobiography", "Fiction", "Novel"]
            .iter()
            .map(|cat| {
                let lhs = ut(&langs, cat, "English");
                (op.eval)(&lhs, &history, &session).unwrap().is_true()
            })
            .collect();
        assert_eq!(verdicts, [true, true, false, false]);
        // The two members are interval hits; the two non-members miss
        // under a dirty root and share one memoized closure.
        assert!(fallbacks() - fallbacks_before >= 2);
        let (hits, misses) = state.cache.stats();
        assert_eq!(misses, 1, "one closure for the repeated RHS");
        assert_eq!(hits, 1);
    }

    #[test]
    fn tree_taxonomy_skips_closure_cache_entirely() {
        let (langs, state, op) = setup();
        let session = SessionVars::new();
        let history = ut(&langs, "History", "English");
        for cat in ["Historiography", "Biography", "Fiction", "Novel"] {
            let lhs = ut(&langs, cat, "English");
            let _ = (op.eval)(&lhs, &history, &session).unwrap();
        }
        let (hits, misses) = state.cache.stats();
        assert_eq!((hits, misses), (0, 0), "no shard lock on the fast path");
        assert!(state.cache.is_empty(), "no closure materialized");
    }

    /// Ω against the independent oracle — `compute_closure` membership —
    /// on the tree-shaped fixture and again once a multi-parent graft
    /// forces part of the probes through the closure fallback.
    #[test]
    fn omega_agrees_with_closure_oracle_everywhere() {
        let (langs, state, _op) = setup();
        let cats = [
            ("History", "English"),
            ("Historiography", "English"),
            ("Biography", "English"),
            ("Autobiography", "English"),
            ("Fiction", "English"),
            ("Novel", "English"),
            ("Histoire", "French"),
            ("சரித்திரம்", "Tamil"),
            ("Astrogation", "English"), // unknown
        ];
        for graft in [false, true] {
            if graft {
                make_history_dirty(&langs, &state);
            }
            let taxonomy = state.taxonomy();
            for (lt, ll) in cats {
                for (rt, rl) in cats {
                    let l = UniText::compose(lt, langs.id_of(ll));
                    let r = UniText::compose(rt, langs.id_of(rl));
                    let want = state.synsets_of(&r).iter().any(|&root| {
                        let closure = mlql_taxonomy::closure::compute_closure(&taxonomy, root);
                        state.synsets_of(&l).iter().any(|s| closure.contains(s))
                    });
                    assert_eq!(
                        state.omega_matches(&l, &r),
                        want,
                        "{lt}({ll}) Ω {rt}({rl}) diverged from the closure oracle (graft={graft})"
                    );
                }
            }
        }
    }

    #[test]
    fn taxonomy_mutation_invalidates_memoized_closures() {
        let (langs, state, op) = setup();
        // Exercise the closure fallback; interval-path mutation visibility
        // is covered by `taxonomy_mutation_rebuilds_interval_index`.
        make_history_dirty(&langs, &state);
        let session = SessionVars::new();
        let history = ut(&langs, "History", "English");
        let fiction = ut(&langs, "Fiction", "English");
        // Fiction is not under History; the probe memoizes History's closure.
        assert!(!(op.eval)(&fiction, &history, &session).unwrap().is_true());
        assert!(!state.cache.is_empty());
        // Graft Fiction under History — the memoized closure is now wrong.
        let h = state.synsets_of(&UniText::compose("History", langs.id_of("English")))[0];
        let f = state.synsets_of(&UniText::compose("Fiction", langs.id_of("English")))[0];
        state.add_hyponym(h, f);
        assert!(state.cache.is_empty(), "mutation must clear the cache");
        assert!(
            (op.eval)(&fiction, &history, &session).unwrap().is_true(),
            "fresh closure must see the new edge"
        );
        // Prune it again: the match disappears just as promptly.
        assert!(state.remove_hyponym(h, f));
        assert!(!(op.eval)(&fiction, &history, &session).unwrap().is_true());
    }

    #[test]
    fn taxonomy_mutation_rebuilds_interval_index() {
        let (langs, state, op) = setup();
        let session = SessionVars::new();
        let history = ut(&langs, "History", "English");
        let fiction = ut(&langs, "Fiction", "English");
        let v0 = state.interval_version();
        assert!(!(op.eval)(&fiction, &history, &session).unwrap().is_true());
        // Graft Fiction under History: the swapped-in index must see it.
        let h = state.synsets_of(&UniText::compose("History", langs.id_of("English")))[0];
        let f = state.synsets_of(&UniText::compose("Fiction", langs.id_of("English")))[0];
        state.add_hyponym(h, f);
        assert_eq!(state.interval_version(), v0 + 1);
        assert!(
            (op.eval)(&fiction, &history, &session).unwrap().is_true(),
            "rebuilt index must see the new edge"
        );
        assert!(state.remove_hyponym(h, f));
        assert_eq!(state.interval_version(), v0 + 2);
        assert!(!(op.eval)(&fiction, &history, &session).unwrap().is_true());
        // Equivalence linking goes through the same protocol: linking
        // Fiction to Histoire pulls it into History's closure.
        let hf = state.synsets_of(&UniText::compose("Histoire", langs.id_of("French")))[0];
        state.add_equivalence(hf, f);
        assert_eq!(state.interval_version(), v0 + 3);
        assert!((op.eval)(&fiction, &history, &session).unwrap().is_true());
    }

    #[test]
    fn batch_eval_matches_scalar_on_every_element() {
        let (langs, state, op) = setup();
        let session = SessionVars::new();
        let lefts_owned: Vec<Datum> = vec![
            ut(&langs, "Historiography", "English"),
            ut(&langs, "Fiction", "English"),
            ut(&langs, "Histoire", "French"),
            ut(&langs, "Astrogation", "English"), // unknown concept
            ut(&langs, "Historiography", "English"), // duplicate → memo hit
            ut(&langs, "சரித்திரம்", "Tamil"),
        ];
        let lefts: Vec<&Datum> = lefts_owned.iter().collect();
        for rhs in [
            ut(&langs, "History", "English"),
            ut(&langs, "Biography", "English"),
            ut(&langs, "Astrogation", "English"), // unknown RHS → all false
        ] {
            let batch = state.omega_matches_batch(&lefts, &rhs).unwrap();
            assert_eq!(batch.len(), lefts.len());
            for (l, got) in lefts.iter().zip(&batch) {
                let want = (op.eval)(l, &rhs, &session).unwrap().is_true();
                assert!(got.is_true() == want, "mismatch for {l:?} Ω {rhs:?}");
            }
        }
        // The registered hook routes to the same batch entry point.
        let hook = op.eval_batch.as_ref().unwrap();
        let rhs = ut(&langs, "History", "English");
        let via_hook = hook(&lefts, &rhs, &session).unwrap();
        let direct = state.omega_matches_batch(&lefts, &rhs).unwrap();
        for (a, b) in via_hook.iter().zip(&direct) {
            assert!(a.is_true() == b.is_true());
        }
    }

    #[test]
    fn batch_eval_resolves_each_closure_once() {
        let (langs, state, _op) = setup();
        // Dirty root: Fiction and Novel miss the interval and fall back.
        make_history_dirty(&langs, &state);
        let history = ut(&langs, "History", "English");
        let lefts_owned: Vec<Datum> = ["Historiography", "Biography", "Fiction", "Novel"]
            .iter()
            .map(|c| ut(&langs, c, "English"))
            .collect();
        let lefts: Vec<&Datum> = lefts_owned.iter().collect();
        state.omega_matches_batch(&lefts, &history).unwrap();
        let (hits, misses) = state.cache.stats();
        assert_eq!(misses, 1, "one closure for the whole batch");
        assert_eq!(
            hits, 0,
            "distinct LHS values hit the batch memo, not the shards"
        );
    }

    #[test]
    fn exact_selectivity_for_known_concepts() {
        use mlql_kernel::catalog::SelectivityInput;
        let (langs, state, op) = setup();
        let session = SessionVars::new();
        let history = ut(&langs, "History", "English");
        let sel = (op.selectivity)(&SelectivityInput {
            column: None,
            constant: Some(&history),
            other_column: None,
            session: &session,
        });
        // History's closure covers 7 of the 12 synsets.
        let expected = state
            .closure_size_of(&UniText::compose("History", langs.id_of("English")))
            .unwrap() as f64
            / state.stats.synsets as f64;
        assert!(
            (sel - expected).abs() < 1e-9,
            "sel {sel} expected {expected}"
        );
    }

    #[test]
    fn untagged_concepts_match_any_language() {
        let (langs, state, _) = setup();
        let untagged = UniText::compose("History", LangId::UNKNOWN);
        assert!(!state.synsets_of(&untagged).is_empty());
        let _ = langs;
    }
}
