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
use crate::types::{language_filter, payload_fields, unitext_of_datum, StoredConcepts};
use mlql_kernel::catalog::{ExtOperator, OperatorKind};
use mlql_kernel::{DataType, Datum, DatumRef, Error, ExtTypeId};
use mlql_taxonomy::{IntervalIndex, SharedClosureCache, SynsetId, Taxonomy};
use mlql_unitext::{LangId, LanguageRegistry, UniText};
use parking_lot::RwLock;
use std::collections::HashSet;
use std::sync::Arc;

/// The synsets one Ω operand names, as [`SemState::resolve`] found them.
enum Synsets<'a> {
    /// Stored in the payload at insert, under the current vocabulary.
    Stored(StoredConcepts<'a>),
    /// Borrowed from the taxonomy's word index.
    Indexed(&'a [SynsetId]),
    /// An untagged value's any-language lookup.
    AnyLang(Vec<SynsetId>),
}

impl Synsets<'_> {
    fn is_empty(&self) -> bool {
        match self {
            Synsets::Stored(_) => false, // a stored field names ≥ 1 synset
            Synsets::Indexed(ids) => ids.is_empty(),
            Synsets::AnyLang(ids) => ids.is_empty(),
        }
    }

    fn to_vec(&self) -> Vec<SynsetId> {
        match self {
            Synsets::Stored(c) => c.ids().collect(),
            Synsets::Indexed(ids) => ids.to_vec(),
            Synsets::AnyLang(ids) => ids.clone(),
        }
    }

    /// Whether `f` holds for some synset, in stored/lookup order.
    fn any(&self, mut f: impl FnMut(SynsetId) -> bool) -> bool {
        match self {
            Synsets::Stored(c) => c.ids().any(f),
            Synsets::Indexed(ids) => ids.iter().any(|&s| f(s)),
            Synsets::AnyLang(ids) => ids.iter().any(|&s| f(s)),
        }
    }
}

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
    /// The taxonomy's vocabulary fingerprint, the stamp a UniText
    /// payload's stored synset ids carry.  The mutation API changes edges
    /// only, never words, so it holds for the state's lifetime.
    stamp: u64,
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
        let stamp = taxonomy.vocabulary_fingerprint();
        let intervals = Arc::new(IntervalIndex::build(&taxonomy));
        Arc::new(SemState {
            taxonomy: RwLock::new(taxonomy),
            intervals: RwLock::new(intervals),
            interval_version: std::sync::atomic::AtomicU64::new(0),
            cache: SharedClosureCache::new(),
            stats,
            stamp,
        })
    }

    /// The vocabulary stamp stored synset ids are valid under.
    pub fn vocabulary_stamp(&self) -> u64 {
        self.stamp
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

    /// Synsets `(lang, word)` names within `taxonomy`: exact (word, lang)
    /// entries, falling back to any-language lookup for untagged values.
    fn lookup<'a>(taxonomy: &'a Taxonomy, lang: LangId, word: &str) -> Synsets<'a> {
        if lang == LangId::UNKNOWN {
            Synsets::AnyLang(taxonomy.lookup_any_lang(word))
        } else {
            Synsets::Indexed(taxonomy.lookup(word, lang))
        }
    }

    /// The one Ω resolver: the synsets an operand names.  A payload that
    /// stores its ids under the current vocabulary stamp is read in place;
    /// any other value (no field, another vocabulary's stamp, a plain text
    /// literal) is looked up by its borrowed `(lang, text)`.
    fn resolve<'a>(
        &self,
        taxonomy: &'a Taxonomy,
        d: DatumRef<'a>,
    ) -> mlql_kernel::Result<Synsets<'a>> {
        match d {
            DatumRef::Ext { bytes, .. } => {
                let key = payload_fields(bytes)?;
                match key.stored() {
                    Some(c)
                        if c.stamp == self.stamp
                            && c.ids().all(|s| (s.raw() as usize) < taxonomy.len()) =>
                    {
                        Ok(Synsets::Stored(c))
                    }
                    _ => Ok(Self::lookup(taxonomy, key.lang, key.text()?)),
                }
            }
            DatumRef::Text(s) => Ok(Self::lookup(taxonomy, LangId::UNKNOWN, s)),
            other => Err(Error::Execution(format!("expected unitext, got {other}"))),
        }
    }

    /// Synsets a UniText value names in the current taxonomy, ascending
    /// for untagged values and in word-index order otherwise.
    pub fn synsets_of(&self, v: &UniText) -> Vec<SynsetId> {
        Self::lookup(&self.taxonomy.read(), v.lang(), v.text()).to_vec()
    }

    /// Interval verdict for one LHS value against the RHS roots:
    /// `Some(hit)` when the index decides every `(root, s)` pair, `None`
    /// when no pair hits and some root's miss is deferred (a dirty
    /// subtree).
    fn probe_intervals(idx: &IntervalIndex, rhs: &Synsets<'_>, lhs: &Synsets<'_>) -> Option<bool> {
        let mut deferred = false;
        let hit = rhs.any(|root| {
            lhs.any(|s| match idx.contains(root, s) {
                Some(hit) => hit,
                None => {
                    deferred = true;
                    false
                }
            })
        });
        (hit || !deferred).then_some(hit)
    }

    /// The closure fallback for a value [`Self::probe_intervals`] left
    /// undecided: whether it lies in the closure of a root whose interval
    /// miss was deferred.  Roots the index decided (exact negatives) fetch
    /// no closure; `closure` fetches the others, in RHS order, until one
    /// matches.
    fn probe_closures(
        idx: &IntervalIndex,
        rhs: &Synsets<'_>,
        lhs: &Synsets<'_>,
        mut closure: impl FnMut(SynsetId) -> Arc<HashSet<SynsetId>>,
    ) -> bool {
        rhs.any(|root| {
            lhs.any(|s| idx.contains(root, s).is_none()) && {
                let closure = closure(root);
                lhs.any(|s| closure.contains(&s))
            }
        })
    }

    /// The Ω membership test of Figure 5.  The probe is decided by
    /// interval containment — one range comparison per (RHS, LHS) synset
    /// pair, no shard lock — and falls back to the memoized hash closure
    /// only for the roots the index defers (interval miss under an
    /// exception-edge subtree).
    pub fn omega_matches(&self, l: &UniText, r: &UniText) -> bool {
        let taxonomy = self.taxonomy.read();
        let lhs = Self::lookup(&taxonomy, l.lang(), l.text());
        let rhs = Self::lookup(&taxonomy, r.lang(), r.text());
        self.omega_resolved(&taxonomy, &lhs, &rhs)
    }

    /// [`Self::omega_matches`] over borrowed operands (Ω's scalar hook):
    /// each side's synsets come from [`Self::resolve`].
    pub fn omega_matches_ref(&self, l: DatumRef<'_>, r: DatumRef<'_>) -> mlql_kernel::Result<bool> {
        let taxonomy = self.taxonomy.read();
        let lhs = self.resolve(&taxonomy, l)?;
        let rhs = self.resolve(&taxonomy, r)?;
        Ok(self.omega_resolved(&taxonomy, &lhs, &rhs))
    }

    fn omega_resolved(&self, taxonomy: &Taxonomy, lhs: &Synsets<'_>, rhs: &Synsets<'_>) -> bool {
        if lhs.is_empty() || rhs.is_empty() {
            return false;
        }
        let idx = self.intervals.read();
        let m = mlql_kernel::obs::metrics();
        if let Some(hit) = Self::probe_intervals(&idx, rhs, lhs) {
            m.omega_interval_hits_total.add(1);
            return hit;
        }
        m.omega_interval_fallbacks_total.add(1);
        let (hits_before, _) = self.cache.stats();
        let matched =
            Self::probe_closures(&idx, rhs, lhs, |root| self.cache.closure(taxonomy, root));
        self.publish_cache_hits(hits_before);
        matched
    }

    /// [`Self::omega_matches_refs`] over owned values, for callers that
    /// hold `Datum`s (the benchmark's layer replay).
    pub fn omega_matches_batch(
        &self,
        lefts: &[&Datum],
        r: &Datum,
    ) -> mlql_kernel::Result<Vec<Datum>> {
        let lefts: Vec<DatumRef<'_>> = lefts.iter().map(|d| d.as_ref()).collect();
        self.omega_matches_refs(&lefts, r)
    }

    /// Batch Ω: `lefts[i] Ω r` for a whole batch against one constant RHS,
    /// over borrowed operands (the engine's batch hook).
    ///
    /// Result-identical to [`Self::omega_matches_ref`] on every element,
    /// but one taxonomy read guard covers the batch and the RHS synsets
    /// are resolved once.  A row costs its [`Self::resolve`] — a stored
    /// row's ids are read off its payload — and one range comparison per
    /// (RHS, LHS) synset pair, with no allocation.  The shared closure
    /// cache is touched only for probes the index defers, each needed
    /// closure is fetched from it **once** per batch, and the interval
    /// hit/fallback counters (one per probed row) are published once per
    /// batch.
    pub fn omega_matches_refs(
        &self,
        lefts: &[DatumRef<'_>],
        r: &Datum,
    ) -> mlql_kernel::Result<Vec<Datum>> {
        let taxonomy = self.taxonomy.read();
        let rhs = self.resolve(&taxonomy, r.as_ref())?;
        let idx = Arc::clone(&self.intervals.read());
        let (hits_before, _) = self.cache.stats();
        // Closures resolve lazily (Ω short-circuits across RHS synsets, so
        // an always-matching first root never pays for the second root's
        // closure) but at most once per batch.
        let mut closures: Vec<(SynsetId, Arc<HashSet<SynsetId>>)> = Vec::new();
        let mut interval_hits = 0u64;
        let mut interval_fallbacks = 0u64;
        let mut out = Vec::with_capacity(lefts.len());
        for &l in lefts {
            let lhs = self.resolve(&taxonomy, l)?;
            let verdict = if lhs.is_empty() || rhs.is_empty() {
                false
            } else if let Some(hit) = Self::probe_intervals(&idx, &rhs, &lhs) {
                interval_hits += 1;
                hit
            } else {
                interval_fallbacks += 1;
                Self::probe_closures(&idx, &rhs, &lhs, |root| {
                    if let Some((_, c)) = closures.iter().find(|(r, _)| *r == root) {
                        return Arc::clone(c);
                    }
                    let c = self.cache.closure(&taxonomy, root);
                    closures.push((root, Arc::clone(&c)));
                    c
                })
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
        self.publish_cache_hits(hits_before);
        Ok(out)
    }

    /// Push the closure-cache hit delta of one operation into the engine
    /// metrics (the cache's own counters are cumulative).
    fn publish_cache_hits(&self, hits_before: u64) {
        let (hits, _) = self.cache.stats();
        mlql_kernel::obs::metrics()
            .taxonomy_closure_cache_hits_total
            .add(hits.saturating_sub(hits_before));
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
        let idx = self.intervals.read();
        Self::lookup(&taxonomy, v.lang(), v.text())
            .to_vec()
            .into_iter()
            .map(|r| {
                idx.subtree_size(r)
                    .unwrap_or_else(|| self.cache.closure_size(&taxonomy, r))
            })
            .max()
    }
}

/// Per-pair CPU cost of Ω, in operator units (~1 ns each).  The interval
/// compare itself is one range comparison; a stored row's synset ids are
/// read off its payload, so what is left of a pair is resolving both
/// operands and the join around it.  Measured as the
/// `fig6_cost_prediction` Ω joins' time per pair (5k-synset taxonomy,
/// 2-vCPU host, 2026-10-18, five runs): 84–152 ns, median 99.
pub const OMEGA_INTERVAL_TUPLE_COST: f64 = 100.0;

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
            Ok(Datum::Bool(
                eval_state.omega_matches_ref(l.as_ref(), r.as_ref())?,
            ))
        }),
        eval_batch: Some(Arc::new(move |lefts, r, _| {
            batch_state.omega_matches_refs(lefts, r)
        })),
        prepare_batch: None,
        // Table 1: Ω does NOT commute (subsumption is directional) but
        // distributes over ∪.
        kind: OperatorKind {
            commutative: false,
            distributes_over_union: true,
        },
        // Per evaluated pair: no shard lock; the stored synset ids and
        // one range comparison.
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
        modifier_filter: Some(language_filter(langs)),
        index_scan_fraction: None,
        // EXPLAIN names the containment implementation on the scan node.
        strategy_label: Some("intervals"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{push_concepts, unitext_datum, unitext_to_bytes};
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
                    // Every payload form of each side: looked up, stored
                    // ids, stale ids (which must be ignored).
                    for lp in forms(&state, &l) {
                        for rp in forms(&state, &r) {
                            assert_eq!(
                                state.omega_matches_ref(lp.as_ref(), rp.as_ref()).unwrap(),
                                want,
                                "{lt}({ll}) Ω {rt}({rl}) over {lp:?} Ω {rp:?} (graft={graft})"
                            );
                        }
                    }
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

    /// The payloads one value can reach Ω as: without a concept field,
    /// with the ids `on_insert` stores, and with a stale stamp over the
    /// ids of another word (Fiction's), which the resolver must ignore.
    fn forms(state: &SemState, v: &UniText) -> Vec<Datum> {
        let plain = unitext_to_bytes(v);
        let fiction = UniText::compose("Fiction", v.lang());
        let mut stored = plain.clone();
        push_concepts(&mut stored, state.vocabulary_stamp(), &state.synsets_of(v));
        let mut stale = plain.clone();
        push_concepts(
            &mut stale,
            !state.vocabulary_stamp(),
            &state.synsets_of(&fiction),
        );
        [plain, stored, stale]
            .into_iter()
            .map(|b| Datum::ext(ExtTypeId(0), b))
            .collect()
    }

    #[test]
    fn batch_eval_matches_scalar_on_every_element() {
        let (langs, state, op) = setup();
        let session = SessionVars::new();
        let lefts_owned: Vec<Datum> = [
            ("Historiography", "English"),
            ("Fiction", "English"),
            ("Histoire", "French"),
            ("Astrogation", "English"),    // unknown concept
            ("Historiography", "English"), // duplicate
            ("சரித்திரம்", "Tamil"),
        ]
        .iter()
        .flat_map(|&(t, l)| forms(&state, &UniText::compose(t, langs.id_of(l))))
        .collect();
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
        let refs: Vec<DatumRef<'_>> = lefts.iter().map(|d| d.as_ref()).collect();
        let via_hook = hook(&refs, &rhs, &session).unwrap();
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
        assert_eq!(hits, 0, "later fallbacks reuse the batch's closure");
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
