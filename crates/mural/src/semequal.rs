//! The SemEQUAL operator Ω as a first-class engine operator.
//!
//! Ω(LHS, RHS) is true when the LHS concept lies in the transitive closure
//! of the RHS concept within the interlinked multilingual taxonomy
//! (Figure 5 of the paper).  As in §4.3 the hierarchy is *pinned in main
//! memory*, but no closure is materialized: the containment test reads the
//! interval-set labels of [`IntervalIndex`] (the §4.3.1 connection index),
//! which decide every (RHS, LHS) synset pair, and the selectivity
//! estimator reads exact closure sizes off the same labels.

use crate::selectivity::{omega_join_selectivity, omega_scan_selectivity};
use crate::types::{language_filter, payload_fields, unitext_of_datum, StoredConcepts};
use mlql_kernel::catalog::{ExtOperator, OperatorKind};
use mlql_kernel::{DataType, Datum, DatumRef, Error, ExtTypeId};
use mlql_taxonomy::{IntervalIndex, SynsetId, Taxonomy};
use mlql_unitext::{LangId, LanguageRegistry, UniText};
use parking_lot::RwLock;
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

/// One consistent view of the hierarchy: the taxonomy and the index built
/// from it, swapped together.
struct Snapshot {
    taxonomy: Arc<Taxonomy>,
    intervals: Arc<IntervalIndex>,
}

impl Snapshot {
    fn new(taxonomy: Arc<Taxonomy>) -> Arc<Snapshot> {
        let intervals = Arc::new(IntervalIndex::build(&taxonomy));
        Arc::new(Snapshot {
            taxonomy,
            intervals,
        })
    }
}

/// Shared Ω state: the pinned taxonomy and its interval index.
///
/// Both live in one clone-on-write snapshot.  A reader clones the
/// snapshot's `Arc` and releases the lock, so a query reads one hierarchy
/// and the index built from it however long it runs; the mutation API
/// builds a modified copy and its index under the write lock and swaps
/// them in together.
pub struct SemState {
    snapshot: RwLock<Arc<Snapshot>>,
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
        let stats = taxonomy.stats();
        let stamp = taxonomy.vocabulary_fingerprint();
        Arc::new(SemState {
            snapshot: RwLock::new(Snapshot::new(taxonomy)),
            stats,
            stamp,
        })
    }

    /// The vocabulary stamp stored synset ids are valid under.
    pub fn vocabulary_stamp(&self) -> u64 {
        self.stamp
    }

    fn snapshot(&self) -> Arc<Snapshot> {
        Arc::clone(&self.snapshot.read())
    }

    /// Current taxonomy snapshot (an `Arc` clone; cheap).
    pub fn taxonomy(&self) -> Arc<Taxonomy> {
        Arc::clone(&self.snapshot().taxonomy)
    }

    /// The interval index of [`Self::taxonomy`]'s snapshot.
    pub fn intervals(&self) -> Arc<IntervalIndex> {
        Arc::clone(&self.snapshot().intervals)
    }

    /// Apply `edit` to a copy of the taxonomy and publish the copy with a
    /// rebuilt index.  The write lock serializes edits, so none is lost.
    fn edit<R>(&self, edit: impl FnOnce(&mut Taxonomy) -> R) -> R {
        let mut guard = self.snapshot.write();
        let mut t = Taxonomy::clone(&guard.taxonomy);
        let out = edit(&mut t);
        *guard = Snapshot::new(Arc::new(t));
        out
    }

    /// Add a hyponym edge.
    pub fn add_hyponym(&self, parent: SynsetId, child: SynsetId) {
        self.edit(|t| t.add_hyponym(parent, child))
    }

    /// Remove a hyponym edge; returns whether the edge existed.
    pub fn remove_hyponym(&self, parent: SynsetId, child: SynsetId) -> bool {
        self.edit(|t| t.remove_hyponym(parent, child))
    }

    /// Link two synsets as cross-lingual equivalents.
    pub fn add_equivalence(&self, a: SynsetId, b: SynsetId) {
        self.edit(|t| t.add_equivalence(a, b))
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
        Self::lookup(&self.snapshot.read().taxonomy, v.lang(), v.text()).to_vec()
    }

    /// The Ω verdict for one probed row: some LHS synset lies in the
    /// closure of some RHS synset.  One interval test per pair, in RHS
    /// order, stopping at the first hit.
    fn probe(idx: &IntervalIndex, lhs: &Synsets<'_>, rhs: &Synsets<'_>) -> bool {
        rhs.any(|root| lhs.any(|s| idx.contains(root, s) == Some(true)))
    }

    /// The Ω membership test of Figure 5.
    pub fn omega_matches(&self, l: &UniText, r: &UniText) -> bool {
        let snap = self.snapshot();
        let lhs = Self::lookup(&snap.taxonomy, l.lang(), l.text());
        let rhs = Self::lookup(&snap.taxonomy, r.lang(), r.text());
        Self::omega_resolved(&snap.intervals, &lhs, &rhs)
    }

    /// [`Self::omega_matches`] over borrowed operands (Ω's scalar hook):
    /// each side's synsets come from `Self::resolve`.
    pub fn omega_matches_ref(&self, l: DatumRef<'_>, r: DatumRef<'_>) -> mlql_kernel::Result<bool> {
        let snap = self.snapshot();
        let lhs = self.resolve(&snap.taxonomy, l)?;
        let rhs = self.resolve(&snap.taxonomy, r)?;
        Ok(Self::omega_resolved(&snap.intervals, &lhs, &rhs))
    }

    fn omega_resolved(idx: &IntervalIndex, lhs: &Synsets<'_>, rhs: &Synsets<'_>) -> bool {
        if lhs.is_empty() || rhs.is_empty() {
            return false;
        }
        mlql_kernel::obs::metrics().omega_interval_hits_total.add(1);
        Self::probe(idx, lhs, rhs)
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
    /// but one snapshot covers the batch and the RHS synsets are resolved
    /// once.  A row costs its `Self::resolve` — a stored row's ids are
    /// read off its payload — and one interval test per (RHS, LHS) synset
    /// pair, with no allocation.  The interval-hit counter (one per probed
    /// row) is published once per batch.
    pub fn omega_matches_refs(
        &self,
        lefts: &[DatumRef<'_>],
        r: &Datum,
    ) -> mlql_kernel::Result<Vec<Datum>> {
        let snap = self.snapshot();
        let rhs = self.resolve(&snap.taxonomy, r.as_ref())?;
        let mut probed = 0u64;
        let mut out = Vec::with_capacity(lefts.len());
        for &l in lefts {
            let lhs = self.resolve(&snap.taxonomy, l)?;
            let verdict = !lhs.is_empty() && !rhs.is_empty() && {
                probed += 1;
                Self::probe(&snap.intervals, &lhs, &rhs)
            };
            out.push(Datum::Bool(verdict));
        }
        if probed > 0 {
            mlql_kernel::obs::metrics()
                .omega_interval_hits_total
                .add(probed);
        }
        Ok(out)
    }

    /// Exact closure size of the concept a constant names, if resolvable —
    /// the §3.4.2 "closures pre-computed and stored" selectivity variant,
    /// read off the interval labels: no closure is materialized.
    pub fn closure_size_of(&self, v: &UniText) -> Option<usize> {
        let snap = self.snapshot();
        Self::lookup(&snap.taxonomy, v.lang(), v.text())
            .to_vec()
            .into_iter()
            .map(|r| snap.intervals.closure_size(r))
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
        // Per evaluated pair: the stored synset ids and one interval test.
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
    /// History's closure is unchanged, but the hierarchy is no longer a
    /// tree, so the spanning tree leaves one of the two edges out.
    fn graft_autobiography_under_history(langs: &LanguageRegistry, state: &SemState) {
        let en = langs.id_of("English");
        let h = state.synsets_of(&UniText::compose("History", en))[0];
        let a = state.synsets_of(&UniText::compose("Autobiography", en))[0];
        state.add_hyponym(h, a);
    }

    /// Ω against the independent oracle — `compute_closure` membership —
    /// on the tree-shaped fixture and again once a multi-parent graft puts
    /// an edge outside the spanning tree.
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
                graft_autobiography_under_history(&langs, &state);
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

    /// Every edit swaps in a rebuilt index that sees it, on the tree
    /// fixture and on the grafted one.
    #[test]
    fn taxonomy_mutation_rebuilds_interval_index() {
        for graft in [false, true] {
            let (langs, state, op) = setup();
            if graft {
                graft_autobiography_under_history(&langs, &state);
            }
            let session = SessionVars::new();
            let history = ut(&langs, "History", "English");
            let fiction = ut(&langs, "Fiction", "English");
            let verdict = || (op.eval)(&fiction, &history, &session).unwrap().is_true();
            let before = state.intervals();
            assert!(!verdict());
            // Graft Fiction under History: the swapped-in index must see it.
            let h = state.synsets_of(&UniText::compose("History", langs.id_of("English")))[0];
            let f = state.synsets_of(&UniText::compose("Fiction", langs.id_of("English")))[0];
            state.add_hyponym(h, f);
            assert!(!Arc::ptr_eq(&before, &state.intervals()), "index rebuilt");
            assert!(
                verdict(),
                "rebuilt index must see the new edge (graft={graft})"
            );
            // Prune it again: the match disappears just as promptly.
            assert!(state.remove_hyponym(h, f));
            assert!(!verdict(), "graft={graft}");
            // Equivalence linking goes through the same protocol: linking
            // Fiction to Histoire pulls it into History's closure.
            let hf = state.synsets_of(&UniText::compose("Histoire", langs.id_of("French")))[0];
            state.add_equivalence(hf, f);
            assert!(verdict(), "graft={graft}");
        }
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
        // The size is the exact closure's, on a grafted hierarchy too.
        graft_autobiography_under_history(&langs, &state);
        let en = langs.id_of("English");
        let fiction = state.synsets_of(&UniText::compose("Fiction", en))[0];
        let biography = state.synsets_of(&UniText::compose("Biography", en))[0];
        state.add_hyponym(fiction, biography);
        let taxonomy = state.taxonomy();
        for root in taxonomy.ids() {
            let word = taxonomy.words(root)[0].as_str();
            let v = UniText::compose(word, taxonomy.lang(root));
            let want = state
                .synsets_of(&v)
                .iter()
                .map(|&r| mlql_taxonomy::closure::compute_closure(&taxonomy, r).len())
                .max();
            assert_eq!(state.closure_size_of(&v), want, "{word}");
        }
    }

    #[test]
    fn untagged_concepts_match_any_language() {
        let (langs, state, _) = setup();
        let untagged = UniText::compose("History", LangId::UNKNOWN);
        assert!(!state.synsets_of(&untagged).is_empty());
        let _ = langs;
    }
}
