//! The LexEQUAL operator ψ as a first-class engine operator.
//!
//! ψ is registered as a *binary* operator — PostgreSQL's operator extension
//! facility "is restricted to binary operators, and therefore cannot be
//! directly used to implement ψ, which is a tertiary operator.  Therefore,
//! we used the workaround of implementing ψ as a binary operator, making
//! the third input, the error threshold parameter, a user-settable value in
//! a system table" (§4.2).  Our equivalent system table is the session-
//! variable store: `SET lexequal.threshold = 3`.

use crate::selectivity::{psi_default_selectivity, psi_join_selectivity, psi_scan_selectivity};
use crate::types::{language_filter, unitext_of_datum, unitext_of_ref};
use mlql_kernel::catalog::{ExtOperator, OperatorKind, PreparedOperands, SessionVars};
use mlql_kernel::{DataType, Datum, DatumRef, ExtTypeId};
use mlql_phonetics::distance::{distance_lower_bound, phone_set, DistanceBuffer, MyersMatcher};
use mlql_phonetics::{ConverterRegistry, PhonemeString};
use mlql_unitext::LanguageRegistry;
use std::cell::{OnceCell, RefCell};
use std::collections::hash_map::{Entry, HashMap};
use std::ops::Range;
use std::sync::Arc;

/// Session variable holding ψ's error threshold.
pub const THRESHOLD_VAR: &str = "lexequal.threshold";

/// Default threshold when the session does not set one (the running
/// example of the paper's Figure 2 uses 2).
pub const DEFAULT_THRESHOLD: i64 = 2;

thread_local! {
    /// Reused DP rows for the banded edit distance — ψ joins evaluate
    /// millions of pairs and must not allocate per pair.
    static DP: RefCell<DistanceBuffer> = RefCell::new(DistanceBuffer::new());
}

/// Read the threshold from the session.
pub fn threshold(session: &SessionVars) -> usize {
    session.get_int(THRESHOLD_VAR, DEFAULT_THRESHOLD).max(0) as usize
}

/// The ψ predicate over two datums.
///
/// Fast path: both sides are UniText payloads with *materialized* phoneme
/// strings — compare the cached byte slices directly, no decode, no
/// allocation (this is what §4.2's insertion-time materialization buys).
pub fn psi_matches(
    l: &Datum,
    r: &Datum,
    k: usize,
    converters: &ConverterRegistry,
) -> mlql_kernel::Result<bool> {
    if let (Datum::Ext { bytes: lb, .. }, Datum::Ext { bytes: rb, .. }) = (l, r) {
        if let (Some(lp), Some(rp)) = (
            crate::types::phoneme_slice(lb),
            crate::types::phoneme_slice(rb),
        ) {
            mlql_kernel::obs::metrics().psi_distance_calls_total.inc();
            return Ok(DP.with(|dp| dp.borrow_mut().distance_within(lp, rp, k).is_some()));
        }
    }
    // Slow path: decode and convert on demand.
    let lv = unitext_of_datum(l)?;
    let rv = unitext_of_datum(r)?;
    let lp = converters.phonemes_of(&lv);
    let rp = converters.phonemes_of(&rv);
    if lp.is_empty() && rp.is_empty() {
        // No phonemic information on either side: fall back to exact text
        // equality so ψ degrades gracefully for unknown languages.
        return Ok(lv.text() == rv.text());
    }
    mlql_kernel::obs::metrics().psi_distance_calls_total.inc();
    Ok(DP.with(|dp| {
        dp.borrow_mut()
            .distance_within(lp.as_bytes(), rp.as_bytes(), k)
            .is_some()
    }))
}

/// [`psi_matches_refs`] over owned values, for callers that hold
/// `Datum`s (the benchmark's layer replay).  The engine's batch hook calls
/// `psi_matches_refs` directly.
pub fn psi_matches_batch(
    lefts: &[&Datum],
    r: &Datum,
    k: usize,
    converters: &ConverterRegistry,
    use_myers: bool,
) -> mlql_kernel::Result<Vec<Datum>> {
    let lefts: Vec<DatumRef<'_>> = lefts.iter().map(|d| d.as_ref()).collect();
    psi_matches_refs(&lefts, r, k, converters, use_myers)
}

/// The phonemes a UniText payload stores, if it stores any.
fn slice_of(d: DatumRef<'_>) -> Option<&[u8]> {
    match d {
        DatumRef::Ext { bytes, .. } => crate::types::phoneme_slice(bytes),
        _ => None,
    }
}

/// A value's text and its phonemes, decoded and converted.
fn decode(
    d: DatumRef<'_>,
    converters: &ConverterRegistry,
) -> mlql_kernel::Result<(String, PhonemeString)> {
    let v = unitext_of_ref(d)?;
    let p = converters.phonemes_of(&v);
    Ok((v.text().to_string(), p))
}

/// The constant side of a batch ψ, resolved once per batch: its
/// phonemes (the materialized slice, or one conversion) and the Myers
/// kernel compiled for them.
struct PsiConstant<'r> {
    datum: &'r Datum,
    /// The phonemes the payload stores.
    slice: Option<&'r [u8]>,
    /// The decoded value: up front when there is no slice, else on the
    /// first operand without one (only the slow path reads it).
    decoded: OnceCell<(String, PhonemeString)>,
    myers: Option<MyersMatcher>,
}

impl<'r> PsiConstant<'r> {
    fn new(
        r: &'r Datum,
        converters: &ConverterRegistry,
        use_myers: bool,
    ) -> mlql_kernel::Result<Self> {
        let c = PsiConstant {
            datum: r,
            slice: slice_of(r.as_ref()),
            decoded: OnceCell::new(),
            myers: None,
        };
        if c.slice.is_none() {
            c.decoded(converters)?;
        }
        let myers = if use_myers {
            MyersMatcher::new(c.phonemes())
        } else {
            None
        };
        Ok(PsiConstant { myers, ..c })
    }

    /// The constant's phonemes.  The materialized slice and a fresh
    /// conversion yield the same bytes (the cache is authoritative), so
    /// one kernel serves the fast and the slow path.
    fn phonemes(&self) -> &[u8] {
        match self.slice {
            Some(s) => s,
            None => self.decoded.get().expect("decoded in new").1.as_bytes(),
        }
    }

    /// The constant's text and phonemes, decoded on first use.
    fn decoded(
        &self,
        converters: &ConverterRegistry,
    ) -> mlql_kernel::Result<&(String, PhonemeString)> {
        if self.decoded.get().is_none() {
            let _ = self.decoded.set(decode(self.datum.as_ref(), converters)?);
        }
        Ok(self.decoded.get().expect("set above"))
    }

    /// Is `lp` within edit distance `k` of the constant's phonemes?
    fn within(&self, lp: &[u8], k: usize, dp: &mut DistanceBuffer) -> bool {
        match &self.myers {
            Some(mm) => mm.distance_within(lp, k).is_some(),
            None => dp.distance_within(lp, self.phonemes(), k).is_some(),
        }
    }
}

/// Batch ψ: `lefts[i] ψ r` for a whole batch against one constant RHS,
/// over borrowed operands — values of decoded rows, or UniText fields
/// read straight off a heap page image.
///
/// Result-identical to [`psi_matches`] on every element, but the batch
/// shape amortizes everything that does not depend on the LHS row:
///
/// * the RHS phonemes are resolved **once** (materialized slice or one
///   grapheme→phoneme conversion),
/// * each LHS payload is parsed once, and slow-path LHS conversions are
///   memoized per distinct value across the batch,
/// * the inner loop runs the bit-parallel Myers (1999) kernel when the
///   RHS phoneme string fits one machine word (≤64 symbols, see
///   [`MyersMatcher`]), falling back to the banded DP above that — both
///   reuse one thread-local [`DistanceBuffer`], borrowed once per batch
///   instead of once per row.
///
/// The engine always passes `use_myers = true`; `false` forces the banded
/// DP for every length and exists only as the reference the unit tests
/// and the layer benchmark compare the kernel against.
pub fn psi_matches_refs(
    lefts: &[DatumRef<'_>],
    r: &Datum,
    k: usize,
    converters: &ConverterRegistry,
    use_myers: bool,
) -> mlql_kernel::Result<Vec<Datum>> {
    if lefts.is_empty() {
        return Ok(Vec::new());
    }
    let rhs = PsiConstant::new(r, converters, use_myers)?;
    let mut memo: HashMap<DatumRef<'_>, (String, PhonemeString)> = HashMap::new();
    let mut dist_calls = 0u64;
    let mut out = Vec::with_capacity(lefts.len());
    DP.with(|dp| -> mlql_kernel::Result<()> {
        let dp = &mut *dp.borrow_mut();
        for &l in lefts {
            // Fast path: both sides carry materialized phonemes.
            if rhs.slice.is_some() {
                if let Some(lp) = slice_of(l) {
                    dist_calls += 1;
                    out.push(Datum::Bool(rhs.within(lp, k, dp)));
                    continue;
                }
            }
            // Slow path: decode + convert, memoized per distinct value.
            let (r_text, rp) = rhs.decoded(converters)?;
            let (l_text, lp) = match memo.entry(l) {
                Entry::Occupied(hit) => hit.into_mut(),
                Entry::Vacant(slot) => slot.insert(decode(l, converters)?),
            };
            if lp.is_empty() && rp.is_empty() {
                // Same graceful degradation as `psi_matches`.
                out.push(Datum::Bool(l_text == r_text));
                continue;
            }
            dist_calls += 1;
            out.push(Datum::Bool(rhs.within(lp.as_bytes(), k, dp)));
        }
        Ok(())
    })?;
    mlql_kernel::obs::metrics()
        .psi_distance_calls_total
        .add(dist_calls);
    Ok(out)
}

/// What the phone-set bound reads of one prepared name.
#[derive(Clone, Copy)]
struct Signature {
    /// [`phone_set`] of its phonemes.
    set: u64,
    /// How many phonemes it has.
    len: usize,
}

/// ψ's operands prepared once for many constants
/// ([`ExtOperator::prepare_batch`]): a nested loop's inner names, each
/// parsed (and, without a stored cache, converted) once per join.  Their
/// phonemes sit back to back in one arena, each with its length and
/// phone set, so that per constant the Myers kernel is compiled once and
/// run only on pairs whose [`distance_lower_bound`] is at most `k`.
struct PreparedNames {
    converters: Arc<ConverterRegistry>,
    arena: Vec<u8>,
    /// Where each name's phonemes start in the arena.
    starts: Vec<usize>,
    signatures: Vec<Signature>,
    /// The text of each name that has no phonemes (and so stores none):
    /// the one case in which ψ compares texts.
    texts: Vec<Option<Box<str>>>,
}

impl PreparedNames {
    fn new(
        lefts: &[DatumRef<'_>],
        converters: Arc<ConverterRegistry>,
    ) -> mlql_kernel::Result<PreparedNames> {
        let mut arena = Vec::new();
        let mut starts = Vec::with_capacity(lefts.len());
        let mut signatures = Vec::with_capacity(lefts.len());
        let mut texts = Vec::with_capacity(lefts.len());
        for &l in lefts {
            let start = arena.len();
            let text = match slice_of(l) {
                Some(p) => {
                    arena.extend_from_slice(p);
                    None
                }
                None => {
                    let (text, p) = decode(l, &converters)?;
                    arena.extend_from_slice(p.as_bytes());
                    p.is_empty().then(|| text.into())
                }
            };
            let phonemes = &arena[start..];
            starts.push(start);
            signatures.push(Signature {
                set: phone_set(phonemes),
                len: phonemes.len(),
            });
            texts.push(text);
        }
        Ok(PreparedNames {
            converters,
            arena,
            starts,
            signatures,
            texts,
        })
    }
}

impl PreparedOperands for PreparedNames {
    /// [`psi_matches_refs`] over the prepared names in `range`, with the
    /// phone-set bound in front of the kernel.  A pair the bound rejects
    /// was still decided on phonemes, so it counts as a
    /// `psi_distance_calls_total` call, as it does on the batch path.
    fn verdicts(
        &self,
        range: Range<usize>,
        r: &Datum,
        session: &SessionVars,
    ) -> mlql_kernel::Result<Vec<Datum>> {
        let k = threshold(session);
        let rhs = PsiConstant::new(r, &self.converters, true)?;
        let rp = rhs.phonemes();
        let (r_len, r_set) = (rp.len(), phone_set(rp));
        let mut dist_calls = 0u64;
        let mut out = Vec::with_capacity(range.len());
        DP.with(|dp| -> mlql_kernel::Result<()> {
            let dp = &mut *dp.borrow_mut();
            for (i, sig) in range.clone().zip(&self.signatures[range]) {
                // Neither side has phonemes: ψ compares texts, as
                // `psi_matches_refs` does.
                if sig.len == 0 && r_len == 0 {
                    let (r_text, _) = rhs.decoded(&self.converters)?;
                    out.push(Datum::Bool(
                        self.texts[i].as_deref() == Some(r_text.as_str()),
                    ));
                    continue;
                }
                dist_calls += 1;
                let pass = distance_lower_bound(sig.len, sig.set, r_len, r_set) <= k && {
                    let start = self.starts[i];
                    rhs.within(&self.arena[start..start + sig.len], k, dp)
                };
                out.push(Datum::Bool(pass));
            }
            Ok(())
        })?;
        mlql_kernel::obs::metrics()
            .psi_distance_calls_total
            .add(dist_calls);
        Ok(out)
    }
}

/// Fraction of an approximate (metric) index traversed at threshold `k` —
/// "the fraction of the database scanned was approximated by a linear
/// function on the error threshold" (§3.3).  Slope and intercept are the
/// `calibration` grid's fit of M-tree distance computations per indexed
/// row over thresholds 0–3 (the run `opt::CostParams` cites).
fn approx_index_fraction(k: usize) -> f64 {
    (0.229 + 0.244 * k as f64).clamp(0.05, 1.0)
}

/// Build the ψ [`ExtOperator`] for registration in the catalog.
pub fn lexequal_operator(
    unitext_type: ExtTypeId,
    converters: Arc<ConverterRegistry>,
    langs: Arc<LanguageRegistry>,
) -> ExtOperator {
    let eval_convs = Arc::clone(&converters);
    let batch_convs = Arc::clone(&converters);
    let prepare_convs = Arc::clone(&converters);
    let sel_convs = Arc::clone(&converters);
    ExtOperator {
        name: "lexequal".into(),
        operand_type: DataType::Ext(unitext_type),
        eval: Arc::new(move |l, r, session| {
            let k = threshold(session);
            Ok(Datum::Bool(psi_matches(l, r, k, &eval_convs)?))
        }),
        eval_batch: Some(Arc::new(move |lefts, r, session| {
            let k = threshold(session);
            psi_matches_refs(lefts, r, k, &batch_convs, true)
        })),
        prepare_batch: Some(Arc::new(move |lefts, _| {
            let prepared = PreparedNames::new(lefts, Arc::clone(&prepare_convs))?;
            Ok(Box::new(prepared) as Box<dyn PreparedOperands>)
        })),
        // Table 1: ψ commutes, associates, and distributes over ∪.
        kind: OperatorKind {
            commutative: true,
            distributes_over_union: true,
        },
        // Table 3: the banded edit distance costs O(k·l) elementary
        // comparisons per evaluated pair.
        per_tuple_cost: Arc::new(|session, avg_width| {
            let k = threshold(session) as f64;
            (k + 1.0) * avg_width.max(4.0)
        }),
        // §3.4.1: probe the end-biased histogram's MCVs at the threshold,
        // inflate the remainder by the threshold factor.
        selectivity: Arc::new(move |input| {
            let k = threshold(input.session);
            match (input.column, input.constant) {
                (Some(stats), Some(constant)) => {
                    let query = match unitext_of_datum(constant) {
                        Ok(v) => sel_convs.phonemes_of(&v),
                        Err(_) => return psi_default_selectivity(k),
                    };
                    let phonemes = |d: &Datum| {
                        unitext_of_datum(d)
                            .ok()
                            .map(|v| sel_convs.phonemes_of(&v).as_bytes().to_vec())
                    };
                    let mcv_phonemes: Vec<(Vec<u8>, f64)> = stats
                        .mcvs
                        .iter()
                        .filter_map(|(d, f)| phonemes(d).map(|p| (p, *f)))
                        .collect();
                    let remainder: Vec<Vec<u8>> =
                        stats.bounds.iter().filter_map(phonemes).collect();
                    psi_scan_selectivity(&mcv_phonemes, &remainder, query.as_bytes(), k)
                }
                (left, None) => psi_join_selectivity(left, input.other_column, k),
                (None, Some(_)) => psi_default_selectivity(k),
            }
        }),
        // §4.2.1: the M-Tree serves ψ probes with its metric range search.
        index_strategy: Some(("mtree".into(), "within".into())),
        index_extra: Some(Arc::new(|session| Datum::Int(threshold(session) as i64))),
        // `IN (English, Hindi, ...)`: the LHS row matches only when its
        // language is in the list.
        modifier_filter: Some(language_filter(langs)),
        // §3.3: approximate-index traversal is linear in the threshold.
        index_scan_fraction: Some(Arc::new(|session| {
            approx_index_fraction(threshold(session))
        })),
        strategy_label: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{unitext_datum, unitext_to_bytes};
    use mlql_unitext::UniText;

    fn setup() -> (Arc<LanguageRegistry>, Arc<ConverterRegistry>, ExtOperator) {
        let langs = Arc::new(LanguageRegistry::new());
        let convs = Arc::new(ConverterRegistry::with_builtins(&langs));
        let op = lexequal_operator(ExtTypeId(0), Arc::clone(&convs), Arc::clone(&langs));
        (langs, convs, op)
    }

    fn ut(langs: &LanguageRegistry, text: &str, lang: &str) -> Datum {
        unitext_datum(ExtTypeId(0), &UniText::compose(text, langs.id_of(lang)))
    }

    #[test]
    fn cross_script_match_at_threshold() {
        let (langs, _, op) = setup();
        let mut session = SessionVars::new();
        session.set(THRESHOLD_VAR, Datum::Int(2));
        let en = ut(&langs, "Nehru", "English");
        let ta = ut(&langs, "நேரு", "Tamil");
        let hi = ut(&langs, "नेहरू", "Hindi");
        assert!((op.eval)(&en, &ta, &session).unwrap().is_true());
        assert!((op.eval)(&en, &hi, &session).unwrap().is_true());
        let other = ut(&langs, "Gandhi", "English");
        assert!(!(op.eval)(&en, &other, &session).unwrap().is_true());
    }

    #[test]
    fn threshold_zero_is_exact_phonemic_equality() {
        let (langs, _, op) = setup();
        let mut session = SessionVars::new();
        session.set(THRESHOLD_VAR, Datum::Int(0));
        let a = ut(&langs, "Nehru", "English");
        let b = ut(&langs, "Neru", "English"); // /neru/ vs /nehru/: d = 1
        assert!(!(op.eval)(&a, &b, &session).unwrap().is_true());
        session.set(THRESHOLD_VAR, Datum::Int(1));
        assert!((op.eval)(&a, &b, &session).unwrap().is_true());
    }

    #[test]
    fn materialized_phonemes_short_circuit_conversion() {
        let (langs, convs, _) = setup();
        let v = UniText::compose("whatever", langs.id_of("English")).with_phoneme("nehru");
        let ph = convs.phonemes_of(&v);
        assert_eq!(ph.to_ipa(), "nehru", "cache wins over conversion");
        let bytes = unitext_to_bytes(&v);
        let back = crate::types::unitext_from_bytes(&bytes).unwrap();
        assert_eq!(back.phoneme(), Some("nehru"));
    }

    #[test]
    fn modifier_filter_restricts_languages() {
        let (langs, _, op) = setup();
        let filter = op.modifier_filter.as_ref().unwrap();
        let ta = ut(&langs, "நேரு", "Tamil");
        let ta = ta.as_ref();
        assert!(filter(ta, &["Tamil".into(), "Hindi".into()]));
        assert!(filter(ta, &["tamil".into()]), "case-insensitive");
        assert!(!filter(ta, &["English".into()]));
        assert!(
            !filter(ta, &["Klingon".into()]),
            "unknown language never matches"
        );
    }

    #[test]
    fn selectivity_uses_constant_and_threshold() {
        use mlql_kernel::catalog::{ColumnStats, SelectivityInput};
        let (langs, _, op) = setup();
        // Build a column whose MCV is ⟨Nehru⟩ at 40%.
        let nehru = ut(&langs, "Nehru", "English");
        let mut vals: Vec<Datum> = std::iter::repeat_n(nehru.clone(), 40).collect();
        for i in 0..60 {
            vals.push(ut(&langs, &format!("zzz{i}"), "English"));
        }
        let stats = ColumnStats::build(&vals);
        let mut session = SessionVars::new();
        session.set(THRESHOLD_VAR, Datum::Int(1));
        let probe = ut(&langs, "Neru", "English");
        let sel = (op.selectivity)(&SelectivityInput {
            column: Some(&stats),
            constant: Some(&probe),
            other_column: None,
            session: &session,
        });
        assert!(sel >= 0.4, "MCV mass must be captured: {sel}");
        // An unrelated probe estimates only the tail.
        let far = ut(&langs, "Ramanujan", "English");
        let sel_far = (op.selectivity)(&SelectivityInput {
            column: Some(&stats),
            constant: Some(&far),
            other_column: None,
            session: &session,
        });
        assert!(sel_far < 0.05, "got {sel_far}");
    }

    #[test]
    fn unknown_language_degrades_to_text_equality() {
        let (_, convs, _) = setup();
        let a = Datum::text("exact");
        let b = Datum::text("exact");
        assert!(psi_matches(&a, &b, 2, &convs).unwrap());
        let c = Datum::text("other");
        // Latin-script untagged text converts through no converter
        // (LangId::UNKNOWN) — exact text equality decides.
        assert!(!psi_matches(&a, &c, 2, &convs).unwrap());
    }

    #[test]
    fn batch_eval_matches_scalar_on_every_element() {
        let (langs, convs, op) = setup();
        // A mix of every evaluation path: materialized fast path,
        // untagged text (empty-phoneme equality fallback), duplicates
        // (exercising the batch memo), and misses.
        let lefts_owned: Vec<Datum> = vec![
            ut(&langs, "Nehru", "English"),
            ut(&langs, "நேரு", "Tamil"),
            ut(&langs, "Gandhi", "English"),
            Datum::text("exact"),
            Datum::text("other"),
            ut(&langs, "Nehru", "English"), // duplicate → memo hit
            ut(&langs, "नेहरू", "Hindi"),
        ];
        let lefts: Vec<&Datum> = lefts_owned.iter().collect();
        for rhs in [ut(&langs, "Neru", "English"), Datum::text("exact")] {
            for k in [0usize, 1, 2, 3] {
                for use_myers in [true, false] {
                    let batch = psi_matches_batch(&lefts, &rhs, k, &convs, use_myers).unwrap();
                    assert_eq!(batch.len(), lefts.len());
                    for (l, got) in lefts.iter().zip(&batch) {
                        let want = psi_matches(l, &rhs, k, &convs).unwrap();
                        assert!(
                            got.is_true() == want,
                            "mismatch for {l:?} ψ {rhs:?} k={k} myers={use_myers}"
                        );
                    }
                }
            }
        }
        // The registered hook agrees with the free function and honors
        // the session threshold.
        let hook = op.eval_batch.as_ref().unwrap();
        let mut session = SessionVars::new();
        session.set(THRESHOLD_VAR, Datum::Int(2));
        let rhs = ut(&langs, "Neru", "English");
        let refs: Vec<DatumRef<'_>> = lefts.iter().map(|d| d.as_ref()).collect();
        let via_hook = hook(&refs, &rhs, &session).unwrap();
        let direct = psi_matches_batch(&lefts, &rhs, 2, &convs, true).unwrap();
        for (a, b) in via_hook.iter().zip(&direct) {
            assert!(a.is_true() == b.is_true());
        }
        // Prepared once, the same operands give the hook's verdicts over
        // any range, for every constant and threshold.
        let prepared = (op.prepare_batch.as_ref().unwrap())(&refs, &session).unwrap();
        for rhs in [ut(&langs, "Neru", "English"), Datum::text("exact")] {
            for k in [0i64, 1, 2, 3] {
                session.set(THRESHOLD_VAR, Datum::Int(k));
                for range in [0..refs.len(), 2..5, 3..3] {
                    let want = hook(&refs[range.clone()], &rhs, &session).unwrap();
                    let got = prepared.verdicts(range.clone(), &rhs, &session).unwrap();
                    assert_eq!(format!("{got:?}"), format!("{want:?}"), "{rhs:?} k={k}");
                }
            }
        }
    }

    #[test]
    fn approx_index_fraction_is_linear_then_saturates() {
        assert!(approx_index_fraction(1) < approx_index_fraction(2));
        assert_eq!(approx_index_fraction(4), 1.0);
        assert_eq!(approx_index_fraction(10), 1.0);
        assert!(approx_index_fraction(0) > 0.0, "never free");
    }

    #[test]
    fn per_tuple_cost_scales_with_threshold() {
        let (_, _, op) = setup();
        let mut s0 = SessionVars::new();
        s0.set(THRESHOLD_VAR, Datum::Int(0));
        let mut s3 = SessionVars::new();
        s3.set(THRESHOLD_VAR, Datum::Int(3));
        assert!((op.per_tuple_cost)(&s3, 8.0) > (op.per_tuple_cost)(&s0, 8.0));
    }
}
