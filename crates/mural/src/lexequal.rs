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
use crate::types::{language_filter, phoneme_slice, unitext_of_datum, unitext_of_ref};
use mlql_kernel::catalog::{ExtOperator, OperatorKind, PreparedOperands, SessionVars};
use mlql_kernel::{DataType, Datum, DatumRef, ExtTypeId};
use mlql_phonetics::distance::{phone_set, within_distance, PhonemeProbe};
use mlql_phonetics::ConverterRegistry;
use mlql_unitext::LanguageRegistry;
use std::borrow::Cow;
use std::ops::Range;
use std::sync::Arc;

/// Session variable holding ψ's error threshold.
pub const THRESHOLD_VAR: &str = "lexequal.threshold";

/// Default threshold when the session does not set one (the running
/// example of the paper's Figure 2 uses 2).
pub const DEFAULT_THRESHOLD: i64 = 2;

/// Read the threshold from the session.
pub fn threshold(session: &SessionVars) -> usize {
    session.get_int(THRESHOLD_VAR, DEFAULT_THRESHOLD).max(0) as usize
}

/// One ψ operand: its phonemes — the slice a UniText payload stores
/// (§4.2's insertion-time materialization: no decode, no copy), else
/// decoded and converted — and, when it has none, its text.
struct Operand<'a> {
    phonemes: Cow<'a, [u8]>,
    /// The text of a value without phonemes: with no phonemic information
    /// on either side, ψ degrades gracefully to exact text equality.
    text: Option<Box<str>>,
}

fn operand<'a>(
    d: DatumRef<'a>,
    converters: &ConverterRegistry,
) -> mlql_kernel::Result<Operand<'a>> {
    if let DatumRef::Ext { bytes, .. } = d {
        if let Some(p) = phoneme_slice(bytes) {
            return Ok(Operand {
                phonemes: Cow::Borrowed(p),
                text: None,
            });
        }
    }
    let v = unitext_of_ref(d)?;
    let p = converters.phonemes_of(&v);
    Ok(Operand {
        text: p.is_empty().then(|| v.text().into()),
        phonemes: Cow::Owned(p.as_bytes().to_vec()),
    })
}

/// The ψ predicate over two datums: the scalar path, and the oracle the
/// batch paths are tested against — the banded DP on every pair, no
/// phone-set bound.
pub fn psi_matches(
    l: &Datum,
    r: &Datum,
    k: usize,
    converters: &ConverterRegistry,
) -> mlql_kernel::Result<bool> {
    let (l, r) = (
        operand(l.as_ref(), converters)?,
        operand(r.as_ref(), converters)?,
    );
    if let (Some(lt), Some(rt)) = (&l.text, &r.text) {
        return Ok(lt == rt);
    }
    mlql_kernel::obs::metrics().psi_distance_calls_total.inc();
    Ok(within_distance(&l.phonemes, &r.phonemes, k))
}

/// [`psi_matches_refs`] over owned values, for callers that hold
/// `Datum`s (the benchmark's layer replay).  The flag no longer picks a
/// kernel: `use_myers = false` answers from [`psi_matches`] element by
/// element.
pub fn psi_matches_batch(
    lefts: &[&Datum],
    r: &Datum,
    k: usize,
    converters: &ConverterRegistry,
    use_myers: bool,
) -> mlql_kernel::Result<Vec<Datum>> {
    if !use_myers {
        return lefts
            .iter()
            .map(|l| psi_matches(l, r, k, converters).map(Datum::Bool))
            .collect();
    }
    let lefts: Vec<DatumRef<'_>> = lefts.iter().map(|d| d.as_ref()).collect();
    psi_matches_refs(&lefts, r, k, converters)
}

/// The constant side of ψ, resolved once per batch or per outer row:
/// its phonemes compiled into one [`PhonemeProbe`], and its text when it
/// has no phonemes.
struct Constant {
    probe: PhonemeProbe,
    text: Option<Box<str>>,
    /// Pairs decided on phonemes, for `psi_distance_calls_total`.
    calls: u64,
}

impl Constant {
    fn new(r: &Datum, converters: &ConverterRegistry) -> mlql_kernel::Result<Constant> {
        let Operand { phonemes, text } = operand(r.as_ref(), converters)?;
        Ok(Constant {
            probe: PhonemeProbe::new(&phonemes),
            text,
            calls: 0,
        })
    }

    /// ψ's verdict on the constant and an operand with phonemes `lp`,
    /// whose phone set is `set`, and text `text`: texts decide when
    /// neither side has phonemes, else the probe, bound first.  A pair
    /// the bound rejects was still decided on phonemes, so it counts as a
    /// distance call, as it does on the scalar path.
    fn verdict(&mut self, lp: &[u8], set: u64, text: Option<&str>, k: usize) -> Datum {
        if let (Some(lt), Some(rt)) = (text, &self.text) {
            return Datum::Bool(lt == &**rt);
        }
        self.calls += 1;
        Datum::Bool(self.probe.within(lp, set, k))
    }

    fn count_calls(&self) {
        mlql_kernel::obs::metrics()
            .psi_distance_calls_total
            .add(self.calls);
    }
}

/// Batch ψ: `lefts[i] ψ r` for a whole batch against one constant RHS,
/// over borrowed operands — values of decoded rows, or UniText fields
/// read straight off a heap page image (the scan's hook: one pass, no
/// copy of the page's fields).
///
/// Result-identical to [`psi_matches`] on every element; the constant is
/// resolved and compiled once, and each operand meets the phone-set
/// bound before the kernel.
pub fn psi_matches_refs(
    lefts: &[DatumRef<'_>],
    r: &Datum,
    k: usize,
    converters: &ConverterRegistry,
) -> mlql_kernel::Result<Vec<Datum>> {
    if lefts.is_empty() {
        return Ok(Vec::new());
    }
    let mut rhs = Constant::new(r, converters)?;
    // A loop, not a `collect::<Result<_>>()`, which cost `psi_scan` 15 %.
    let mut out = Vec::with_capacity(lefts.len());
    for &l in lefts {
        let Operand { phonemes, text } = operand(l, converters)?;
        out.push(rhs.verdict(&phonemes, phone_set(&phonemes), text.as_deref(), k));
    }
    rhs.count_calls();
    Ok(out)
}

/// ψ's operands prepared once for many constants
/// ([`ExtOperator::prepare_batch`]): a nested loop's inner names, each
/// parsed (and, without a stored cache, converted) once per join.  Their
/// phonemes sit back to back in one arena, each with its phone set, so
/// that per constant the probe is compiled once and each pair costs the
/// bound, and the kernel only when the bound lets it through.
struct PreparedNames {
    converters: Arc<ConverterRegistry>,
    arena: Vec<u8>,
    /// Where each name's phonemes end in the arena.
    ends: Vec<usize>,
    sets: Vec<u64>,
    texts: Vec<Option<Box<str>>>,
}

impl PreparedNames {
    fn new(
        lefts: &[DatumRef<'_>],
        converters: Arc<ConverterRegistry>,
    ) -> mlql_kernel::Result<PreparedNames> {
        let mut names = PreparedNames {
            converters,
            arena: Vec::new(),
            ends: Vec::with_capacity(lefts.len()),
            sets: Vec::with_capacity(lefts.len()),
            texts: Vec::with_capacity(lefts.len()),
        };
        for &l in lefts {
            let Operand { phonemes, text } = operand(l, &names.converters)?;
            names.arena.extend_from_slice(&phonemes);
            names.ends.push(names.arena.len());
            names.sets.push(phone_set(&phonemes));
            names.texts.push(text);
        }
        Ok(names)
    }
}

impl PreparedOperands for PreparedNames {
    /// [`psi_matches_refs`] over the prepared names in `range`.
    fn verdicts(
        &self,
        range: Range<usize>,
        r: &Datum,
        session: &SessionVars,
    ) -> mlql_kernel::Result<Vec<Datum>> {
        let k = threshold(session);
        let mut rhs = Constant::new(r, &self.converters)?;
        let out = range
            .map(|i| {
                let start = if i == 0 { 0 } else { self.ends[i - 1] };
                let lp = &self.arena[start..self.ends[i]];
                rhs.verdict(lp, self.sets[i], self.texts[i].as_deref(), k)
            })
            .collect();
        rhs.count_calls();
        Ok(out)
    }
}

/// Fraction of an approximate (metric) index traversed at threshold `k` —
/// "the fraction of the database scanned was approximated by a linear
/// function on the error threshold" (§3.3).  Slope and intercept are the
/// `calibration` grid's fit of M-tree distance computations per indexed
/// row over thresholds 0–3 (the run `opt::CostParams` cites).  The fit
/// predates the length/phone-set bound by which the tree now skips
/// entries and subtrees, so it prices far more keys than a probe visits;
/// it moves only with a full refit of the grid, whose spawn and gather
/// classes do not yet separate the two parallel constants.
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
            psi_matches_refs(lefts, r, k, &batch_convs)
        })),
        prepare_batch: Some(Arc::new(move |lefts, _| {
            let prepared = PreparedNames::new(lefts, Arc::clone(&prepare_convs))?;
            Ok(Box::new(prepared) as Box<dyn PreparedOperands>)
        })),
        // Table 1: ψ commutes.
        kind: OperatorKind { commutative: true },
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
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

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

    /// A ψ operand from one seeded generator: a stored phoneme key shaped
    /// like the M-tree tests' (`A` and `\x01`, `k` and `+` fold onto one
    /// `phone_set` bit; empty, short, or a 60-symbol stem plus a tail, so
    /// constants straddle the Myers kernel's 64-symbol word), a name left
    /// to conversion, short or long, or plain text, which has no phonemes.
    fn random_operand(rng: &mut StdRng, langs: &LanguageRegistry) -> Datum {
        const SYMBOLS: [char; 5] = ['A', '\x01', 'k', '+', 'n'];
        let stem = if rng.gen_range(0..4) == 0 { 60 } else { 0 };
        let len = stem + rng.gen_range(0..10);
        let name: String = (0..len)
            .map(|i| ['k', 'a', 'n'][(i + rng.gen_range(0..2)) % 3])
            .collect();
        match rng.gen_range(0..5) {
            0 => Datum::text(["exact", "other", ""][rng.gen_range(0..3)]),
            1 | 2 => ut(langs, &name, "English"),
            _ => {
                let key: String = (0..len)
                    .map(|i| SYMBOLS[if i < stem { i % 3 } else { rng.gen_range(0..5) }])
                    .collect();
                let v = UniText::compose(&name, langs.id_of("English")).with_phoneme(key);
                unitext_datum(ExtTypeId(0), &v)
            }
        }
    }

    /// The `eval_batch` hook and `PreparedNames::verdicts` over a random
    /// range agree with scalar `psi_matches` on every pair of one seeded
    /// case, at k = 0–3.
    fn batch_paths_agree_with_scalar(
        seed: u64,
        langs: &LanguageRegistry,
        convs: &ConverterRegistry,
        op: &ExtOperator,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let lefts: Vec<Datum> = (0..rng.gen_range(1..24))
            .map(|_| random_operand(&mut rng, langs))
            .collect();
        let refs: Vec<DatumRef<'_>> = lefts.iter().map(|d| d.as_ref()).collect();
        let mut session = SessionVars::new();
        let prepared = (op.prepare_batch.as_ref().unwrap())(&refs, &session).unwrap();
        let bools = |v: Vec<Datum>| v.iter().map(Datum::is_true).collect::<Vec<_>>();
        for _ in 0..4 {
            let r = random_operand(&mut rng, langs);
            for k in 0..=3 {
                session.set(THRESHOLD_VAR, Datum::Int(k as i64));
                let want: Vec<bool> = lefts
                    .iter()
                    .map(|l| psi_matches(l, &r, k, convs).unwrap())
                    .collect();
                let hook = (op.eval_batch.as_ref().unwrap())(&refs, &r, &session).unwrap();
                assert_eq!(bools(hook), want, "seed {seed:#x}: hook, {r:?} k={k}");
                let lo = rng.gen_range(0..lefts.len() + 1);
                let range = lo..rng.gen_range(lo..lefts.len() + 1);
                let got = prepared.verdicts(range.clone(), &r, &session).unwrap();
                assert_eq!(
                    bools(got),
                    want[range.clone()],
                    "seed {seed:#x}: {range:?}, {r:?} k={k}"
                );
            }
        }
    }

    /// [`batch_paths_agree_with_scalar`] over 64 cases from a fresh seed.
    /// The vendored proptest shim does not shrink, so a failure names the
    /// case's seed, which `batch_paths_agree_with_scalar` replays.
    #[test]
    fn batch_paths_agree_with_scalar_on_random_operands() {
        let (langs, convs, op) = setup();
        let base = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.as_nanos() as u64);
        println!("seed base {base:#x}");
        for case in 0..64 {
            batch_paths_agree_with_scalar(base.wrapping_add(case), &langs, &convs, &op);
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
