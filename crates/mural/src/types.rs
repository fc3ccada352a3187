//! UniText ⇄ engine-bytes codec and type registration.
//!
//! Inside the engine a UniText value is an opaque extension payload:
//!
//! ```text
//! u16  lang id (LE)
//! u32  text length        | UTF-8 text bytes
//! u32  phoneme length     | phoneme bytes (empty until materialized)
//! ---- optional concept field (stored at insert) ----
//! u64  vocabulary stamp   | the taxonomy fingerprint the ids were resolved under
//! u16  n (≥ 1)            | n × u32 synset id (LE)
//! ```
//!
//! The registered support functions give the payload its semantics:
//! `compare` orders by the **text component first** (so all ordinary text
//! operators behave per §3.2.1), `display` renders `⟨text, lang⟩`, and
//! `on_insert` materializes the phonemic string at insertion time (§4.2)
//! and, for a value that names a concept, the synset ids Ω resolves it to.
//! Both are derived: every reader but Ω ignores the concept field, and
//! `identity` hands grouping the payload without it.  A payload with no
//! concept field (non-vocabulary text, values written before the field
//! existed) decodes as it always did.

use crate::semequal::SemState;
use mlql_kernel::catalog::ExtTypeDef;
use mlql_kernel::{Datum, DatumRef, Error, ExtTypeId, Result};
use mlql_phonetics::ConverterRegistry;
use mlql_taxonomy::SynsetId;
use mlql_unitext::{LangId, LanguageRegistry, UniText};
use std::cmp::Ordering;
use std::sync::Arc;

/// The catalog type name for UniText.
pub const UNITEXT_TYPE_NAME: &str = "unitext";

/// Encode a `UniText` into engine bytes (no concept field).
pub fn unitext_to_bytes(v: &UniText) -> Vec<u8> {
    let text = v.text().as_bytes();
    let ph = v.phoneme().map(str::as_bytes).unwrap_or(&[]);
    let mut out = Vec::with_capacity(2 + 4 + text.len() + 4 + ph.len());
    out.extend_from_slice(&v.lang().raw().to_le_bytes());
    out.extend_from_slice(&(text.len() as u32).to_le_bytes());
    out.extend_from_slice(text);
    out.extend_from_slice(&(ph.len() as u32).to_le_bytes());
    out.extend_from_slice(ph);
    out
}

/// The fields of a payload, borrowed in place.
pub(crate) struct Fields<'a> {
    pub lang: LangId,
    text: &'a [u8],
    phoneme: &'a [u8],
    /// The bytes after the phonemes: the concept field, or nothing.
    tail: &'a [u8],
}

impl<'a> Fields<'a> {
    /// The text component (validated here, off the stored-ids path).
    pub fn text(&self) -> Result<&'a str> {
        std::str::from_utf8(self.text).map_err(|_| corrupt())
    }

    /// The concept field, when the tail is a well-formed one.
    pub fn stored(&self) -> Option<StoredConcepts<'a>> {
        let tail = self.tail;
        let stamp = u64::from_le_bytes(tail.get(..8)?.try_into().ok()?);
        let n = u16::from_le_bytes(tail.get(8..10)?.try_into().ok()?) as usize;
        let ids = &tail[10..];
        (n > 0 && ids.len() == 4 * n).then_some(StoredConcepts { stamp, ids })
    }
}

fn corrupt() -> Error {
    Error::Storage("corrupt UniText payload".into())
}

/// Split a payload into its fields — `None` when it is malformed.
fn fields(bytes: &[u8]) -> Option<Fields<'_>> {
    let lang = LangId(u16::from_le_bytes(bytes.get(..2)?.try_into().ok()?));
    let tlen = u32::from_le_bytes(bytes.get(2..6)?.try_into().ok()?) as usize;
    let text = bytes.get(6..6usize.checked_add(tlen)?)?;
    let rest = &bytes[6 + tlen..];
    let plen = u32::from_le_bytes(rest.get(..4)?.try_into().ok()?) as usize;
    let phoneme = rest.get(4..4usize.checked_add(plen)?)?;
    Some(Fields {
        lang,
        text,
        phoneme,
        tail: &rest[4 + plen..],
    })
}

/// [`fields`] for a reader that must fail on a malformed payload, as
/// [`unitext_from_bytes`] does — Ω's resolver reads a value's language,
/// text and concept field through it without decoding the value.
pub(crate) fn payload_fields(bytes: &[u8]) -> Result<Fields<'_>> {
    fields(bytes).ok_or_else(corrupt)
}

/// Decode engine bytes into a `UniText` (a concept field is skipped).
pub fn unitext_from_bytes(bytes: &[u8]) -> Result<UniText> {
    let f = payload_fields(bytes)?;
    let mut v = UniText::compose(f.text()?, f.lang);
    if !f.phoneme.is_empty() {
        let ph = std::str::from_utf8(f.phoneme).map_err(|_| corrupt())?;
        v.set_phoneme(ph);
    }
    Ok(v)
}

/// The synset ids a payload's concept field stores, borrowed.
#[derive(Debug, Clone, Copy)]
pub struct StoredConcepts<'a> {
    /// The vocabulary fingerprint the ids were resolved under.
    pub stamp: u64,
    /// `n × u32` LE, n ≥ 1.
    ids: &'a [u8],
}

impl<'a> StoredConcepts<'a> {
    /// The stored ids, in stored order.
    pub fn ids(&self) -> impl Iterator<Item = SynsetId> + 'a {
        self.ids
            .chunks_exact(4)
            .map(|c| SynsetId(u32::from_le_bytes([c[0], c[1], c[2], c[3]])))
    }
}

/// The concept field of a payload — `None` when it has none, and when
/// its bytes are not a well-formed field (a garbage suffix reads as "no
/// ids", so Ω looks the word up).
pub fn stored_concepts(bytes: &[u8]) -> Option<StoredConcepts<'_>> {
    fields(bytes)?.stored()
}

/// Append a concept field naming `ids` under `stamp` to an encoded
/// payload.  Stores nothing for no ids, or for more than a `u16` count
/// holds; Ω then looks the word up.
pub fn push_concepts(out: &mut Vec<u8>, stamp: u64, ids: &[SynsetId]) {
    let Ok(n) = u16::try_from(ids.len()) else {
        return;
    };
    if n == 0 {
        return;
    }
    out.reserve(10 + 4 * ids.len());
    out.extend_from_slice(&stamp.to_le_bytes());
    out.extend_from_slice(&n.to_le_bytes());
    for id in ids {
        out.extend_from_slice(&id.raw().to_le_bytes());
    }
}

/// A payload's identity: everything before the concept field.  Two
/// stored values of one `(text, lang)` written under different
/// vocabularies share it.  A malformed payload is its own identity.
pub fn identity_prefix(bytes: &[u8]) -> &[u8] {
    match fields(bytes) {
        Some(f) => &bytes[..bytes.len() - f.tail.len()],
        None => bytes,
    }
}

/// Wrap a `UniText` as an engine `Datum` of the given registered type.
pub fn unitext_datum(ty: ExtTypeId, v: &UniText) -> Datum {
    Datum::ext(ty, unitext_to_bytes(v))
}

/// Borrow the materialized phoneme slice straight out of a UniText
/// payload, without decoding the value — `None` when the payload is
/// malformed or carries no phoneme cache.  This is the per-pair fast path
/// of ψ joins (§4.2's materialization exists precisely so the hot loop
/// never converts or copies).
pub fn phoneme_slice(bytes: &[u8]) -> Option<&[u8]> {
    fields(bytes).map(|f| f.phoneme).filter(|ph| !ph.is_empty())
}

/// Extract a `UniText` from a `Datum`.  `Text` datums are accepted and
/// coerced to an untagged UniText (convenience for string literals in
/// queries; they carry no language and no phoneme cache).
pub fn unitext_of_datum(d: &Datum) -> Result<UniText> {
    unitext_of_ref(d.as_ref())
}

/// [`unitext_of_datum`] over a borrowed value (a decoded row's or a page
/// image's).
pub(crate) fn unitext_of_ref(d: DatumRef<'_>) -> Result<UniText> {
    match d {
        DatumRef::Ext { bytes, .. } => unitext_from_bytes(bytes),
        DatumRef::Text(s) => Ok(UniText::compose(s, LangId::UNKNOWN)),
        other => Err(Error::Execution(format!("expected unitext, got {other}"))),
    }
}

/// The `IN (English, Hindi, …)` modifier filter ψ and Ω share: the left
/// operand passes when its language is one of `mods` (names looked up
/// case-insensitively; an unknown name matches nothing).
#[allow(clippy::type_complexity)]
pub(crate) fn language_filter(
    langs: Arc<LanguageRegistry>,
) -> Arc<dyn Fn(DatumRef<'_>, &[String]) -> bool + Send + Sync> {
    Arc::new(move |l, mods| {
        let Ok(v) = unitext_of_ref(l) else {
            return false;
        };
        mods.iter().any(|m| {
            langs
                .lookup(m)
                .map(|lang| lang.id == v.lang())
                .unwrap_or(false)
        })
    })
}

/// Compare two UniText payloads **by text component only** — §3.2.1: "all
/// text comparison operations may be applied to the UniText datatype; in
/// such cases, the operator functions solely on the Text component".
/// Values with the same text but different languages compare Equal here;
/// the ≐ identity operator (`UNITEQ` in SQL) distinguishes them.
pub fn compare_bytes(a: &[u8], b: &[u8]) -> Ordering {
    match (unitext_from_bytes(a), unitext_from_bytes(b)) {
        (Ok(x), Ok(y)) => x.text().cmp(y.text()),
        _ => a.cmp(b), // corrupt payloads order by raw bytes (stable)
    }
}

/// Build the `ExtTypeDef` for UniText.  `converters` powers the
/// insertion-time phoneme materialization, `sem` the insertion-time
/// concept resolution.
pub fn unitext_type_def(converters: Arc<ConverterRegistry>, sem: Arc<SemState>) -> ExtTypeDef {
    ExtTypeDef {
        name: UNITEXT_TYPE_NAME.into(),
        display: Arc::new(|bytes| match unitext_from_bytes(bytes) {
            Ok(v) => format!("⟨{}, {}⟩", v.text(), v.lang()),
            Err(_) => "⟨corrupt unitext⟩".into(),
        }),
        compare: Arc::new(compare_bytes),
        compare_text: Some(Arc::new(|bytes, text| match unitext_from_bytes(bytes) {
            Ok(v) => v.text().cmp(text),
            Err(_) => std::cmp::Ordering::Greater,
        })),
        on_insert: Some(Arc::new(move |bytes| match unitext_from_bytes(bytes) {
            Ok(mut v) => {
                converters.materialize(&mut v);
                let mut out = unitext_to_bytes(&v);
                push_concepts(&mut out, sem.vocabulary_stamp(), &sem.synsets_of(&v));
                out
            }
            Err(_) => bytes.to_vec(),
        })),
        identity: Some(Arc::new(identity_prefix)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reg() -> LanguageRegistry {
        LanguageRegistry::new()
    }

    #[test]
    fn codec_roundtrip() {
        let r = reg();
        let v =
            UniText::compose("Une Corde Témoin", r.id_of("French")).with_phoneme("ynkordtemwen");
        let bytes = unitext_to_bytes(&v);
        let back = unitext_from_bytes(&bytes).unwrap();
        assert_eq!(back.text(), "Une Corde Témoin");
        assert_eq!(back.lang(), r.id_of("French"));
        assert_eq!(back.phoneme(), Some("ynkordtemwen"));
    }

    #[test]
    fn codec_without_phoneme() {
        let r = reg();
        let v = UniText::compose("நேரு", r.id_of("Tamil"));
        let back = unitext_from_bytes(&unitext_to_bytes(&v)).unwrap();
        assert_eq!(back.text(), "நேரு");
        assert_eq!(back.phoneme(), None);
    }

    #[test]
    fn corrupt_payloads_rejected() {
        assert!(unitext_from_bytes(&[]).is_err());
        assert!(unitext_from_bytes(&[0, 0, 255, 255, 255, 255]).is_err());
        let r = reg();
        let mut good = unitext_to_bytes(&UniText::compose("x", r.id_of("English")));
        good.truncate(good.len() - 1);
        assert!(unitext_from_bytes(&good).is_err());
    }

    #[test]
    fn compare_is_text_first_and_ignores_phoneme() {
        let r = reg();
        let a = unitext_to_bytes(&UniText::compose("abc", r.id_of("Tamil")));
        let b = unitext_to_bytes(&UniText::compose("abd", r.id_of("English")));
        assert_eq!(compare_bytes(&a, &b), Ordering::Less);
        let c1 = unitext_to_bytes(&UniText::compose("same", r.id_of("English")));
        let c2 =
            unitext_to_bytes(&UniText::compose("same", r.id_of("English")).with_phoneme("seim"));
        assert_eq!(compare_bytes(&c1, &c2), Ordering::Equal);
        // Same text across languages is Equal for ordinary text operators.
        let d1 = unitext_to_bytes(&UniText::compose("same", r.id_of("Tamil")));
        assert_eq!(compare_bytes(&c1, &d1), Ordering::Equal);
    }

    fn books_def(r: &LanguageRegistry) -> (ExtTypeDef, Arc<SemState>) {
        let convs = Arc::new(ConverterRegistry::with_builtins(r));
        let sem = SemState::new(Arc::new(mlql_taxonomy::books_fragment(r).0));
        (unitext_type_def(convs, Arc::clone(&sem)), sem)
    }

    #[test]
    fn on_insert_materializes_phonemes() {
        let r = reg();
        let (def, _) = books_def(&r);
        let raw = unitext_to_bytes(&UniText::compose("Nehru", r.id_of("English")));
        let cooked = (def.on_insert.as_ref().unwrap())(&raw);
        let v = unitext_from_bytes(&cooked).unwrap();
        assert_eq!(v.phoneme(), Some("nehru"));
        // Not a vocabulary word: no concept field, the payload is exactly
        // the phoneme-materialized value.
        assert_eq!(cooked, unitext_to_bytes(&v));
    }

    #[test]
    fn on_insert_stores_the_synsets_a_word_names() {
        let r = reg();
        let (def, sem) = books_def(&r);
        let on_insert = def.on_insert.as_ref().unwrap();
        for (word, lang) in [
            ("History", r.id_of("English")),
            ("History", LangId::UNKNOWN),
        ] {
            let v = UniText::compose(word, lang);
            let cooked = on_insert(&unitext_to_bytes(&v));
            let stored = stored_concepts(&cooked).expect("a vocabulary word");
            assert_eq!(stored.stamp, sem.vocabulary_stamp());
            let ids: Vec<SynsetId> = stored.ids().collect();
            assert_eq!(ids, sem.synsets_of(&v));
            // Re-inserting a stored value re-resolves it: same bytes.
            assert_eq!(on_insert(&cooked), cooked);
            assert_eq!(
                (def.identity.as_ref().unwrap())(&cooked).len(),
                cooked.len() - 10 - 4 * ids.len()
            );
        }
    }

    mod codec_props {
        use super::*;
        use proptest::collection::vec;
        use proptest::prelude::*;

        fn text() -> impl Strategy<Value = String> {
            (0u8..5, vec(0u8..26, 0..6)).prop_map(|(pick, tail)| {
                let stem = ["", "History", "நேரு", "Histoire", "x"][pick as usize];
                let tail: String = tail.iter().map(|&c| (b'a' + c) as char).collect();
                format!("{stem}{tail}")
            })
        }

        /// Everything a reader other than Ω sees of a payload.
        fn seen(def: &ExtTypeDef, bytes: &[u8], other: &[u8]) -> impl PartialEq + std::fmt::Debug {
            (
                unitext_from_bytes(bytes)
                    .map(|v| {
                        (
                            v.text().to_string(),
                            v.lang(),
                            v.phoneme().map(str::to_string),
                        )
                    })
                    .ok(),
                phoneme_slice(bytes).map(<[u8]>::to_vec),
                compare_bytes(bytes, other),
                compare_bytes(other, bytes),
                (def.display)(bytes),
                (def.compare_text.as_ref().unwrap())(bytes, "History"),
            )
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]
            /// Legacy payloads carry no ids; a concept field reads back
            /// exactly and changes nothing else a reader sees; every
            /// truncation and every garbage suffix reads as "no ids" (or,
            /// inside the base fields, as an error) and never panics.
            #[test]
            fn concept_field_is_invisible_to_every_other_reader(
                (t, lang, phoneme) in (text(), any::<u16>(), text()),
                (stamp, ids) in (any::<u64>(), vec(any::<u32>(), 0..5)),
                garbage in vec(any::<u8>(), 0..24),
            ) {
                let r = reg();
                let (def, _) = books_def(&r);
                let mut v = UniText::compose(&t, LangId(lang));
                if !phoneme.is_empty() {
                    v.set_phoneme(&phoneme);
                }
                let legacy = unitext_to_bytes(&v);
                let other = unitext_to_bytes(&UniText::compose("Histoire", r.id_of("French")));
                prop_assert!(stored_concepts(&legacy).is_none());
                prop_assert_eq!(identity_prefix(&legacy), &legacy[..]);

                let ids: Vec<SynsetId> = ids.into_iter().map(SynsetId).collect();
                let mut with = legacy.clone();
                push_concepts(&mut with, stamp, &ids);
                prop_assert_eq!(with.len() > legacy.len(), !ids.is_empty());
                match stored_concepts(&with) {
                    Some(c) => {
                        prop_assert_eq!(c.stamp, stamp);
                        prop_assert_eq!(c.ids().collect::<Vec<_>>(), ids.clone());
                    }
                    None => prop_assert!(ids.is_empty()),
                }
                prop_assert_eq!(identity_prefix(&with), &legacy[..]);
                let want = seen(&def, &legacy, &other);
                prop_assert_eq!(seen(&def, &with, &other), want);

                // Truncations: inside the base fields an error, inside
                // the concept field "no ids".
                for k in 0..with.len() {
                    let cut = &with[..k];
                    prop_assert!(stored_concepts(cut).is_none(), "cut at {}", k);
                    let _ = seen(&def, cut, &other);
                    let _ = payload_fields(cut).map(|f| (f.text().ok().map(str::len), f.stored().is_some()));
                    if k < legacy.len() {
                        prop_assert!(unitext_from_bytes(cut).is_err());
                    } else {
                        prop_assert_eq!(seen(&def, cut, &other), seen(&def, &legacy, &other));
                    }
                }

                // A garbage suffix reads as ids only if it *is* a
                // well-formed field; the other readers never see it.
                let mut junk = legacy.clone();
                junk.extend_from_slice(&garbage);
                if let Some(c) = stored_concepts(&junk) {
                    let n = u16::from_le_bytes([garbage[8], garbage[9]]) as usize;
                    prop_assert!(n > 0 && garbage.len() == 10 + 4 * n);
                    prop_assert_eq!(c.ids().count(), n);
                }
                prop_assert_eq!(identity_prefix(&junk), &legacy[..]);
                prop_assert_eq!(seen(&def, &junk, &other), want);
            }
        }
    }

    #[test]
    fn text_datum_coerces() {
        let v = unitext_of_datum(&Datum::text("plain")).unwrap();
        assert_eq!(v.text(), "plain");
        assert_eq!(v.lang(), LangId::UNKNOWN);
        assert!(unitext_of_datum(&Datum::Int(3)).is_err());
    }
}
