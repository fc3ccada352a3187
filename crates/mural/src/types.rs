//! UniText ⇄ engine-bytes codec and type registration.
//!
//! Inside the engine a UniText value is an opaque extension payload:
//!
//! ```text
//! u16  lang id (LE)
//! u32  text length        | UTF-8 text bytes
//! u32  phoneme length     | phoneme bytes (empty until materialized)
//! ```
//!
//! The registered support functions give the payload its semantics:
//! `compare` orders by the **text component first** (so all ordinary text
//! operators behave per §3.2.1), `display` renders `⟨text, lang⟩`, and
//! `on_insert` materializes the phonemic string at insertion time (§4.2).

use mlql_kernel::catalog::ExtTypeDef;
use mlql_kernel::{Datum, DatumRef, Error, ExtTypeId, Result};
use mlql_phonetics::ConverterRegistry;
use mlql_unitext::{LangId, LanguageRegistry, UniText};
use std::cmp::Ordering;
use std::sync::Arc;

/// The catalog type name for UniText.
pub const UNITEXT_TYPE_NAME: &str = "unitext";

/// Encode a `UniText` into engine bytes.
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

/// Decode engine bytes into a `UniText`.
pub fn unitext_from_bytes(bytes: &[u8]) -> Result<UniText> {
    let corrupt = || Error::Storage("corrupt UniText payload".into());
    if bytes.len() < 6 {
        return Err(corrupt());
    }
    let lang = LangId(u16::from_le_bytes([bytes[0], bytes[1]]));
    let tlen = u32::from_le_bytes(bytes[2..6].try_into().expect("4 bytes")) as usize;
    if bytes.len() < 6 + tlen + 4 {
        return Err(corrupt());
    }
    let text = std::str::from_utf8(&bytes[6..6 + tlen]).map_err(|_| corrupt())?;
    let plen_off = 6 + tlen;
    let plen =
        u32::from_le_bytes(bytes[plen_off..plen_off + 4].try_into().expect("4 bytes")) as usize;
    if bytes.len() < plen_off + 4 + plen {
        return Err(corrupt());
    }
    let ph = &bytes[plen_off + 4..plen_off + 4 + plen];
    let mut v = UniText::compose(text, lang);
    if !ph.is_empty() {
        let ph = std::str::from_utf8(ph).map_err(|_| corrupt())?;
        v.set_phoneme(ph);
    }
    Ok(v)
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
    if bytes.len() < 6 {
        return None;
    }
    let tlen = u32::from_le_bytes(bytes[2..6].try_into().ok()?) as usize;
    let plen_off = 6 + tlen;
    if bytes.len() < plen_off + 4 {
        return None;
    }
    let plen = u32::from_le_bytes(bytes[plen_off..plen_off + 4].try_into().ok()?) as usize;
    if bytes.len() < plen_off + 4 + plen || plen == 0 {
        return None;
    }
    Some(&bytes[plen_off + 4..plen_off + 4 + plen])
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
/// insertion-time phoneme materialization.
pub fn unitext_type_def(converters: Arc<ConverterRegistry>) -> ExtTypeDef {
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
                unitext_to_bytes(&v)
            }
            Err(_) => bytes.to_vec(),
        })),
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

    #[test]
    fn on_insert_materializes_phonemes() {
        let r = reg();
        let convs = Arc::new(ConverterRegistry::with_builtins(&r));
        let def = unitext_type_def(convs);
        let raw = unitext_to_bytes(&UniText::compose("Nehru", r.id_of("English")));
        let cooked = (def.on_insert.as_ref().unwrap())(&raw);
        let v = unitext_from_bytes(&cooked).unwrap();
        assert_eq!(v.phoneme(), Some("nehru"));
    }

    #[test]
    fn text_datum_coerces() {
        let v = unitext_of_datum(&Datum::text("plain")).unwrap();
        assert_eq!(v.text(), "plain");
        assert_eq!(v.lang(), LangId::UNKNOWN);
        assert!(unitext_of_datum(&Datum::Int(3)).is_err());
    }
}
