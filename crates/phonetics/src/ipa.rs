//! The canonical phonemic alphabet.
//!
//! The paper converts every multilingual string into a phonemic string over
//! a canonical IPA alphabet \[25\] and matches in that domain.  We use a
//! compact IPA subset in which each phone occupies exactly one byte; a
//! [`PhonemeString`] is therefore a plain `Vec<u8>` with phone semantics.
//!
//! Design choices (documented because they shape matching quality):
//!
//! * **Aspiration is folded** (kʰ → k): Indic scripts distinguish aspirated
//!   stops, Latin orthography doesn't; folding makes cross-script homophones
//!   land near each other, which is the whole point of ψ.
//! * **Vowel length is folded** (aː → a) for the same reason.
//! * **Retroflex consonants are kept distinct** (ʈ ɖ ɳ ɭ ɻ): they are
//!   phonemic in the Indic languages the paper evaluates and folding them
//!   would collapse genuinely different names.

use std::fmt;

/// One phone of the canonical alphabet.  The `u8` representation is the
/// on-disk/in-tuple encoding.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum Phone {
    // ---- vowels ----
    A = b'a',
    E = b'e',
    I = b'i',
    O = b'o',
    U = b'u',
    /// Near-open front vowel (cat).
    Ae = b'@',
    /// Schwa.
    Schwa = b'x',
    /// Open-mid back rounded (caught).
    Oo = b'c',
    // ---- diphthong second elements are spelled out as two phones ----

    // ---- stops ----
    P = b'p',
    B = b'b',
    T = b't',
    D = b'd',
    /// Retroflex voiceless stop ʈ.
    Tt = b'T',
    /// Retroflex voiced stop ɖ.
    Dd = b'D',
    K = b'k',
    G = b'g',
    // ---- affricates ----
    /// tʃ (church).
    Ch = b'C',
    /// dʒ (judge).
    J = b'J',
    // ---- fricatives ----
    F = b'f',
    V = b'v',
    S = b's',
    Z = b'z',
    /// ʃ (ship).
    Sh = b'S',
    /// ʒ (vision).
    Zh = b'Z',
    /// θ (thin).
    Th = b'H',
    /// ð (this).
    Dh = b'Q',
    H = b'h',
    // ---- nasals ----
    M = b'm',
    N = b'n',
    /// Retroflex nasal ɳ.
    Nn = b'N',
    /// Velar nasal ŋ.
    Ng = b'G',
    /// Palatal nasal ɲ.
    Ny = b'Y',
    // ---- liquids / approximants ----
    L = b'l',
    /// Retroflex lateral ɭ.
    Ll = b'L',
    R = b'r',
    /// Retroflex approximant ɻ (Tamil ழ).
    Rr = b'R',
    /// Palatal approximant j (yes).
    Yy = b'y',
    W = b'w',
    /// Labiodental approximant ʋ (Indic व).
    Vv = b'V',
}

impl Phone {
    /// The byte encoding of this phone.
    #[inline]
    pub fn byte(self) -> u8 {
        self as u8
    }

    /// Decode a byte back into a phone; `None` for bytes that are not part
    /// of the alphabet.  Constant-time via a 256-entry table — this sits on
    /// the per-comparison hot path of ψ joins.
    #[inline]
    pub fn from_byte(b: u8) -> Option<Phone> {
        LUT[b as usize]
    }

    /// True for vowel phones.
    pub fn is_vowel(self) -> bool {
        matches!(
            self,
            Phone::A
                | Phone::E
                | Phone::I
                | Phone::O
                | Phone::U
                | Phone::Ae
                | Phone::Schwa
                | Phone::Oo
        )
    }

    /// True for nasal consonants.
    pub fn is_nasal(self) -> bool {
        matches!(
            self,
            Phone::M | Phone::N | Phone::Nn | Phone::Ng | Phone::Ny
        )
    }

    /// IPA glyph(s) for display.
    pub fn ipa(self) -> &'static str {
        match self {
            Phone::A => "a",
            Phone::E => "e",
            Phone::I => "i",
            Phone::O => "o",
            Phone::U => "u",
            Phone::Ae => "æ",
            Phone::Schwa => "ə",
            Phone::Oo => "ɔ",
            Phone::P => "p",
            Phone::B => "b",
            Phone::T => "t",
            Phone::D => "d",
            Phone::Tt => "ʈ",
            Phone::Dd => "ɖ",
            Phone::K => "k",
            Phone::G => "ɡ",
            Phone::Ch => "tʃ",
            Phone::J => "dʒ",
            Phone::F => "f",
            Phone::V => "v",
            Phone::S => "s",
            Phone::Z => "z",
            Phone::Sh => "ʃ",
            Phone::Zh => "ʒ",
            Phone::Th => "θ",
            Phone::Dh => "ð",
            Phone::H => "h",
            Phone::M => "m",
            Phone::N => "n",
            Phone::Nn => "ɳ",
            Phone::Ng => "ŋ",
            Phone::Ny => "ɲ",
            Phone::L => "l",
            Phone::Ll => "ɭ",
            Phone::R => "r",
            Phone::Rr => "ɻ",
            Phone::Yy => "j",
            Phone::W => "w",
            Phone::Vv => "ʋ",
        }
    }
}

/// Every phone of the alphabet; `ALL.len()` is the Σ (alphabet size)
/// parameter of the paper's cost models (Table 2).
pub const ALL: &[Phone] = &[
    Phone::A,
    Phone::E,
    Phone::I,
    Phone::O,
    Phone::U,
    Phone::Ae,
    Phone::Schwa,
    Phone::Oo,
    Phone::P,
    Phone::B,
    Phone::T,
    Phone::D,
    Phone::Tt,
    Phone::Dd,
    Phone::K,
    Phone::G,
    Phone::Ch,
    Phone::J,
    Phone::F,
    Phone::V,
    Phone::S,
    Phone::Z,
    Phone::Sh,
    Phone::Zh,
    Phone::Th,
    Phone::Dh,
    Phone::H,
    Phone::M,
    Phone::N,
    Phone::Nn,
    Phone::Ng,
    Phone::Ny,
    Phone::L,
    Phone::Ll,
    Phone::R,
    Phone::Rr,
    Phone::Yy,
    Phone::W,
    Phone::Vv,
];

/// Size of the phonemic alphabet (the paper's Σ).
pub const ALPHABET_SIZE: usize = ALL.len();

/// Byte → phone decode table.
static LUT: [Option<Phone>; 256] = {
    let mut t = [None; 256];
    let mut i = 0;
    while i < ALL.len() {
        t[ALL[i] as u8 as usize] = Some(ALL[i]);
        i += 1;
    }
    t
};

/// A phonemic string: a sequence of phones, stored as raw bytes.
///
/// The byte representation is what the engine stores in the optional third
/// component of `UniText` tuples and what the M-Tree indexes; the edit
/// distance in [`crate::distance`] operates directly on these bytes.
#[derive(Debug, Clone, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PhonemeString(Vec<u8>);

impl PhonemeString {
    /// Empty phoneme string.
    pub fn new() -> Self {
        PhonemeString(Vec::new())
    }

    /// Construct from raw phone bytes.  Bytes that are not valid phone
    /// encodings are dropped — this makes deserialization total, which
    /// matters when reading possibly-stale materialized phonemes from disk.
    pub fn from_bytes(bytes: &[u8]) -> Self {
        PhonemeString(
            bytes
                .iter()
                .copied()
                .filter(|&b| Phone::from_byte(b).is_some())
                .collect(),
        )
    }

    /// Append one phone.
    #[inline]
    pub fn push(&mut self, p: Phone) {
        self.0.push(p.byte());
    }

    /// The raw byte view (for storage, hashing, distance computation).
    #[inline]
    pub fn as_bytes(&self) -> &[u8] {
        &self.0
    }

    /// Number of phones.
    #[inline]
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True when there are no phones.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Iterate over decoded phones.
    pub fn phones(&self) -> impl Iterator<Item = Phone> + '_ {
        self.0.iter().filter_map(|&b| Phone::from_byte(b))
    }

    /// Last phone, if any.
    pub fn last(&self) -> Option<Phone> {
        self.0.last().and_then(|&b| Phone::from_byte(b))
    }

    /// Remove and return the last phone.
    pub fn pop(&mut self) -> Option<Phone> {
        self.0.pop().and_then(Phone::from_byte)
    }

    /// Render as IPA for humans (`/nehru/` style, without the slashes).
    pub fn to_ipa(&self) -> String {
        self.phones().map(|p| p.ipa()).collect()
    }
}

impl FromIterator<Phone> for PhonemeString {
    fn from_iter<T: IntoIterator<Item = Phone>>(iter: T) -> Self {
        PhonemeString(iter.into_iter().map(|p| p.byte()).collect())
    }
}

impl fmt::Display for PhonemeString {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "/{}/", self.to_ipa())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phone_bytes_are_unique() {
        let mut seen = std::collections::HashSet::new();
        for p in ALL {
            assert!(seen.insert(p.byte()), "duplicate byte for {p:?}");
        }
        assert_eq!(seen.len(), ALPHABET_SIZE);
    }

    #[test]
    fn byte_roundtrip() {
        for &p in ALL {
            assert_eq!(Phone::from_byte(p.byte()), Some(p));
        }
        assert_eq!(Phone::from_byte(0), None);
        assert_eq!(Phone::from_byte(b'!'), None);
    }

    #[test]
    fn from_bytes_drops_invalid() {
        let ps = PhonemeString::from_bytes(b"n!e h?r\xffu");
        assert_eq!(ps.to_ipa(), "nehru");
    }

    #[test]
    fn push_pop_and_len() {
        let mut ps = PhonemeString::new();
        assert!(ps.is_empty());
        ps.push(Phone::N);
        ps.push(Phone::E);
        assert_eq!(ps.len(), 2);
        assert_eq!(ps.pop(), Some(Phone::E));
        assert_eq!(ps.last(), Some(Phone::N));
    }

    #[test]
    fn vowel_and_nasal_classification() {
        assert!(Phone::A.is_vowel());
        assert!(Phone::Schwa.is_vowel());
        assert!(!Phone::K.is_vowel());
        assert!(Phone::Ng.is_nasal());
        assert!(!Phone::L.is_nasal());
    }

    #[test]
    fn display_is_ipa_between_slashes() {
        let ps: PhonemeString = [Phone::N, Phone::E, Phone::H, Phone::R, Phone::U]
            .into_iter()
            .collect();
        assert_eq!(format!("{ps}"), "/nehru/");
    }

    #[test]
    fn affricate_ipa_is_multichar() {
        let ps: PhonemeString = [Phone::Ch, Phone::A].into_iter().collect();
        assert_eq!(ps.to_ipa(), "tʃa");
        assert_eq!(ps.len(), 2); // still two phones
    }
}
