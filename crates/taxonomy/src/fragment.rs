//! A hand-written multilingual taxonomy fragment for the paper's worked
//! examples (Figures 1 and 4): the concept hierarchy around *History* in
//! English, French and Tamil, with the equivalence links that make the
//! SemEQUAL query of Figure 4 return its three-language result.
//!
//! Per the paper's footnote 2: *Historiography* ("the study of history
//! writing and written histories") and *Autobiography* are specialized
//! branches of History itself; the Tamil category value *Charitram*
//! (சரித்திரம்) means History.

use crate::hierarchy::{SynsetId, Taxonomy};
use mlql_unitext::LanguageRegistry;

/// Named handles into the fragment built by [`books_fragment`].
#[derive(Debug, Clone, Copy)]
pub struct BooksFragment {
    /// English ⟨History⟩.
    pub history_en: SynsetId,
    /// French ⟨Histoire⟩ (≡ History).
    pub histoire_fr: SynsetId,
    /// Tamil ⟨சரித்திரம், Charitram⟩ (≡ History).
    pub charitram_ta: SynsetId,
    /// English ⟨Historiography⟩ < History.
    pub historiography_en: SynsetId,
    /// English ⟨Autobiography⟩ < Biography < History.
    pub autobiography_en: SynsetId,
    /// English ⟨Fiction⟩ — a sibling NOT under History.
    pub fiction_en: SynsetId,
    /// English root ⟨Literature⟩.
    pub literature_en: SynsetId,
}

/// Build the books-catalog fragment used throughout examples and tests.
///
/// English structure:
/// ```text
/// Literature
/// ├── History
/// │   ├── Historiography
/// │   └── Biography
/// │       └── Autobiography
/// └── Fiction
///     └── Novel
/// ```
/// French carries ⟨Histoire⟩ ≡ ⟨History⟩ with child ⟨Biographie⟩, Tamil
/// carries ⟨சரித்திரம்⟩ ≡ ⟨History⟩.
pub fn books_fragment(reg: &LanguageRegistry) -> (Taxonomy, BooksFragment) {
    let en = reg.id_of("English");
    let fr = reg.id_of("French");
    let ta = reg.id_of("Tamil");

    let mut t = Taxonomy::new();

    let literature_en = t.add_synset(en, &["Literature"]);
    let history_en = t.add_synset(en, &["History"]);
    let historiography_en = t.add_synset(en, &["Historiography"]);
    let biography_en = t.add_synset(en, &["Biography"]);
    let autobiography_en = t.add_synset(en, &["Autobiography"]);
    let fiction_en = t.add_synset(en, &["Fiction"]);
    let novel_en = t.add_synset(en, &["Novel"]);

    t.add_hyponym(literature_en, history_en);
    t.add_hyponym(history_en, historiography_en);
    t.add_hyponym(history_en, biography_en);
    t.add_hyponym(biography_en, autobiography_en);
    t.add_hyponym(literature_en, fiction_en);
    t.add_hyponym(fiction_en, novel_en);

    let litterature_fr = t.add_synset(fr, &["Littérature"]);
    let histoire_fr = t.add_synset(fr, &["Histoire"]);
    let biographie_fr = t.add_synset(fr, &["Biographie"]);
    t.add_hyponym(litterature_fr, histoire_fr);
    t.add_hyponym(histoire_fr, biographie_fr);

    let ilakkiyam_ta = t.add_synset(ta, &["இலக்கியம்", "Ilakkiyam"]);
    let charitram_ta = t.add_synset(ta, &["சரித்திரம்", "Charitram"]);
    t.add_hyponym(ilakkiyam_ta, charitram_ta);

    t.add_equivalence(history_en, histoire_fr);
    t.add_equivalence(history_en, charitram_ta);
    t.add_equivalence(biography_en, biographie_fr);
    t.add_equivalence(literature_en, litterature_fr);
    t.add_equivalence(literature_en, ilakkiyam_ta);

    (
        t,
        BooksFragment {
            history_en,
            histoire_fr,
            charitram_ta,
            historiography_en,
            autobiography_en,
            fiction_en,
            literature_en,
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::closure::compute_closure;

    #[test]
    fn figure4_semantics() {
        // SemEQUAL 'History' must cover Historiography, Autobiography,
        // Histoire, Charitram — and must NOT cover Fiction.
        let reg = LanguageRegistry::new();
        let (t, f) = books_fragment(&reg);
        let cl = compute_closure(&t, f.history_en);
        assert!(cl.contains(&f.historiography_en));
        assert!(cl.contains(&f.autobiography_en));
        assert!(cl.contains(&f.histoire_fr));
        assert!(cl.contains(&f.charitram_ta));
        assert!(!cl.contains(&f.fiction_en));
        assert!(!cl.contains(&f.literature_en), "closure must not go upward");
    }

    #[test]
    fn lookup_by_romanized_form() {
        let reg = LanguageRegistry::new();
        let (t, f) = books_fragment(&reg);
        let ta = reg.id_of("Tamil");
        assert_eq!(t.lookup("Charitram", ta), &[f.charitram_ta]);
        assert_eq!(t.lookup("சரித்திரம்", ta), &[f.charitram_ta]);
    }

    #[test]
    fn equivalence_closure_includes_foreign_subtrees() {
        // Histoire's child Biographie is reachable from History through the
        // equivalence edge.
        let reg = LanguageRegistry::new();
        let (t, f) = books_fragment(&reg);
        let cl = compute_closure(&t, f.history_en);
        let fr = reg.id_of("French");
        let biographie = t.lookup("Biographie", fr)[0];
        assert!(cl.contains(&biographie));
    }
}
