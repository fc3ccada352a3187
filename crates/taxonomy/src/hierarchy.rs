//! The in-memory taxonomy structure ("pinned WordNet", §4.3).

use mlql_unitext::LangId;
use std::collections::HashMap;

/// Identifier of a synset within one [`Taxonomy`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SynsetId(pub u32);

impl SynsetId {
    /// Raw index (used when storing the taxonomy in engine tables).
    #[inline]
    pub fn raw(self) -> u32 {
        self.0
    }
}

/// One synset: a language, a set of word forms, hypernym/hyponym edges and
/// cross-lingual equivalence edges.
#[derive(Debug, Clone)]
struct Synset {
    lang: LangId,
    words: Vec<String>,
    parents: Vec<SynsetId>,
    children: Vec<SynsetId>,
    equivalents: Vec<SynsetId>,
}

/// Structural statistics — the `f` (average fan-out) and `h` (height)
/// parameters of the paper's cost models (Table 2) are taken from here.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TaxonomyStats {
    /// Number of synsets.
    pub synsets: usize,
    /// Number of word forms.
    pub word_forms: usize,
    /// Number of hypernym (parent) edges.
    pub relationships: usize,
    /// Maximum root-to-leaf depth.
    pub height: usize,
    /// Average children per non-leaf synset.
    pub avg_fanout: f64,
}

/// An interlinked multilingual taxonomic hierarchy, pinned in main memory.
#[derive(Debug, Clone, Default)]
pub struct Taxonomy {
    synsets: Vec<Synset>,
    /// lang → word → synsets containing that word form.  Partitioned by
    /// language so lookups borrow the query string (Ω evaluates one lookup
    /// per tuple pair — no per-probe allocation allowed).
    word_index: HashMap<LangId, HashMap<String, Vec<SynsetId>>>,
}

impl Taxonomy {
    /// An empty taxonomy.
    pub fn new() -> Self {
        Taxonomy::default()
    }

    /// Add a synset with the given word forms; returns its id.
    pub fn add_synset(&mut self, lang: LangId, words: &[&str]) -> SynsetId {
        let id = SynsetId(self.synsets.len() as u32);
        for w in words {
            self.word_index
                .entry(lang)
                .or_default()
                .entry(w.to_string())
                .or_default()
                .push(id);
        }
        self.synsets.push(Synset {
            lang,
            words: words.iter().map(|w| w.to_string()).collect(),
            parents: Vec::new(),
            children: Vec::new(),
            equivalents: Vec::new(),
        });
        id
    }

    /// Add an additional word form to an existing synset.
    pub fn add_word(&mut self, synset: SynsetId, word: &str) {
        let lang = self.synsets[synset.0 as usize].lang;
        self.synsets[synset.0 as usize].words.push(word.to_string());
        self.word_index
            .entry(lang)
            .or_default()
            .entry(word.to_string())
            .or_default()
            .push(synset);
    }

    /// Record `child` as a hyponym (subclass) of `parent`.
    pub fn add_hyponym(&mut self, parent: SynsetId, child: SynsetId) {
        self.synsets[parent.0 as usize].children.push(child);
        self.synsets[child.0 as usize].parents.push(parent);
    }

    /// Remove the hyponym edge `parent → child` if present (the inverse of
    /// [`Taxonomy::add_hyponym`]).  Returns whether an edge was removed.
    /// An [`crate::IntervalIndex`] built before the edit must be rebuilt.
    pub fn remove_hyponym(&mut self, parent: SynsetId, child: SynsetId) -> bool {
        let children = &mut self.synsets[parent.0 as usize].children;
        let before = children.len();
        children.retain(|&c| c != child);
        let removed = children.len() < before;
        if removed {
            self.synsets[child.0 as usize]
                .parents
                .retain(|&p| p != parent);
        }
        removed
    }

    /// Record a cross-lingual equivalence between two synsets (both
    /// directions).
    pub fn add_equivalence(&mut self, a: SynsetId, b: SynsetId) {
        self.synsets[a.0 as usize].equivalents.push(b);
        self.synsets[b.0 as usize].equivalents.push(a);
    }

    /// Number of synsets.
    pub fn len(&self) -> usize {
        self.synsets.len()
    }

    /// True when the taxonomy has no synsets.
    pub fn is_empty(&self) -> bool {
        self.synsets.is_empty()
    }

    /// Language of a synset.
    pub fn lang(&self, id: SynsetId) -> LangId {
        self.synsets[id.0 as usize].lang
    }

    /// Word forms of a synset.
    pub fn words(&self, id: SynsetId) -> &[String] {
        &self.synsets[id.0 as usize].words
    }

    /// Direct hyponyms (children).
    pub fn children(&self, id: SynsetId) -> &[SynsetId] {
        &self.synsets[id.0 as usize].children
    }

    /// Direct hypernyms (parents).
    pub fn parents(&self, id: SynsetId) -> &[SynsetId] {
        &self.synsets[id.0 as usize].parents
    }

    /// Cross-lingual equivalents.
    pub fn equivalents(&self, id: SynsetId) -> &[SynsetId] {
        &self.synsets[id.0 as usize].equivalents
    }

    /// Synsets whose word forms include `word` in language `lang`.
    pub fn lookup(&self, word: &str, lang: LangId) -> &[SynsetId] {
        self.word_index
            .get(&lang)
            .and_then(|m| m.get(word))
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// Synsets matching the word in *any* language (used when the query
    /// does not constrain the concept's language), ascending: one probe
    /// per language partition of the word index.
    pub fn lookup_any_lang(&self, word: &str) -> Vec<SynsetId> {
        let mut ids: Vec<SynsetId> = self
            .word_index
            .values()
            .filter_map(|words| words.get(word))
            .flatten()
            .copied()
            .collect();
        ids.sort_unstable();
        ids.dedup();
        ids
    }

    /// Content fingerprint of the vocabulary: FNV-1a over every
    /// `(synset id, lang, word)` in id order.  Stable across processes
    /// (no `DefaultHasher`) and blind to edges, so two taxonomies that
    /// name the same words with the same synsets share it whatever their
    /// hierarchy.
    pub fn vocabulary_fingerprint(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        for (i, s) in self.synsets.iter().enumerate() {
            for w in &s.words {
                eat(&(i as u32).to_le_bytes());
                eat(&s.lang.raw().to_le_bytes());
                eat(&(w.len() as u32).to_le_bytes());
                eat(w.as_bytes());
            }
        }
        h
    }

    /// Root synsets (no parents) of the given language.
    pub fn roots(&self, lang: LangId) -> Vec<SynsetId> {
        self.synsets
            .iter()
            .enumerate()
            .filter(|(_, s)| s.lang == lang && s.parents.is_empty())
            .map(|(i, _)| SynsetId(i as u32))
            .collect()
    }

    /// Iterate over all synset ids.
    pub fn ids(&self) -> impl Iterator<Item = SynsetId> {
        (0..self.synsets.len() as u32).map(SynsetId)
    }

    /// Structural statistics (see [`TaxonomyStats`]).
    pub fn stats(&self) -> TaxonomyStats {
        let synsets = self.synsets.len();
        let word_forms: usize = self.synsets.iter().map(|s| s.words.len()).sum();
        let relationships: usize = self.synsets.iter().map(|s| s.parents.len()).sum();
        let non_leaf = self
            .synsets
            .iter()
            .filter(|s| !s.children.is_empty())
            .count();
        let child_edges: usize = self.synsets.iter().map(|s| s.children.len()).sum();
        let avg_fanout = if non_leaf > 0 {
            child_edges as f64 / non_leaf as f64
        } else {
            0.0
        };
        // Height via BFS from every root (graph is a DAG by construction;
        // generator and fragment never create parent cycles).
        let mut height = 0usize;
        let mut depth = vec![0usize; synsets];
        let mut queue: std::collections::VecDeque<SynsetId> = self
            .synsets
            .iter()
            .enumerate()
            .filter(|(_, s)| s.parents.is_empty())
            .map(|(i, _)| SynsetId(i as u32))
            .collect();
        while let Some(id) = queue.pop_front() {
            let d = depth[id.0 as usize];
            height = height.max(d);
            for &c in &self.synsets[id.0 as usize].children {
                if depth[c.0 as usize] < d + 1 {
                    depth[c.0 as usize] = d + 1;
                    queue.push_back(c);
                }
            }
        }
        TaxonomyStats {
            synsets,
            word_forms,
            relationships,
            height: height + 1,
            avg_fanout,
        }
    }

    /// Replicate this (single-language) taxonomy into `langs`, linking each
    /// synset to its copies with equivalence edges — the paper's §5.1
    /// methodology for simulating linked WordNets.  Word forms of a copy
    /// are produced by `rename(word, lang)` (e.g. a transliterator).
    pub fn replicate_linked(
        &mut self,
        langs: &[LangId],
        mut rename: impl FnMut(&str, LangId) -> String,
    ) {
        let base_len = self.synsets.len();
        for &lang in langs {
            let offset = self.synsets.len() as u32;
            // Copy synsets.
            for i in 0..base_len {
                let words: Vec<String> = self.synsets[i]
                    .words
                    .iter()
                    .map(|w| rename(w, lang))
                    .collect();
                let word_refs: Vec<&str> = words.iter().map(String::as_str).collect();
                let new_id = self.add_synset(lang, &word_refs);
                debug_assert_eq!(new_id.0, offset + i as u32);
            }
            // Copy hyponym edges and add equivalences.
            for i in 0..base_len {
                let children: Vec<SynsetId> = self.synsets[i].children.clone();
                for c in children {
                    if (c.0 as usize) < base_len {
                        self.add_hyponym(SynsetId(offset + i as u32), SynsetId(offset + c.0));
                    }
                }
                self.add_equivalence(SynsetId(i as u32), SynsetId(offset + i as u32));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlql_unitext::LanguageRegistry;

    fn en() -> LangId {
        LanguageRegistry::new().id_of("English")
    }

    #[test]
    fn add_and_lookup() {
        let mut t = Taxonomy::new();
        let s = t.add_synset(en(), &["history", "account"]);
        assert_eq!(t.lookup("history", en()), &[s]);
        assert_eq!(t.lookup("account", en()), &[s]);
        assert!(t.lookup("history", LangId(99)).is_empty());
        assert_eq!(t.words(s), &["history".to_string(), "account".to_string()]);
    }

    #[test]
    fn hyponym_edges_are_bidirectional() {
        let mut t = Taxonomy::new();
        let a = t.add_synset(en(), &["a"]);
        let b = t.add_synset(en(), &["b"]);
        t.add_hyponym(a, b);
        assert_eq!(t.children(a), &[b]);
        assert_eq!(t.parents(b), &[a]);
        assert_eq!(t.roots(en()), vec![a]);
    }

    #[test]
    fn remove_hyponym_unlinks_both_directions() {
        let mut t = Taxonomy::new();
        let a = t.add_synset(en(), &["a"]);
        let b = t.add_synset(en(), &["b"]);
        t.add_hyponym(a, b);
        assert!(t.remove_hyponym(a, b));
        assert!(t.children(a).is_empty());
        assert!(t.parents(b).is_empty());
        assert!(!t.remove_hyponym(a, b), "already gone");
    }

    #[test]
    fn stats_on_small_tree() {
        let mut t = Taxonomy::new();
        let r = t.add_synset(en(), &["root"]);
        let c1 = t.add_synset(en(), &["c1"]);
        let c2 = t.add_synset(en(), &["c2"]);
        let g = t.add_synset(en(), &["g"]);
        t.add_hyponym(r, c1);
        t.add_hyponym(r, c2);
        t.add_hyponym(c1, g);
        let st = t.stats();
        assert_eq!(st.synsets, 4);
        assert_eq!(st.word_forms, 4);
        assert_eq!(st.relationships, 3);
        assert_eq!(st.height, 3);
        assert!((st.avg_fanout - 1.5).abs() < 1e-9); // root has 2, c1 has 1
    }

    #[test]
    fn replicate_links_each_copy() {
        let reg = LanguageRegistry::new();
        let mut t = Taxonomy::new();
        let r = t.add_synset(reg.id_of("English"), &["root"]);
        let c = t.add_synset(reg.id_of("English"), &["child"]);
        t.add_hyponym(r, c);
        t.replicate_linked(&[reg.id_of("French"), reg.id_of("Tamil")], |w, l| {
            format!("{w}_{}", l.raw())
        });
        assert_eq!(t.len(), 6);
        // Equivalence edges from the base copies.
        assert_eq!(t.equivalents(r).len(), 2);
        // Structure replicated.
        let fr_root = t.equivalents(r)[0];
        assert_eq!(t.children(fr_root).len(), 1);
        // Renamed word forms indexed under the copy language.
        let fr = reg.id_of("French");
        assert_eq!(t.lookup(&format!("root_{}", fr.raw()), fr).len(), 1);
    }

    /// The linear scan `lookup_any_lang` used to be: every synset whose
    /// word forms include `word`, ascending.
    fn scan_any_lang(t: &Taxonomy, word: &str) -> Vec<SynsetId> {
        t.ids()
            .filter(|&s| t.words(s).iter().any(|w| w == word))
            .collect()
    }

    #[test]
    fn lookup_any_lang_equals_the_synset_scan() {
        let reg = LanguageRegistry::new();
        let (books, _) = crate::books_fragment(&reg);
        let mut generated = crate::generate(
            reg.id_of("English"),
            &crate::GeneratorConfig {
                synsets: 5000,
                ..crate::GeneratorConfig::default()
            },
        );
        // A word shared across languages and repeated within one synset.
        let fr = generated.add_synset(reg.id_of("French"), &["entity0", "x", "x"]);
        generated.add_word(fr, "entity0");
        for t in [&books, &generated] {
            let mut words: Vec<&str> = t
                .ids()
                .flat_map(|s| t.words(s).iter().map(String::as_str))
                .collect();
            words.extend(["", "absent", "Entity0"]);
            for w in words {
                assert_eq!(t.lookup_any_lang(w), scan_any_lang(t, w), "word {w:?}");
            }
        }
        assert_eq!(generated.lookup_any_lang("entity0").len(), 2);
    }

    #[test]
    fn vocabulary_fingerprint_sees_words_not_edges() {
        let build = |extra: Option<&str>| {
            let mut t = Taxonomy::new();
            let a = t.add_synset(en(), &["a"]);
            let b = t.add_synset(en(), &["b"]);
            if let Some(w) = extra {
                t.add_word(b, w);
            }
            (t, a, b)
        };
        let (mut t, a, b) = build(None);
        let before = t.vocabulary_fingerprint();
        t.add_hyponym(a, b);
        t.add_equivalence(a, b);
        assert_eq!(t.vocabulary_fingerprint(), before, "edges keep it");
        assert_eq!(build(None).0.vocabulary_fingerprint(), before, "stable");
        assert_ne!(build(Some("c")).0.vocabulary_fingerprint(), before);
        // Moving a word to another synset changes it too.
        let mut moved = Taxonomy::new();
        moved.add_synset(en(), &["b"]);
        moved.add_synset(en(), &["a"]);
        assert_ne!(moved.vocabulary_fingerprint(), before);
    }
}
