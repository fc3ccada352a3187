//! Transitive-closure computation by graph walk (§4.3).
//!
//! The paper's core Ω implementation pins the hierarchy in main memory and
//! materializes each RHS closure as a hash table:
//!
//! > "Every time a closure for a RHS attribute value is computed, it is
//! > materialized as a hash table in the main memory ... the hash table is
//! > checked for possible reuse for several RHS values."
//!
//! The closure of a synset is the synset itself, all its hyponym
//! descendants, their cross-lingual equivalents, and the descendants of
//! those equivalents — reachability over `children ∪ equivalents` edges.
//! [`compute_closure`] is that walk.  It is no longer on Ω's query path,
//! which reads [`crate::IntervalIndex`] labels instead: it is the oracle the
//! index is tested against, and Figure 8's pinned-memory curve.

use crate::hierarchy::{SynsetId, Taxonomy};
use std::collections::HashSet;

/// The closure of `root`: DFS over `children ∪ equivalents`.
pub fn compute_closure(taxonomy: &Taxonomy, root: SynsetId) -> HashSet<SynsetId> {
    let mut seen: HashSet<SynsetId> = HashSet::new();
    let mut stack = vec![root];
    seen.insert(root);
    while let Some(id) = stack.pop() {
        for &next in taxonomy.children(id).iter().chain(taxonomy.equivalents(id)) {
            if seen.insert(next) {
                stack.push(next);
            }
        }
    }
    seen
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlql_unitext::{LangId, LanguageRegistry};

    fn en() -> LangId {
        LanguageRegistry::new().id_of("English")
    }

    /// root -> {a, b}, a -> {c}
    fn small() -> (Taxonomy, [SynsetId; 4]) {
        let mut t = Taxonomy::new();
        let r = t.add_synset(en(), &["root"]);
        let a = t.add_synset(en(), &["a"]);
        let b = t.add_synset(en(), &["b"]);
        let c = t.add_synset(en(), &["c"]);
        t.add_hyponym(r, a);
        t.add_hyponym(r, b);
        t.add_hyponym(a, c);
        (t, [r, a, b, c])
    }

    #[test]
    fn closure_includes_self_and_descendants() {
        let (t, [r, a, b, c]) = small();
        let cl = compute_closure(&t, r);
        assert_eq!(cl.len(), 4);
        for id in [r, a, b, c] {
            assert!(cl.contains(&id));
        }
        let cl_a = compute_closure(&t, a);
        assert_eq!(cl_a.len(), 2);
        assert!(cl_a.contains(&c) && cl_a.contains(&a));
        assert!(!cl_a.contains(&b));
        assert!(!compute_closure(&t, b).contains(&c));
        assert!(compute_closure(&t, c).contains(&c), "closure is reflexive");
    }

    #[test]
    fn equivalence_edges_extend_closures() {
        let reg = LanguageRegistry::new();
        let (mut t, [r, a, _b, _c]) = small();
        t.replicate_linked(&[reg.id_of("French")], |w, _| format!("{w}_fr"));
        // Closure of the English root now spans both language copies.
        assert_eq!(compute_closure(&t, r).len(), 8);
        // Closure of a mid-level synset spans its subtree in both languages.
        assert_eq!(compute_closure(&t, a).len(), 4);
    }

    #[test]
    fn closure_handles_dags_without_double_count() {
        let mut t = Taxonomy::new();
        let a = t.add_synset(en(), &["a"]);
        let b = t.add_synset(en(), &["b"]);
        let c = t.add_synset(en(), &["c"]);
        let d = t.add_synset(en(), &["d"]);
        t.add_hyponym(a, b);
        t.add_hyponym(a, c);
        t.add_hyponym(b, d);
        t.add_hyponym(c, d); // diamond
        assert_eq!(compute_closure(&t, a).len(), 4);
    }
}
