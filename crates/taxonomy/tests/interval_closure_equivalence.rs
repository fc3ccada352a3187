//! Property test pinning [`IntervalIndex`] to the hash-closure ground
//! truth: over randomly generated graphs interleaved with the full mutation
//! API (`add_hyponym` / `remove_hyponym` / `add_equivalence`), every answer
//! must be `Some` and equal [`compute_closure`] membership, and
//! `closure_size` must be the exact closure size of every root.  The
//! graphs are not only DAGs: hyponym edges may form cycles and self-loops
//! (`Taxonomy::add_hyponym` rejects neither), and equivalence edges link
//! cross-language cliques, the shape inter-lingual ontology matching
//! produces.  This is the contract the Ω operator in `mlql-mural` leans on:
//! the index is its only containment test.

use mlql_taxonomy::closure::compute_closure;
use mlql_taxonomy::{IntervalIndex, SynsetId, Taxonomy};
use mlql_unitext::LanguageRegistry;
use proptest::prelude::*;

/// One step of the mutation workload, indices taken modulo the synset
/// count at application time.
#[derive(Debug, Clone)]
enum Mutation {
    AddHyponym(usize, usize),
    RemoveHyponym(usize, usize),
    AddEquivalence(usize, usize),
}

fn mutation_strategy() -> impl Strategy<Value = Mutation> {
    // Edge additions listed twice to bias the workload toward growth.
    prop_oneof![
        (0usize..64, 0usize..64).prop_map(|(a, b)| Mutation::AddHyponym(a, b)),
        (0usize..64, 0usize..64).prop_map(|(a, b)| Mutation::AddHyponym(a, b)),
        (0usize..64, 0usize..64).prop_map(|(a, b)| Mutation::RemoveHyponym(a, b)),
        (0usize..64, 0usize..64).prop_map(|(a, b)| Mutation::AddEquivalence(a, b)),
    ]
}

/// Exhaustively check the index against the BFS closure for every
/// (root, candidate) pair of a small taxonomy.
fn assert_index_matches_closure(t: &Taxonomy) {
    let idx = IntervalIndex::build(t);
    for root in t.ids() {
        let closure = compute_closure(t, root);
        for cand in t.ids() {
            assert_eq!(
                idx.contains(root, cand),
                Some(closure.contains(&cand)),
                "contains({root:?}, {cand:?}) disagreed with compute_closure"
            );
        }
        assert_eq!(
            idx.closure_size(root),
            closure.len(),
            "closure_size({root:?}) must be the exact closure size"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn interval_containment_equals_compute_closure(
        synsets in 2usize..28,
        // Initial random graph: each entry is a (parent, child) pair mod n;
        // `parent == child` is a self-loop, and pairs in both directions
        // close hyponym cycles.
        edges in proptest::collection::vec((0usize..64, 0usize..64), 0..40),
        equivs in proptest::collection::vec((0usize..64, 0usize..64), 0..6),
        // Cross-language equivalence cliques: every pair of the listed
        // synsets linked, as when one concept is matched across languages.
        cliques in proptest::collection::vec(
            proptest::collection::vec(0usize..64, 2..5), 0..3),
        mutations in proptest::collection::vec(mutation_strategy(), 0..12),
    ) {
        let reg = LanguageRegistry::new();
        let langs = [reg.id_of("English"), reg.id_of("French"), reg.id_of("Tamil")];
        let mut t = Taxonomy::new();
        let ids: Vec<SynsetId> = (0..synsets)
            .map(|i| t.add_synset(langs[i % langs.len()], &[format!("w{i}").as_str()]))
            .collect();
        for (p, c) in edges {
            t.add_hyponym(ids[p % synsets], ids[c % synsets]);
        }
        for (a, b) in equivs {
            let (a, b) = (ids[a % synsets], ids[b % synsets]);
            if a != b {
                t.add_equivalence(a, b);
            }
        }
        for clique in cliques {
            for (i, &a) in clique.iter().enumerate() {
                for &b in &clique[i + 1..] {
                    let (a, b) = (ids[a % synsets], ids[b % synsets]);
                    if a != b {
                        t.add_equivalence(a, b);
                    }
                }
            }
        }
        assert_index_matches_closure(&t);

        // Interleave mutations, rebuilding the index after each — the same
        // protocol SemState follows when it swaps in a new snapshot.
        for m in mutations {
            match m {
                Mutation::AddHyponym(p, c) => {
                    t.add_hyponym(ids[p % synsets], ids[c % synsets]);
                }
                Mutation::RemoveHyponym(p, c) => {
                    t.remove_hyponym(ids[p % synsets], ids[c % synsets]);
                }
                Mutation::AddEquivalence(a, b) => {
                    let (a, b) = (ids[a % synsets], ids[b % synsets]);
                    if a != b {
                        t.add_equivalence(a, b);
                    }
                }
            }
            assert_index_matches_closure(&t);
        }
    }
}
