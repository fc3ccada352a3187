//! Interval-set reachability index — the §4.3.1 connection index.
//!
//! The paper closes its Ω discussion wanting a connection index (it cites
//! HOPI's 2-hop covers) to avoid materializing closures.  This is the
//! interval-*set* labeling of Agrawal, Borgida & Jagadish ("Efficient
//! Management of Transitive Relationships in Large Data and Knowledge
//! Bases", SIGMOD 1989), which decides reachability in any directed graph
//! exactly:
//!
//! 1. **Groups.**  The Ω closure is reachability over `children ∪
//!    equivalents` edges.  Its strongly connected components — each
//!    cross-lingual equivalence clique, and any hyponym cycle — are
//!    condensed into one *group*; reachability between synsets is then
//!    reachability between groups in the condensed DAG.
//! 2. **Numbering.**  A DFS over the group DAG numbers the groups by entry
//!    order.  A group's spanning-tree descendants hold the contiguous
//!    entry range `[entry, exit]`: its own *tree interval*.
//! 3. **Interval sets.**  In reverse topological order each group gets the
//!    merged set of entry intervals it reaches: its tree interval plus its
//!    successors' sets.  Non-tree edges are what make a set hold more than
//!    one interval; on a tree every set is the tree interval alone.
//!
//! `descendant ∈ TC(root)` ⇔ the descendant's entry lies in one of the
//! root's intervals: [`IntervalIndex::contains`] tests the tree interval
//! first, then binary-searches the rest.  A prefix count of synsets by
//! entry makes [`IntervalIndex::closure_size`] a sum over the root's
//! intervals.  Both are exact on every taxonomy; the index never defers.

use crate::hierarchy::{SynsetId, Taxonomy};

/// The reachability index.  Groups are identified by their DFS entry
/// number throughout.
#[derive(Debug, Clone)]
pub struct IntervalIndex {
    /// Synset → its group's entry number.
    entry_of: Vec<u32>,
    /// Per group: the last entry of its spanning-tree subtree.
    exit: Vec<u32>,
    /// Per group: its interval set is `sets[offsets[g]..offsets[g + 1]]`.
    offsets: Vec<u32>,
    /// Every group's merged, sorted, disjoint `[first, last]` entry
    /// intervals, back to back.
    sets: Vec<(u32, u32)>,
    /// `synsets_before[e]`: synsets in the groups entered before `e`.
    synsets_before: Vec<u32>,
}

impl IntervalIndex {
    /// Build the index: O(|synsets| + |edges|) to condense and number, plus
    /// the interval merges, which grow with the non-tree edges.
    pub fn build(taxonomy: &Taxonomy) -> IntervalIndex {
        let (group_of, groups) = condense(taxonomy);
        let g = groups as usize;

        // Group-level successors, deduplicated, as one flat adjacency.
        let mut edges: Vec<(u32, u32)> = Vec::new();
        for id in taxonomy.ids() {
            let src = group_of[id.raw() as usize];
            for next in taxonomy.children(id).iter().chain(taxonomy.equivalents(id)) {
                let dst = group_of[next.raw() as usize];
                if src != dst {
                    edges.push((src, dst));
                }
            }
        }
        edges.sort_unstable();
        edges.dedup();
        let mut first_edge = vec![0u32; g + 1];
        for &(src, _) in &edges {
            first_edge[src as usize + 1] += 1;
        }
        for i in 0..g {
            first_edge[i + 1] += first_edge[i];
        }
        let succ = |gid: u32| {
            edges[first_edge[gid as usize] as usize..first_edge[gid as usize + 1] as usize]
                .iter()
                .map(|&(_, dst)| dst)
        };

        // DFS numbering.  `condense` emits groups in reverse topological
        // order, so walking them from the last emitted starts every DFS at
        // a source and a single pass labels every group.
        const UNSEEN: u32 = u32::MAX;
        let mut entry = vec![UNSEEN; g];
        let mut exit_of = vec![0u32; g];
        let mut clock = 0u32;
        let mut stack: Vec<(u32, u32)> = Vec::new();
        for start in (0..groups).rev() {
            if entry[start as usize] != UNSEEN {
                continue;
            }
            entry[start as usize] = clock;
            clock += 1;
            stack.push((start, first_edge[start as usize]));
            while let Some((gid, next)) = stack.last_mut() {
                if *next == first_edge[*gid as usize + 1] {
                    exit_of[*gid as usize] = clock - 1;
                    stack.pop();
                    continue;
                }
                let child = edges[*next as usize].1;
                *next += 1;
                if entry[child as usize] == UNSEEN {
                    entry[child as usize] = clock;
                    clock += 1;
                    stack.push((child, first_edge[child as usize]));
                }
            }
        }

        // Interval sets, successors first (emission order).  Each set is
        // kept by group id while building, then laid out by entry.
        let mut built: Vec<(u32, u32)> = Vec::new();
        let mut span = vec![(0u32, 0u32); g];
        let mut merge: Vec<(u32, u32)> = Vec::new();
        for gid in 0..groups {
            let own = (entry[gid as usize], exit_of[gid as usize]);
            merge.clear();
            merge.push(own);
            for child in succ(gid) {
                let (from, to) = span[child as usize];
                merge.extend(
                    built[from as usize..to as usize]
                        .iter()
                        .filter(|&&(lo, hi)| lo < own.0 || hi > own.1),
                );
            }
            merge.sort_unstable();
            let at = built.len();
            for &(lo, hi) in &merge {
                match built[at..].last_mut() {
                    Some(last) if lo <= last.1 + 1 => last.1 = last.1.max(hi),
                    _ => built.push((lo, hi)),
                }
            }
            let end = u32::try_from(built.len()).expect("interval count fits u32 offsets");
            span[gid as usize] = (at as u32, end);
        }

        let mut by_entry = vec![0u32; g];
        for gid in 0..g {
            by_entry[entry[gid] as usize] = gid as u32;
        }
        let mut members = vec![0u32; g];
        for &gid in &group_of {
            members[entry[gid as usize] as usize] += 1;
        }
        let mut exit = Vec::with_capacity(g);
        let mut offsets = Vec::with_capacity(g + 1);
        let mut sets = Vec::with_capacity(built.len());
        let mut synsets_before = Vec::with_capacity(g + 1);
        offsets.push(0);
        synsets_before.push(0);
        for (e, &gid) in by_entry.iter().enumerate() {
            let (from, to) = span[gid as usize];
            exit.push(exit_of[gid as usize]);
            sets.extend_from_slice(&built[from as usize..to as usize]);
            offsets.push(sets.len() as u32);
            synsets_before.push(synsets_before[e] + members[e]);
        }
        IntervalIndex {
            entry_of: group_of.iter().map(|&gid| entry[gid as usize]).collect(),
            exit,
            offsets,
            sets,
            synsets_before,
        }
    }

    fn set(&self, e: usize) -> &[(u32, u32)] {
        &self.sets[self.offsets[e] as usize..self.offsets[e + 1] as usize]
    }

    /// Does `candidate` lie in the Ω transitive closure of `root`
    /// (reachability over `children ∪ equivalents` edges, reflexive)?
    ///
    /// Always `Some`: every pair is decided.  The `Option` is kept for the
    /// benchmark crate (`crates/workload`), which compares against
    /// `Some(true)`.
    #[inline]
    pub fn contains(&self, root: SynsetId, candidate: SynsetId) -> Option<bool> {
        let r = self.entry_of[root.raw() as usize];
        let c = self.entry_of[candidate.raw() as usize];
        if c >= r && c <= self.exit[r as usize] {
            return Some(true);
        }
        let set = self.set(r as usize);
        let i = set.partition_point(|&(lo, _)| lo <= c);
        Some(i > 0 && set[i - 1].1 >= c)
    }

    /// Exact closure size (in synsets) of `root`, reflexive.
    pub fn closure_size(&self, root: SynsetId) -> usize {
        self.set(self.entry_of[root.raw() as usize] as usize)
            .iter()
            .map(|&(lo, hi)| {
                (self.synsets_before[hi as usize + 1] - self.synsets_before[lo as usize]) as usize
            })
            .sum()
    }
}

/// The `i`-th Ω edge out of `id`: its hyponyms, then its equivalents.
fn successor(taxonomy: &Taxonomy, id: SynsetId, i: usize) -> Option<SynsetId> {
    let children = taxonomy.children(id);
    match children.get(i) {
        Some(&c) => Some(c),
        None => taxonomy.equivalents(id).get(i - children.len()).copied(),
    }
}

/// Strongly connected components of the `children ∪ equivalents` graph
/// (Tarjan, iterative): synset → group id, and the group count.  Groups
/// are numbered in emission order, which is reverse topological: every
/// group reachable from another has the smaller id.
fn condense(taxonomy: &Taxonomy) -> (Vec<u32>, u32) {
    const UNSEEN: u32 = u32::MAX;
    let n = taxonomy.len();
    let mut index = vec![UNSEEN; n];
    let mut low = vec![0u32; n];
    let mut group_of = vec![UNSEEN; n];
    let mut open: Vec<u32> = Vec::new();
    let mut calls: Vec<(u32, usize)> = Vec::new();
    let (mut clock, mut groups) = (0u32, 0u32);
    for start in 0..n as u32 {
        if index[start as usize] != UNSEEN {
            continue;
        }
        index[start as usize] = clock;
        low[start as usize] = clock;
        clock += 1;
        open.push(start);
        calls.push((start, 0));
        while let Some((v, next)) = calls.last_mut() {
            let v = *v as usize;
            if let Some(w) = successor(taxonomy, SynsetId(v as u32), *next) {
                *next += 1;
                let w = w.raw() as usize;
                if index[w] == UNSEEN {
                    index[w] = clock;
                    low[w] = clock;
                    clock += 1;
                    open.push(w as u32);
                    calls.push((w as u32, 0));
                } else if group_of[w] == UNSEEN {
                    // Still open: on the current path's component stack.
                    low[v] = low[v].min(index[w]);
                }
                continue;
            }
            calls.pop();
            if let Some(&(parent, _)) = calls.last() {
                low[parent as usize] = low[parent as usize].min(low[v]);
            }
            if low[v] == index[v] {
                loop {
                    let w = open.pop().expect("v is open") as usize;
                    group_of[w] = groups;
                    if w == v {
                        break;
                    }
                }
                groups += 1;
            }
        }
    }
    (group_of, groups)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::closure::compute_closure;
    use crate::generator::{generate, GeneratorConfig};
    use crate::hierarchy::Taxonomy;
    use mlql_unitext::LanguageRegistry;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Every `(root, candidate)` answer and the closure size of each root
    /// against `compute_closure`.
    fn assert_exact(t: &Taxonomy, idx: &IntervalIndex, roots: impl IntoIterator<Item = SynsetId>) {
        for root in roots {
            let closure = compute_closure(t, root);
            for cand in t.ids() {
                assert_eq!(
                    idx.contains(root, cand),
                    Some(closure.contains(&cand)),
                    "root {root:?} cand {cand:?}"
                );
            }
            assert_eq!(idx.closure_size(root), closure.len(), "root {root:?}");
        }
    }

    #[test]
    fn interval_matches_hash_closure_on_generated_tree() {
        let lang = LanguageRegistry::new().id_of("English");
        let t = generate(
            lang,
            &GeneratorConfig {
                synsets: 5000,
                ..Default::default()
            },
        );
        let idx = IntervalIndex::build(&t);
        assert_eq!(idx.sets.len(), t.len(), "a tree needs one interval a node");
        assert_exact(&t, &idx, [0u32, 1, 17, 123, 999].map(SynsetId));
    }

    /// The standing benchmark's recipe at 5k synsets: a generated tree,
    /// 1 % random `parent < child` second parents, 64 roots.
    #[test]
    fn grafted_tree_is_decided_exactly() {
        let lang = LanguageRegistry::new().id_of("English");
        let mut t = generate(
            lang,
            &GeneratorConfig {
                synsets: 5000,
                ..Default::default()
            },
        );
        let mut rng = StdRng::seed_from_u64(0x0d1ce);
        let n = t.len();
        for _ in 0..n / 100 {
            let child = rng.gen_range(2..n);
            let parent = rng.gen_range(1..child);
            t.add_hyponym(SynsetId(parent as u32), SynsetId(child as u32));
        }
        let idx = IntervalIndex::build(&t);
        assert!(idx.sets.len() > t.len(), "grafts add intervals");
        let roots: Vec<SynsetId> = (0..64)
            .map(|_| SynsetId(rng.gen_range(0..n as u32)))
            .collect();
        assert_exact(&t, &idx, roots);
    }

    #[test]
    fn diamond_is_decided_on_both_sides() {
        let lang = LanguageRegistry::new().id_of("English");
        let mut t = Taxonomy::new();
        let a = t.add_synset(lang, &["a"]);
        let b = t.add_synset(lang, &["b"]);
        let c = t.add_synset(lang, &["c"]);
        let d = t.add_synset(lang, &["d"]);
        let e = t.add_synset(lang, &["e"]);
        t.add_hyponym(a, b);
        t.add_hyponym(a, c);
        t.add_hyponym(b, d);
        t.add_hyponym(c, d); // diamond: d has two parents
        let idx = IntervalIndex::build(&t);
        // The spanning tree puts d under one of b/c; the other reaches it
        // through its interval set.
        for (root, cand, want) in [
            (a, d, true),
            (b, d, true),
            (c, d, true),
            (b, c, false),
            (c, b, false),
            (d, a, false),
            (a, e, false),
            (e, a, false),
        ] {
            assert_eq!(idx.contains(root, cand), Some(want), "{root:?} → {cand:?}");
        }
        assert_eq!(idx.closure_size(a), 4);
        assert_eq!(idx.closure_size(b), 2);
        assert_eq!(idx.closure_size(c), 2);
        assert_eq!(idx.closure_size(d), 1);
        assert_exact(&t, &idx, t.ids());
    }

    #[test]
    fn equivalence_groups_contract_into_one_group() {
        let reg = LanguageRegistry::new();
        let lang = reg.id_of("English");
        let mut t = Taxonomy::new();
        let a = t.add_synset(lang, &["a"]);
        let b = t.add_synset(reg.id_of("French"), &["a_fr"]);
        let c = t.add_synset(reg.id_of("Tamil"), &["a_ta"]);
        t.add_equivalence(a, b);
        t.add_equivalence(b, c);
        let d = t.add_synset(lang, &["unrelated"]);
        let child = t.add_synset(lang, &["child"]);
        t.add_hyponym(b, child); // child hangs off the French replica
        let idx = IntervalIndex::build(&t);
        assert_eq!(idx.exit.len(), 3, "{{a, b, c}}, d and child");
        assert_eq!(idx.contains(a, c), Some(true));
        assert_eq!(idx.contains(c, a), Some(true));
        assert_eq!(idx.contains(a, d), Some(false));
        // Closure through the equivalence group: a's closure reaches the
        // child attached to its French equivalent.
        assert_eq!(idx.contains(a, child), Some(true));
        assert_eq!(idx.contains(child, a), Some(false));
        // Group members count once each: three replicas plus the child.
        assert_eq!(idx.closure_size(a), 4);
        assert_exact(&t, &idx, t.ids());
    }

    #[test]
    fn hyponym_cycles_and_self_loops_condense() {
        let lang = LanguageRegistry::new().id_of("English");
        let mut t = Taxonomy::new();
        let ids: Vec<SynsetId> = (0..6)
            .map(|i| t.add_synset(lang, &[format!("n{i}").as_str()]))
            .collect();
        // 0 → 1 → 2 → 0 is a cycle below 3; 4 loops on itself under 2.
        t.add_hyponym(ids[3], ids[0]);
        t.add_hyponym(ids[0], ids[1]);
        t.add_hyponym(ids[1], ids[2]);
        t.add_hyponym(ids[2], ids[0]);
        t.add_hyponym(ids[2], ids[4]);
        t.add_hyponym(ids[4], ids[4]);
        let idx = IntervalIndex::build(&t);
        assert_eq!(idx.closure_size(ids[1]), 4, "the cycle and 4");
        assert_eq!(idx.closure_size(ids[3]), 5);
        assert_eq!(idx.contains(ids[2], ids[1]), Some(true));
        assert_exact(&t, &idx, t.ids());
    }

    #[test]
    fn equivalence_plus_multiparent_matches_closure() {
        // The Figure 5 shape: two language trees stitched by equivalence
        // edges, plus one cross-tree hyponym creating a multi-parent node.
        let reg = LanguageRegistry::new();
        let en = reg.id_of("English");
        let fr = reg.id_of("French");
        let mut t = Taxonomy::new();
        let root_en = t.add_synset(en, &["root"]);
        let hist_en = t.add_synset(en, &["history"]);
        let bio_en = t.add_synset(en, &["biography"]);
        let root_fr = t.add_synset(fr, &["racine"]);
        let hist_fr = t.add_synset(fr, &["histoire"]);
        t.add_hyponym(root_en, hist_en);
        t.add_hyponym(hist_en, bio_en);
        t.add_hyponym(root_fr, hist_fr);
        t.add_equivalence(hist_en, hist_fr);
        // Multi-parent: biography also under racine directly.
        t.add_hyponym(root_fr, bio_en);
        let idx = IntervalIndex::build(&t);
        assert_exact(&t, &idx, t.ids());
    }

    #[test]
    fn deep_hierarchy_does_not_overflow_stack() {
        // A 50k-node path would blow a recursive DFS; ours is iterative.
        let lang = LanguageRegistry::new().id_of("English");
        let mut t = Taxonomy::new();
        let mut prev = t.add_synset(lang, &["n0"]);
        for i in 1..50_000 {
            let cur = t.add_synset(lang, &[format!("n{i}").as_str()]);
            t.add_hyponym(prev, cur);
            prev = cur;
        }
        let idx = IntervalIndex::build(&t);
        assert_eq!(idx.contains(SynsetId(0), prev), Some(true));
        assert_eq!(idx.contains(prev, SynsetId(0)), Some(false));
        assert_eq!(idx.closure_size(SynsetId(0)), 50_000);
    }
}
