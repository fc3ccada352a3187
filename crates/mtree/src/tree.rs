//! The M-Tree proper.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A distance function making the key type a metric space.
///
/// Implementations must satisfy the metric axioms (identity, symmetry,
/// triangle inequality); range-search correctness depends on them.  The
/// crate's property tests verify pruning never drops results for
/// Levenshtein-style metrics.
pub trait Metric<K> {
    /// Distance between two keys.
    fn distance(&self, a: &K, b: &K) -> f64;
}

impl<K, F: Fn(&K, &K) -> f64> Metric<K> for F {
    fn distance(&self, a: &K, b: &K) -> f64 {
        self(a, b)
    }
}

/// Statistics gathered during one query or accumulated across queries.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueryStats {
    /// Number of metric distance evaluations.
    pub dist_computations: u64,
    /// Number of tree nodes visited (≈ page reads in the engine adapter).
    pub nodes_visited: u64,
    /// Number of subtrees pruned by the triangle inequality.
    pub subtrees_pruned: u64,
}

/// Entry in a leaf node: a key plus its distance to the parent routing key.
#[derive(Debug, Clone)]
struct LeafEntry<K, V> {
    key: K,
    value: V,
    dist_to_parent: f64,
}

/// Entry in an internal node: a routing key, its covering radius, distance
/// to its own parent, and the child node.
#[derive(Debug)]
struct RoutingEntry<K, V> {
    key: K,
    radius: f64,
    dist_to_parent: f64,
    child: Box<Node<K, V>>,
}

#[derive(Debug)]
enum Node<K, V> {
    Leaf(Vec<LeafEntry<K, V>>),
    Internal(Vec<RoutingEntry<K, V>>),
}

/// The M-Tree.  `K` is the key type, `V` an opaque payload (the engine
/// stores heap tuple ids).
pub struct MTree<K, V, M: Metric<K>> {
    metric: M,
    root: Box<Node<K, V>>,
    node_capacity: usize,
    len: usize,
    /// Nodes in the tree, kept current by the split paths so the
    /// optimizer can ask for the index size without walking it.
    nodes: usize,
    /// Draws the two entries a split promotes.
    rng: StdRng,
}

impl<K: Clone, V: Clone, M: Metric<K>> MTree<K, V, M> {
    /// Create an empty tree with the default capacity and random split.
    pub fn new(metric: M) -> Self {
        Self::with_options(metric, crate::DEFAULT_NODE_CAPACITY, 0x5eed)
    }

    /// Create an empty tree with explicit node capacity and split RNG seed
    /// (seeded so index builds are reproducible).
    pub fn with_options(metric: M, node_capacity: usize, seed: u64) -> Self {
        assert!(node_capacity >= 4, "node capacity must be at least 4");
        MTree {
            metric,
            root: Box::new(Node::Leaf(Vec::new())),
            node_capacity,
            len: 0,
            nodes: 1,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Number of stored keys.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the tree holds no keys.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Height of the tree (leaf = 1).
    pub fn height(&self) -> usize {
        let mut h = 1;
        let mut node: &Node<K, V> = &self.root;
        while let Node::Internal(entries) = node {
            h += 1;
            node = &entries[0].child;
        }
        h
    }

    /// Number of nodes (≈ pages) in the tree.
    pub fn node_count(&self) -> usize {
        self.nodes
    }

    #[inline]
    fn dist(&self, a: &K, b: &K) -> f64 {
        self.metric.distance(a, b)
    }

    /// Insert a key/value pair.
    pub fn insert(&mut self, key: K, value: V) {
        // `dist_to_parent` of entries in the root is meaningless; use NAN-free 0.
        if let Some((k1, k2)) = self.insert_into(key, value, None) {
            // Root split: grow the tree by one level.
            let old_root = std::mem::replace(&mut self.root, Box::new(Node::Leaf(Vec::new())));
            let (left, right) = match *old_root {
                Node::Leaf(entries) => self.split_leaf(entries, &k1, &k2),
                Node::Internal(entries) => self.split_internal(entries, &k1, &k2),
            };
            *self.root = Node::Internal(vec![left, right]);
            self.nodes += 1;
        }
        self.len += 1;
    }

    /// Recursive insert helper.  Returns `Some((k1, k2))` when the *current
    /// root* must be split with promoted keys `k1`, `k2` — splits below the
    /// root are handled inline.  (The actual split of the root happens in
    /// `insert`, because it needs to own the node.)
    fn insert_into(&mut self, key: K, value: V, _parent: Option<&K>) -> Option<(K, K)> {
        // Iterative descent, collecting the path, then split upward.
        // For simplicity and safety (no aliasing games), we implement the
        // descent recursively over raw subtree pointers via a helper.
        let capacity = self.node_capacity;
        let mut promoted = descend(self, &mut RootRef, key, value);
        if let Some(p) = promoted.take() {
            return Some(p);
        }
        let _ = capacity;
        None
    }

    fn split_leaf(
        &mut self,
        entries: Vec<LeafEntry<K, V>>,
        k1: &K,
        k2: &K,
    ) -> (RoutingEntry<K, V>, RoutingEntry<K, V>) {
        self.nodes += 1; // one node becomes two
        let mut left: Vec<LeafEntry<K, V>> = Vec::new();
        let mut right: Vec<LeafEntry<K, V>> = Vec::new();
        // Ties alternate sides so duplicate-heavy data (or equal promoted
        // keys) still yields two non-empty partitions.
        let mut tie_left = true;
        for e in entries {
            let d1 = self.dist(&e.key, k1);
            let d2 = self.dist(&e.key, k2);
            let go_left = if d1 == d2 {
                tie_left = !tie_left;
                !tie_left
            } else {
                d1 < d2
            };
            if go_left {
                left.push(LeafEntry {
                    dist_to_parent: d1,
                    ..e
                });
            } else {
                right.push(LeafEntry {
                    dist_to_parent: d2,
                    ..e
                });
            }
        }
        // Never produce an empty node: a node with zero entries breaks the
        // insertion descent invariant (internal nodes choose among entries).
        if left.is_empty() {
            let mut e = right.pop().expect("split of >=2 entries");
            e.dist_to_parent = self.dist(&e.key, k1);
            left.push(e);
        } else if right.is_empty() {
            let mut e = left.pop().expect("split of >=2 entries");
            e.dist_to_parent = self.dist(&e.key, k2);
            right.push(e);
        }
        let r1 = left.iter().map(|e| e.dist_to_parent).fold(0.0f64, f64::max);
        let r2 = right
            .iter()
            .map(|e| e.dist_to_parent)
            .fold(0.0f64, f64::max);
        (
            RoutingEntry {
                key: k1.clone(),
                radius: r1,
                dist_to_parent: 0.0,
                child: Box::new(Node::Leaf(left)),
            },
            RoutingEntry {
                key: k2.clone(),
                radius: r2,
                dist_to_parent: 0.0,
                child: Box::new(Node::Leaf(right)),
            },
        )
    }

    fn split_internal(
        &mut self,
        entries: Vec<RoutingEntry<K, V>>,
        k1: &K,
        k2: &K,
    ) -> (RoutingEntry<K, V>, RoutingEntry<K, V>) {
        self.nodes += 1; // one node becomes two
        let mut left: Vec<RoutingEntry<K, V>> = Vec::new();
        let mut right: Vec<RoutingEntry<K, V>> = Vec::new();
        let mut tie_left = true;
        for e in entries {
            let d1 = self.dist(&e.key, k1);
            let d2 = self.dist(&e.key, k2);
            let go_left = if d1 == d2 {
                tie_left = !tie_left;
                !tie_left
            } else {
                d1 < d2
            };
            if go_left {
                left.push(RoutingEntry {
                    dist_to_parent: d1,
                    ..e
                });
            } else {
                right.push(RoutingEntry {
                    dist_to_parent: d2,
                    ..e
                });
            }
        }
        if left.is_empty() {
            let mut e = right.pop().expect("split of >=2 entries");
            e.dist_to_parent = self.dist(&e.key, k1);
            left.push(e);
        } else if right.is_empty() {
            let mut e = left.pop().expect("split of >=2 entries");
            e.dist_to_parent = self.dist(&e.key, k2);
            right.push(e);
        }
        let r1 = left
            .iter()
            .map(|e| e.dist_to_parent + e.radius)
            .fold(0.0f64, f64::max);
        let r2 = right
            .iter()
            .map(|e| e.dist_to_parent + e.radius)
            .fold(0.0f64, f64::max);
        (
            RoutingEntry {
                key: k1.clone(),
                radius: r1,
                dist_to_parent: 0.0,
                child: Box::new(Node::Internal(left)),
            },
            RoutingEntry {
                key: k2.clone(),
                radius: r2,
                dist_to_parent: 0.0,
                child: Box::new(Node::Internal(right)),
            },
        )
    }

    /// Range query: every (key, value) within `radius` of `query`.
    /// Returns matches with their exact distances, plus the query stats.
    pub fn range(&self, query: &K, radius: f64) -> (Vec<(K, V, f64)>, QueryStats) {
        self.range_with(|key, cap| self.capped(query, key, cap), radius)
    }

    /// [`Self::range`] with the query side supplied as `dq(key, cap)`: the
    /// exact distance from the query to `key` when it is at most `cap`,
    /// `None` otherwise.  The caps are the bounds the pruning tests use —
    /// `radius` at leaf entries, `radius` plus the covering radius at
    /// routing entries — so a caller that compiles its query once (a
    /// bit-parallel matcher, say) visits, computes and prunes exactly what
    /// the generic-metric search does.
    pub fn range_with(
        &self,
        mut dq: impl FnMut(&K, f64) -> Option<f64>,
        radius: f64,
    ) -> (Vec<(K, V, f64)>, QueryStats) {
        let mut stats = QueryStats::default();
        let mut out = Vec::new();
        self.range_node(&self.root, &mut dq, radius, None, &mut out, &mut stats);
        (out, stats)
    }

    /// The generic metric as a capped query-side distance.
    fn capped(&self, query: &K, key: &K, cap: f64) -> Option<f64> {
        let d = self.metric.distance(query, key);
        (d <= cap).then_some(d)
    }

    fn range_node<F: FnMut(&K, f64) -> Option<f64>>(
        &self,
        node: &Node<K, V>,
        dq: &mut F,
        radius: f64,
        dist_query_parent: Option<f64>,
        out: &mut Vec<(K, V, f64)>,
        stats: &mut QueryStats,
    ) {
        stats.nodes_visited += 1;
        match node {
            Node::Leaf(entries) => {
                for e in entries {
                    // Pre-filter: |d(q,parent) - d(key,parent)| > r ⇒ skip
                    // without computing d(q,key).
                    if let Some(dqp) = dist_query_parent {
                        if (dqp - e.dist_to_parent).abs() > radius {
                            stats.subtrees_pruned += 1;
                            continue;
                        }
                    }
                    stats.dist_computations += 1;
                    if let Some(d) = dq(&e.key, radius) {
                        out.push((e.key.clone(), e.value.clone(), d));
                    }
                }
            }
            Node::Internal(entries) => {
                for e in entries {
                    if let Some(dqp) = dist_query_parent {
                        if (dqp - e.dist_to_parent).abs() > radius + e.radius {
                            stats.subtrees_pruned += 1;
                            continue;
                        }
                    }
                    stats.dist_computations += 1;
                    let Some(d) = dq(&e.key, radius + e.radius) else {
                        stats.subtrees_pruned += 1;
                        continue;
                    };
                    self.range_node(&e.child, dq, radius, Some(d), out, stats);
                }
            }
        }
    }

    /// k-nearest-neighbour search (best-first branch and bound).
    ///
    /// Returns up to `k` entries ordered by ascending distance, with query
    /// statistics.  Ties at the cut-off distance are broken arbitrarily.
    /// This is the classic M-Tree kNN of Ciaccia et al. — a min-heap over
    /// subtrees ordered by `d_min = max(0, d(q, routing) − radius)`, pruned
    /// against the current k-th best distance.
    pub fn nearest(&self, query: &K, k: usize) -> (Vec<(K, V, f64)>, QueryStats) {
        self.nearest_with(|key, cap| self.capped(query, key, cap), k)
    }

    /// [`Self::nearest`] with the query side supplied as `dq(key, cap)`, as
    /// in [`Self::range_with`].  The caps are the current k-th best
    /// distance at leaf entries (infinite until k candidates are held) and
    /// that distance plus the covering radius at routing entries.
    pub fn nearest_with(
        &self,
        mut dq: impl FnMut(&K, f64) -> Option<f64>,
        k: usize,
    ) -> (Vec<(K, V, f64)>, QueryStats) {
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;

        let mut stats = QueryStats::default();
        if k == 0 || self.len == 0 {
            stats.nodes_visited = 0;
            return (Vec::new(), stats);
        }

        /// f64 ordered wrapper (distances are finite by metric contract).
        #[derive(PartialEq)]
        struct Ord64(f64);
        impl Eq for Ord64 {}
        impl PartialOrd for Ord64 {
            fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
                Some(self.cmp(other))
            }
        }
        impl Ord for Ord64 {
            fn cmp(&self, other: &Self) -> std::cmp::Ordering {
                self.0
                    .partial_cmp(&other.0)
                    .unwrap_or(std::cmp::Ordering::Equal)
            }
        }

        // Candidate subtrees: min-heap by d_min.
        let mut pending: BinaryHeap<(Reverse<Ord64>, usize)> = BinaryHeap::new();
        let mut nodes: Vec<&Node<K, V>> = vec![&self.root];
        pending.push((Reverse(Ord64(0.0)), 0));
        // Results: max-heap by distance so the worst of the best k pops.
        let mut best: BinaryHeap<(Ord64, usize)> = BinaryHeap::new();
        let mut found: Vec<(K, V, f64)> = Vec::new();

        let kth = |best: &BinaryHeap<(Ord64, usize)>| -> f64 {
            if best.len() < k {
                f64::INFINITY
            } else {
                best.peek().map(|(d, _)| d.0).unwrap_or(f64::INFINITY)
            }
        };

        while let Some((Reverse(Ord64(d_min)), ni)) = pending.pop() {
            if d_min > kth(&best) {
                break; // every remaining subtree is farther than the k-th best
            }
            stats.nodes_visited += 1;
            match nodes[ni] {
                Node::Leaf(entries) => {
                    for e in entries {
                        stats.dist_computations += 1;
                        let Some(d) = dq(&e.key, kth(&best)) else {
                            continue;
                        };
                        if d < kth(&best) || best.len() < k {
                            found.push((e.key.clone(), e.value.clone(), d));
                            best.push((Ord64(d), found.len() - 1));
                            if best.len() > k {
                                best.pop();
                            }
                        }
                    }
                }
                Node::Internal(entries) => {
                    for e in entries {
                        stats.dist_computations += 1;
                        // `max(0, d - radius) <= kth` ⇔ `d <= kth + radius`.
                        match dq(&e.key, kth(&best) + e.radius) {
                            Some(d) => {
                                let child_min = (d - e.radius).max(0.0);
                                nodes.push(&e.child);
                                pending.push((Reverse(Ord64(child_min)), nodes.len() - 1));
                            }
                            None => stats.subtrees_pruned += 1,
                        }
                    }
                }
            }
        }

        // Materialize the best k in ascending order.
        let mut picked: Vec<usize> = best.into_sorted_vec().into_iter().map(|(_, i)| i).collect();
        picked.dedup();
        let mut out: Vec<(K, V, f64)> = picked.into_iter().map(|i| found[i].clone()).collect();
        out.sort_by(|a, b| a.2.partial_cmp(&b.2).unwrap_or(std::cmp::Ordering::Equal));
        out.truncate(k);
        (out, stats)
    }

    /// Exhaustively iterate all keys (test / verification helper).
    pub fn iter_all(&self) -> Vec<(K, V)> {
        fn walk<K: Clone, V: Clone>(n: &Node<K, V>, out: &mut Vec<(K, V)>) {
            match n {
                Node::Leaf(es) => out.extend(es.iter().map(|e| (e.key.clone(), e.value.clone()))),
                Node::Internal(es) => {
                    for e in es {
                        walk(&e.child, out);
                    }
                }
            }
        }
        let mut out = Vec::with_capacity(self.len);
        walk(&self.root, &mut out);
        out
    }
}

/// Marker for the root reference in `descend` (placeholder — see below).
struct RootRef;

/// Recursive insertion.  Returns promoted keys when the **root** overflows.
///
/// Implemented as a free function to keep borrow scopes simple: we take the
/// tree (for metric/rng access) and walk `tree.root` by raw recursion
/// on owned boxes via `take`/`replace`.
fn descend<K: Clone, V: Clone, M: Metric<K>>(
    tree: &mut MTree<K, V, M>,
    _root: &mut RootRef,
    key: K,
    value: V,
) -> Option<(K, K)> {
    // Detach the root so we can walk it mutably alongside &tree.metric.
    let mut root = std::mem::replace(&mut tree.root, Box::new(Node::Leaf(Vec::new())));
    let overflow = insert_rec(tree, &mut root, key, value, None);
    tree.root = root;
    match overflow {
        Overflow::None => None,
        Overflow::SplitRoot(k1, k2) => Some((k1, k2)),
    }
}

enum Overflow<K> {
    None,
    /// The node passed in has overflowed; the caller must split it using the
    /// two promoted keys.
    SplitRoot(K, K),
}

fn insert_rec<K: Clone, V: Clone, M: Metric<K>>(
    tree: &mut MTree<K, V, M>,
    node: &mut Node<K, V>,
    key: K,
    value: V,
    _parent: Option<&K>,
) -> Overflow<K> {
    match node {
        Node::Leaf(entries) => {
            // dist_to_parent enables the search-time pre-filter; for root
            // leaves there is no parent and the value is never read.
            let dtp = _parent.map(|p| tree.dist(&key, p)).unwrap_or(0.0);
            entries.push(LeafEntry {
                key,
                value,
                dist_to_parent: dtp,
            });
            if entries.len() > tree.node_capacity {
                let (k1, k2) = promote(tree, entries.iter().map(|e| &e.key));
                Overflow::SplitRoot(k1, k2)
            } else {
                Overflow::None
            }
        }
        Node::Internal(entries) => {
            // Choose the subtree: minimal radius enlargement, ties broken by
            // closest routing key (the classic M-Tree heuristic).
            let mut best = 0usize;
            let mut best_enlarge = f64::INFINITY;
            let mut best_dist = f64::INFINITY;
            let mut dists = Vec::with_capacity(entries.len());
            for (i, e) in entries.iter().enumerate() {
                let d = tree.dist(&key, &e.key);
                dists.push(d);
                let enlarge = (d - e.radius).max(0.0);
                if enlarge < best_enlarge || (enlarge == best_enlarge && d < best_dist) {
                    best = i;
                    best_enlarge = enlarge;
                    best_dist = d;
                }
            }
            // Update the covering radius and descend.
            let e = &mut entries[best];
            e.radius = e.radius.max(dists[best]);
            let parent_key = e.key.clone();
            match insert_rec(tree, &mut e.child, key, value, Some(&parent_key)) {
                Overflow::None => Overflow::None,
                Overflow::SplitRoot(k1, k2) => {
                    // Split the overflowed child in place.
                    let child = std::mem::replace(&mut *e.child, Node::Leaf(Vec::new()));
                    let (mut left, mut right) = match child {
                        Node::Leaf(es) => tree.split_leaf(es, &k1, &k2),
                        Node::Internal(es) => tree.split_internal(es, &k1, &k2),
                    };
                    // The two new entries live in THIS node, so their
                    // dist_to_parent must be the distance to this node's own
                    // routing key (held by our parent).  A wrong value here
                    // would make the search-time pre-filter prune real
                    // matches, so compute it exactly; for the root (no
                    // parent) the value is never read.
                    left.dist_to_parent = _parent.map(|p| tree.dist(&left.key, p)).unwrap_or(0.0);
                    right.dist_to_parent = _parent.map(|p| tree.dist(&right.key, p)).unwrap_or(0.0);
                    entries.remove(best);
                    entries.push(left);
                    entries.push(right);
                    if entries.len() > tree.node_capacity {
                        let (k1, k2) = promote(tree, entries.iter().map(|e| &e.key));
                        Overflow::SplitRoot(k1, k2)
                    } else {
                        Overflow::None
                    }
                }
            }
        }
    }
}

/// Choose two distinct promotion keys uniformly at random: the paper's
/// split, "since it offers the best index modification time" (§4.2.1).
fn promote<'a, K: Clone + 'a, V, M: Metric<K>>(
    tree: &mut MTree<K, V, M>,
    keys: impl Iterator<Item = &'a K>,
) -> (K, K) {
    let keys: Vec<&K> = keys.collect();
    debug_assert!(keys.len() >= 2);
    let i = tree.rng.gen_range(0..keys.len());
    let mut j = tree.rng.gen_range(0..keys.len() - 1);
    if j >= i {
        j += 1;
    }
    (keys[i].clone(), keys[j].clone())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn abs_metric(a: &i64, b: &i64) -> f64 {
        (a - b).abs() as f64
    }

    fn build(values: &[i64]) -> MTree<i64, usize, fn(&i64, &i64) -> f64> {
        let mut t: MTree<i64, usize, fn(&i64, &i64) -> f64> =
            MTree::with_options(abs_metric, 8, 42);
        for (i, &v) in values.iter().enumerate() {
            t.insert(v, i);
        }
        t
    }

    #[test]
    fn empty_tree() {
        let t: MTree<i64, usize, fn(&i64, &i64) -> f64> = MTree::new(abs_metric);
        assert!(t.is_empty());
        let (hits, stats) = t.range(&5, 100.0);
        assert!(hits.is_empty());
        assert_eq!(stats.nodes_visited, 1);
    }

    #[test]
    fn range_matches_linear_scan() {
        let values: Vec<i64> = (0..500).map(|i| (i * 37) % 1000).collect();
        let t = build(&values);
        assert_eq!(t.len(), 500);
        for q in [0i64, 123, 999, 500] {
            for r in [0.0, 3.0, 10.0, 50.0] {
                let (mut hits, _) = t.range(&q, r);
                hits.sort_by_key(|&(k, v, _)| (k, v));
                let mut expect: Vec<(i64, usize)> = values
                    .iter()
                    .enumerate()
                    .filter(|&(_, &v)| abs_metric(&v, &q) <= r)
                    .map(|(i, &v)| (v, i))
                    .collect();
                expect.sort();
                let got: Vec<(i64, usize)> = hits.iter().map(|&(k, v, _)| (k, v)).collect();
                assert_eq!(got, expect, "q={q} r={r}");
            }
        }
    }

    #[test]
    fn distances_reported_are_exact() {
        let t = build(&[1, 5, 9, 13, 2, 8]);
        let (hits, _) = t.range(&5, 4.0);
        for (k, _, d) in hits {
            assert_eq!(d, abs_metric(&k, &5));
        }
    }

    #[test]
    fn tree_grows_in_height_and_stays_balanced() {
        let values: Vec<i64> = (0..2000).collect();
        let t = build(&values);
        assert!(t.height() >= 2, "2000 values with capacity 8 must split");
        // All leaves at the same depth (height-balance).
        fn depths<K, V>(n: &Node<K, V>, d: usize, out: &mut Vec<usize>) {
            match n {
                Node::Leaf(_) => out.push(d),
                Node::Internal(es) => {
                    for e in es {
                        depths(&e.child, d + 1, out);
                    }
                }
            }
        }
        let mut ds = Vec::new();
        depths(&t.root, 1, &mut ds);
        let first = ds[0];
        assert!(ds.iter().all(|&d| d == first), "leaf depths differ: {ds:?}");
    }

    /// `node_count` is a counter kept by the split paths; it must equal
    /// what a walk of the tree finds, at every capacity.
    #[test]
    fn node_counter_equals_recursive_count() {
        fn walk<K, V>(n: &Node<K, V>) -> usize {
            match n {
                Node::Leaf(_) => 1,
                Node::Internal(es) => 1 + es.iter().map(|e| walk(&e.child)).sum::<usize>(),
            }
        }
        let mut rng = StdRng::seed_from_u64(7);
        for capacity in [4, 8, 64] {
            let mut t: MTree<i64, usize, fn(&i64, &i64) -> f64> =
                MTree::with_options(abs_metric, capacity, 42);
            assert_eq!(t.node_count(), 1);
            for i in 0..10_000 {
                // A narrow key range keeps duplicates (tie splits) frequent.
                t.insert(rng.gen_range(0..3_000), i);
                if i % 997 == 0 {
                    assert_eq!(t.node_count(), walk(&t.root), "after {i} inserts");
                }
            }
            assert_eq!(t.node_count(), walk(&t.root));
            assert!(
                t.height() >= 3,
                "capacity {capacity}: the root must have split"
            );
        }
    }

    #[test]
    fn pruning_happens_for_selective_queries() {
        let values: Vec<i64> = (0..5000).map(|i| i * 10).collect();
        let t = build(&values);
        let (_, stats) = t.range(&25000, 5.0);
        assert!(
            stats.dist_computations < 5000,
            "selective range query should not compare against every key: {stats:?}"
        );
        assert!(stats.subtrees_pruned > 0);
    }

    #[test]
    fn knn_returns_the_k_closest() {
        let values: Vec<i64> = (0..1000).map(|i| i * 3).collect();
        let t = build(&values);
        let (hits, stats) = t.nearest(&500, 5);
        assert_eq!(hits.len(), 5);
        // Closest multiples of 3 to 500: 501(d=1), 498(d=2), 504(d=4), 495(d=5), 507(d=7)
        assert_eq!(hits[0].0, 501);
        assert!(
            hits.windows(2).all(|w| w[0].2 <= w[1].2),
            "ascending distances"
        );
        let max_d = hits.last().unwrap().2;
        // Exhaustive check: nothing closer was missed.
        let better = values
            .iter()
            .filter(|&&v| abs_metric(&v, &500) < max_d)
            .count();
        assert!(better <= 5);
        assert!(
            stats.dist_computations < 1100,
            "branch-and-bound should prune: {stats:?}"
        );
    }

    #[test]
    fn knn_edge_cases() {
        let t = build(&[10, 20, 30]);
        let (zero, _) = t.nearest(&15, 0);
        assert!(zero.is_empty());
        let (all, _) = t.nearest(&15, 99);
        assert_eq!(all.len(), 3);
        let empty: MTree<i64, usize, fn(&i64, &i64) -> f64> = MTree::new(abs_metric);
        let (none, _) = empty.nearest(&15, 3);
        assert!(none.is_empty());
    }

    #[test]
    fn iter_all_returns_everything() {
        let values: Vec<i64> = (0..100).collect();
        let t = build(&values);
        let mut all: Vec<i64> = t.iter_all().into_iter().map(|(k, _)| k).collect();
        all.sort();
        assert_eq!(all, values);
    }

    #[test]
    fn duplicate_keys_are_kept() {
        let t = build(&[7, 7, 7, 7]);
        let (hits, _) = t.range(&7, 0.0);
        assert_eq!(hits.len(), 4);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    type ByteMetric = fn(&Vec<u8>, &Vec<u8>) -> f64;

    #[allow(clippy::ptr_arg)]
    fn lev(a: &Vec<u8>, b: &Vec<u8>) -> f64 {
        // Minimal reference Levenshtein for the property test (the real
        // implementation lives in mlql-phonetics; duplicating here keeps the
        // crate dependency-free).
        let n = b.len();
        let mut prev: Vec<usize> = (0..=n).collect();
        let mut curr = vec![0usize; n + 1];
        for (i, &ca) in a.iter().enumerate() {
            curr[0] = i + 1;
            for (j, &cb) in b.iter().enumerate() {
                let cost = usize::from(ca != cb);
                curr[j + 1] = (prev[j] + cost).min(prev[j + 1] + 1).min(curr[j] + 1);
            }
            std::mem::swap(&mut prev, &mut curr);
        }
        prev[n] as f64
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]
        #[test]
        fn knn_matches_linear_scan(
            keys in proptest::collection::vec(proptest::collection::vec(0u8..4, 0..8), 1..100),
            query in proptest::collection::vec(0u8..4, 0..8),
            k in 1usize..8,
        ) {
            let mut t: MTree<Vec<u8>, usize, ByteMetric> =
                MTree::with_options(lev, 6, 3);
            for (i, key) in keys.iter().enumerate() {
                t.insert(key.clone(), i);
            }
            let (hits, _) = t.nearest(&query, k);
            prop_assert_eq!(hits.len(), k.min(keys.len()));
            // Distances ascend and every reported distance is exact.
            for w in hits.windows(2) {
                prop_assert!(w[0].2 <= w[1].2);
            }
            for (key, _, d) in &hits {
                prop_assert_eq!(*d, lev(key, &query));
            }
            // The k-th best distance must match the linear scan's k-th best.
            let mut all: Vec<f64> = keys.iter().map(|key| lev(key, &query)).collect();
            all.sort_by(|a, b| a.partial_cmp(b).unwrap());
            let expect_kth = all[hits.len() - 1];
            prop_assert_eq!(hits.last().unwrap().2, expect_kth);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn range_query_is_exhaustive_for_string_metric(
            keys in proptest::collection::vec(proptest::collection::vec(0u8..4, 0..8), 1..120),
            query in proptest::collection::vec(0u8..4, 0..8),
            radius in 0u8..4,
        ) {
            let mut t: MTree<Vec<u8>, usize, ByteMetric> =
                MTree::with_options(lev, 6, 7);
            for (i, k) in keys.iter().enumerate() {
                t.insert(k.clone(), i);
            }
            let r = radius as f64;
            let (hits, _) = t.range(&query, r);
            let mut got: Vec<usize> = hits.iter().map(|&(_, v, _)| v).collect();
            got.sort_unstable();
            let mut expect: Vec<usize> = keys.iter().enumerate()
                .filter(|(_, k)| lev(k, &query) <= r)
                .map(|(i, _)| i)
                .collect();
            expect.sort_unstable();
            prop_assert_eq!(got, expect);
        }
    }
}
