//! The M-Tree proper.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A distance function making byte-string keys a metric space.
///
/// `distance` must satisfy the metric axioms (identity, symmetry,
/// triangle inequality); range-search correctness depends on them.  The
/// crate's property tests verify pruning never drops results for
/// Levenshtein-style metrics.
pub trait Metric {
    /// Distance between two keys.
    fn distance(&self, a: &[u8], b: &[u8]) -> f64;

    /// The key's symbols as a set folded onto 64 bits, or `None` (the
    /// default) when the metric offers no lower bound.
    ///
    /// A metric that sketches does so for every key, and promises that
    /// `distance(a, b) >= max(|len a − len b|, |A∖B|, |B∖A|)` for the
    /// sketches `A` and `B` of `a` and `b` — true of an edit distance over
    /// the keys' symbols, since one edit changes the length by at most one
    /// and removes at most one symbol from each side.  Folding symbols
    /// together only merges them, which can lower the bound but never
    /// raise it.  The tree then skips every entry and subtree whose bound
    /// exceeds the search radius without computing a distance.
    fn sketch(&self, _key: &[u8]) -> Option<u64> {
        None
    }
}

impl<F: Fn(&[u8], &[u8]) -> f64> Metric for F {
    fn distance(&self, a: &[u8], b: &[u8]) -> f64 {
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
    /// Number of entries and subtrees pruned by the triangle inequality.
    pub subtrees_pruned: u64,
    /// Number of entries and subtrees skipped by the metric's length and
    /// sketch bound, before any distance to them ([`Metric::sketch`]).
    pub bound_pruned: u64,
}

/// A query key's side of the length/sketch bound.
#[derive(Clone, Copy)]
struct Sketch {
    len: usize,
    set: u64,
}

impl Sketch {
    /// `max(|Δlen|, |Q∖K|, |K∖Q|)` against a key of length `len` and
    /// sketch `set`.
    #[inline]
    fn bound(self, len: usize, set: u64) -> f64 {
        let only_q = (self.set & !set).count_ones() as usize;
        let only_k = (set & !self.set).count_ones() as usize;
        self.len.abs_diff(len).max(only_q).max(only_k) as f64
    }
}

/// What a routing entry knows of the keys below it: their length range
/// and the union and intersection of their sketches.
#[derive(Debug, Clone, Copy)]
struct Summary {
    lo: usize,
    hi: usize,
    union: u64,
    inter: u64,
}

impl Summary {
    const EMPTY: Summary = Summary {
        lo: usize::MAX,
        hi: 0,
        union: 0,
        inter: !0,
    };

    fn add(&mut self, len: usize, set: u64) {
        self.lo = self.lo.min(len);
        self.hi = self.hi.max(len);
        self.union |= set;
        self.inter &= set;
    }

    fn merge(&mut self, other: &Summary) {
        self.lo = self.lo.min(other.lo);
        self.hi = self.hi.max(other.hi);
        self.union |= other.union;
        self.inter &= other.inter;
    }

    /// `max(gap(|q|, [lo, hi]), |Q∖U|, |I∖Q|)`, a lower bound on the
    /// distance from `q` to every key below: each key `K` has
    /// `K ⊆ U`, so `|Q∖K| ≥ |Q∖U|`, and `I ⊆ K`, so `|K∖Q| ≥ |I∖Q|`.
    #[inline]
    fn bound(&self, q: Sketch) -> f64 {
        let gap = if q.len < self.lo {
            self.lo - q.len
        } else {
            q.len.saturating_sub(self.hi)
        };
        let only_q = (q.set & !self.union).count_ones() as usize;
        let only_i = (self.inter & !q.set).count_ones() as usize;
        gap.max(only_q).max(only_i) as f64
    }
}

/// A node's keys, back to back in one byte arena.
#[derive(Debug, Default)]
struct Keys {
    bytes: Vec<u8>,
    /// End offset of each key in `bytes`.
    ends: Vec<u32>,
}

impl Keys {
    fn len(&self) -> usize {
        self.ends.len()
    }

    fn start(&self, i: usize) -> usize {
        i.checked_sub(1).map_or(0, |p| self.ends[p] as usize)
    }

    fn get(&self, i: usize) -> &[u8] {
        &self.bytes[self.start(i)..self.ends[i] as usize]
    }

    fn push(&mut self, key: &[u8]) {
        self.bytes.extend_from_slice(key);
        let end = u32::try_from(self.bytes.len()).expect("a node's keys fit in 4 GiB");
        self.ends.push(end);
    }

    fn remove(&mut self, i: usize) {
        let (start, end) = (self.start(i), self.ends[i] as usize);
        self.bytes.drain(start..end);
        self.ends.remove(i);
        for e in &mut self.ends[i..] {
            *e -= (end - start) as u32;
        }
    }
}

/// A leaf: its keys' sketches in one dense array, which a search sweeps
/// before it reads any entry, then the keys and their payloads.
#[derive(Debug)]
struct Leaf<V> {
    sets: Vec<u64>,
    keys: Keys,
    /// Each key's distance to the routing key above this leaf.
    parent_dist: Vec<f64>,
    values: Vec<V>,
}

impl<V> Leaf<V> {
    fn new() -> Self {
        Leaf {
            sets: Vec::new(),
            keys: Keys::default(),
            parent_dist: Vec::new(),
            values: Vec::new(),
        }
    }

    fn push(&mut self, key: &[u8], set: u64, parent_dist: f64, value: V) {
        self.sets.push(set);
        self.keys.push(key);
        self.parent_dist.push(parent_dist);
        self.values.push(value);
    }
}

/// An internal node: its routing keys in one arena, and beside each the
/// covering radius, summary and child of its subtree.
#[derive(Debug)]
struct Internal<V> {
    keys: Keys,
    entries: Vec<Routing<V>>,
}

impl<V> Internal<V> {
    fn new() -> Self {
        Internal {
            keys: Keys::default(),
            entries: Vec::new(),
        }
    }

    fn push(&mut self, key: &[u8], entry: Routing<V>) {
        self.keys.push(key);
        self.entries.push(entry);
    }
}

/// A routing key with its entry, as a split hands them to the parent.
type Routed<V> = (Vec<u8>, Routing<V>);

/// A routing entry: its subtree's covering radius and summary, its
/// distance to its own parent routing key, and the child node.
#[derive(Debug)]
struct Routing<V> {
    radius: f64,
    parent_dist: f64,
    summary: Summary,
    child: Box<Node<V>>,
}

#[derive(Debug)]
enum Node<V> {
    Leaf(Leaf<V>),
    Internal(Internal<V>),
}

impl<V> Node<V> {
    fn keys(&self) -> &Keys {
        match self {
            Node::Leaf(l) => &l.keys,
            Node::Internal(n) => &n.keys,
        }
    }
}

/// One hit: the stored key, its payload and its distance to the query.
pub type Hit<'a, V> = (&'a [u8], V, f64);

/// The M-Tree over byte-string keys.  `V` is an opaque payload (the
/// engine stores heap tuple ids).
pub struct MTree<V, M: Metric> {
    metric: M,
    root: Box<Node<V>>,
    node_capacity: usize,
    len: usize,
    /// Nodes in the tree, kept current by the split paths so the
    /// optimizer can ask for the index size without walking it.
    nodes: usize,
    /// Draws the two entries a split promotes.
    rng: StdRng,
}

impl<V: Clone, M: Metric> MTree<V, M> {
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
            root: Box::new(Node::Leaf(Leaf::new())),
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
        let mut node: &Node<V> = &self.root;
        while let Node::Internal(n) = node {
            h += 1;
            node = &n.entries[0].child;
        }
        h
    }

    /// Number of nodes (≈ pages) in the tree.
    pub fn node_count(&self) -> usize {
        self.nodes
    }

    #[inline]
    fn dist(&self, a: &[u8], b: &[u8]) -> f64 {
        self.metric.distance(a, b)
    }

    /// The query side of the bound, when the metric sketches.
    fn sketch(&self, query: &[u8]) -> Option<Sketch> {
        self.metric.sketch(query).map(|set| Sketch {
            len: query.len(),
            set,
        })
    }

    /// Insert a key/value pair.
    pub fn insert(&mut self, key: &[u8], value: V) {
        let set = self.metric.sketch(key).unwrap_or(0);
        let mut root = std::mem::replace(&mut self.root, Box::new(Node::Leaf(Leaf::new())));
        if let Some((k1, k2)) = self.insert_rec(&mut root, key, set, value, None) {
            // Root split: grow the tree by one level.
            let mut new_root = Internal::new();
            let (left, right) = self.split(*root, &k1, &k2);
            new_root.push(&left.0, left.1);
            new_root.push(&right.0, right.1);
            root = Box::new(Node::Internal(new_root));
            self.nodes += 1;
        }
        self.root = root;
        self.len += 1;
    }

    /// Insert below `node`, whose routing key is `parent` (`None` at the
    /// root).  Returns the two keys to promote when `node` overflows; the
    /// caller splits it, because the caller owns it.
    fn insert_rec(
        &mut self,
        node: &mut Node<V>,
        key: &[u8],
        set: u64,
        value: V,
        parent: Option<&[u8]>,
    ) -> Option<(Vec<u8>, Vec<u8>)> {
        match node {
            Node::Leaf(leaf) => {
                // The distance to the parent routing key feeds the
                // search-time pre-filter; a root leaf has no parent and
                // the value is never read.
                let dtp = parent.map_or(0.0, |p| self.dist(key, p));
                leaf.push(key, set, dtp, value);
                (leaf.values.len() > self.node_capacity).then(|| self.promote(&leaf.keys))
            }
            Node::Internal(n) => {
                // Choose the subtree: minimal radius enlargement, ties
                // broken by closest routing key (the classic heuristic).
                let mut best = 0usize;
                let mut best_enlarge = f64::INFINITY;
                let mut best_dist = f64::INFINITY;
                for i in 0..n.keys.len() {
                    let d = self.dist(key, n.keys.get(i));
                    let enlarge = (d - n.entries[i].radius).max(0.0);
                    if enlarge < best_enlarge || (enlarge == best_enlarge && d < best_dist) {
                        best = i;
                        best_enlarge = enlarge;
                        best_dist = d;
                    }
                }
                // Widen the covering radius and the summary, and descend.
                let e = &mut n.entries[best];
                e.radius = e.radius.max(best_dist);
                e.summary.add(key.len(), set);
                let (k1, k2) =
                    self.insert_rec(&mut e.child, key, set, value, Some(n.keys.get(best)))?;
                // The child overflowed: split it in place.
                let child = std::mem::replace(&mut *n.entries[best].child, Node::Leaf(Leaf::new()));
                let (mut left, mut right) = self.split(child, &k1, &k2);
                // The two new entries live in THIS node, so their
                // distances to the parent are to this node's own routing
                // key.  A wrong value here would make the search-time
                // pre-filter prune real matches, so compute it exactly;
                // at the root the value is never read.
                left.1.parent_dist = parent.map_or(0.0, |p| self.dist(&left.0, p));
                right.1.parent_dist = parent.map_or(0.0, |p| self.dist(&right.0, p));
                n.keys.remove(best);
                n.entries.remove(best);
                n.push(&left.0, left.1);
                n.push(&right.0, right.1);
                (n.entries.len() > self.node_capacity).then(|| self.promote(&n.keys))
            }
        }
    }

    /// Split `node` around the promoted keys `k1` and `k2`: each entry
    /// goes to the closer one.  Returns the two routing entries, with
    /// covering radii and summaries recomputed from their contents.
    fn split(&mut self, node: Node<V>, k1: &[u8], k2: &[u8]) -> (Routed<V>, Routed<V>) {
        self.nodes += 1; // one node becomes two
        let sides = self.partition(node.keys(), k1, k2);
        let (left, right) = match node {
            Node::Leaf(leaf) => {
                let mut halves = [Leaf::new(), Leaf::new()];
                for (i, (value, &(side, d))) in leaf.values.into_iter().zip(&sides).enumerate() {
                    halves[side].push(leaf.keys.get(i), leaf.sets[i], d, value);
                }
                let [l, r] = halves;
                (Node::Leaf(l), Node::Leaf(r))
            }
            Node::Internal(n) => {
                let mut halves = [Internal::new(), Internal::new()];
                for (i, (mut e, &(side, d))) in n.entries.into_iter().zip(&sides).enumerate() {
                    e.parent_dist = d;
                    halves[side].push(n.keys.get(i), e);
                }
                let [l, r] = halves;
                (Node::Internal(l), Node::Internal(r))
            }
        };
        (routing(k1, left), routing(k2, right))
    }

    /// For each key, its side of a split (0 for `k1`, 1 for `k2`) and its
    /// distance to that side's key.  Ties alternate sides so
    /// duplicate-heavy data (or equal promoted keys) still yields two
    /// non-empty halves; if one side is still empty, the other's last
    /// entry moves over, since a node with zero entries breaks the
    /// insertion descent (internal nodes choose among entries).
    fn partition(&self, keys: &Keys, k1: &[u8], k2: &[u8]) -> Vec<(usize, f64)> {
        let mut tie_left = true;
        let mut sides: Vec<(usize, f64)> = (0..keys.len())
            .map(|i| {
                let (d1, d2) = (self.dist(keys.get(i), k1), self.dist(keys.get(i), k2));
                let go_left = if d1 == d2 {
                    tie_left = !tie_left;
                    !tie_left
                } else {
                    d1 < d2
                };
                if go_left {
                    (0, d1)
                } else {
                    (1, d2)
                }
            })
            .collect();
        for (empty, promoted) in [(0, k1), (1, k2)] {
            if sides.iter().all(|&(s, _)| s != empty) {
                let last = sides.len() - 1;
                sides[last] = (empty, self.dist(keys.get(last), promoted));
            }
        }
        sides
    }

    /// Range query: every (key, value) within `radius` of `query`.
    /// Returns matches with their exact distances, plus the query stats.
    pub fn range(&self, query: &[u8], radius: f64) -> (Vec<Hit<'_, V>>, QueryStats) {
        self.range_with(
            query,
            |key, cap| self.capped(query, key, cap),
            radius,
            |_, _| true,
        )
    }

    /// [`Self::range`] with the query's distances supplied as
    /// `dq(key, cap)`: the exact distance from `query` to `key` when it is
    /// at most `cap`, `None` otherwise.  The caps are the bounds the
    /// pruning tests use — `radius` at leaf entries, `radius` plus the
    /// covering radius at routing entries — so a caller that compiles its
    /// query once (a bit-parallel matcher, say) visits, computes and prunes
    /// exactly what the generic-metric search does.  Only hits for which
    /// `live(key, value)` holds are returned; it is asked after the
    /// distance, so a caller's tombstone lookup costs nothing on the keys
    /// that miss.
    pub fn range_with(
        &self,
        query: &[u8],
        dq: impl FnMut(&[u8], f64) -> Option<f64>,
        radius: f64,
        live: impl FnMut(&[u8], &V) -> bool,
    ) -> (Vec<Hit<'_, V>>, QueryStats) {
        let mut search = Search {
            sketch: self.sketch(query),
            dq,
            live,
            stats: QueryStats::default(),
            out: Vec::new(),
        };
        search.range(&self.root, radius, None);
        (search.out, search.stats)
    }

    /// The generic metric as a capped query-side distance.
    fn capped(&self, query: &[u8], key: &[u8], cap: f64) -> Option<f64> {
        let d = self.metric.distance(query, key);
        (d <= cap).then_some(d)
    }

    /// k-nearest-neighbour search (best-first branch and bound).
    ///
    /// Returns up to `k` entries ordered by ascending distance, with query
    /// statistics.  Ties at the cut-off distance are broken arbitrarily.
    /// This is the classic M-Tree kNN of Ciaccia et al. — a min-heap over
    /// subtrees ordered by `d_min = max(0, d(q, routing) − radius)`, pruned
    /// against the current k-th best distance.
    pub fn nearest(&self, query: &[u8], k: usize) -> (Vec<Hit<'_, V>>, QueryStats) {
        self.nearest_with(
            query,
            |key, cap| self.capped(query, key, cap),
            k,
            |_, _| true,
        )
    }

    /// [`Self::nearest`] with the query's distances supplied as
    /// `dq(key, cap)`, as in [`Self::range_with`].  The caps are the current
    /// k-th best distance at leaf entries (infinite until k candidates are
    /// held) and that distance plus the covering radius at routing
    /// entries.  An entry for which `live(key, value)` fails never enters
    /// the best k, so it neither shortens the result nor widens the search.
    pub fn nearest_with(
        &self,
        query: &[u8],
        mut dq: impl FnMut(&[u8], f64) -> Option<f64>,
        k: usize,
        mut live: impl FnMut(&[u8], &V) -> bool,
    ) -> (Vec<Hit<'_, V>>, QueryStats) {
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;

        let mut stats = QueryStats::default();
        if k == 0 || self.len == 0 {
            return (Vec::new(), stats);
        }
        let sketch = self.sketch(query);

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
        let mut nodes: Vec<&Node<V>> = vec![&self.root];
        pending.push((Reverse(Ord64(0.0)), 0));
        // Results: max-heap by distance so the worst of the best k pops.
        let mut best: BinaryHeap<(Ord64, usize)> = BinaryHeap::new();
        let mut found: Vec<Hit<'_, V>> = Vec::new();

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
                Node::Leaf(leaf) => {
                    let mut start = 0;
                    for (i, (&end, &set)) in leaf.keys.ends.iter().zip(&leaf.sets).enumerate() {
                        let (s, end) = (start, end as usize);
                        start = end;
                        if sketch.is_some_and(|q| q.bound(end - s, set) > kth(&best)) {
                            stats.bound_pruned += 1;
                            continue;
                        }
                        stats.dist_computations += 1;
                        let key = &leaf.keys.bytes[s..end];
                        let Some(d) = dq(key, kth(&best)) else {
                            continue;
                        };
                        if (d < kth(&best) || best.len() < k) && live(key, &leaf.values[i]) {
                            found.push((key, leaf.values[i].clone(), d));
                            best.push((Ord64(d), found.len() - 1));
                            if best.len() > k {
                                best.pop();
                            }
                        }
                    }
                }
                Node::Internal(n) => {
                    for (i, e) in n.entries.iter().enumerate() {
                        let bound = sketch.map_or(0.0, |q| e.summary.bound(q));
                        if bound > kth(&best) {
                            stats.bound_pruned += 1;
                            continue;
                        }
                        stats.dist_computations += 1;
                        // `max(0, d - radius) <= kth` ⇔ `d <= kth + radius`.
                        match dq(n.keys.get(i), kth(&best) + e.radius) {
                            Some(d) => {
                                let child_min = (d - e.radius).max(bound);
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
        let mut out: Vec<Hit<'_, V>> = picked.into_iter().map(|i| found[i].clone()).collect();
        out.sort_by(|a, b| a.2.partial_cmp(&b.2).unwrap_or(std::cmp::Ordering::Equal));
        out.truncate(k);
        (out, stats)
    }

    /// Exhaustively iterate all keys.
    #[cfg(test)]
    fn iter_all(&self) -> Vec<(Vec<u8>, V)> {
        fn walk<V: Clone>(n: &Node<V>, out: &mut Vec<(Vec<u8>, V)>) {
            match n {
                Node::Leaf(l) => out.extend(
                    l.values
                        .iter()
                        .enumerate()
                        .map(|(i, v)| (l.keys.get(i).to_vec(), v.clone())),
                ),
                Node::Internal(n) => {
                    for e in &n.entries {
                        walk(&e.child, out);
                    }
                }
            }
        }
        let mut out = Vec::with_capacity(self.len);
        walk(&self.root, &mut out);
        out
    }

    /// Choose two distinct promotion keys uniformly at random: the paper's
    /// split, "since it offers the best index modification time" (§4.2.1).
    fn promote(&mut self, keys: &Keys) -> (Vec<u8>, Vec<u8>) {
        debug_assert!(keys.len() >= 2);
        let i = self.rng.gen_range(0..keys.len());
        let mut j = self.rng.gen_range(0..keys.len() - 1);
        if j >= i {
            j += 1;
        }
        (keys.get(i).to_vec(), keys.get(j).to_vec())
    }
}

/// The routing entry for `child` under the promoted `key`: its covering
/// radius and summary computed from what `child` holds.
fn routing<V>(key: &[u8], child: Node<V>) -> Routed<V> {
    let mut summary = Summary::EMPTY;
    let radius = match &child {
        Node::Leaf(l) => {
            for (i, &set) in l.sets.iter().enumerate() {
                summary.add(l.keys.get(i).len(), set);
            }
            l.parent_dist.iter().copied().fold(0.0f64, f64::max)
        }
        Node::Internal(n) => {
            for e in &n.entries {
                summary.merge(&e.summary);
            }
            n.entries
                .iter()
                .map(|e| e.parent_dist + e.radius)
                .fold(0.0f64, f64::max)
        }
    };
    let entry = Routing {
        radius,
        parent_dist: 0.0,
        summary,
        child: Box::new(child),
    };
    (key.to_vec(), entry)
}

/// One range search's state: the query's sketch and distances, the
/// caller's liveness test, and what the walk has found and counted.
struct Search<'a, V, D, L> {
    sketch: Option<Sketch>,
    dq: D,
    live: L,
    stats: QueryStats,
    out: Vec<Hit<'a, V>>,
}

impl<'a, V, D, L> Search<'a, V, D, L>
where
    V: Clone,
    D: FnMut(&[u8], f64) -> Option<f64>,
    L: FnMut(&[u8], &V) -> bool,
{
    /// Search `node`, whose routing key is `dqp` from the query (`None` at
    /// the root).  Each entry meets the sketch bound first, then the
    /// triangle pre-filter `|d(q,parent) − d(key,parent)| > r`, and only
    /// then a distance.
    fn range(&mut self, node: &'a Node<V>, radius: f64, dqp: Option<f64>) {
        self.stats.nodes_visited += 1;
        match node {
            Node::Leaf(leaf) => {
                let mut start = 0;
                for (i, (&end, &set)) in leaf.keys.ends.iter().zip(&leaf.sets).enumerate() {
                    let (s, end) = (start, end as usize);
                    start = end;
                    if self.sketch.is_some_and(|q| q.bound(end - s, set) > radius) {
                        self.stats.bound_pruned += 1;
                        continue;
                    }
                    if dqp.is_some_and(|dqp| (dqp - leaf.parent_dist[i]).abs() > radius) {
                        self.stats.subtrees_pruned += 1;
                        continue;
                    }
                    self.stats.dist_computations += 1;
                    let key = &leaf.keys.bytes[s..end];
                    if let Some(d) = (self.dq)(key, radius) {
                        if (self.live)(key, &leaf.values[i]) {
                            self.out.push((key, leaf.values[i].clone(), d));
                        }
                    }
                }
            }
            Node::Internal(n) => {
                for (i, e) in n.entries.iter().enumerate() {
                    if self.sketch.is_some_and(|q| e.summary.bound(q) > radius) {
                        self.stats.bound_pruned += 1;
                        continue;
                    }
                    if dqp.is_some_and(|dqp| (dqp - e.parent_dist).abs() > radius + e.radius) {
                        self.stats.subtrees_pruned += 1;
                        continue;
                    }
                    self.stats.dist_computations += 1;
                    let Some(d) = (self.dq)(n.keys.get(i), radius + e.radius) else {
                        self.stats.subtrees_pruned += 1;
                        continue;
                    };
                    self.range(&e.child, radius, Some(d));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `i64` keys as big-endian bytes, under `|a − b|`.
    fn key(v: i64) -> [u8; 8] {
        v.to_be_bytes()
    }

    fn val(k: &[u8]) -> i64 {
        i64::from_be_bytes(k.try_into().expect("8-byte key"))
    }

    fn abs_metric(a: &[u8], b: &[u8]) -> f64 {
        (val(a) - val(b)).abs() as f64
    }

    type AbsTree = MTree<usize, fn(&[u8], &[u8]) -> f64>;

    fn build(values: &[i64]) -> AbsTree {
        let mut t: AbsTree = MTree::with_options(abs_metric, 8, 42);
        for (i, &v) in values.iter().enumerate() {
            t.insert(&key(v), i);
        }
        t
    }

    #[test]
    fn empty_tree() {
        let t: AbsTree = MTree::new(abs_metric);
        assert!(t.is_empty());
        let (hits, stats) = t.range(&key(5), 100.0);
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
                let (hits, stats) = t.range(&key(q), r);
                assert_eq!(stats.bound_pruned, 0, "a closure metric bounds nothing");
                let mut got: Vec<(i64, usize)> =
                    hits.iter().map(|&(k, v, _)| (val(k), v)).collect();
                got.sort();
                let mut expect: Vec<(i64, usize)> = values
                    .iter()
                    .enumerate()
                    .filter(|&(_, &v)| (v - q).abs() as f64 <= r)
                    .map(|(i, &v)| (v, i))
                    .collect();
                expect.sort();
                assert_eq!(got, expect, "q={q} r={r}");
            }
        }
    }

    #[test]
    fn distances_reported_are_exact() {
        let t = build(&[1, 5, 9, 13, 2, 8]);
        let (hits, _) = t.range(&key(5), 4.0);
        for (k, _, d) in hits {
            assert_eq!(d, (val(k) - 5).abs() as f64);
        }
    }

    #[test]
    fn tree_grows_in_height_and_stays_balanced() {
        let values: Vec<i64> = (0..2000).collect();
        let t = build(&values);
        assert!(t.height() >= 2, "2000 values with capacity 8 must split");
        // All leaves at the same depth (height-balance).
        fn depths<V>(n: &Node<V>, d: usize, out: &mut Vec<usize>) {
            match n {
                Node::Leaf(_) => out.push(d),
                Node::Internal(n) => {
                    for e in &n.entries {
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
        fn walk<V>(n: &Node<V>) -> usize {
            match n {
                Node::Leaf(_) => 1,
                Node::Internal(n) => 1 + n.entries.iter().map(|e| walk(&e.child)).sum::<usize>(),
            }
        }
        let mut rng = StdRng::seed_from_u64(7);
        for capacity in [4, 8, 64] {
            let mut t: AbsTree = MTree::with_options(abs_metric, capacity, 42);
            assert_eq!(t.node_count(), 1);
            for i in 0..10_000 {
                // A narrow key range keeps duplicates (tie splits) frequent.
                t.insert(&key(rng.gen_range(0..3_000)), i);
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
        let (_, stats) = t.range(&key(25000), 5.0);
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
        let (hits, stats) = t.nearest(&key(500), 5);
        assert_eq!(hits.len(), 5);
        // Closest multiples of 3 to 500: 501(d=1), 498(d=2), 504(d=4), 495(d=5), 507(d=7)
        assert_eq!(val(hits[0].0), 501);
        assert!(
            hits.windows(2).all(|w| w[0].2 <= w[1].2),
            "ascending distances"
        );
        let max_d = hits.last().unwrap().2;
        // Exhaustive check: nothing closer was missed.
        let better = values
            .iter()
            .filter(|&&v| ((v - 500).abs() as f64) < max_d)
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
        let (zero, _) = t.nearest(&key(15), 0);
        assert!(zero.is_empty());
        let (all, _) = t.nearest(&key(15), 99);
        assert_eq!(all.len(), 3);
        let empty: AbsTree = MTree::new(abs_metric);
        let (none, _) = empty.nearest(&key(15), 3);
        assert!(none.is_empty());
    }

    /// Entries `live` rejects never enter the best k: the result is the k
    /// nearest of the others.
    #[test]
    fn knn_skips_entries_that_are_not_live() {
        let values: Vec<i64> = (0..1000).collect();
        let t = build(&values);
        let (hits, _) = t.nearest_with(
            &key(500),
            |k, cap| Some((val(k) - 500).abs() as f64).filter(|&d| d <= cap),
            3,
            |k, _| val(k) % 2 == 1,
        );
        let got: Vec<(i64, f64)> = hits.iter().map(|&(k, _, d)| (val(k), d)).collect();
        assert_eq!(got.len(), 3);
        assert!(got.iter().all(|&(v, _)| v % 2 == 1), "{got:?}");
        let dists: Vec<f64> = got.iter().map(|&(_, d)| d).collect();
        assert_eq!(dists, vec![1.0, 1.0, 3.0]);
    }

    #[test]
    fn iter_all_returns_everything() {
        let values: Vec<i64> = (0..100).collect();
        let t = build(&values);
        let mut all: Vec<i64> = t.iter_all().into_iter().map(|(k, _)| val(&k)).collect();
        all.sort();
        assert_eq!(all, values);
    }

    #[test]
    fn duplicate_keys_are_kept() {
        let t = build(&[7, 7, 7, 7]);
        let (hits, _) = t.range(&key(7), 0.0);
        assert_eq!(hits.len(), 4);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::collection::vec;
    use proptest::prelude::*;

    fn lev(a: &[u8], b: &[u8]) -> f64 {
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

    /// Levenshtein alone: the paper's triangle-only tree.
    type PlainTree = MTree<usize, fn(&[u8], &[u8]) -> f64>;

    /// Levenshtein with the length/symbol-set bound: symbols fold onto
    /// bit `c & 63`, as `mlql_phonetics::distance::phone_set` folds them.
    struct Sketched;

    impl Metric for Sketched {
        fn distance(&self, a: &[u8], b: &[u8]) -> f64 {
            lev(a, b)
        }

        fn sketch(&self, key: &[u8]) -> Option<u64> {
            Some(key.iter().fold(0, |set, &c| set | 1 << (c & 63)))
        }
    }

    /// Keys over six symbols, three pairs of which (0 and 64, 1 and 65,
    /// 2 and 130) fold onto one sketch bit.
    fn key() -> impl Strategy<Value = Vec<u8>> {
        vec((0usize..6).prop_map(|s| [0u8, 1, 2, 64, 65, 130][s]), 0..8)
    }

    /// The same keys in a triangle-only tree and in a sketching one.
    fn trees(keys: &[Vec<u8>], seed: u64) -> (PlainTree, MTree<usize, Sketched>) {
        let mut plain: PlainTree = MTree::with_options(lev, 6, seed);
        let mut sketched = MTree::with_options(Sketched, 6, seed);
        for (i, k) in keys.iter().enumerate() {
            plain.insert(k, i);
            sketched.insert(k, i);
        }
        (plain, sketched)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]
        #[test]
        fn knn_matches_linear_scan(
            keys in vec(key(), 1..100),
            query in key(),
            k in 1usize..8,
        ) {
            let (plain, sketched) = trees(&keys, 3);
            let mut all: Vec<f64> = keys.iter().map(|key| lev(key, &query)).collect();
            all.sort_by(|a, b| a.partial_cmp(b).unwrap());
            for hits in [plain.nearest(&query, k).0, sketched.nearest(&query, k).0] {
                prop_assert_eq!(hits.len(), k.min(keys.len()));
                // Distances ascend and every reported distance is exact.
                for w in hits.windows(2) {
                    prop_assert!(w[0].2 <= w[1].2);
                }
                for (key, _, d) in &hits {
                    prop_assert_eq!(*d, lev(key, &query));
                }
                // The k-th best distance must match the linear scan's k-th best.
                let expect_kth = all[hits.len() - 1];
                prop_assert_eq!(hits.last().unwrap().2, expect_kth);
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn range_query_is_exhaustive_for_string_metric(
            keys in vec(key(), 1..120),
            query in key(),
            radius in 0u8..4,
        ) {
            let (plain, sketched) = trees(&keys, 7);
            let r = radius as f64;
            let mut expect: Vec<usize> = keys.iter().enumerate()
                .filter(|(_, k)| lev(k, &query) <= r)
                .map(|(i, _)| i)
                .collect();
            expect.sort_unstable();
            let (plain_hits, plain_stats) = plain.range(&query, r);
            let (hits, stats) = sketched.range(&query, r);
            for hits in [plain_hits, hits] {
                let mut got: Vec<usize> = hits.iter().map(|&(_, v, _)| v).collect();
                got.sort_unstable();
                prop_assert_eq!(got, expect.clone());
            }
            // The bound only ever removes distances from the walk.
            prop_assert_eq!(plain_stats.bound_pruned, 0);
            prop_assert!(stats.dist_computations <= plain_stats.dist_computations);
        }
    }
}
