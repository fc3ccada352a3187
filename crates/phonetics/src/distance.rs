//! Levenshtein edit distance over phoneme byte strings.
//!
//! Three entry points, matching how the paper's implementation uses edit
//! distance (§3.3: "All edit-distance computations were implemented using
//! the diagonal transition algorithm", citing Navarro's survey \[16\]):
//!
//! * [`edit_distance`] — the classic O(|a|·|b|) dynamic program with a
//!   two-row rolling buffer.  Reference implementation; used by property
//!   tests as the ground truth.
//! * [`edit_distance_banded`] — threshold-bounded banded computation
//!   (Ukkonen's cut-off, the practical form of diagonal transition):
//!   O(k·min(|a|,|b|)) time.  Returns `None` when the distance exceeds `k`.
//! * [`within_distance`] — the scalar ψ predicate over the banded DP.
//!
//! [`PhonemeProbe`] is what every many-pair caller runs — ψ's batch scans
//! and joins, M-tree probes: one pattern compiled once, the
//! [`distance_lower_bound`] over [`phone_set`]s in front of the
//! bit-parallel [`MyersMatcher`], or of the banded DP for a pattern longer
//! than a machine word.
//!
//! [`DistanceBuffer`] lets hot loops reuse the DP rows across millions of
//! calls without re-allocating — per the Rust Performance Book guidance on
//! buffer reuse.  The one-shot functions borrow a thread-local buffer, so
//! they do not allocate either.

use std::cell::RefCell;

/// Reusable dynamic-programming buffer.
#[derive(Debug, Default)]
pub struct DistanceBuffer {
    prev: Vec<usize>,
    curr: Vec<usize>,
}

impl DistanceBuffer {
    /// A fresh buffer; rows grow on demand and are then reused.
    pub fn new() -> Self {
        DistanceBuffer::default()
    }

    /// Full Levenshtein distance between two byte strings.
    pub fn distance(&mut self, a: &[u8], b: &[u8]) -> usize {
        // Keep the inner loop over the shorter string: fewer cells per row.
        let (a, b) = if a.len() < b.len() { (b, a) } else { (a, b) };
        if b.is_empty() {
            return a.len();
        }
        let n = b.len();
        self.prev.clear();
        self.prev.extend(0..=n);
        self.curr.resize(n + 1, 0);
        for (i, &ca) in a.iter().enumerate() {
            self.curr[0] = i + 1;
            for (j, &cb) in b.iter().enumerate() {
                let cost = usize::from(ca != cb);
                self.curr[j + 1] = (self.prev[j] + cost)
                    .min(self.prev[j + 1] + 1)
                    .min(self.curr[j] + 1);
            }
            std::mem::swap(&mut self.prev, &mut self.curr);
        }
        self.prev[n]
    }

    /// Banded (Ukkonen cut-off) distance: compute only the diagonal band of
    /// half-width `k`.  Returns `Some(d)` when `d <= k`, `None` otherwise.
    ///
    /// Complexity O(k·min(|a|,|b|)) — this is the `k·l` term in the paper's
    /// Table 3 cost models.
    pub fn distance_within(&mut self, a: &[u8], b: &[u8], k: usize) -> Option<usize> {
        let (a, b) = if a.len() < b.len() { (b, a) } else { (a, b) };
        // |a| >= |b|; deleting the length difference alone costs this much.
        if a.len() - b.len() > k {
            return None;
        }
        if b.is_empty() {
            return if a.len() <= k { Some(a.len()) } else { None };
        }
        let n = b.len();
        const INF: usize = usize::MAX / 2;
        self.prev.clear();
        self.prev.resize(n + 1, INF);
        // Out-of-band cells must read as INF; a plain `resize` would keep
        // stale values from a previous use of this buffer.
        self.curr.clear();
        self.curr.resize(n + 1, INF);
        for (j, v) in self.prev.iter_mut().enumerate().take(k.min(n) + 1) {
            *v = j;
        }
        for (i, &ca) in a.iter().enumerate() {
            // Band for row i+1: columns j with |(i+1) - j| <= k.
            let row = i + 1;
            let lo = row.saturating_sub(k);
            let hi = (row + k).min(n);
            if lo > hi {
                return None;
            }
            // Reset only the band (plus the cell left of it).
            if lo > 0 {
                self.curr[lo - 1] = INF;
            }
            for v in &mut self.curr[lo..=hi] {
                *v = INF;
            }
            if lo == 0 {
                self.curr[0] = row;
            }
            let mut best = INF;
            let start = lo.max(1);
            for j in start..=hi {
                let cb = b[j - 1];
                let cost = usize::from(ca != cb);
                let diag = self.prev[j - 1] + cost;
                let up = self.prev[j] + 1;
                let left = self.curr[j - 1] + 1;
                let v = diag.min(up).min(left);
                self.curr[j] = v;
                if v < best {
                    best = v;
                }
            }
            if lo == 0 && self.curr[0] < best {
                best = self.curr[0];
            }
            if best > k {
                return None; // every cell in the band already exceeds k
            }
            std::mem::swap(&mut self.prev, &mut self.curr);
        }
        let d = self.prev[n];
        (d <= k).then_some(d)
    }
}

/// Longest pattern the bit-parallel kernel accepts: one bit per pattern
/// symbol in a single machine word.
pub const MYERS_MAX_PATTERN: usize = 64;

/// Bit-parallel Levenshtein kernel after Myers (1999, "A fast bit-vector
/// algorithm for approximate string matching based on dynamic
/// programming").
///
/// The pattern (≤ [`MYERS_MAX_PATTERN`] symbols) is compiled once into a
/// per-symbol position mask; each text symbol then advances the whole DP
/// column with a handful of word-wide boolean operations instead of the
/// banded DP's per-cell loop.  Phoneme strings are short (a dozen or so
/// symbols) and batch ψ evaluation compares thousands of candidate
/// strings against one constant pattern, which is exactly the shape this
/// kernel is built for.
#[derive(Debug, Clone)]
pub struct MyersMatcher {
    /// `peq[c]` has bit `i` set iff `pattern[i] == c`.
    peq: [u64; 256],
    /// Pattern length `m`, 1..=64.
    m: usize,
}

impl MyersMatcher {
    /// Compile `pattern`; `None` when it is empty or longer than
    /// [`MYERS_MAX_PATTERN`] symbols ([`PhonemeProbe`] then runs the banded
    /// DP).
    pub fn new(pattern: &[u8]) -> Option<MyersMatcher> {
        if pattern.is_empty() || pattern.len() > MYERS_MAX_PATTERN {
            return None;
        }
        let mut peq = [0u64; 256];
        for (i, &c) in pattern.iter().enumerate() {
            peq[c as usize] |= 1u64 << i;
        }
        Some(MyersMatcher {
            peq,
            m: pattern.len(),
        })
    }

    /// Full Levenshtein distance between the compiled pattern and `text`.
    pub fn distance(&self, text: &[u8]) -> usize {
        self.run(text, usize::MAX)
            .expect("uncapped run always completes")
    }

    /// Threshold-bounded distance: `Some(d)` when `d <= k`, `None`
    /// otherwise.  Includes the same length-difference pre-filter as the
    /// banded DP plus a per-symbol lower-bound cut-off.
    pub fn distance_within(&self, text: &[u8], k: usize) -> Option<usize> {
        if self.m.abs_diff(text.len()) > k {
            return None;
        }
        self.run(text, k)
    }

    fn run(&self, text: &[u8], k: usize) -> Option<usize> {
        let m = self.m;
        let mask = 1u64 << (m - 1);
        // VP/VN encode the vertical deltas of the current DP column; the
        // column starts as 0..=m (all deltas +1).
        let mut vp = if m == 64 { !0u64 } else { (1u64 << m) - 1 };
        let mut vn = 0u64;
        let mut score = m;
        for (j, &c) in text.iter().enumerate() {
            let eq = self.peq[c as usize];
            let xv = eq | vn;
            let xh = (((eq & vp).wrapping_add(vp)) ^ vp) | eq;
            let ph = vn | !(xh | vp);
            let mh = vp & xh;
            if ph & mask != 0 {
                score += 1;
            } else if mh & mask != 0 {
                score -= 1;
            }
            let ph = (ph << 1) | 1;
            vp = (mh << 1) | !(xv | ph);
            vn = ph & xv;
            // The score drops by at most 1 per remaining text symbol; once
            // it cannot get back under k, give up early.
            let remaining = text.len() - j - 1;
            if score > k.saturating_add(remaining) {
                return None;
            }
        }
        (score <= k).then_some(score)
    }
}

/// The phones of `s` as a set: bit `c & 63` for each symbol `c`.
///
/// Folding 256 symbols onto 64 bits only merges symbols, which can lower
/// [`distance_lower_bound`] but never raise it, so the bound stays exact.
pub fn phone_set(s: &[u8]) -> u64 {
    s.iter().fold(0, |set, &c| set | 1 << (c & 63))
}

/// A lower bound on the edit distance between a string of length `len_a`
/// with phone set `set_a` ([`phone_set`]) and one of length `len_b` with
/// phone set `set_b`: `max(|Δlen|, |A∖B|, |B∖A|)`.
///
/// This is the length and count filter of filter-and-verify string joins
/// (Gravano et al., "Approximate String Joins in a Database (Almost) for
/// Free", VLDB 2001), applied to phones.  It holds because one edit
/// changes the length by at most one, and removes at most one phone on
/// the `a` side and adds at most one on the `b` side.  A pair whose bound
/// exceeds `k` is not within `k`, so a caller can skip the kernel for it.
#[inline]
pub fn distance_lower_bound(len_a: usize, set_a: u64, len_b: usize, set_b: u64) -> usize {
    let only_a = (set_a & !set_b).count_ones() as usize;
    let only_b = (set_b & !set_a).count_ones() as usize;
    len_a.abs_diff(len_b).max(only_a).max(only_b)
}

/// A phoneme pattern compiled once to be compared with many strings: ψ's
/// constant against a scan batch or a join's inner names, an M-tree
/// probe's query key against the tree's keys.
///
/// It makes the one kernel choice — [`MyersMatcher`] for a pattern of 1 to
/// [`MYERS_MAX_PATTERN`] symbols, the banded DP in the probe's own rows for
/// an empty or longer one — and holds the pattern's length and
/// [`phone_set`] for the [`distance_lower_bound`].
#[derive(Debug)]
pub struct PhonemeProbe {
    kernel: Kernel,
    len: usize,
    set: u64,
}

/// A probe is built once and used in place, so the Myers tables stay
/// inline rather than cost an allocation per probe.
#[derive(Debug)]
#[allow(clippy::large_enum_variant)]
enum Kernel {
    Myers(MyersMatcher),
    Banded(Vec<u8>, DistanceBuffer),
}

impl PhonemeProbe {
    /// Compile `pattern`.
    pub fn new(pattern: &[u8]) -> PhonemeProbe {
        let kernel = match MyersMatcher::new(pattern) {
            Some(m) => Kernel::Myers(m),
            None => Kernel::Banded(pattern.to_vec(), DistanceBuffer::new()),
        };
        PhonemeProbe {
            kernel,
            len: pattern.len(),
            set: phone_set(pattern),
        }
    }

    /// Is `text`, whose [`phone_set`] is `set`, within edit distance `k`
    /// of the pattern?  The length/phone-set bound answers first; only a
    /// pair it lets through reaches the kernel.
    #[inline]
    pub fn within(&mut self, text: &[u8], set: u64, k: usize) -> bool {
        distance_lower_bound(self.len, self.set, text.len(), set) <= k
            && self.distance_within(text, k).is_some()
    }

    /// The distance from the pattern to `text` when it is at most `cap`,
    /// `None` otherwise: the kernel alone, for a caller that has run its
    /// own bounds (an M-tree search).
    pub fn distance_within(&mut self, text: &[u8], cap: usize) -> Option<usize> {
        // No distance exceeds the longer string, so a larger cap (an
        // unbounded kNN search's) answers the same, and keeps the banded
        // DP's band from overflowing.
        let cap = cap.min(self.len.max(text.len()));
        match &mut self.kernel {
            Kernel::Myers(m) => m.distance_within(text, cap),
            Kernel::Banded(pattern, buf) => buf.distance_within(pattern, text, cap),
        }
    }
}

thread_local! {
    /// DP rows the one-shot functions reuse: M-tree inserts and splits,
    /// scalar ψ, plan-time selectivity and the MDI call them per pair.
    static ONE_SHOT: RefCell<DistanceBuffer> = RefCell::new(DistanceBuffer::new());
}

/// One-shot full Levenshtein distance.
pub fn edit_distance(a: &[u8], b: &[u8]) -> usize {
    ONE_SHOT.with(|buf| buf.borrow_mut().distance(a, b))
}

/// One-shot banded distance; `None` when the distance exceeds `k`.
pub fn edit_distance_banded(a: &[u8], b: &[u8], k: usize) -> Option<usize> {
    ONE_SHOT.with(|buf| buf.borrow_mut().distance_within(a, b, k))
}

/// The ψ predicate: are `a` and `b` within edit distance `k`?
pub fn within_distance(a: &[u8], b: &[u8], k: usize) -> bool {
    edit_distance_banded(a, b, k).is_some()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classic_cases() {
        assert_eq!(edit_distance(b"kitten", b"sitting"), 3);
        assert_eq!(edit_distance(b"", b""), 0);
        assert_eq!(edit_distance(b"abc", b""), 3);
        assert_eq!(edit_distance(b"", b"abc"), 3);
        assert_eq!(edit_distance(b"abc", b"abc"), 0);
        assert_eq!(edit_distance(b"flaw", b"lawn"), 2);
    }

    #[test]
    fn banded_agrees_with_full_when_within() {
        let pairs: &[(&[u8], &[u8])] = &[
            (b"nehru", b"neru"),
            (b"kitten", b"sitting"),
            (b"abcdef", b"azced"),
            (b"a", b"b"),
        ];
        for &(a, b) in pairs {
            let d = edit_distance(a, b);
            for k in d..d + 3 {
                assert_eq!(
                    edit_distance_banded(a, b, k),
                    Some(d),
                    "a={a:?} b={b:?} k={k}"
                );
            }
            if d > 0 {
                assert_eq!(edit_distance_banded(a, b, d - 1), None);
            }
        }
    }

    #[test]
    fn banded_length_prefilter() {
        assert_eq!(edit_distance_banded(b"aaaaaaaaaa", b"a", 3), None);
        assert_eq!(edit_distance_banded(b"aaaa", b"a", 3), Some(3));
    }

    #[test]
    fn within_distance_predicate() {
        assert!(within_distance(b"nehru", b"neru", 2));
        assert!(!within_distance(b"nehru", b"gandhi", 2));
        assert!(within_distance(b"", b"", 0));
        assert!(!within_distance(b"ab", b"ba", 1)); // transposition costs 2
        assert!(within_distance(b"ab", b"ba", 2));
    }

    #[test]
    fn buffer_reuse_is_sound() {
        let mut buf = DistanceBuffer::new();
        // Interleave long and short computations to catch stale-row bugs.
        assert_eq!(buf.distance(b"abcdefghij", b"jihgfedcba"), 10);
        assert_eq!(buf.distance(b"a", b"a"), 0);
        assert_eq!(buf.distance_within(b"abc", b"abd", 1), Some(1));
        assert_eq!(buf.distance(b"abcdefghij", b"abcdefghij"), 0);
        assert_eq!(buf.distance_within(b"abcdefghij", b"abc", 2), None);
        assert_eq!(
            buf.distance_within(b"abcdefghij", b"abcdefghix", 5),
            Some(1)
        );
    }

    #[test]
    fn zero_threshold_is_equality() {
        assert_eq!(edit_distance_banded(b"same", b"same", 0), Some(0));
        assert_eq!(edit_distance_banded(b"same", b"sama", 0), None);
    }

    #[test]
    fn myers_classic_cases() {
        let m = MyersMatcher::new(b"kitten").unwrap();
        assert_eq!(m.distance(b"sitting"), 3);
        assert_eq!(m.distance(b"kitten"), 0);
        assert_eq!(m.distance(b""), 6);
        assert_eq!(m.distance_within(b"sitting", 3), Some(3));
        assert_eq!(m.distance_within(b"sitting", 2), None);
        assert_eq!(MyersMatcher::new(b"flaw").unwrap().distance(b"lawn"), 2);
    }

    #[test]
    fn myers_rejects_empty_and_overlong_patterns() {
        assert!(MyersMatcher::new(b"").is_none());
        let just_fits = vec![7u8; MYERS_MAX_PATTERN];
        let matcher = MyersMatcher::new(&just_fits).expect("64 symbols fit one word");
        assert_eq!(matcher.distance(&just_fits), 0);
        let too_long = vec![7u8; MYERS_MAX_PATTERN + 1];
        assert!(MyersMatcher::new(&too_long).is_none());
    }

    #[test]
    fn myers_full_word_pattern_is_exact() {
        // m == 64 exercises the `!0u64` initial VP and the top-bit mask.
        let pattern: Vec<u8> = (0..64).map(|i| (i % 8) as u8).collect();
        let m = MyersMatcher::new(&pattern).unwrap();
        let mut text = pattern.clone();
        text[0] ^= 1;
        text[63] ^= 1;
        assert_eq!(m.distance(&text), edit_distance(&pattern, &text));
        assert_eq!(m.distance_within(&text, 2), Some(2));
        assert_eq!(m.distance_within(&text, 1), None);
    }

    #[test]
    fn myers_threshold_edge_d_equals_k() {
        // The acceptance boundary d == k must be inclusive, matching the
        // banded DP.
        let m = MyersMatcher::new(b"nehru").unwrap();
        let d = edit_distance(b"nehru", b"neru");
        assert_eq!(m.distance_within(b"neru", d), Some(d));
        assert_eq!(m.distance_within(b"neru", d - 1), None);
        assert_eq!(edit_distance_banded(b"nehru", b"neru", d), Some(d));
    }

    #[test]
    fn distance_is_metric_on_samples() {
        // Symmetry + triangle inequality on a small sample set — the M-Tree
        // requires metric properties of the distance function.
        let strs: &[&[u8]] = &[b"nehru", b"neru", b"nero", b"nehrul", b"gandhi", b""];
        for &a in strs {
            assert_eq!(edit_distance(a, a), 0);
            for &b in strs {
                assert_eq!(edit_distance(a, b), edit_distance(b, a));
                for &c in strs {
                    assert!(edit_distance(a, c) <= edit_distance(a, b) + edit_distance(b, c));
                }
            }
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    /// Symbols that `phone_set` folds together in pairs and fours
    /// (1, 65, 129, 193 share bit 1; 2, 66, 130 share bit 2).
    const ALPHABET: [u8; 8] = [1, 65, 129, 193, 2, 66, 130, 3];

    /// Strings of up to `max_len - 1` aliasing symbols.
    fn aliasing(max_len: usize) -> impl Strategy<Value = Vec<u8>> {
        proptest::collection::vec((0..ALPHABET.len()).prop_map(|i| ALPHABET[i]), 0..max_len)
    }

    proptest! {
        #[test]
        fn banded_matches_full(a in proptest::collection::vec(0u8..8, 0..24),
                               b in proptest::collection::vec(0u8..8, 0..24),
                               k in 0usize..12) {
            let full = edit_distance(&a, &b);
            let banded = edit_distance_banded(&a, &b, k);
            if full <= k {
                prop_assert_eq!(banded, Some(full));
            } else {
                prop_assert_eq!(banded, None);
            }
        }

        /// The three kernels — Myers bit-parallel, banded DP, full DP —
        /// must agree on every (pattern, text, k), including patterns that
        /// straddle the 64-symbol fallback boundary and the inclusive
        /// threshold edge `d == k`.
        #[test]
        fn myers_matches_banded_and_full(a in proptest::collection::vec(0u8..8, 0..80),
                                         b in proptest::collection::vec(0u8..8, 0..80),
                                         k in 0usize..16) {
            let full = edit_distance(&a, &b);
            match MyersMatcher::new(&a) {
                Some(m) => {
                    prop_assert_eq!(m.distance(&b), full);
                    let within = m.distance_within(&b, k);
                    prop_assert_eq!(within, edit_distance_banded(&a, &b, k));
                    if full <= k {
                        prop_assert_eq!(within, Some(full));
                    } else {
                        prop_assert_eq!(within, None);
                    }
                    // Inclusive threshold edge: k == d accepts, k == d-1 rejects.
                    prop_assert_eq!(m.distance_within(&b, full), Some(full));
                    if full > 0 {
                        prop_assert_eq!(m.distance_within(&b, full - 1), None);
                    }
                }
                // > 64 symbols (or empty): callers fall back to the banded DP,
                // which must still agree with the full DP.
                None => {
                    prop_assert!(a.is_empty() || a.len() > MYERS_MAX_PATTERN);
                    let banded = edit_distance_banded(&a, &b, k);
                    if full <= k {
                        prop_assert_eq!(banded, Some(full));
                    } else {
                        prop_assert_eq!(banded, None);
                    }
                }
            }
        }

        /// Pin the fallback boundary itself: identical inputs either side
        /// of 64 symbols take different kernels in a [`PhonemeProbe`] but
        /// produce equal answers, an unbounded cap included.
        #[test]
        fn myers_fallback_boundary(tail in proptest::collection::vec(0u8..8, 0..6),
                                   b in proptest::collection::vec(0u8..8, 56..72),
                                   k in 0usize..16) {
            for base in [MYERS_MAX_PATTERN - 1, MYERS_MAX_PATTERN, MYERS_MAX_PATTERN + 1] {
                let mut a: Vec<u8> = (0..base).map(|i| (i % 8) as u8).collect();
                a.extend_from_slice(&tail);
                let full = edit_distance(&a, &b);
                let mut probe = PhonemeProbe::new(&a);
                let want = (full <= k).then_some(full);
                prop_assert_eq!(probe.distance_within(&b, k), want, "len={}", a.len());
                prop_assert_eq!(probe.within(&b, phone_set(&b), k), full <= k, "len={}", a.len());
                prop_assert_eq!(probe.distance_within(&b, usize::MAX), Some(full));
            }
        }

        /// The phone-set bound never exceeds the edit distance, over any
        /// bytes, including the ≥ 64 and ≥ 128 ones that `phone_set`
        /// folds onto the same bit.
        #[test]
        fn phone_bound_is_a_lower_bound(a in proptest::collection::vec(any::<u8>(), 0..24),
                                        b in proptest::collection::vec(any::<u8>(), 0..24),
                                        x in aliasing(16),
                                        y in aliasing(16)) {
            for (a, b) in [(&a, &b), (&x, &y), (&a, &x)] {
                let bound = distance_lower_bound(a.len(), phone_set(a), b.len(), phone_set(b));
                prop_assert!(bound <= edit_distance(a, b), "a={:?} b={:?} bound={}", a, b, bound);
            }
        }

        /// A [`PhonemeProbe`], the bound in front of the kernel, decides
        /// exactly `edit_distance ≤ k`.
        #[test]
        fn bound_then_kernel_is_within_k(a in aliasing(12), b in aliasing(12)) {
            let full = edit_distance(&a, &b);
            let mut probe = PhonemeProbe::new(&a);
            for k in 0..=4 {
                prop_assert_eq!(probe.within(&b, phone_set(&b), k), full <= k, "a={:?} b={:?} k={}", a, b, k);
            }
        }

        #[test]
        fn triangle_inequality(a in proptest::collection::vec(0u8..6, 0..16),
                               b in proptest::collection::vec(0u8..6, 0..16),
                               c in proptest::collection::vec(0u8..6, 0..16)) {
            let ab = edit_distance(&a, &b);
            let bc = edit_distance(&b, &c);
            let ac = edit_distance(&a, &c);
            prop_assert!(ac <= ab + bc);
        }

        #[test]
        fn symmetry_and_identity(a in proptest::collection::vec(0u8..6, 0..20),
                                 b in proptest::collection::vec(0u8..6, 0..20)) {
            prop_assert_eq!(edit_distance(&a, &b), edit_distance(&b, &a));
            prop_assert_eq!(edit_distance(&a, &a), 0);
            prop_assert!((edit_distance(&a, &b) == 0) == (a == b));
        }

        #[test]
        fn bounded_by_longer_length(a in proptest::collection::vec(0u8..6, 0..20),
                                    b in proptest::collection::vec(0u8..6, 0..20)) {
            let d = edit_distance(&a, &b);
            prop_assert!(d >= a.len().abs_diff(b.len()));
            prop_assert!(d <= a.len().max(b.len()));
        }
    }
}
