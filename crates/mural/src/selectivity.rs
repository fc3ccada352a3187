//! Selectivity estimators for ψ and Ω (§3.4 of the paper).

use mlql_kernel::catalog::ColumnStats;
use mlql_phonetics::distance::within_distance;

/// Fraction of the *non-MCV* remainder assumed to match per unit of edit
/// threshold — the paper's "fraction corresponding to the threshold factor
/// (based on the empirical study of approximate matching presented in
/// \[15\])" used to inflate the MCV-based estimate (§3.4.1).
pub const PSI_TAIL_MATCH_PER_K: f64 = 0.012;

/// ψ scan selectivity (§3.4.1): probe the ten most-frequent values of the
/// phonemic attribute against the query phoneme at the session threshold,
/// then inflate by the threshold factor for the non-frequent remainder.
///
/// The threshold factor is linear in `k`, which undercounts once `k`
/// nears the strings' lengths: an edit distance never exceeds the longer
/// string, so a row no longer than `k` matches a probe no longer than `k`.
/// `remainder` — the phonemes of the histogram bounds — samples the
/// remainder's lengths, and the share of it that short floors the
/// remainder's match rate.
///
/// `mcv_phonemes` pairs each MCV's *phoneme bytes* with its frequency
/// fraction; `query` is the probe's phoneme bytes.
pub fn psi_scan_selectivity(
    mcv_phonemes: &[(Vec<u8>, f64)],
    remainder: &[Vec<u8>],
    query: &[u8],
    k: usize,
) -> f64 {
    let matched_mass: f64 = mcv_phonemes
        .iter()
        .filter(|(ph, _)| within_distance(ph, query, k))
        .map(|(_, f)| f)
        .sum();
    let mcv_mass: f64 = mcv_phonemes.iter().map(|(_, f)| f).sum();
    let short = remainder
        .iter()
        .filter(|ph| ph.len().max(query.len()) <= k)
        .count() as f64
        / remainder.len().max(1) as f64;
    let rate = (PSI_TAIL_MATCH_PER_K * k as f64).max(short).min(1.0);
    (matched_mass + (1.0 - mcv_mass).max(0.0) * rate).clamp(0.0, 1.0)
}

/// ψ scan selectivity fallback when the column has no statistics.
pub fn psi_default_selectivity(k: usize) -> f64 {
    (0.002 * (k as f64 + 1.0)).clamp(0.0, 1.0)
}

/// ψ join selectivity: the exact-match equi-join estimate
/// `1/max(nd_l, nd_r)` inflated by the threshold factor — each extra unit
/// of threshold admits roughly a band of near-misses around each exact
/// match.
pub fn psi_join_selectivity(
    left: Option<&ColumnStats>,
    right: Option<&ColumnStats>,
    k: usize,
) -> f64 {
    let nd = match (left, right) {
        (Some(l), Some(r)) => l.n_distinct.max(r.n_distinct).max(1.0),
        (Some(s), None) | (None, Some(s)) => s.n_distinct.max(1.0),
        (None, None) => 200.0,
    };
    ((1.0 + 2.0 * k as f64) / nd).clamp(0.0, 1.0)
}

/// Ω scan selectivity (§3.4.2): the probability that a category value lies
/// in the transitive closure of the query concept.  With a materialized
/// closure the estimate is exact — `|closure| / N_TH`; otherwise the
/// paper's structural heuristic from the hierarchy's average fan-out `f`
/// and height `h`: an average closure covers about `f^(h/2)` synsets.
pub fn omega_scan_selectivity(
    exact_closure_size: Option<usize>,
    taxonomy_size: usize,
    avg_fanout: f64,
    height: usize,
) -> f64 {
    if taxonomy_size == 0 {
        return 0.0;
    }
    let closure = match exact_closure_size {
        Some(c) => c as f64,
        None => avg_fanout.max(1.0).powf(height as f64 / 2.0),
    };
    // Floor at one synset's worth of selectivity: a zero/unknown closure
    // must never collapse the estimate to exactly 0 rows, which yields
    // `rows=0` plans and degenerate cost ties downstream.
    (closure / taxonomy_size as f64).clamp(1.0 / taxonomy_size as f64, 1.0)
}

/// Ω join selectivity (§3.4.2): probability over random (LHS, RHS) pairs
/// that LHS ∈ TC(RHS) — the average closure fraction.
pub fn omega_join_selectivity(
    avg_closure_size: Option<f64>,
    taxonomy_size: usize,
    avg_fanout: f64,
    height: usize,
) -> f64 {
    if taxonomy_size == 0 {
        return 0.0;
    }
    let closure = avg_closure_size.unwrap_or_else(|| avg_fanout.max(1.0).powf(height as f64 / 2.0));
    // Same floor as the scan estimator: never exactly zero on a
    // non-empty taxonomy.
    (closure / taxonomy_size as f64).clamp(1.0 / taxonomy_size as f64, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn psi_mcv_hit_dominates() {
        // "nehru" is 30% of the column; a threshold-1 probe of "neru"
        // should estimate at least that mass.
        let mcvs = vec![
            (b"nehru".to_vec(), 0.30),
            (b"gandhi".to_vec(), 0.20),
            (b"patel".to_vec(), 0.10),
        ];
        let sel = psi_scan_selectivity(&mcvs, &[], b"neru", 1);
        assert!(sel >= 0.30, "got {sel}");
        assert!(sel < 0.35);
        // At threshold 0 nothing matches; only the tail remains (zero at k=0).
        let sel0 = psi_scan_selectivity(&mcvs, &[], b"neru", 0);
        assert_eq!(sel0, 0.0);
    }

    #[test]
    fn psi_tail_inflation_grows_with_threshold() {
        let mcvs = vec![(b"aaaa".to_vec(), 0.05)];
        let s1 = psi_scan_selectivity(&mcvs, &[], b"zzzz", 1);
        let s3 = psi_scan_selectivity(&mcvs, &[], b"zzzz", 3);
        assert!(s3 > s1);
        assert!(s3 < 0.10, "tail inflation stays modest: {s3}");
    }

    /// Once the threshold covers the probe and a sampled string, the
    /// remainder's rate follows the sample, not the linear factor.
    #[test]
    fn psi_tail_floored_by_short_strings() {
        let sample = vec![b"abc".to_vec(), b"uvwxyzuv".to_vec()];
        let linear = psi_scan_selectivity(&[], &sample, b"zzz", 2);
        assert!((linear - 0.024).abs() < 1e-9, "{linear}");
        let floored = psi_scan_selectivity(&[], &sample, b"zzz", 3);
        assert!(
            (floored - 0.5).abs() < 1e-9,
            "half the sample is short: {floored}"
        );
    }

    #[test]
    fn psi_selectivity_clamped() {
        let mcvs = vec![(b"x".to_vec(), 0.9), (b"y".to_vec(), 0.3)]; // corrupt mass > 1
        let sel = psi_scan_selectivity(&mcvs, &[], b"x", 0);
        assert!((0.0..=1.0).contains(&sel));
    }

    #[test]
    fn omega_exact_beats_heuristic() {
        let exact = omega_scan_selectivity(Some(500), 100_000, 3.5, 16);
        assert!((exact - 0.005).abs() < 1e-9);
        let heur = omega_scan_selectivity(None, 100_000, 3.5, 16);
        assert!(heur > 0.0 && heur < 1.0);
    }

    #[test]
    fn omega_join_uses_average_closure() {
        let s = omega_join_selectivity(Some(1000.0), 100_000, 3.5, 16);
        assert!((s - 0.01).abs() < 1e-9);
        assert_eq!(omega_join_selectivity(None, 0, 3.5, 16), 0.0);
    }

    #[test]
    fn omega_selectivity_floors_at_one_synset() {
        // A (corrupt or unknown) zero-size closure must not produce a
        // zero estimate on a non-empty taxonomy.
        let floor = 1.0 / 1000.0;
        assert_eq!(omega_scan_selectivity(Some(0), 1000, 3.5, 16), floor);
        assert_eq!(omega_join_selectivity(Some(0.0), 1000, 3.5, 16), floor);
        // Degenerate structure stats can't zero it either.
        assert!(omega_scan_selectivity(None, 1000, 0.0, 0) >= floor);
        // The empty taxonomy stays the one legitimate zero.
        assert_eq!(omega_scan_selectivity(None, 0, 3.5, 16), 0.0);
    }

    #[test]
    fn psi_join_grows_with_threshold() {
        let s0 = psi_join_selectivity(None, None, 0);
        let s3 = psi_join_selectivity(None, None, 3);
        assert!(s3 > s0);
    }
}
