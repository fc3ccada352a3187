//! Operator cost models — the paper's Table 3, as executable formulas.
//!
//! Each function returns an [`OpCost`] splitting the estimate into CPU
//! operations (units of one elementary comparison) and page I/O, matching
//! Table 3's "Complexity / Disk I/O" columns.  The engine's optimizer hooks
//! consume the per-tuple CPU terms; the `table3_cost_scaling` bench checks
//! the *shapes* empirically.
//!
//! Notation (Table 2): `n` records, `l` average record (phoneme) length,
//! `p` heap pages, `p_idx` index pages, `k` threshold, `f`/`h` taxonomy
//! fan-out and height, `n_t`/`p_t` taxonomy records/pages.

/// A cost estimate split into CPU and I/O.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpCost {
    /// Elementary CPU operations (character comparisons, hash probes...).
    pub cpu: f64,
    /// Page reads.
    pub pages: f64,
}

impl OpCost {
    /// Combine with another estimate.
    pub fn plus(self, other: OpCost) -> OpCost {
        OpCost {
            cpu: self.cpu + other.cpu,
            pages: self.pages + other.pages,
        }
    }
}

/// Fraction of an approximate (metric) index traversed at threshold `k` —
/// "the fraction of the database scanned was approximated by a linear
/// function on the error threshold" (§3.3).  Slope and intercept are the
/// `calibration` grid's fit of M-tree distance computations per indexed
/// row over thresholds 0–3 (the run `opt::CostParams` cites).
pub fn approx_index_fraction(k: usize) -> f64 {
    (0.229 + 0.244 * k as f64).clamp(0.05, 1.0)
}

// ------------------------------------------------------------------ ψ

/// ψ scan, no index: every record's phoneme string is compared with the
/// banded edit distance — `O(n · k · l)` CPU over `p` sequential pages.
pub fn psi_scan_no_index(n: f64, l: f64, k: usize, p: f64) -> OpCost {
    OpCost {
        cpu: n * (k as f64 + 1.0) * l,
        pages: p,
    }
}

/// ψ scan with an approximate index: a threshold-dependent fraction of the
/// index is traversed, each visited entry paying the banded distance.
pub fn psi_scan_approx_index(n: f64, l: f64, k: usize, p_idx: f64) -> OpCost {
    let frac = approx_index_fraction(k);
    OpCost {
        cpu: n * frac * (k as f64 + 1.0) * l,
        pages: p_idx * frac,
    }
}

/// ψ join, no index: `O(n_l · n_r · k · l)` CPU; the inner relation is
/// materialized once (`p_l + p_r` sequential I/O).
pub fn psi_join_no_index(n_l: f64, n_r: f64, l: f64, k: usize, p_l: f64, p_r: f64) -> OpCost {
    OpCost {
        cpu: n_l * n_r * (k as f64 + 1.0) * l,
        pages: p_l + p_r,
    }
}

/// ψ join probing an approximate index on the RHS for each LHS row.
pub fn psi_join_approx_index(n_l: f64, n_r: f64, l: f64, k: usize, p_l: f64, p_idx: f64) -> OpCost {
    let frac = approx_index_fraction(k);
    OpCost {
        cpu: n_l * n_r * frac * (k as f64 + 1.0) * l,
        pages: p_l + n_l * p_idx * frac,
    }
}

// ------------------------------------------------------------------ Ω

/// Expected closure size from the structural parameters (used when no
/// materialized closure exists).
pub fn expected_closure(f: f64, h: usize) -> f64 {
    f.max(1.0).powf(h as f64 / 2.0)
}

/// Ω scan, no index, pinned taxonomy: one closure computation
/// (`O(f^h)`-bounded, here the expected closure size) plus one hash
/// membership probe per record; taxonomy pages read once.
pub fn omega_scan_pinned(n: f64, f: f64, h: usize, p: f64, p_t: f64) -> OpCost {
    OpCost {
        cpu: expected_closure(f, h) + n,
        pages: p + p_t,
    }
}

/// Ω scan where the closure is expanded through SQL per frontier node
/// (the outside-the-server shape): each closure member costs a statement
/// over the taxonomy table — `closure · p_t` page reads without an index,
/// `closure · log(n_t)` with a B+Tree on the parent attribute.
pub fn omega_scan_sql(n: f64, f: f64, h: usize, p: f64, p_t: f64, btree: bool, n_t: f64) -> OpCost {
    let closure = expected_closure(f, h);
    let per_node_pages = if btree {
        n_t.max(2.0).log2() / 128.0 + 1.0
    } else {
        p_t
    };
    OpCost {
        cpu: closure * n_t.max(2.0).log2() + n,
        pages: p + closure * per_node_pages,
    }
}

/// Ω join with closure memoization: one closure per *distinct* RHS value
/// (`r_distinct`), membership probes for all pairs.
pub fn omega_join_pinned(
    n_l: f64,
    r_distinct: f64,
    f: f64,
    h: usize,
    p_l: f64,
    p_r: f64,
) -> OpCost {
    OpCost {
        cpu: r_distinct * expected_closure(f, h) + n_l * r_distinct,
        pages: p_l + p_r,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn psi_scan_linear_in_n_and_k() {
        let a = psi_scan_no_index(1000.0, 8.0, 1, 10.0);
        let b = psi_scan_no_index(2000.0, 8.0, 1, 20.0);
        assert!((b.cpu / a.cpu - 2.0).abs() < 1e-9);
        let c = psi_scan_no_index(1000.0, 8.0, 3, 10.0);
        assert!(c.cpu > a.cpu);
    }

    #[test]
    fn approx_index_fraction_is_linear_then_saturates() {
        assert!(approx_index_fraction(1) < approx_index_fraction(2));
        assert_eq!(approx_index_fraction(4), 1.0);
        assert_eq!(approx_index_fraction(10), 1.0);
        assert!(approx_index_fraction(0) > 0.0, "never free");
    }

    #[test]
    fn index_scan_cheaper_at_low_threshold_only() {
        let no_idx = psi_scan_no_index(50_000.0, 8.0, 1, 500.0);
        let idx = psi_scan_approx_index(50_000.0, 8.0, 1, 600.0);
        assert!(idx.cpu < no_idx.cpu);
        // At threshold 4+ the fraction saturates: the index degenerates to
        // a full scan (the paper's "marginal improvement" at k=3).
        let idx_hi = psi_scan_approx_index(50_000.0, 8.0, 4, 600.0);
        let no_hi = psi_scan_no_index(50_000.0, 8.0, 4, 500.0);
        assert!(idx_hi.cpu >= no_hi.cpu * 0.99);
    }

    #[test]
    fn psi_join_quadratic() {
        let a = psi_join_no_index(100.0, 100.0, 8.0, 2, 2.0, 2.0);
        let b = psi_join_no_index(200.0, 200.0, 8.0, 2, 4.0, 4.0);
        assert!((b.cpu / a.cpu - 4.0).abs() < 1e-9);
    }

    #[test]
    fn omega_sql_dwarfs_pinned() {
        let pinned = omega_scan_pinned(1000.0, 3.5, 16, 10.0, 100.0);
        let sql_noidx = omega_scan_sql(1000.0, 3.5, 16, 10.0, 100.0, false, 100_000.0);
        let sql_btree = omega_scan_sql(1000.0, 3.5, 16, 10.0, 100.0, true, 100_000.0);
        assert!(sql_noidx.pages > sql_btree.pages);
        assert!(sql_btree.pages > pinned.pages);
    }

    #[test]
    fn omega_join_amortizes_closures() {
        // 10 distinct RHS values cost 10 closures regardless of n_l.
        let a = omega_join_pinned(1000.0, 10.0, 3.5, 16, 5.0, 1.0);
        let b = omega_join_pinned(2000.0, 10.0, 3.5, 16, 10.0, 1.0);
        let closure_part = 10.0 * expected_closure(3.5, 16);
        assert!((a.cpu - closure_part - 10_000.0).abs() < 1e-6);
        assert!((b.cpu - closure_part - 20_000.0).abs() < 1e-6);
    }
}
