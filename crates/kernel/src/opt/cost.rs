//! Cost parameters and formulas.

use crate::catalog::{Catalog, SessionVars};
use crate::exec::MORSEL_PAGES;
use crate::expr::Expr;

/// Cost parameters, in units where reading one sequential page costs 1.0.
///
/// Every constant but that anchor is measured: the `calibration` bench
/// bin times each query class of its grid under every plan the `enable_*`
/// flags and `parallel_workers` can force, fits nanoseconds per unit of
/// work from the plans' `EXPLAIN ANALYZE` counts, and divides by the
/// nanoseconds of reading one page.  Re-run it after changing a kernel
/// and commit what it prints rather than editing a constant by hand.
#[derive(Debug, Clone, Copy)]
pub struct CostParams {
    /// Sequential page read: the unit.
    pub seq_page_cost: f64,
    /// Per row a join, projection or materialization builds.  Grid: pairs
    /// of a nested-loop ψ join.
    pub cpu_tuple_cost: f64,
    /// Per predicate cost unit: one built-in comparison, or one unit of
    /// an extension operator's registered `per_tuple_cost`.  Grid:
    /// operator units of serial ψ, Ω and range scans.
    pub cpu_operator_cost: f64,
    /// Per row a scan decodes and hands on inside the scan, at the default
    /// batch size.  Grid: rows of serial scans.
    pub cpu_decode_cost: f64,
    /// Per heap page a scan decodes, on top of reading it: the share of
    /// decoding that grows with row width (a page holds a page's worth of
    /// row bytes whatever the width).  Grid: pages of serial scans, less
    /// what reading a page of deleted rows costs.
    pub cpu_page_decode_cost: f64,
    /// Per worker per round of a parallel scan: a round spawns and joins
    /// `workers` scoped threads.  Grid: the rounds parallel scans ran,
    /// times their workers.
    pub parallel_spawn_cost: f64,
    /// Per row a parallel scan gathers from its workers onto the query
    /// thread.  Grid: rows out of parallel scans.
    pub parallel_gather_cost: f64,
    /// Per tuple an index scan fetches from the buffer pool by id,
    /// decode included.  Grid: heap fetches of index scans.
    pub heap_fetch_cost: f64,
}

impl Default for CostParams {
    /// Fitted by the `calibration` grid on 2026-10-16 on a 2-vCPU Intel
    /// Xeon host (`nproc` 2): each value is the median, in page units, of
    /// five grid runs, whose page reads took 2.47–4.66 µs (median 3.84).
    /// `benchmarks/baseline/BENCH_calibration.json` records a check run of
    /// the grid under these values: its own fit and the plan regret.
    fn default() -> Self {
        CostParams {
            seq_page_cost: 1.0,
            // 407 ns per nested-loop pair.
            cpu_tuple_cost: 0.106,
            // 1.04 ns per operator unit.
            cpu_operator_cost: 0.000270,
            // 71 ns per row.
            cpu_decode_cost: 0.0184,
            // 24.2 µs per page.
            cpu_page_decode_cost: 6.30,
            // 70 µs per worker per round.
            parallel_spawn_cost: 18.25,
            // 56 ns per row gathered.
            parallel_gather_cost: 0.0147,
            // 703 ns per tuple fetched.
            heap_fetch_cost: 0.183,
        }
    }
}

impl CostParams {
    /// Per-tuple evaluation cost of a predicate, in cost units.  Built-in
    /// comparisons cost one `cpu_operator_cost`; extension operators report
    /// their own multiplier (ψ: the banded edit-distance work `k·l`,
    /// Table 3), scaled by the average operand width when known.
    pub fn predicate_cost(
        &self,
        expr: &Expr,
        catalog: &Catalog,
        session: &SessionVars,
        avg_width: f64,
    ) -> f64 {
        match expr {
            Expr::ExtOp {
                name, left, right, ..
            } => {
                let base = catalog
                    .operator(name)
                    .map(|op| (op.per_tuple_cost)(session, avg_width))
                    .unwrap_or(1.0);
                base * self.cpu_operator_cost
                    + self.predicate_cost(left, catalog, session, avg_width)
                    + self.predicate_cost(right, catalog, session, avg_width)
            }
            Expr::And(l, r) | Expr::Or(l, r) => {
                self.predicate_cost(l, catalog, session, avg_width)
                    + self.predicate_cost(r, catalog, session, avg_width)
            }
            Expr::Not(e) | Expr::IsNull(e) => {
                self.cpu_operator_cost + self.predicate_cost(e, catalog, session, avg_width)
            }
            Expr::Cmp { left, right, .. } | Expr::Arith { left, right, .. } => {
                self.cpu_operator_cost
                    + self.predicate_cost(left, catalog, session, avg_width)
                    + self.predicate_cost(right, catalog, session, avg_width)
            }
            Expr::Func { args, .. } => {
                self.cpu_operator_cost
                    + args
                        .iter()
                        .map(|a| self.predicate_cost(a, catalog, session, avg_width))
                        .sum::<f64>()
            }
            Expr::ColRef { .. } | Expr::Literal(_) => 0.0,
        }
    }

    /// Sequential scan: per page its read, and the decode and predicate
    /// work of its rows.
    pub fn seq_scan(&self, pages: f64, rows: f64, per_row_pred: f64) -> f64 {
        pages * self.seq_page_cost + self.scan_work(pages, rows, per_row_pred)
    }

    /// Decode and filter work of a heap scan: what parallel workers split.
    fn scan_work(&self, pages: f64, rows: f64, per_row_pred: f64) -> f64 {
        pages * self.cpu_page_decode_cost + rows * (self.cpu_decode_cost + per_row_pred)
    }

    /// Morsel-driven parallel scan over one buffer pool: the page reads
    /// (copied out under the pool's mutex) cost what they cost serially,
    /// the decode and filter work divides across `workers`, every round
    /// spawns and joins `workers` threads, and every output row is
    /// gathered.  A round runs when a pull finds the buffer empty, claims
    /// morsels until its workers hold `pull_rows` rows, and keeps every
    /// row they found; each worker claims at least one morsel.  So there
    /// is a round per `pull_rows` output rows, but never more than one
    /// per `workers × MORSEL_PAGES` pages.
    /// A selective ψ filter makes the divided term dominate; an
    /// unfiltered scan pays a round per batch and gains little.
    pub fn parallel_seq_scan(
        &self,
        pages: f64,
        rows: f64,
        out_rows: f64,
        per_row_pred: f64,
        workers: usize,
        pull_rows: usize,
    ) -> f64 {
        let workers = workers.max(1) as f64;
        let rounds = (out_rows / pull_rows.max(1) as f64)
            .ceil()
            .min((pages / (workers * MORSEL_PAGES as f64)).ceil())
            .max(1.0);
        pages * self.seq_page_cost
            + self.scan_work(pages, rows, per_row_pred) / workers
            + rounds * workers * self.parallel_spawn_cost
            + out_rows * self.parallel_gather_cost
    }

    /// Index scan: the probe's `traversal_cpu` (key or distance
    /// comparisons — for an approximate index at a saturating threshold
    /// this approaches the sequential scan's full predicate work, which is
    /// the §5.3 "marginal effectiveness" regime), then fetch `matched`
    /// heap tuples and re-check them.
    pub fn index_scan(&self, traversal_cpu: f64, matched: f64, per_row_pred: f64) -> f64 {
        traversal_cpu + matched * (self.heap_fetch_cost + per_row_pred)
    }

    /// Nested-loops join with a materialized inner.
    pub fn nl_join_materialized(
        &self,
        outer_cost: f64,
        inner_cost: f64,
        outer_rows: f64,
        inner_rows: f64,
        per_pair_pred: f64,
    ) -> f64 {
        outer_cost
            + inner_cost
            + inner_rows * self.cpu_tuple_cost // materialization write
            + outer_rows * inner_rows * (self.cpu_tuple_cost + per_pair_pred)
    }

    /// Nested-loops join re-scanning the inner plan per outer row.
    pub fn nl_join_rescan(
        &self,
        outer_cost: f64,
        inner_cost: f64,
        outer_rows: f64,
        inner_rows: f64,
        per_pair_pred: f64,
    ) -> f64 {
        outer_cost
            + outer_rows.max(1.0) * inner_cost
            + outer_rows * inner_rows * (self.cpu_tuple_cost + per_pair_pred)
    }

    /// Hash join (build right, probe left).
    pub fn hash_join(
        &self,
        left_cost: f64,
        right_cost: f64,
        left_rows: f64,
        right_rows: f64,
        out_rows: f64,
        per_pair_pred: f64,
    ) -> f64 {
        left_cost
            + right_cost
            + right_rows * (self.cpu_tuple_cost + self.cpu_operator_cost) // build
            + left_rows * self.cpu_operator_cost // probe hashing
            + out_rows * (self.cpu_tuple_cost + per_pair_pred)
    }

    /// Sort cost: `n log n` comparisons.
    pub fn sort(&self, input_cost: f64, rows: f64) -> f64 {
        let n = rows.max(2.0);
        input_cost + n * n.log2() * self.cpu_operator_cost * 2.0
    }

    /// Aggregate cost.
    pub fn aggregate(&self, input_cost: f64, rows: f64, n_aggs: usize) -> f64 {
        input_cost + rows * self.cpu_operator_cost * (n_aggs.max(1) as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::{Catalog, ExtOperator, OperatorKind};
    use crate::expr::CmpOp;
    use crate::value::{DataType, Datum};
    use std::sync::Arc;

    #[test]
    fn seq_scan_scales_with_pages_and_rows() {
        let p = CostParams::default();
        assert!(p.seq_scan(100.0, 1000.0, 0.0) > p.seq_scan(10.0, 100.0, 0.0));
        assert_eq!(
            p.seq_scan(1.0, 0.0, 0.0),
            p.seq_page_cost + p.cpu_page_decode_cost
        );
    }

    #[test]
    fn index_scan_cheaper_than_seq_for_selective_probe() {
        let p = CostParams::default();
        // 1000-page table, 100k rows; index probe touching 3 pages, 10 rows.
        let seq = p.seq_scan(1000.0, 100_000.0, p.cpu_operator_cost);
        let idx = p.index_scan(0.1, 10.0, p.cpu_operator_cost);
        assert!(idx < seq / 10.0);
    }

    #[test]
    fn parallel_rounds_are_capped_by_morsels() {
        let p = CostParams::default();
        // 80 pages at 2 workers hold 10 rounds of one morsel per worker:
        // a one-row batch cannot run more rounds than that.
        let by_row = p.parallel_seq_scan(80.0, 60_000.0, 60_000.0, 0.0, 2, 1);
        let by_morsel = p.parallel_seq_scan(80.0, 60_000.0, 60_000.0, 0.0, 2, 6_000);
        assert_eq!(by_row, by_morsel);
        // Fewer output rows than a batch: one round.
        let one = p.parallel_seq_scan(80.0, 60_000.0, 10.0, 0.0, 2, 1024);
        let base = p.parallel_seq_scan(80.0, 60_000.0, 0.0, 0.0, 2, 1024);
        assert!((one - base - 10.0 * p.parallel_gather_cost).abs() < 1e-9);
    }

    #[test]
    fn rescan_nl_join_dominates_materialized() {
        let p = CostParams::default();
        let mat = p.nl_join_materialized(100.0, 100.0, 1000.0, 1000.0, 0.01);
        let rescan = p.nl_join_rescan(100.0, 100.0, 1000.0, 1000.0, 0.01);
        assert!(rescan > mat, "rescan {rescan} vs materialized {mat}");
    }

    #[test]
    fn ext_operator_cost_flows_through_predicates() {
        let mut cat = Catalog::new();
        cat.register_operator(ExtOperator {
            name: "pricey".into(),
            operand_type: DataType::Text,
            eval: Arc::new(|_, _, _| Ok(Datum::Bool(true))),
            eval_batch: None,
            kind: OperatorKind {
                commutative: true,
                distributes_over_union: true,
            },
            per_tuple_cost: Arc::new(|_, w| 50.0 * w),
            selectivity: Arc::new(|_| 0.1),
            index_strategy: None,
            index_extra: None,
            modifier_filter: None,
            index_scan_fraction: None,
            strategy_label: None,
        });
        let p = CostParams::default();
        let sess = SessionVars::new();
        let cheap = Expr::Cmp {
            op: CmpOp::Eq,
            left: Box::new(Expr::int(1)),
            right: Box::new(Expr::int(2)),
        };
        let pricey = Expr::ExtOp {
            name: "pricey".into(),
            left: Box::new(Expr::text("a")),
            right: Box::new(Expr::text("b")),
            modifiers: vec![],
        };
        let c_cheap = p.predicate_cost(&cheap, &cat, &sess, 10.0);
        let c_pricey = p.predicate_cost(&pricey, &cat, &sess, 10.0);
        assert!(c_pricey > c_cheap * 100.0, "{c_pricey} vs {c_cheap}");
    }
}
