//! Cost parameters and formulas.

use crate::catalog::{Catalog, SessionVars};
use crate::expr::Expr;

/// Cost parameters (PostgreSQL defaults).  All costs are in abstract units
/// where reading one sequential page costs 1.0.
#[derive(Debug, Clone, Copy)]
pub struct CostParams {
    /// Sequential page read.
    pub seq_page_cost: f64,
    /// Random page read.
    pub random_page_cost: f64,
    /// Per-tuple CPU processing.
    pub cpu_tuple_cost: f64,
    /// Per-operator/function CPU evaluation.
    pub cpu_operator_cost: f64,
}

impl Default for CostParams {
    fn default() -> Self {
        CostParams {
            seq_page_cost: 1.0,
            random_page_cost: 4.0,
            cpu_tuple_cost: 0.01,
            cpu_operator_cost: 0.0025,
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

    /// Share of `cpu_tuple_cost` that models per-row Volcano pull
    /// dispatch — the part batch execution amortizes across a batch.
    /// The remainder (datum copies, predicate plumbing) is paid per row
    /// regardless of the execution mode.  The planner only applies the
    /// amortized formulas to scans whose filter actually has a
    /// vectorized kernel (an extension operator with a batch hook) —
    /// `Expr::eval_batch` falls back to scalar eval everywhere else, so
    /// there is no saving to model and plain-predicate plan choices
    /// stay exactly as they were.
    pub const DISPATCH_FRACTION: f64 = 0.5;

    /// Effective per-tuple CPU cost when the scan spine emits batches of
    /// `batch_size` rows: the dispatch share collapses to one payment
    /// per batch.  `batch_size == 1` reproduces the row-at-a-time cost
    /// exactly.
    pub fn batch_tuple_cost(&self, batch_size: usize) -> f64 {
        let dispatch = self.cpu_tuple_cost * Self::DISPATCH_FRACTION;
        (self.cpu_tuple_cost - dispatch) + dispatch / (batch_size.max(1) as f64)
    }

    /// Sequential scan emitting `batch_size`-row batches:
    /// `pages · seq_page_cost + rows · batch_tuple_cost` plus per-row
    /// predicate cost.
    pub fn seq_scan(&self, pages: f64, rows: f64, per_row_pred: f64, batch_size: usize) -> f64 {
        pages * self.seq_page_cost + rows * (self.batch_tuple_cost(batch_size) + per_row_pred)
    }

    /// Startup charge of a parallel scan (worker spawn + join), in
    /// cost units.  Roughly a thousand tuples' worth of CPU — enough that
    /// point lookups never go parallel on cost grounds alone.
    pub const PARALLEL_STARTUP_COST: f64 = 10.0;

    /// Fraction of linear speedup a worker actually delivers (thread
    /// start-up, morsel-claim contention, skewed tails).
    pub const PARALLEL_EFFICIENCY: f64 = 0.85;

    /// Morsel-driven parallel scan: the I/O term is unchanged (one buffer
    /// pool), the CPU term divides across `workers` at
    /// [`Self::PARALLEL_EFFICIENCY`], and a flat startup charge covers
    /// spawn + join.  With the ψ predicate's large `per_row_pred`
    /// (Table 3's edit-distance work) the CPU term dominates, which is
    /// exactly when parallelism wins.  The per-tuple term is amortized
    /// like [`Self::seq_scan`]'s (workers filter whole pages per
    /// `eval_batch` call).
    pub fn parallel_seq_scan(
        &self,
        pages: f64,
        rows: f64,
        per_row_pred: f64,
        workers: usize,
        batch_size: usize,
    ) -> f64 {
        let effective = (workers.max(1) as f64) * Self::PARALLEL_EFFICIENCY;
        pages * self.seq_page_cost
            + rows * (self.batch_tuple_cost(batch_size) + per_row_pred) / effective
            + Self::PARALLEL_STARTUP_COST
    }

    /// Index scan: descend + traverse `index_pages` randomly (paying
    /// `traversal_cpu` for the key/distance comparisons along the way —
    /// for an approximate index at a saturating threshold this approaches
    /// the sequential scan's full predicate work, which is the §5.3
    /// "marginal effectiveness" regime), then fetch `matched` heap tuples
    /// (random I/O each) and re-check.
    pub fn index_scan(
        &self,
        index_pages: f64,
        traversal_cpu: f64,
        matched: f64,
        per_row_pred: f64,
    ) -> f64 {
        index_pages * self.random_page_cost
            + traversal_cpu
            + matched * (self.random_page_cost + self.cpu_tuple_cost + per_row_pred)
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
        assert!(p.seq_scan(100.0, 1000.0, 0.0, 1) > p.seq_scan(10.0, 100.0, 0.0, 1));
        assert_eq!(p.seq_scan(1.0, 0.0, 0.0, 1), 1.0);
    }

    #[test]
    fn batch_tuple_cost_amortizes_dispatch() {
        let p = CostParams::default();
        let close = |a: f64, b: f64| (a - b).abs() < 1e-9;
        // batch_size = 1 reproduces the row-at-a-time cost.
        assert!(close(p.batch_tuple_cost(1), p.cpu_tuple_cost));
        assert!(close(p.batch_tuple_cost(0), p.cpu_tuple_cost));
        // Larger batches amortize the dispatch share monotonically,
        // bounded below by the non-dispatch share.
        assert!(p.batch_tuple_cost(64) < p.batch_tuple_cost(1));
        assert!(p.batch_tuple_cost(1024) < p.batch_tuple_cost(64));
        let floor = p.cpu_tuple_cost * (1.0 - CostParams::DISPATCH_FRACTION);
        assert!(p.batch_tuple_cost(4096) > floor);
        assert!(p.seq_scan(100.0, 1000.0, 0.02, 1024) < p.seq_scan(100.0, 1000.0, 0.02, 1));
    }

    #[test]
    fn index_scan_cheaper_than_seq_for_selective_probe() {
        let p = CostParams::default();
        // 1000-page table, 100k rows; index probe touching 3 pages, 10 rows.
        let seq = p.seq_scan(1000.0, 100_000.0, p.cpu_operator_cost, 1);
        let idx = p.index_scan(3.0, 0.1, 10.0, p.cpu_operator_cost);
        assert!(idx < seq / 10.0);
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
