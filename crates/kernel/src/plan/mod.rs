//! Logical and physical query plans.

use crate::expr::Expr;
use crate::schema::Schema;
use crate::value::Datum;
use std::fmt::Write as _;

/// Aggregate functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggFunc {
    /// `count(*)`.
    CountStar,
    /// `count(expr)` (non-null count).
    Count,
    /// `sum(expr)`.
    Sum,
    /// `min(expr)`.
    Min,
    /// `max(expr)`.
    Max,
    /// `avg(expr)`.
    Avg,
}

impl AggFunc {
    /// SQL spelling.
    pub fn name(self) -> &'static str {
        match self {
            AggFunc::CountStar => "count(*)",
            AggFunc::Count => "count",
            AggFunc::Sum => "sum",
            AggFunc::Min => "min",
            AggFunc::Max => "max",
            AggFunc::Avg => "avg",
        }
    }
}

/// One aggregate in a SELECT list.
#[derive(Debug, Clone)]
pub struct AggExpr {
    /// The function.
    pub func: AggFunc,
    /// Input expression (`None` for `count(*)`).
    pub input: Option<Expr>,
}

/// Logical plan (binder output, optimizer input).
#[derive(Debug, Clone)]
pub enum LogicalPlan {
    /// Full-table scan producing all columns.
    Scan { table: String, schema: Schema },
    /// σ.
    Filter {
        input: Box<LogicalPlan>,
        predicate: Expr,
    },
    /// π (generalized: arbitrary expressions).
    Project {
        input: Box<LogicalPlan>,
        exprs: Vec<Expr>,
        schema: Schema,
    },
    /// Inner join; predicate over the concatenated schema (left then right).
    Join {
        left: Box<LogicalPlan>,
        right: Box<LogicalPlan>,
        predicate: Option<Expr>,
    },
    /// γ.
    Aggregate {
        input: Box<LogicalPlan>,
        group_by: Vec<Expr>,
        aggs: Vec<AggExpr>,
        schema: Schema,
    },
    /// ORDER BY.
    Sort {
        input: Box<LogicalPlan>,
        keys: Vec<(Expr, bool)>,
    },
    /// LIMIT.
    Limit { input: Box<LogicalPlan>, n: u64 },
    /// Literal rows.
    Values {
        rows: Vec<Vec<Expr>>,
        schema: Schema,
    },
}

impl LogicalPlan {
    /// Output schema.
    pub fn schema(&self) -> Schema {
        match self {
            LogicalPlan::Scan { schema, .. } => schema.clone(),
            LogicalPlan::Filter { input, .. } => input.schema(),
            LogicalPlan::Project { schema, .. } => schema.clone(),
            LogicalPlan::Join { left, right, .. } => left.schema().join(&right.schema()),
            LogicalPlan::Aggregate { schema, .. } => schema.clone(),
            LogicalPlan::Sort { input, .. } => input.schema(),
            LogicalPlan::Limit { input, .. } => input.schema(),
            LogicalPlan::Values { schema, .. } => schema.clone(),
        }
    }
}

/// Physical plan node with cost annotations.
#[derive(Debug, Clone)]
pub struct PhysNode {
    /// The operator.
    pub op: PhysOp,
    /// Estimated output rows.
    pub est_rows: f64,
    /// Estimated total cost (start-to-finish, optimizer units).
    pub est_cost: f64,
    /// Output schema.
    pub schema: Schema,
}

/// Physical operators.
#[derive(Debug, Clone)]
pub enum PhysOp {
    /// Sequential heap scan with optional pushed-down filter.  At
    /// `workers` ≥ 2 it is morsel-driven: that many threads claim
    /// fixed-size page ranges and evaluate `filter` independently, and
    /// their rows come back in no fixed order.  `annotation` carries an
    /// operator-supplied strategy note (e.g. the Ω containment
    /// implementation) surfaced verbatim by EXPLAIN.
    SeqScan {
        table: String,
        filter: Option<Expr>,
        workers: usize,
        annotation: Option<&'static str>,
    },
    /// Index scan: probe `index` with `strategy`, re-check `residual`.
    IndexScan {
        table: String,
        index: String,
        strategy: String,
        probe: Datum,
        extra: Datum,
        residual: Option<Expr>,
    },
    /// σ.
    Filter {
        input: Box<PhysNode>,
        predicate: Expr,
    },
    /// π.
    Project {
        input: Box<PhysNode>,
        exprs: Vec<Expr>,
    },
    /// Nested-loops join; the inner side runs once, materialized.
    NlJoin {
        outer: Box<PhysNode>,
        inner: Box<PhysNode>,
        predicate: Option<Expr>,
    },
    /// Hash join on a single equi-key pair; `residual` re-checked on matches.
    HashJoin {
        left: Box<PhysNode>,
        right: Box<PhysNode>,
        left_key: Expr,
        right_key: Expr,
        residual: Option<Expr>,
    },
    /// γ.
    Aggregate {
        input: Box<PhysNode>,
        group_by: Vec<Expr>,
        aggs: Vec<AggExpr>,
    },
    /// ORDER BY.
    Sort {
        input: Box<PhysNode>,
        keys: Vec<(Expr, bool)>,
    },
    /// LIMIT.
    Limit { input: Box<PhysNode>, n: u64 },
    /// VALUES.
    Values { rows: Vec<Vec<Expr>> },
}

/// Measured runtime actuals for one plan node (`EXPLAIN ANALYZE`).
///
/// Produced by `exec::build_instrumented`; figures are inclusive of the
/// node's children (PostgreSQL `ANALYZE, BUFFERS` convention).
#[derive(Debug, Clone, Copy, Default)]
pub struct NodeActuals {
    /// Rows the node produced.
    pub rows: u64,
    /// Batches the node produced.
    pub batches: u64,
    /// Wall-clock time in the node's subtree.
    pub time: std::time::Duration,
    /// Buffer-pool page requests in the subtree.
    pub pages: u64,
    /// Buffer-pool misses in the subtree.
    pub pages_read: u64,
    /// Index nodes visited in the subtree.
    pub index_node_visits: u64,
    /// Extension-operator evaluations in the subtree.
    pub ext_op_calls: u64,
}

impl PhysNode {
    /// Render an `EXPLAIN` tree.
    pub fn explain(&self) -> String {
        let mut out = String::new();
        self.explain_into(&mut out, 0);
        out
    }

    /// Render an `EXPLAIN ANALYZE` tree: each node line is followed by
    /// its measured actuals — including the per-node q-error of the row
    /// estimate, with a `[MISESTIMATE]` marker when it exceeds
    /// [`QERROR_WARN`](crate::obs::planstore::QERROR_WARN).
    /// `actuals` must be in the same pre-order as `explain` lines (as
    /// produced by `exec::build_instrumented`).
    pub fn explain_with_actuals(&self, actuals: &[NodeActuals]) -> String {
        let mut out = String::new();
        let mut idx = 0;
        self.explain_actuals_into(&mut out, 0, actuals, &mut idx);
        out
    }

    fn explain_actuals_into(
        &self,
        out: &mut String,
        depth: usize,
        actuals: &[NodeActuals],
        idx: &mut usize,
    ) {
        let pad = "  ".repeat(depth);
        let a = actuals.get(*idx).copied().unwrap_or_default();
        *idx += 1;
        let q = crate::obs::planstore::q_error(self.est_rows, a.rows as f64);
        let marker = if q > crate::obs::planstore::QERROR_WARN {
            " [MISESTIMATE]"
        } else {
            ""
        };
        let _ = writeln!(
            out,
            "{pad}{}  (cost={:.2} rows={}) (actual rows={} batches={} time={:.3}ms pages={} q={:.1}){marker}",
            self.op_line(),
            self.est_cost,
            fmt_est_rows(self.est_rows),
            a.rows,
            a.batches,
            a.time.as_secs_f64() * 1e3,
            a.pages,
            q,
        );
        match &self.op {
            PhysOp::Filter { input, .. }
            | PhysOp::Project { input, .. }
            | PhysOp::Aggregate { input, .. }
            | PhysOp::Sort { input, .. }
            | PhysOp::Limit { input, .. } => {
                input.explain_actuals_into(out, depth + 1, actuals, idx)
            }
            PhysOp::NlJoin { outer, inner, .. } => {
                outer.explain_actuals_into(out, depth + 1, actuals, idx);
                inner.explain_actuals_into(out, depth + 1, actuals, idx);
            }
            PhysOp::HashJoin { left, right, .. } => {
                left.explain_actuals_into(out, depth + 1, actuals, idx);
                right.explain_actuals_into(out, depth + 1, actuals, idx);
            }
            PhysOp::SeqScan { .. } | PhysOp::IndexScan { .. } | PhysOp::Values { .. } => {}
        }
    }

    fn explain_into(&self, out: &mut String, depth: usize) {
        let pad = "  ".repeat(depth);
        let line = self.op_line();
        let _ = writeln!(
            out,
            "{pad}{line}  (cost={:.2} rows={})",
            self.est_cost,
            fmt_est_rows(self.est_rows)
        );
        match &self.op {
            PhysOp::Filter { input, .. }
            | PhysOp::Project { input, .. }
            | PhysOp::Aggregate { input, .. }
            | PhysOp::Sort { input, .. }
            | PhysOp::Limit { input, .. } => input.explain_into(out, depth + 1),
            PhysOp::NlJoin { outer, inner, .. } => {
                outer.explain_into(out, depth + 1);
                inner.explain_into(out, depth + 1);
            }
            PhysOp::HashJoin { left, right, .. } => {
                left.explain_into(out, depth + 1);
                right.explain_into(out, depth + 1);
            }
            PhysOp::SeqScan { .. } | PhysOp::IndexScan { .. } | PhysOp::Values { .. } => {}
        }
    }

    /// The node's direct children, in the same order `explain` and
    /// `exec::build_instrumented` visit them (pre-order).
    pub fn children(&self) -> Vec<&PhysNode> {
        match &self.op {
            PhysOp::Filter { input, .. }
            | PhysOp::Project { input, .. }
            | PhysOp::Aggregate { input, .. }
            | PhysOp::Sort { input, .. }
            | PhysOp::Limit { input, .. } => vec![input],
            PhysOp::NlJoin { outer, inner, .. } => vec![outer, inner],
            PhysOp::HashJoin { left, right, .. } => vec![left, right],
            PhysOp::SeqScan { .. } | PhysOp::IndexScan { .. } | PhysOp::Values { .. } => vec![],
        }
    }

    /// Short operator name for span trees and digests — the `EXPLAIN`
    /// line head without predicates or cost annotations.
    pub fn op_name(&self) -> String {
        match &self.op {
            PhysOp::SeqScan { table, workers, .. } => match workers {
                1 => format!("Seq Scan on {table}"),
                _ => format!("Parallel Seq Scan on {table} (workers={workers})"),
            },
            PhysOp::IndexScan { table, index, .. } => {
                format!("Index Scan using {index} on {table}")
            }
            PhysOp::Filter { .. } => "Filter".to_string(),
            PhysOp::Project { .. } => "Project".to_string(),
            PhysOp::NlJoin { .. } => "Nested Loop".to_string(),
            PhysOp::HashJoin { .. } => "Hash Join".to_string(),
            PhysOp::Aggregate { group_by, .. } => {
                if group_by.is_empty() {
                    "Aggregate".to_string()
                } else {
                    "GroupAggregate".to_string()
                }
            }
            PhysOp::Sort { .. } => "Sort".to_string(),
            PhysOp::Limit { .. } => "Limit".to_string(),
            PhysOp::Values { .. } => "Values".to_string(),
        }
    }

    /// Stable FNV-1a digest of the physical plan: operator lines
    /// (including tables, predicates, worker counts) folded in pre-order
    /// with explicit subtree delimiters, so two plans collide only if
    /// they render identically.  Cost/row estimates are excluded — the
    /// digest identifies a plan *shape* across runs and `ANALYZE`s.
    pub fn digest(&self) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64; // FNV offset basis
        self.digest_into(&mut h);
        h
    }

    fn digest_into(&self, h: &mut u64) {
        fnv1a(h, self.op_line().as_bytes());
        fnv1a(h, b"(");
        for c in self.children() {
            c.digest_into(h);
        }
        fnv1a(h, b")");
    }

    /// Every node of the subtree in pre-order (the order `explain`,
    /// `digest` and `exec::build_instrumented` all use).
    pub fn preorder(&self) -> Vec<&PhysNode> {
        let mut v = Vec::new();
        self.preorder_into(&mut v);
        v
    }

    fn preorder_into<'a>(&'a self, out: &mut Vec<&'a PhysNode>) {
        out.push(self);
        for c in self.children() {
            c.preorder_into(out);
        }
    }

    /// The table this node scans, if it is a scan.
    pub fn leaf_scan_table(&self) -> Option<&str> {
        match &self.op {
            PhysOp::SeqScan { table, .. } | PhysOp::IndexScan { table, .. } => Some(table),
            _ => None,
        }
    }

    /// Attribute the *root* estimate of an uninstrumented execution to a
    /// scanned table: descend through operators whose output cardinality
    /// is the scan's post-predicate cardinality (Project/Sort preserve
    /// counts; a Filter's root estimate *is* the per-table selectivity
    /// estimate under test).  Aggregates, limits, joins and VALUES break
    /// the attribution, so plans containing them return `None` — their
    /// scans are only attributed when per-node actuals exist.
    pub fn scan_attribution(&self) -> Option<&str> {
        match &self.op {
            PhysOp::Project { input, .. }
            | PhysOp::Sort { input, .. }
            | PhysOp::Filter { input, .. } => input.scan_attribution(),
            PhysOp::SeqScan { .. } | PhysOp::IndexScan { .. } => self.leaf_scan_table(),
            PhysOp::NlJoin { .. }
            | PhysOp::HashJoin { .. }
            | PhysOp::Aggregate { .. }
            | PhysOp::Limit { .. }
            | PhysOp::Values { .. } => None,
        }
    }

    /// Build a trace span tree mirroring the plan shape from the
    /// pre-order `actuals` produced by `exec::build_instrumented`
    /// (node times are inclusive of children, like the printed tree).
    pub fn span_tree(&self, actuals: &[NodeActuals]) -> crate::obs::Span {
        let mut idx = 0;
        self.span_tree_inner(actuals, &mut idx)
    }

    fn span_tree_inner(&self, actuals: &[NodeActuals], idx: &mut usize) -> crate::obs::Span {
        let a = actuals.get(*idx).copied().unwrap_or_default();
        *idx += 1;
        let children = self
            .children()
            .into_iter()
            .map(|c| c.span_tree_inner(actuals, idx))
            .collect();
        crate::obs::Span::with_children(self.op_name(), a.time, children)
    }

    /// The operator description for one `EXPLAIN` line.
    fn op_line(&self) -> String {
        match &self.op {
            PhysOp::SeqScan {
                table,
                filter,
                workers,
                annotation,
            } => {
                let mut s = match workers {
                    1 => format!("Seq Scan on {table}"),
                    _ => format!("Parallel Seq Scan on {table}  (workers={workers})"),
                };
                if let Some(f) = filter {
                    let _ = write!(s, "  Filter: {f}");
                }
                if let Some(a) = annotation {
                    let _ = write!(s, "  Containment: {a}");
                }
                s
            }
            PhysOp::IndexScan {
                table,
                index,
                strategy,
                residual,
                ..
            } => {
                let mut s = format!("Index Scan using {index} on {table}  Strategy: {strategy}");
                if let Some(r) = residual {
                    let _ = write!(s, "  Recheck: {r}");
                }
                s
            }
            PhysOp::Filter { predicate, .. } => format!("Filter: {predicate}"),
            PhysOp::Project { exprs, .. } => {
                let cols: Vec<String> = exprs.iter().map(|e| e.to_string()).collect();
                format!("Project: {}", cols.join(", "))
            }
            // Every nested loop materializes its inner; plan digests hash
            // the label.
            PhysOp::NlJoin { predicate, .. } => match predicate {
                Some(p) => format!("Nested Loop (materialized inner)  Join Filter: {p}"),
                None => "Nested Loop (materialized inner)".to_string(),
            },
            PhysOp::HashJoin {
                left_key,
                right_key,
                residual,
                ..
            } => {
                let mut s = format!("Hash Join  Cond: ({left_key} = {right_key})");
                if let Some(r) = residual {
                    let _ = write!(s, "  Filter: {r}");
                }
                s
            }
            PhysOp::Aggregate { aggs, group_by, .. } => {
                let names: Vec<&str> = aggs.iter().map(|a| a.func.name()).collect();
                if group_by.is_empty() {
                    format!("Aggregate: {}", names.join(", "))
                } else {
                    format!("GroupAggregate: {}", names.join(", "))
                }
            }
            PhysOp::Sort { keys, .. } => {
                let ks: Vec<String> = keys
                    .iter()
                    .map(|(e, asc)| format!("{e} {}", if *asc { "ASC" } else { "DESC" }))
                    .collect();
                format!("Sort: {}", ks.join(", "))
            }
            PhysOp::Limit { n, .. } => format!("Limit: {n}"),
            PhysOp::Values { rows } => format!("Values: {} rows", rows.len()),
        }
    }
}

/// Render a row estimate for EXPLAIN: whole numbers keep the classic
/// integral form, fractional estimates print one decimal, and sub-one
/// estimates print `<1` instead of truncating to a misleading `rows=0`
/// (selectivity math routinely produces 0.3-row estimates).
fn fmt_est_rows(est: f64) -> String {
    if !est.is_finite() {
        return format!("{est}");
    }
    if est > 0.0 && est < 1.0 {
        "<1".to_string()
    } else if (est - est.round()).abs() < 1e-9 {
        format!("{est:.0}")
    } else {
        format!("{est:.1}")
    }
}

/// Fold `bytes` into the running FNV-1a hash `h`.
fn fnv1a(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h ^= b as u64;
        *h = h.wrapping_mul(0x100_0000_01b3);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Column;
    use crate::value::DataType;

    fn scan_schema() -> Schema {
        Schema::new(vec![Column::new("id", DataType::Int)])
    }

    #[test]
    fn logical_schema_propagation() {
        let scan = LogicalPlan::Scan {
            table: "t".into(),
            schema: scan_schema(),
        };
        let join = LogicalPlan::Join {
            left: Box::new(scan.clone()),
            right: Box::new(scan.clone()),
            predicate: None,
        };
        assert_eq!(join.schema().len(), 2);
        let filter = LogicalPlan::Filter {
            input: Box::new(scan),
            predicate: Expr::Literal(Datum::Bool(true)),
        };
        assert_eq!(filter.schema().len(), 1);
    }

    #[test]
    fn explain_renders_tree() {
        let leaf = PhysNode {
            op: PhysOp::SeqScan {
                table: "book".into(),
                filter: None,
                workers: 1,
                annotation: None,
            },
            est_rows: 100.0,
            est_cost: 12.5,
            schema: scan_schema(),
        };
        let agg = PhysNode {
            op: PhysOp::Aggregate {
                input: Box::new(leaf),
                group_by: vec![],
                aggs: vec![AggExpr {
                    func: AggFunc::CountStar,
                    input: None,
                }],
            },
            est_rows: 1.0,
            est_cost: 13.0,
            schema: Schema::new(vec![Column::new("count", DataType::Int)]),
        };
        let text = agg.explain();
        assert!(text.contains("Aggregate: count(*)"));
        assert!(text.contains("Seq Scan on book"));
        assert!(text.contains("cost=13.00"));
        // Child is indented deeper than parent.
        let lines: Vec<&str> = text.lines().collect();
        assert!(lines[1].starts_with("  "));
    }

    fn seq_scan(table: &str, filter: Option<Expr>) -> PhysNode {
        PhysNode {
            op: PhysOp::SeqScan {
                table: table.into(),
                filter,
                workers: 1,
                annotation: None,
            },
            est_rows: 100.0,
            est_cost: 12.5,
            schema: scan_schema(),
        }
    }

    #[test]
    fn digest_is_stable_and_shape_sensitive() {
        let a = seq_scan("book", None);
        assert_eq!(a.digest(), seq_scan("book", None).digest(), "deterministic");
        assert_ne!(a.digest(), seq_scan("author", None).digest(), "table name");
        assert_ne!(
            a.digest(),
            seq_scan("book", Some(Expr::Literal(Datum::Bool(true)))).digest(),
            "predicate"
        );
        // Estimates do not change the digest.
        let mut b = seq_scan("book", None);
        b.est_rows = 9.0;
        b.est_cost = 1.0;
        assert_eq!(a.digest(), b.digest());
        // A wrapping operator changes it.
        let limited = PhysNode {
            op: PhysOp::Limit {
                input: Box::new(a.clone()),
                n: 5,
            },
            est_rows: 5.0,
            est_cost: 13.0,
            schema: scan_schema(),
        };
        assert_ne!(a.digest(), limited.digest());
    }

    #[test]
    fn span_tree_mirrors_plan_preorder() {
        let join = PhysNode {
            op: PhysOp::NlJoin {
                outer: Box::new(seq_scan("a", None)),
                inner: Box::new(seq_scan("b", None)),
                predicate: None,
            },
            est_rows: 10.0,
            est_cost: 50.0,
            schema: scan_schema().join(&scan_schema()),
        };
        let actuals = [
            NodeActuals {
                rows: 10,
                time: std::time::Duration::from_micros(300),
                ..Default::default()
            },
            NodeActuals {
                time: std::time::Duration::from_micros(100),
                ..Default::default()
            },
            NodeActuals {
                time: std::time::Duration::from_micros(150),
                ..Default::default()
            },
        ];
        let span = join.span_tree(&actuals);
        assert_eq!(span.name, "Nested Loop");
        assert_eq!(span.duration, std::time::Duration::from_micros(300));
        assert_eq!(span.children.len(), 2);
        assert_eq!(span.children[0].name, "Seq Scan on a");
        assert_eq!(
            span.children[1].duration,
            std::time::Duration::from_micros(150)
        );
    }
}
