//! Plan enumeration: access-path selection and left-deep join ordering.
//!
//! PostgreSQL-style `enable_*` session flags (`enable_seqscan`,
//! `enable_indexscan`, `enable_hashjoin`) let
//! experiments force plans the way the paper did in
//! §5.2.1; a disabled path is penalized with a huge constant rather than
//! removed, so a plan always exists.

use crate::catalog::{Catalog, SessionVars, TableMeta, TableStats};
use crate::error::{Error, Result};
use crate::expr::{CmpOp, EvalCtx, Expr};
use crate::opt::cost::CostParams;
use crate::opt::selectivity::{column_of, estimate};
use crate::plan::{LogicalPlan, PhysNode, PhysOp};
use crate::schema::Schema;
use crate::storage::BufferPool;
use crate::value::Datum;
use std::sync::Arc;

const DISABLED_COST: f64 = 1.0e10;

/// Penalized-cost flag reader: `enable_* = 0` disables a path.
fn flag(session: &SessionVars, name: &str) -> bool {
    session.get_int(name, 1) != 0
}

/// One base relation of a join tree.
struct Rel {
    meta: Arc<TableMeta>,
    /// Column offset in the *bind-order* concatenated schema.
    offset: usize,
    stats: TableStats,
    /// Estimated live rows.
    rows: f64,
    /// Heap pages.
    pages: f64,
}

impl Rel {
    fn width(&self) -> usize {
        self.meta.schema.len()
    }
}

/// Plan a logical tree into a costed physical tree.
pub fn plan(
    logical: &LogicalPlan,
    catalog: &Catalog,
    pool: &BufferPool,
    session: &SessionVars,
) -> Result<PhysNode> {
    let p = Planner {
        catalog,
        pool,
        session,
        params: CostParams::default(),
        serial: false,
    };
    p.plan_node(logical)
}

/// Plan the victim scan of an UPDATE/DELETE: the access paths `SELECT`
/// would weigh for `FROM table WHERE filter` — Seq Scan against one
/// Index Scan per conjunct × index, residual recheck included — minus
/// the parallel scan, because the statement applies its writes to what
/// the scan returns on its own thread.  `filter` is bound to the table's
/// own columns.
pub fn plan_target_scan(
    table: &str,
    filter: Option<&Expr>,
    catalog: &Catalog,
    pool: &BufferPool,
    session: &SessionVars,
) -> Result<PhysNode> {
    let p = Planner {
        catalog,
        pool,
        session,
        params: CostParams::default(),
        serial: true,
    };
    let rel = p.rel_of(table, 0)?;
    let conjuncts: Vec<Expr> = filter
        .map(|f| {
            split_conjuncts(f)
                .iter()
                .map(|c| p.fold_constants(c))
                .collect()
        })
        .unwrap_or_default();
    let origins: Vec<_> = rel.stats.columns.iter().map(Option::as_ref).collect();
    p.best_scan(&rel, &conjuncts, &origins, 0)
}

struct Planner<'a> {
    catalog: &'a Catalog,
    pool: &'a BufferPool,
    session: &'a SessionVars,
    params: CostParams,
    /// Plan for a single thread: no parallel scan candidates.
    serial: bool,
}

impl Planner<'_> {
    fn plan_node(&self, logical: &LogicalPlan) -> Result<PhysNode> {
        match logical {
            LogicalPlan::Scan { .. } | LogicalPlan::Join { .. } | LogicalPlan::Filter { .. } => {
                // Try the join-tree path (scans/joins/filters only).
                if let Some((rels, conjuncts)) = self.extract_join_tree(logical)? {
                    return self.plan_join_tree(rels, conjuncts);
                }
                // Generic fallback: plan the input, put a filter on top.
                match logical {
                    LogicalPlan::Filter { input, predicate } => {
                        let predicate = &self.fold_constants(predicate);
                        let child = self.plan_node(input)?;
                        let origins = vec![None; child.schema.len()];
                        let sel = estimate(predicate, &origins, self.catalog, self.session);
                        let rows = (child.est_rows * sel).max(0.0);
                        let cost = child.est_cost
                            + child.est_rows
                                * self.params.predicate_cost(
                                    predicate,
                                    self.catalog,
                                    self.session,
                                    16.0,
                                );
                        let schema = child.schema.clone();
                        Ok(PhysNode {
                            op: PhysOp::Filter {
                                input: Box::new(child),
                                predicate: predicate.clone(),
                            },
                            est_rows: rows,
                            est_cost: cost,
                            schema,
                        })
                    }
                    other => Err(Error::Binder(format!("cannot plan {other:?}"))),
                }
            }
            LogicalPlan::Project {
                input,
                exprs,
                schema,
            } => {
                let child = self.plan_node(input)?;
                let cost = child.est_cost
                    + child.est_rows * self.params.cpu_tuple_cost * exprs.len().max(1) as f64;
                let rows = child.est_rows;
                let exprs: Vec<Expr> = exprs.iter().map(|e| self.fold_constants(e)).collect();
                Ok(PhysNode {
                    op: PhysOp::Project {
                        input: Box::new(child),
                        exprs,
                    },
                    est_rows: rows,
                    est_cost: cost,
                    schema: schema.clone(),
                })
            }
            LogicalPlan::Aggregate {
                input,
                group_by,
                aggs,
                schema,
            } => {
                let child = self.plan_node(input)?;
                let rows = if group_by.is_empty() {
                    1.0
                } else {
                    (child.est_rows * 0.1).max(1.0)
                };
                let cost = self
                    .params
                    .aggregate(child.est_cost, child.est_rows, aggs.len());
                Ok(PhysNode {
                    op: PhysOp::Aggregate {
                        input: Box::new(child),
                        group_by: group_by.clone(),
                        aggs: aggs.clone(),
                    },
                    est_rows: rows,
                    est_cost: cost,
                    schema: schema.clone(),
                })
            }
            LogicalPlan::Sort { input, keys } => {
                let child = self.plan_node(input)?;
                let cost = self.params.sort(child.est_cost, child.est_rows);
                let rows = child.est_rows;
                let schema = child.schema.clone();
                Ok(PhysNode {
                    op: PhysOp::Sort {
                        input: Box::new(child),
                        keys: keys.clone(),
                    },
                    est_rows: rows,
                    est_cost: cost,
                    schema,
                })
            }
            LogicalPlan::Limit { input, n } => {
                let child = self.plan_node(input)?;
                let rows = child.est_rows.min(*n as f64);
                let cost = child.est_cost;
                let schema = child.schema.clone();
                Ok(PhysNode {
                    op: PhysOp::Limit {
                        input: Box::new(child),
                        n: *n,
                    },
                    est_rows: rows,
                    est_cost: cost,
                    schema,
                })
            }
            LogicalPlan::Values { rows, schema } => Ok(PhysNode {
                op: PhysOp::Values { rows: rows.clone() },
                est_rows: rows.len() as f64,
                est_cost: rows.len() as f64 * self.params.cpu_tuple_cost,
                schema: schema.clone(),
            }),
        }
    }

    /// Flatten a tree of Scan/Join/Filter into base relations (bind order)
    /// plus WHERE conjuncts over the bind-order concatenated schema.
    /// Returns `None` when the shape contains anything else.
    fn extract_join_tree(&self, plan: &LogicalPlan) -> Result<Option<(Vec<Rel>, Vec<Expr>)>> {
        let mut rels = Vec::new();
        let mut conjuncts = Vec::new();
        if self.walk(plan, 0, &mut rels, &mut conjuncts)?.is_none() {
            return Ok(None);
        }
        Ok(Some((rels, conjuncts)))
    }

    /// The base relation `table` with its statistics, at column `offset`
    /// of the bind-order schema.
    fn rel_of(&self, table: &str, offset: usize) -> Result<Rel> {
        let meta = self.catalog.table(table)?;
        let stats = meta.stats.lock().clone();
        let pages = self.pool.page_count(meta.heap.file_id())? as f64;
        let rows = if stats.rows > 0 {
            stats.rows as f64
        } else {
            // Not analyzed: PostgreSQL-style guess from pages.
            (pages * 70.0).max(1.0)
        };
        Ok(Rel {
            meta,
            offset,
            stats,
            rows,
            pages: pages.max(1.0),
        })
    }

    /// Returns `Some(total_width)` on success.
    fn walk(
        &self,
        plan: &LogicalPlan,
        offset: usize,
        rels: &mut Vec<Rel>,
        conjuncts: &mut Vec<Expr>,
    ) -> Result<Option<usize>> {
        match plan {
            LogicalPlan::Scan { table, .. } => {
                let rel = self.rel_of(table, offset)?;
                let width = rel.width();
                rels.push(rel);
                Ok(Some(width))
            }
            LogicalPlan::Filter { input, predicate } => {
                let width = match self.walk(input, offset, rels, conjuncts)? {
                    Some(w) => w,
                    None => return Ok(None),
                };
                for c in split_conjuncts(predicate) {
                    conjuncts.push(self.fold_constants(&c.shift_columns(offset as isize)));
                }
                Ok(Some(width))
            }
            LogicalPlan::Join {
                left,
                right,
                predicate,
            } => {
                let lw = match self.walk(left, offset, rels, conjuncts)? {
                    Some(w) => w,
                    None => return Ok(None),
                };
                let rw = match self.walk(right, offset + lw, rels, conjuncts)? {
                    Some(w) => w,
                    None => return Ok(None),
                };
                if let Some(p) = predicate {
                    for c in split_conjuncts(p) {
                        conjuncts.push(self.fold_constants(&c.shift_columns(offset as isize)));
                    }
                }
                Ok(Some(lw + rw))
            }
            _ => Ok(None),
        }
    }

    /// Cost-based join ordering + access-path selection.
    fn plan_join_tree(&self, rels: Vec<Rel>, conjuncts: Vec<Expr>) -> Result<PhysNode> {
        // Global column-origin table (bind order) for selectivity.
        let total_width: usize = rels.iter().map(Rel::width).sum();
        let mut origins: Vec<Option<&crate::catalog::ColumnStats>> = vec![None; total_width];
        for rel in &rels {
            for (i, cs) in rel.stats.columns.iter().enumerate() {
                if let Some(cs) = cs {
                    origins[rel.offset + i] = Some(cs);
                }
            }
        }

        if rels.len() == 1 {
            let local: Vec<Expr> = conjuncts
                .iter()
                .map(|c| c.shift_columns(-(rels[0].offset as isize)))
                .collect();
            return self.best_scan(&rels[0], &local, &origins, rels[0].offset);
        }

        // Enumerate left-deep orders (all permutations up to 5 relations;
        // identity + greedy beyond that).  `SET force_join_order = 1` pins
        // the FROM-clause order — how the Figure 7 experiment forces the
        // paper's Plan 1 vs. Plan 2 comparison.
        let n = rels.len();
        let orders: Vec<Vec<usize>> = if self.session.get_int("force_join_order", 0) != 0 || n > 5 {
            vec![(0..n).collect()]
        } else {
            permutations(n)
        };
        let mut best: Option<PhysNode> = None;
        for order in orders {
            let candidate = self.build_order(&rels, &conjuncts, &origins, &order)?;
            if best
                .as_ref()
                .map(|b| candidate.est_cost < b.est_cost)
                .unwrap_or(true)
            {
                best = Some(candidate);
            }
        }
        let plan = best.expect("at least one order");
        // Restore bind-order column layout with a Project when the chosen
        // order differs from bind order (so downstream ColRefs stay valid).
        Ok(plan)
    }

    /// Build the left-deep plan for one relation order, with a final
    /// projection back to bind-order columns.
    fn build_order(
        &self,
        rels: &[Rel],
        conjuncts: &[Expr],
        origins: &[Option<&crate::catalog::ColumnStats>],
        order: &[usize],
    ) -> Result<PhysNode> {
        let mut remaining: Vec<Expr> = conjuncts.to_vec();

        // Local (single-relation) conjuncts feed the scans.
        let mut current: Option<PhysNode> = None;
        // For each bind-order global column index, its position in the
        // current intermediate schema (usize::MAX = not yet present).
        let total_width: usize = rels.iter().map(Rel::width).sum();
        let mut position = vec![usize::MAX; total_width];
        let mut placed_width = 0usize;

        for &ri in order {
            let rel = &rels[ri];
            // Pull out conjuncts local to this relation.
            let (local, rest): (Vec<Expr>, Vec<Expr>) = remaining.into_iter().partition(|c| {
                let cols = c.columns();
                !cols.is_empty()
                    && cols
                        .iter()
                        .all(|&c| c >= rel.offset && c < rel.offset + rel.width())
            });
            remaining = rest;
            let local_rebased: Vec<Expr> = local
                .iter()
                .map(|c| c.shift_columns(-(rel.offset as isize)))
                .collect();
            let scan = self.best_scan(rel, &local_rebased, origins, rel.offset)?;

            match current.take() {
                None => {
                    for i in 0..rel.width() {
                        position[rel.offset + i] = i;
                    }
                    placed_width = rel.width();
                    current = Some(scan);
                }
                Some(left) => {
                    // Register the new relation's columns.
                    for i in 0..rel.width() {
                        position[rel.offset + i] = placed_width + i;
                    }
                    let new_width = placed_width + rel.width();
                    // Conjuncts now fully available join left ⋈ rel.
                    let (applicable, rest): (Vec<Expr>, Vec<Expr>) = remaining
                        .into_iter()
                        .partition(|c| c.columns().iter().all(|&c| position[c] != usize::MAX));
                    remaining = rest;
                    let joined = self.best_join(
                        left,
                        scan,
                        rel,
                        &applicable,
                        origins,
                        &position,
                        placed_width,
                    )?;
                    placed_width = new_width;
                    current = Some(joined);
                }
            }
        }
        let mut node = current.expect("non-empty order");
        // Any leftover conjuncts (constants, e.g. WHERE 1 = 2).
        if !remaining.is_empty() {
            let pred = and_all(remaining.iter().map(|c| c.map_columns(&|i| position[i])));
            let origins_now = vec![None; node.schema.len()];
            let sel = estimate(&pred, &origins_now, self.catalog, self.session);
            let rows = node.est_rows * sel;
            let cost = node.est_cost;
            let schema = node.schema.clone();
            node = PhysNode {
                op: PhysOp::Filter {
                    input: Box::new(node),
                    predicate: pred,
                },
                est_rows: rows,
                est_cost: cost,
                schema,
            };
        }
        // Project back to bind order when scrambled.
        let identity = (0..total_width).all(|i| position[i] == i);
        if !identity {
            let mut exprs = Vec::with_capacity(total_width);
            let mut cols = Vec::with_capacity(total_width);
            for rel in rels {
                for (i, col) in rel.meta.schema.columns().iter().enumerate() {
                    exprs.push(Expr::ColRef {
                        index: position[rel.offset + i],
                        ty: col.ty,
                        name: col.name.clone(),
                    });
                    cols.push(col.clone());
                }
            }
            let rows = node.est_rows;
            let cost = node.est_cost + rows * self.params.cpu_tuple_cost;
            node = PhysNode {
                op: PhysOp::Project {
                    input: Box::new(node),
                    exprs,
                },
                est_rows: rows,
                est_cost: cost,
                schema: Schema::new(cols),
            };
        }
        Ok(node)
    }

    /// Choose the best join algorithm for `left ⋈ right_rel`.
    #[allow(clippy::too_many_arguments)]
    fn best_join(
        &self,
        left: PhysNode,
        right: PhysNode,
        right_rel: &Rel,
        applicable: &[Expr],
        origins: &[Option<&crate::catalog::ColumnStats>],
        position: &[usize],
        left_width: usize,
    ) -> Result<PhysNode> {
        let params = &self.params;
        let sel: f64 = applicable
            .iter()
            .map(|c| estimate(c, origins, self.catalog, self.session))
            .product();
        let out_rows = (left.est_rows * right.est_rows * sel).max(0.0);
        let schema = left.schema.join(&right.schema);

        // Remap conjuncts into the joined schema: left columns keep their
        // positions, the new relation's columns sit at left_width..
        let remap = |c: &Expr| {
            c.map_columns(&|i| {
                if i >= right_rel.offset && i < right_rel.offset + right_rel.width() {
                    left_width + (i - right_rel.offset)
                } else {
                    position[i]
                }
            })
        };
        let remapped: Vec<Expr> = applicable.iter().map(remap).collect();
        let per_pair: f64 = remapped
            .iter()
            .map(|c| {
                params.predicate_cost(c, self.catalog, self.session, avg_pred_width(right_rel))
            })
            .sum();

        // Hash-join candidate: find an equi-conjunct split across sides.
        // Track the equi-conjunct's own selectivity: residual predicates
        // (e.g. an expensive ψ) are evaluated on every *equi-match* pair,
        // not on the final output — charging them on the smaller output
        // cardinality would make residual-ψ plans look spuriously cheap.
        let mut hash_keys: Option<(Expr, Expr, Vec<Expr>, f64)> = None;
        for (i, c) in remapped.iter().enumerate() {
            if let Expr::Cmp {
                op: CmpOp::Eq,
                left: l,
                right: r,
            } = c
            {
                // Extension types define equality through their registered
                // comparator (UniText: text component only), which raw
                // Datum hashing cannot honour — hash-joining such keys
                // would silently drop cross-language matches.  Leave those
                // conjuncts to the nested-loops path, which evaluates the
                // comparison through the type's support function.
                let is_ext =
                    |e: &Expr| matches!(e.data_type(), Some(crate::value::DataType::Ext(_)));
                if is_ext(l) || is_ext(r) {
                    continue;
                }
                let (lc, rc) = (l.columns(), r.columns());
                let all_left = |cols: &[usize]| cols.iter().all(|&x| x < left_width);
                let all_right = |cols: &[usize]| cols.iter().all(|&x| x >= left_width);
                let pair = if !lc.is_empty() && !rc.is_empty() && all_left(&lc) && all_right(&rc) {
                    Some(((**l).clone(), r.shift_columns(-(left_width as isize))))
                } else if !lc.is_empty() && !rc.is_empty() && all_right(&lc) && all_left(&rc) {
                    Some(((**r).clone(), l.shift_columns(-(left_width as isize))))
                } else {
                    None
                };
                if let Some((lk, rk)) = pair {
                    let residual: Vec<Expr> = remapped
                        .iter()
                        .enumerate()
                        .filter(|&(j, _)| j != i)
                        .map(|(_, e)| e.clone())
                        .collect();
                    let eq_sel = estimate(&applicable[i], origins, self.catalog, self.session);
                    hash_keys = Some((lk, rk, residual, eq_sel));
                    break;
                }
            }
        }

        let mut best: Option<PhysNode> = None;
        let mut consider = |node: PhysNode| {
            if best
                .as_ref()
                .map(|b| node.est_cost < b.est_cost)
                .unwrap_or(true)
            {
                best = Some(node);
            }
        };

        if let Some((lk, rk, residual, eq_sel)) = hash_keys {
            // Residual predicates run once per equi-match pair.
            let eq_pairs = (left.est_rows * right.est_rows * eq_sel).max(out_rows);
            let residual_per_pair: f64 = residual
                .iter()
                .map(|c| {
                    params.predicate_cost(c, self.catalog, self.session, avg_pred_width(right_rel))
                })
                .sum();
            let mut cost = params.hash_join(
                left.est_cost,
                right.est_cost,
                left.est_rows,
                right.est_rows,
                eq_pairs,
                out_rows,
                residual_per_pair,
            );
            if !flag(self.session, "enable_hashjoin") {
                cost += DISABLED_COST;
            }
            consider(PhysNode {
                op: PhysOp::HashJoin {
                    left: Box::new(left.clone()),
                    right: Box::new(right.clone()),
                    left_key: lk,
                    right_key: rk,
                    residual: if residual.is_empty() {
                        None
                    } else {
                        Some(and_all(residual))
                    },
                },
                est_rows: out_rows,
                est_cost: cost,
                schema: schema.clone(),
            });
        }

        // Nested loops: the inner side is materialized once.
        let cost = params.nl_join(
            left.est_cost,
            right.est_cost,
            left.est_rows,
            right.est_rows,
            out_rows,
            per_pair,
        );
        consider(PhysNode {
            op: PhysOp::NlJoin {
                outer: Box::new(left),
                inner: Box::new(right),
                predicate: if remapped.is_empty() {
                    None
                } else {
                    Some(and_all(remapped))
                },
            },
            est_rows: out_rows,
            est_cost: cost,
            schema,
        });

        Ok(best.expect("at least one join strategy"))
    }

    /// First operator-supplied strategy label found in the expression
    /// tree (e.g. SemEQUAL's containment strategy): extension operators
    /// may register a `strategy_label`, a short note EXPLAIN attaches to
    /// the scan node.
    fn expr_strategy_label(&self, e: &Expr) -> Option<&'static str> {
        match e {
            Expr::ExtOp {
                name, left, right, ..
            } => self
                .catalog
                .operator(name)
                .and_then(|op| op.strategy_label)
                .or_else(|| self.expr_strategy_label(left))
                .or_else(|| self.expr_strategy_label(right)),
            Expr::And(l, r) | Expr::Or(l, r) => self
                .expr_strategy_label(l)
                .or_else(|| self.expr_strategy_label(r)),
            Expr::Not(x) | Expr::IsNull(x) => self.expr_strategy_label(x),
            Expr::Cmp { left, right, .. } | Expr::Arith { left, right, .. } => self
                .expr_strategy_label(left)
                .or_else(|| self.expr_strategy_label(right)),
            Expr::Func { args, .. } => args.iter().find_map(|a| self.expr_strategy_label(a)),
            Expr::ColRef { .. } | Expr::Literal(_) => None,
        }
    }

    /// Choose the best access path for one relation under its local
    /// conjuncts (rebased to relation-local column indexes).
    fn best_scan(
        &self,
        rel: &Rel,
        local: &[Expr],
        global_origins: &[Option<&crate::catalog::ColumnStats>],
        offset: usize,
    ) -> Result<PhysNode> {
        let params = &self.params;
        // Selectivity uses the global origins (columns rebased back).
        let sel_of = |c: &Expr| {
            let global = c.shift_columns(offset as isize);
            estimate(&global, global_origins, self.catalog, self.session)
        };
        let total_sel: f64 = local.iter().map(sel_of).product();
        let out_rows = (rel.rows * total_sel).max(0.0);
        let avg_w = avg_pred_width(rel);
        let per_row: f64 = local
            .iter()
            .map(|c| params.predicate_cost(c, self.catalog, self.session, avg_w))
            .sum();

        let mut best: Option<PhysNode> = None;
        let mut consider = |node: PhysNode| {
            if best
                .as_ref()
                .map(|b| node.est_cost < b.est_cost)
                .unwrap_or(true)
            {
                best = Some(node);
            }
        };

        let annotation = local.iter().find_map(|e| self.expr_strategy_label(e));

        // Sequential scan, serial and at the session's worker count: a
        // morsel-driven scan reads the same pages, divides their decode
        // and filter work across its workers, and runs one round of
        // thread spawns per pull.  The spawn term keeps small tables and
        // unfiltered scans serial.
        let parallel =
            Some(crate::exec::effective_workers(self.session)).filter(|&w| w >= 2 && !self.serial);
        for workers in std::iter::once(1).chain(parallel) {
            let mut cost = params.seq_scan(rel.pages, rel.rows, out_rows, per_row, workers);
            if !flag(self.session, "enable_seqscan") {
                cost += DISABLED_COST;
            }
            consider(PhysNode {
                op: PhysOp::SeqScan {
                    table: rel.meta.name.clone(),
                    filter: if local.is_empty() {
                        None
                    } else {
                        Some(and_all(local.to_vec()))
                    },
                    workers,
                    annotation,
                },
                est_rows: out_rows,
                est_cost: cost,
                schema: rel.meta.schema.clone(),
            });
        }

        // Index scans: one candidate per (conjunct, matching index).
        for idx in self.catalog.indexes_of(rel.meta.id) {
            for c in local {
                let candidate = self.index_candidate(c, rel, &idx, sel_of(c), avg_w);
                if let Some((strategy, probe, extra, matched, traversal_cpu)) = candidate {
                    // The indexed conjunct is always re-checked too: a probe
                    // may ignore the operator's modifiers (ψ's `IN (langs)`)
                    // or return approximate entries, and the re-check is
                    // cheap next to the probe and uniformly safe.
                    let residual = local.to_vec();
                    let residual_cost: f64 = residual
                        .iter()
                        .map(|e| params.predicate_cost(e, self.catalog, self.session, avg_w))
                        .sum();
                    let mut cost = params.index_scan(traversal_cpu, matched, residual_cost);
                    if !flag(self.session, "enable_indexscan") {
                        cost += DISABLED_COST;
                    }
                    consider(PhysNode {
                        op: PhysOp::IndexScan {
                            table: rel.meta.name.clone(),
                            index: idx.name.clone(),
                            strategy,
                            probe,
                            extra,
                            residual: Some(and_all(residual)),
                        },
                        est_rows: out_rows,
                        est_cost: cost,
                        schema: rel.meta.schema.clone(),
                    });
                }
            }
        }

        Ok(best.expect("seq scan always considered"))
    }

    /// Can `conjunct` be served by `idx`?  Returns
    /// `(strategy, probe, extra, matched_rows, traversal_cpu)`.
    fn index_candidate(
        &self,
        conjunct: &Expr,
        rel: &Rel,
        idx: &crate::catalog::IndexMeta,
        sel: f64,
        avg_width: f64,
    ) -> Option<(String, Datum, Datum, f64, f64)> {
        let matched = (rel.rows * sel).max(0.0);
        // Asked only once the access method and column match: sizing an
        // index takes its lock, and most (conjunct, index) pairs do not.
        let idx_pages = || idx.instance.read().pages() as f64;
        match conjunct {
            Expr::Cmp { op, left, right } if idx.am == "btree" => {
                // Normalize col-vs-const (flip if needed).
                let (col, other, op) = match (column_of(left), column_of(right)) {
                    (Some(c), None) => (c, right, *op),
                    (None, Some(c)) => (c, left, op.flip()),
                    _ => return None,
                };
                if col != idx.column {
                    return None;
                }
                // A B-Tree over an extension type orders by raw payload
                // bytes, which disagrees with the type's registered
                // comparator (UniText compares text-only); probing it would
                // return different rows than a scan.  Never serve
                // comparisons on extension columns from a raw B-Tree.
                if matches!(
                    rel.meta.schema.column(col).ty,
                    crate::value::DataType::Ext(_)
                ) {
                    return None;
                }
                let probe = self.fold(other)?;
                let strategy = op.btree_strategy()?;
                // Key comparisons: a binary search per level, then one per
                // match.
                let height = (idx_pages().max(2.0)).log2().ceil().max(1.0);
                let traversal_cpu = (height * 7.0 + matched) * self.params.cpu_operator_cost;
                Some((
                    strategy.to_string(),
                    probe,
                    Datum::Null,
                    matched,
                    traversal_cpu,
                ))
            }
            Expr::ExtOp {
                name, left, right, ..
            } => {
                let op = self.catalog.operator(name)?;
                let (am, strategy) = op.index_strategy.as_ref()?;
                if &idx.am != am {
                    return None;
                }
                // Normalize col-vs-const using commutativity (Table 1).
                let (col, other) = match (column_of(left), column_of(right)) {
                    (Some(c), None) => (c, right),
                    (None, Some(c)) if op.kind.commutative => (c, left),
                    _ => return None,
                };
                if col != idx.column {
                    return None;
                }
                let probe = self.fold(other)?;
                let extra = op
                    .index_extra
                    .as_ref()
                    .map(|f| f(self.session))
                    .unwrap_or(Datum::Null);
                // Approximate-index traversal fraction: linear in the
                // threshold (§3.3), falling back to selectivity.  Every
                // visited key pays the operator's comparison (a distance
                // computation — the dominant term for a metric index with
                // weak pruning); the walk around it fits at no cost.
                let frac = op
                    .index_scan_fraction
                    .as_ref()
                    .map(|f| f(self.session))
                    .unwrap_or(sel)
                    .clamp(0.0, 1.0);
                let per_key =
                    (op.per_tuple_cost)(self.session, avg_width) * self.params.cpu_operator_cost;
                let traversal_cpu = rel.rows * frac * per_key;
                Some((strategy.clone(), probe, extra, matched, traversal_cpu))
            }
            _ => None,
        }
    }

    /// Constant-fold an expression at plan time.
    fn fold(&self, e: &Expr) -> Option<Datum> {
        if !e.is_const() {
            return None;
        }
        let ctx = EvalCtx::new(self.catalog, self.session);
        e.eval(&[], &ctx).ok()
    }

    /// Replace every constant subtree with its value.  Without this, a
    /// query constant like `unitext('Nehru','English')` — which runs a
    /// grapheme-to-phoneme conversion — would be re-evaluated per row
    /// inside scan filters and join predicates.
    ///
    /// A function call with constant arguments is folded too, and the
    /// plan cache replays the folded value, so this is correct only
    /// because every registered function is pure (see `FuncDef`).
    fn fold_constants(&self, e: &Expr) -> Expr {
        if let Some(d) = self.fold(e) {
            return Expr::Literal(d);
        }
        let map = |x: &Expr| self.fold_constants(x);
        match e {
            Expr::Cmp { op, left, right } => Expr::Cmp {
                op: *op,
                left: Box::new(map(left)),
                right: Box::new(map(right)),
            },
            Expr::Arith { op, left, right } => Expr::Arith {
                op: *op,
                left: Box::new(map(left)),
                right: Box::new(map(right)),
            },
            Expr::And(l, r) => Expr::And(Box::new(map(l)), Box::new(map(r))),
            Expr::Or(l, r) => Expr::Or(Box::new(map(l)), Box::new(map(r))),
            Expr::Not(x) => Expr::Not(Box::new(map(x))),
            Expr::IsNull(x) => Expr::IsNull(Box::new(map(x))),
            Expr::ExtOp {
                name,
                left,
                right,
                modifiers,
            } => Expr::ExtOp {
                name: name.clone(),
                left: Box::new(map(left)),
                right: Box::new(map(right)),
                modifiers: modifiers.clone(),
            },
            Expr::Func { name, args } => Expr::Func {
                name: name.clone(),
                args: args.iter().map(map).collect(),
            },
            other => other.clone(),
        }
    }
}

/// Average operand width used for extension-operator cost scaling.
fn avg_pred_width(rel: &Rel) -> f64 {
    let widths: Vec<f64> = rel
        .stats
        .columns
        .iter()
        .flatten()
        .map(|c| c.avg_width)
        .filter(|&w| w > 0.0)
        .collect();
    if widths.is_empty() {
        16.0
    } else {
        widths.iter().sum::<f64>() / widths.len() as f64
    }
}

/// Split nested ANDs into conjuncts.
pub fn split_conjuncts(e: &Expr) -> Vec<Expr> {
    let mut out = Vec::new();
    fn walk(e: &Expr, out: &mut Vec<Expr>) {
        match e {
            Expr::And(l, r) => {
                walk(l, out);
                walk(r, out);
            }
            other => out.push(other.clone()),
        }
    }
    walk(e, &mut out);
    out
}

/// AND together a list of conjuncts (must be non-empty).
pub fn and_all(conjuncts: impl IntoIterator<Item = Expr>) -> Expr {
    let mut it = conjuncts.into_iter();
    let first = it.next().expect("non-empty conjunct list");
    it.fold(first, |acc, c| Expr::And(Box::new(acc), Box::new(c)))
}

/// All permutations of `0..n` (n ≤ 5 keeps this tiny).
fn permutations(n: usize) -> Vec<Vec<usize>> {
    fn rec(prefix: &mut Vec<usize>, used: &mut Vec<bool>, out: &mut Vec<Vec<usize>>) {
        let n = used.len();
        if prefix.len() == n {
            out.push(prefix.clone());
            return;
        }
        for i in 0..n {
            if !used[i] {
                used[i] = true;
                prefix.push(i);
                rec(prefix, used, out);
                prefix.pop();
                used[i] = false;
            }
        }
    }
    let mut out = Vec::new();
    rec(&mut Vec::new(), &mut vec![false; n], &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conjunct_splitting() {
        let a = Expr::int(1);
        let b = Expr::int(2);
        let c = Expr::int(3);
        let e = Expr::And(Box::new(Expr::And(Box::new(a), Box::new(b))), Box::new(c));
        assert_eq!(split_conjuncts(&e).len(), 3);
        let back = and_all(split_conjuncts(&e));
        assert_eq!(split_conjuncts(&back).len(), 3);
    }

    #[test]
    fn permutation_counts() {
        assert_eq!(permutations(1).len(), 1);
        assert_eq!(permutations(3).len(), 6);
        assert_eq!(permutations(4).len(), 24);
        // Every permutation is a valid ordering of 0..n.
        for p in permutations(3) {
            let mut sorted = p.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, vec![0, 1, 2]);
        }
    }
}
