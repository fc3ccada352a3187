//! Typed expression trees and evaluation.

use crate::catalog::{Catalog, ExtOperator, PrepareBatch, SessionVars};
use crate::error::{Error, Result};
use crate::value::{DataType, Datum, DatumRef};
use std::cmp::Ordering;
use std::fmt;

/// Comparison operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
}

impl CmpOp {
    /// Does `ordering` satisfy the comparison?
    pub fn matches(self, ordering: Ordering) -> bool {
        matches!(
            (self, ordering),
            (CmpOp::Eq, Ordering::Equal)
                | (CmpOp::Ne, Ordering::Less)
                | (CmpOp::Ne, Ordering::Greater)
                | (CmpOp::Lt, Ordering::Less)
                | (CmpOp::Le, Ordering::Less)
                | (CmpOp::Le, Ordering::Equal)
                | (CmpOp::Gt, Ordering::Greater)
                | (CmpOp::Ge, Ordering::Greater)
                | (CmpOp::Ge, Ordering::Equal)
        )
    }

    /// B-Tree strategy name serving this comparison, if any.
    pub fn btree_strategy(self) -> Option<&'static str> {
        match self {
            CmpOp::Eq => Some("eq"),
            CmpOp::Lt => Some("lt"),
            CmpOp::Le => Some("le"),
            CmpOp::Gt => Some("gt"),
            CmpOp::Ge => Some("ge"),
            CmpOp::Ne => None,
        }
    }

    /// Mirror operator for operand swapping (`a < b ≡ b > a`).
    pub fn flip(self) -> CmpOp {
        match self {
            CmpOp::Eq => CmpOp::Eq,
            CmpOp::Ne => CmpOp::Ne,
            CmpOp::Lt => CmpOp::Gt,
            CmpOp::Le => CmpOp::Ge,
            CmpOp::Gt => CmpOp::Lt,
            CmpOp::Ge => CmpOp::Le,
        }
    }

    /// SQL spelling.
    pub fn symbol(self) -> &'static str {
        match self {
            CmpOp::Eq => "=",
            CmpOp::Ne => "<>",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        }
    }
}

/// Arithmetic operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArithOp {
    Add,
    Sub,
    Mul,
    Div,
}

/// An expression over a row.
#[derive(Debug, Clone)]
pub enum Expr {
    /// Column reference (index into the input schema).
    ColRef {
        index: usize,
        ty: DataType,
        name: String,
    },
    /// Literal constant.
    Literal(Datum),
    /// Comparison; extension operands compare through their registered
    /// support function (text-component semantics for UniText, §3.2.1).
    Cmp {
        op: CmpOp,
        left: Box<Expr>,
        right: Box<Expr>,
    },
    /// Arithmetic.
    Arith {
        op: ArithOp,
        left: Box<Expr>,
        right: Box<Expr>,
    },
    /// Boolean AND.
    And(Box<Expr>, Box<Expr>),
    /// Boolean OR.
    Or(Box<Expr>, Box<Expr>),
    /// Boolean NOT.
    Not(Box<Expr>),
    /// NULL test.
    IsNull(Box<Expr>),
    /// Extension operator (`author LEXEQUAL 'Nehru' IN (English, Hindi)`).
    /// `modifiers` carries the IN-list; applied to the LEFT operand through
    /// the operator's registered modifier filter.
    ExtOp {
        name: String,
        left: Box<Expr>,
        right: Box<Expr>,
        modifiers: Vec<String>,
    },
    /// Scalar function call.
    Func { name: String, args: Vec<Expr> },
}

impl Expr {
    /// Literal integer helper.
    pub fn int(v: i64) -> Expr {
        Expr::Literal(Datum::Int(v))
    }

    /// Literal text helper.
    pub fn text(s: &str) -> Expr {
        Expr::Literal(Datum::text(s))
    }

    /// Is this expression a constant (no column references)?
    pub fn is_const(&self) -> bool {
        match self {
            Expr::ColRef { .. } => false,
            Expr::Literal(_) => true,
            Expr::Cmp { left, right, .. }
            | Expr::Arith { left, right, .. }
            | Expr::ExtOp { left, right, .. } => left.is_const() && right.is_const(),
            Expr::And(l, r) | Expr::Or(l, r) => l.is_const() && r.is_const(),
            Expr::Not(e) | Expr::IsNull(e) => e.is_const(),
            Expr::Func { args, .. } => args.iter().all(Expr::is_const),
        }
    }

    /// Column indexes referenced by this expression (sorted, deduplicated).
    pub fn columns(&self) -> Vec<usize> {
        let mut out = Vec::new();
        self.collect_columns(&mut out);
        out.sort_unstable();
        out.dedup();
        out
    }

    fn collect_columns(&self, out: &mut Vec<usize>) {
        match self {
            Expr::ColRef { index, .. } => out.push(*index),
            Expr::Literal(_) => {}
            Expr::Cmp { left, right, .. }
            | Expr::Arith { left, right, .. }
            | Expr::ExtOp { left, right, .. } => {
                left.collect_columns(out);
                right.collect_columns(out);
            }
            Expr::And(l, r) | Expr::Or(l, r) => {
                l.collect_columns(out);
                r.collect_columns(out);
            }
            Expr::Not(e) | Expr::IsNull(e) => e.collect_columns(out),
            Expr::Func { args, .. } => {
                for a in args {
                    a.collect_columns(out);
                }
            }
        }
    }

    /// Shift all column references by `delta` (used when moving predicates
    /// across join inputs).
    pub fn shift_columns(&self, delta: isize) -> Expr {
        self.map_columns(&|i| (i as isize + delta) as usize)
    }

    /// Rewrite every column reference through `f` (join reordering).
    pub fn map_columns(&self, f: &impl Fn(usize) -> usize) -> Expr {
        self.rewrite_columns(&|index, ty, name| Expr::ColRef {
            index: f(index),
            ty,
            name: name.to_string(),
        })
    }

    /// A join predicate bound to one outer row: every column below
    /// `outer.len()` becomes that outer value as a literal, and every other
    /// column shifts down by `outer.len()`.  Evaluating the result over an
    /// inner row equals evaluating `self` over `outer ++ inner` — so a join
    /// can run it over a whole batch of inner rows with [`Expr::eval_batch`].
    pub fn bind_outer(&self, outer: &[Datum]) -> Expr {
        let n = outer.len();
        self.rewrite_columns(&|index, ty, name| match outer.get(index) {
            Some(d) => Expr::Literal(d.clone()),
            None => Expr::ColRef {
                index: index - n,
                ty,
                name: name.to_string(),
            },
        })
    }

    /// [`Expr::bind_outer`] into `slot`.  When `slot` already holds this
    /// predicate bound to another outer row of the same width, only the
    /// literals that came from outer columns are overwritten, so a join
    /// allocates its bound predicate once rather than once per outer row.
    pub fn bind_outer_into(&self, outer: &[Datum], slot: &mut Option<Expr>) {
        match slot {
            Some(bound) => bound.rebind(self, outer),
            None => *slot = Some(self.bind_outer(outer)),
        }
    }

    /// Overwrite the outer-column literals of `self`, a binding of
    /// `template`, with the values of `outer`.
    fn rebind(&mut self, template: &Expr, outer: &[Datum]) {
        match (self, template) {
            (Expr::Literal(d), Expr::ColRef { index, .. }) => *d = outer[*index].clone(),
            (
                Expr::Cmp { left, right, .. },
                Expr::Cmp {
                    left: tl,
                    right: tr,
                    ..
                },
            )
            | (
                Expr::Arith { left, right, .. },
                Expr::Arith {
                    left: tl,
                    right: tr,
                    ..
                },
            )
            | (
                Expr::ExtOp { left, right, .. },
                Expr::ExtOp {
                    left: tl,
                    right: tr,
                    ..
                },
            )
            | (Expr::And(left, right), Expr::And(tl, tr))
            | (Expr::Or(left, right), Expr::Or(tl, tr)) => {
                left.rebind(tl, outer);
                right.rebind(tr, outer);
            }
            (Expr::Not(e), Expr::Not(t)) | (Expr::IsNull(e), Expr::IsNull(t)) => e.rebind(t, outer),
            (Expr::Func { args, .. }, Expr::Func { args: targs, .. }) => {
                for (a, t) in args.iter_mut().zip(targs) {
                    a.rebind(t, outer);
                }
            }
            // Inner columns and literals do not depend on the outer row.
            _ => {}
        }
    }

    /// Replace every column reference with `f(index, type, name)`.
    fn rewrite_columns(&self, f: &impl Fn(usize, DataType, &str) -> Expr) -> Expr {
        let map = |e: &Expr| e.rewrite_columns(f);
        match self {
            Expr::ColRef { index, ty, name } => f(*index, *ty, name),
            Expr::Literal(d) => Expr::Literal(d.clone()),
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
            Expr::Not(e) => Expr::Not(Box::new(map(e))),
            Expr::IsNull(e) => Expr::IsNull(Box::new(map(e))),
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
        }
    }

    /// Result type, when statically known.
    pub fn data_type(&self) -> Option<DataType> {
        match self {
            Expr::ColRef { ty, .. } => Some(*ty),
            Expr::Literal(d) => d.data_type(),
            Expr::Cmp { .. } | Expr::And(..) | Expr::Or(..) | Expr::Not(_) | Expr::IsNull(_) => {
                Some(DataType::Bool)
            }
            Expr::ExtOp { .. } => Some(DataType::Bool),
            Expr::Arith { left, right, .. } => match (left.data_type(), right.data_type()) {
                (Some(DataType::Float), _) | (_, Some(DataType::Float)) => Some(DataType::Float),
                (Some(DataType::Int), Some(DataType::Int)) => Some(DataType::Int),
                _ => None,
            },
            Expr::Func { .. } => None, // binder resolves through the catalog
        }
    }
}

/// Evaluation context: catalog for extension dispatch, session vars for
/// operator thresholds.
pub struct EvalCtx<'a> {
    /// The catalog (type/operator/function lookup).
    pub catalog: &'a Catalog,
    /// Session variables.
    pub session: &'a SessionVars,
    /// Query runtime counters, when evaluating inside an executor.
    /// Extension-operator invocations are counted HERE — the only place
    /// that knows an ExtOp was actually dispatched — so the count
    /// reconciles with the cost model's per-tuple charge regardless of
    /// which plan operator owns the predicate.
    pub stats: Option<&'a crate::exec::ExecStats>,
}

impl<'a> EvalCtx<'a> {
    /// A context without runtime counters (DML paths, constant folding).
    pub fn new(catalog: &'a Catalog, session: &'a SessionVars) -> EvalCtx<'a> {
        EvalCtx {
            catalog,
            session,
            stats: None,
        }
    }
}

impl Expr {
    /// Evaluate against a row.
    pub fn eval(&self, row: &[Datum], ctx: &EvalCtx<'_>) -> Result<Datum> {
        match self {
            Expr::ColRef { index, .. } => row
                .get(*index)
                .cloned()
                .ok_or_else(|| Error::Execution(format!("column {index} out of range"))),
            Expr::Literal(d) => Ok(d.clone()),
            Expr::Cmp { op, left, right } => {
                let l = left.eval(row, ctx)?;
                let r = right.eval(row, ctx)?;
                if l.is_null() || r.is_null() {
                    return Ok(Datum::Null);
                }
                let ordering = match (&l, &r) {
                    (Datum::Ext { ty: t1, bytes: b1 }, Datum::Ext { ty: t2, bytes: b2 })
                        if t1 == t2 =>
                    {
                        match ctx.catalog.type_by_id(*t1) {
                            Some(def) => (def.compare)(b1, b2),
                            None => l.cmp_sql(&r),
                        }
                    }
                    // Mixed ext-vs-text goes through the type's text
                    // comparator (UniText: its text component).
                    (Datum::Ext { ty, bytes }, Datum::Text(s)) => {
                        match ctx
                            .catalog
                            .type_by_id(*ty)
                            .and_then(|d| d.compare_text.clone())
                        {
                            Some(cmp) => cmp(bytes, s),
                            None => {
                                return Err(Error::Execution(format!(
                                    "type ext#{} does not compare with text",
                                    ty.0
                                )))
                            }
                        }
                    }
                    (Datum::Text(s), Datum::Ext { ty, bytes }) => {
                        match ctx
                            .catalog
                            .type_by_id(*ty)
                            .and_then(|d| d.compare_text.clone())
                        {
                            Some(cmp) => cmp(bytes, s).reverse(),
                            None => {
                                return Err(Error::Execution(format!(
                                    "type ext#{} does not compare with text",
                                    ty.0
                                )))
                            }
                        }
                    }
                    _ => l.cmp_sql(&r),
                };
                Ok(Datum::Bool(op.matches(ordering)))
            }
            Expr::Arith { op, left, right } => {
                let l = left.eval(row, ctx)?;
                let r = right.eval(row, ctx)?;
                if l.is_null() || r.is_null() {
                    return Ok(Datum::Null);
                }
                eval_arith(*op, &l, &r)
            }
            Expr::And(l, r) => {
                let lv = l.eval(row, ctx)?;
                if matches!(lv, Datum::Bool(false)) {
                    return Ok(Datum::Bool(false));
                }
                let rv = r.eval(row, ctx)?;
                Ok(match (lv, rv) {
                    (Datum::Bool(true), Datum::Bool(true)) => Datum::Bool(true),
                    (_, Datum::Bool(false)) => Datum::Bool(false),
                    _ => Datum::Null,
                })
            }
            Expr::Or(l, r) => {
                let lv = l.eval(row, ctx)?;
                if matches!(lv, Datum::Bool(true)) {
                    return Ok(Datum::Bool(true));
                }
                let rv = r.eval(row, ctx)?;
                Ok(match (lv, rv) {
                    (Datum::Bool(false), Datum::Bool(false)) => Datum::Bool(false),
                    (_, Datum::Bool(true)) => Datum::Bool(true),
                    _ => Datum::Null,
                })
            }
            Expr::Not(e) => Ok(match e.eval(row, ctx)? {
                Datum::Bool(b) => Datum::Bool(!b),
                Datum::Null => Datum::Null,
                other => {
                    return Err(Error::Execution(format!("NOT applied to {other}")));
                }
            }),
            Expr::IsNull(e) => Ok(Datum::Bool(e.eval(row, ctx)?.is_null())),
            Expr::ExtOp {
                name,
                left,
                right,
                modifiers,
            } => {
                let op = ctx
                    .catalog
                    .operator(name)
                    .ok_or_else(|| Error::Execution(format!("unknown operator {name:?}")))?;
                let l = left.eval(row, ctx)?;
                let r = right.eval(row, ctx)?;
                if l.is_null() || r.is_null() {
                    return Ok(Datum::Null);
                }
                if let Some(stats) = ctx.stats {
                    stats.ext_op_calls.add(1);
                }
                crate::obs::metrics().ext_op_calls_total.inc();
                let verdict = (op.eval)(&l, &r, ctx.session)?;
                // Language modifier (`IN English, Hindi`): a conjunct over
                // the LEFT operand, delegated to the operator's filter.
                if !modifiers.is_empty() && verdict.is_true() {
                    if let Some(filter) = &op.modifier_filter {
                        return Ok(Datum::Bool(filter(l.as_ref(), modifiers)));
                    }
                }
                Ok(verdict)
            }
            Expr::Func { name, args } => {
                let f = ctx
                    .catalog
                    .function(name)
                    .ok_or_else(|| Error::Execution(format!("unknown function {name:?}")))?;
                if args.len() != f.arity {
                    return Err(Error::Execution(format!(
                        "{name} expects {} args, got {}",
                        f.arity,
                        args.len()
                    )));
                }
                let mut vals = Vec::with_capacity(args.len());
                for a in args {
                    vals.push(a.eval(row, ctx)?);
                }
                (f.eval)(&vals, ctx.session)
            }
        }
    }

    /// Evaluate against every row of a batch, returning one value per row.
    ///
    /// Result- and counter-identical to calling [`Expr::eval`] on each row
    /// in order: AND/OR keep their short-circuit shape (the right side is
    /// only evaluated for rows the left side did not decide) and the ExtOp
    /// arm charges `ext_op_calls` once per non-null operand pair.  The
    /// payoff is the ExtOp fast path: a `col OP const` predicate whose
    /// operator registers an `eval_batch` hook dispatches once per batch
    /// instead of once per row, so the operator can hoist constant-side
    /// conversion and buffer setup out of the inner loop (ψ converts the
    /// probe's phonemes and compiles its Myers mask once per batch).  A
    /// commutative operator takes the same path for `const OP col` — the
    /// shape a join predicate bound to its outer row
    /// ([`Expr::bind_outer`]) has when the outer column was on the left.
    pub fn eval_batch(&self, rows: &[&[Datum]], ctx: &EvalCtx<'_>) -> Result<Vec<Datum>> {
        match self {
            Expr::ExtOp { .. } => {
                let Some(p) = self.batch_ext_op(ctx)? else {
                    return rows.iter().map(|&row| self.eval(row, ctx)).collect();
                };
                if p.constant.is_null() {
                    return Ok(vec![Datum::Null; rows.len()]);
                }
                // A plain column operand is borrowed from the rows, not
                // cloned; anything else is evaluated per row.
                let owned: Vec<Datum>;
                let vals: Vec<DatumRef<'_>> = match p.column() {
                    // A loop, not a `collect::<Result<_>>()`: collecting
                    // 40-byte `Result`s made `id < c AND ψ` ~15 % slower
                    // (2-vCPU host).
                    Some(index) => {
                        let mut vals = Vec::with_capacity(rows.len());
                        for row in rows {
                            let v = row.get(index).ok_or_else(|| {
                                Error::Execution(format!("column {index} out of range"))
                            })?;
                            vals.push(v.as_ref());
                        }
                        vals
                    }
                    None => {
                        owned = rows
                            .iter()
                            .map(|&row| p.varying.eval(row, ctx))
                            .collect::<Result<_>>()?;
                        owned.iter().map(Datum::as_ref).collect()
                    }
                };
                p.verdicts(&vals, ctx)
            }
            Expr::And(l, r) => {
                let mut out = l.eval_batch(rows, ctx)?;
                and_batch(&mut out, rows, r, ctx)?;
                Ok(out)
            }
            Expr::Or(l, r) => {
                let mut out = l.eval_batch(rows, ctx)?;
                let mut sub_rows = Vec::new();
                let mut sub_idx = Vec::new();
                for (i, lv) in out.iter().enumerate() {
                    if !matches!(lv, Datum::Bool(true)) {
                        sub_rows.push(rows[i]);
                        sub_idx.push(i);
                    }
                }
                let rvs = r.eval_batch(&sub_rows, ctx)?;
                for (&i, rv) in sub_idx.iter().zip(rvs) {
                    out[i] = match (&out[i], rv) {
                        (Datum::Bool(false), Datum::Bool(false)) => Datum::Bool(false),
                        (_, Datum::Bool(true)) => Datum::Bool(true),
                        _ => Datum::Null,
                    };
                }
                Ok(out)
            }
            Expr::Not(e) => {
                let mut vals = e.eval_batch(rows, ctx)?;
                for v in &mut vals {
                    *v = match v {
                        Datum::Bool(b) => Datum::Bool(!*b),
                        Datum::Null => Datum::Null,
                        other => {
                            return Err(Error::Execution(format!("NOT applied to {other}")));
                        }
                    };
                }
                Ok(vals)
            }
            _ => rows.iter().map(|&row| self.eval(row, ctx)).collect(),
        }
    }

    /// `self` prepared for batch dispatch when it is `col OP const` (or
    /// `const OP col` with a commutative OP) and OP has a batch hook:
    /// the fast path of [`Expr::eval_batch`], which a heap scan also runs
    /// on fields of the page image.  `None` for any other expression.
    pub(crate) fn batch_ext_op<'e>(&'e self, ctx: &EvalCtx<'e>) -> Result<Option<BatchExtOp<'e>>> {
        let Expr::ExtOp {
            name,
            left,
            right,
            modifiers,
        } = self
        else {
            return Ok(None);
        };
        if !right.is_const() && !left.is_const() {
            return Ok(None);
        }
        let op = ctx
            .catalog
            .operator(name)
            .ok_or_else(|| Error::Execution(format!("unknown operator {name:?}")))?;
        // `const OP col` runs as `col OP const` when OP commutes.
        let swapped = !right.is_const();
        if op.eval_batch.is_none() || (swapped && !op.kind.commutative) {
            return Ok(None);
        }
        let (varying, constant) = if swapped {
            (right, left)
        } else {
            (left, right)
        };
        Ok(Some(BatchExtOp {
            name,
            op,
            varying,
            constant: constant.eval(&[], ctx)?,
            swapped,
            modifiers,
        }))
    }
}

/// An extension predicate `varying OP constant` ready to run over a batch
/// of operands ([`Expr::batch_ext_op`]).
pub(crate) struct BatchExtOp<'e> {
    name: &'e str,
    /// An operator with a batch hook.
    op: &'e ExtOperator,
    varying: &'e Expr,
    constant: Datum,
    /// The written form was `const OP col`.
    swapped: bool,
    modifiers: &'e [String],
}

impl<'e> BatchExtOp<'e> {
    /// The column the varying operand reads, when it is a plain column.
    pub(crate) fn column(&self) -> Option<usize> {
        match self.varying {
            Expr::ColRef { index, .. } => Some(*index),
            _ => None,
        }
    }

    /// The operator's hook for operands reused across constants
    /// ([`ExtOperator::prepare_batch`]), if it has one.
    pub(crate) fn prepare_hook(&self) -> Option<&'e PrepareBatch> {
        self.op.prepare_batch.as_deref()
    }

    /// One verdict per operand, in order, equal to what [`Expr::eval`]
    /// returns row by row, through the operator's `eval_batch` hook.
    pub(crate) fn verdicts(&self, vals: &[DatumRef<'_>], ctx: &EvalCtx<'_>) -> Result<Vec<Datum>> {
        let hook = self.op.eval_batch.as_ref().expect("batch_ext_op checked");
        self.verdicts_by(vals, ctx, |operands, constant| {
            hook(operands, constant, ctx.session)
        })
    }

    /// [`BatchExtOp::verdicts`], with `eval` judging the non-NULL operands
    /// against the constant: the `eval_batch` hook, or operands a join
    /// prepared once ([`crate::catalog::PreparedOperands`]).  NULL operands
    /// (and a NULL constant) yield NULL without being dispatched or
    /// counted; `ext_op_calls` is charged once per operand `eval` sees;
    /// the `IN (…)` modifier filters the written LEFT operand.
    pub(crate) fn verdicts_by(
        &self,
        vals: &[DatumRef<'_>],
        ctx: &EvalCtx<'_>,
        eval: impl FnOnce(&[DatumRef<'_>], &Datum) -> Result<Vec<Datum>>,
    ) -> Result<Vec<Datum>> {
        if self.constant.is_null() {
            return Ok(vec![Datum::Null; vals.len()]);
        }
        let non_null: Vec<DatumRef<'_>>;
        let operands: &[DatumRef<'_>] = if vals.iter().any(|v| v.is_null()) {
            non_null = vals.iter().copied().filter(|v| !v.is_null()).collect();
            &non_null
        } else {
            vals
        };
        if let Some(stats) = ctx.stats {
            stats.ext_op_calls.add(operands.len() as u64);
        }
        crate::obs::metrics()
            .ext_op_calls_total
            .add(operands.len() as u64);
        let verdicts = eval(operands, &self.constant)?;
        if verdicts.len() != operands.len() {
            return Err(Error::Execution(format!(
                "operator {:?} batch eval returned {} verdicts for {} inputs",
                self.name,
                verdicts.len(),
                operands.len()
            )));
        }
        // The language modifier filters the ORIGINAL left operand: per
        // row, or once when the swap made it the constant.
        let filter = self
            .op
            .modifier_filter
            .as_ref()
            .filter(|_| !self.modifiers.is_empty());
        let const_passes = match filter {
            Some(f) if self.swapped => Some(f(self.constant.as_ref(), self.modifiers)),
            _ => None,
        };
        // Scatter the verdicts back among the NULLs, in row order.
        let mut out = if operands.len() == vals.len() {
            verdicts
        } else {
            let mut verdicts = verdicts.into_iter();
            vals.iter()
                .map(|v| match v {
                    DatumRef::Null => Datum::Null,
                    _ => verdicts.next().expect("one verdict per operand"),
                })
                .collect()
        };
        if let Some(f) = filter {
            for (verdict, &v) in out.iter_mut().zip(vals) {
                if verdict.is_true() {
                    *verdict = Datum::Bool(const_passes.unwrap_or_else(|| f(v, self.modifiers)));
                }
            }
        }
        Ok(out)
    }
}

/// `out[i] := out[i] AND r(rows[i])` in three-valued logic, evaluating
/// `r` (via [`Expr::eval_batch`]) only for rows `out` does not already
/// decide false — the batch form of AND's short circuit.
pub(crate) fn and_batch(
    out: &mut [Datum],
    rows: &[&[Datum]],
    r: &Expr,
    ctx: &EvalCtx<'_>,
) -> Result<()> {
    let mut sub_rows = Vec::new();
    let mut sub_idx = Vec::new();
    for (i, lv) in out.iter().enumerate() {
        if !matches!(lv, Datum::Bool(false)) {
            sub_rows.push(rows[i]);
            sub_idx.push(i);
        }
    }
    let rvs = r.eval_batch(&sub_rows, ctx)?;
    for (&i, rv) in sub_idx.iter().zip(rvs) {
        out[i] = match (&out[i], rv) {
            (Datum::Bool(true), Datum::Bool(true)) => Datum::Bool(true),
            (_, Datum::Bool(false)) => Datum::Bool(false),
            _ => Datum::Null,
        };
    }
    Ok(())
}

fn eval_arith(op: ArithOp, l: &Datum, r: &Datum) -> Result<Datum> {
    use Datum::{Float, Int};
    match (l, r) {
        (Int(a), Int(b)) => Ok(match op {
            ArithOp::Add => Int(a.wrapping_add(*b)),
            ArithOp::Sub => Int(a.wrapping_sub(*b)),
            ArithOp::Mul => Int(a.wrapping_mul(*b)),
            ArithOp::Div => {
                if *b == 0 {
                    return Err(Error::Execution("division by zero".into()));
                }
                Int(a / b)
            }
        }),
        _ => {
            let a = l
                .as_float()
                .ok_or_else(|| Error::Execution(format!("non-numeric {l}")))?;
            let b = r
                .as_float()
                .ok_or_else(|| Error::Execution(format!("non-numeric {r}")))?;
            Ok(match op {
                ArithOp::Add => Float(a + b),
                ArithOp::Sub => Float(a - b),
                ArithOp::Mul => Float(a * b),
                ArithOp::Div => {
                    if b == 0.0 {
                        return Err(Error::Execution("division by zero".into()));
                    }
                    Float(a / b)
                }
            })
        }
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::ColRef { name, .. } => write!(f, "{name}"),
            Expr::Literal(d) => match d {
                Datum::Text(s) => write!(f, "'{s}'"),
                other => write!(f, "{other}"),
            },
            Expr::Cmp { op, left, right } => write!(f, "({left} {} {right})", op.symbol()),
            Expr::Arith { op, left, right } => {
                let sym = match op {
                    ArithOp::Add => "+",
                    ArithOp::Sub => "-",
                    ArithOp::Mul => "*",
                    ArithOp::Div => "/",
                };
                write!(f, "({left} {sym} {right})")
            }
            Expr::And(l, r) => write!(f, "({l} AND {r})"),
            Expr::Or(l, r) => write!(f, "({l} OR {r})"),
            Expr::Not(e) => write!(f, "(NOT {e})"),
            Expr::IsNull(e) => write!(f, "({e} IS NULL)"),
            Expr::ExtOp {
                name,
                left,
                right,
                modifiers,
            } => {
                write!(f, "({left} {} {right}", name.to_uppercase())?;
                if !modifiers.is_empty() {
                    write!(f, " IN ({})", modifiers.join(", "))?;
                }
                write!(f, ")")
            }
            Expr::Func { name, args } => {
                write!(f, "{name}(")?;
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{a}")?;
                }
                write!(f, ")")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::{Catalog, ExtOperator, FuncDef, OperatorKind};
    use std::sync::Arc;

    fn col(i: usize) -> Expr {
        Expr::ColRef {
            index: i,
            ty: DataType::Int,
            name: format!("c{i}"),
        }
    }

    #[test]
    fn comparisons_and_null_propagation() {
        let cat = Catalog::new();
        let sess = SessionVars::new();
        let c = EvalCtx::new(&cat, &sess);
        let row = vec![Datum::Int(5), Datum::Null];
        let e = Expr::Cmp {
            op: CmpOp::Gt,
            left: Box::new(col(0)),
            right: Box::new(Expr::int(3)),
        };
        assert!(e.eval(&row, &c).unwrap().is_true());
        let n = Expr::Cmp {
            op: CmpOp::Eq,
            left: Box::new(col(1)),
            right: Box::new(Expr::int(3)),
        };
        assert!(n.eval(&row, &c).unwrap().is_null());
        let isn = Expr::IsNull(Box::new(col(1)));
        assert!(isn.eval(&row, &c).unwrap().is_true());
    }

    #[test]
    fn three_valued_logic() {
        let cat = Catalog::new();
        let sess = SessionVars::new();
        let c = EvalCtx::new(&cat, &sess);
        let row = vec![Datum::Null];
        let t = Expr::Literal(Datum::Bool(true));
        let fls = Expr::Literal(Datum::Bool(false));
        let null_cmp = Expr::Cmp {
            op: CmpOp::Eq,
            left: Box::new(col(0)),
            right: Box::new(Expr::int(1)),
        };
        // NULL AND false = false ; NULL AND true = NULL ; NULL OR true = true
        let and_false = Expr::And(Box::new(null_cmp.clone()), Box::new(fls));
        assert!(matches!(
            and_false.eval(&row, &c).unwrap(),
            Datum::Bool(false)
        ));
        let and_true = Expr::And(Box::new(null_cmp.clone()), Box::new(t.clone()));
        assert!(and_true.eval(&row, &c).unwrap().is_null());
        let or_true = Expr::Or(Box::new(null_cmp), Box::new(t));
        assert!(or_true.eval(&row, &c).unwrap().is_true());
    }

    #[test]
    fn arithmetic_and_division_by_zero() {
        let cat = Catalog::new();
        let sess = SessionVars::new();
        let c = EvalCtx::new(&cat, &sess);
        let row = vec![];
        let add = Expr::Arith {
            op: ArithOp::Add,
            left: Box::new(Expr::int(2)),
            right: Box::new(Expr::int(3)),
        };
        assert!(add.eval(&row, &c).unwrap().eq_sql(&Datum::Int(5)));
        let div0 = Expr::Arith {
            op: ArithOp::Div,
            left: Box::new(Expr::int(1)),
            right: Box::new(Expr::int(0)),
        };
        assert!(div0.eval(&row, &c).is_err());
        let fmix = Expr::Arith {
            op: ArithOp::Mul,
            left: Box::new(Expr::int(2)),
            right: Box::new(Expr::Literal(Datum::Float(1.5))),
        };
        assert!(fmix.eval(&row, &c).unwrap().eq_sql(&Datum::Float(3.0)));
    }

    #[test]
    fn ext_operator_dispatch_with_threshold() {
        let mut cat = Catalog::new();
        // A toy "within" operator: |l - r| <= session threshold.
        cat.register_operator(ExtOperator {
            name: "near".into(),
            operand_type: DataType::Int,
            eval: Arc::new(|l, r, s| {
                let k = s.get_int("near.threshold", 0);
                Ok(Datum::Bool(
                    (l.as_int().unwrap_or(0) - r.as_int().unwrap_or(0)).abs() <= k,
                ))
            }),
            eval_batch: None,
            prepare_batch: None,
            kind: OperatorKind { commutative: true },
            per_tuple_cost: Arc::new(|_, _| 1.0),
            selectivity: Arc::new(|_| 0.1),
            index_strategy: None,
            index_extra: None,
            modifier_filter: None,
            index_scan_fraction: None,
            strategy_label: None,
        });
        let mut sess = SessionVars::new();
        sess.set("near.threshold", Datum::Int(2));
        let c = EvalCtx::new(&cat, &sess);
        let e = Expr::ExtOp {
            name: "near".into(),
            left: Box::new(Expr::int(10)),
            right: Box::new(Expr::int(12)),
            modifiers: vec![],
        };
        assert!(e.eval(&[], &c).unwrap().is_true());
        let mut sess2 = SessionVars::new();
        sess2.set("near.threshold", Datum::Int(1));
        let c2 = EvalCtx::new(&cat, &sess2);
        assert!(!e.eval(&[], &c2).unwrap().is_true());
    }

    #[test]
    fn modifier_filter_restricts_matches() {
        let mut cat = Catalog::new();
        cat.register_operator(ExtOperator {
            name: "tagged".into(),
            operand_type: DataType::Text,
            eval: Arc::new(|_, _, _| Ok(Datum::Bool(true))),
            eval_batch: None,
            prepare_batch: None,
            kind: OperatorKind { commutative: true },
            per_tuple_cost: Arc::new(|_, _| 1.0),
            selectivity: Arc::new(|_| 1.0),
            index_strategy: None,
            index_extra: None,
            // Left operand "passes" only if its text appears in the list.
            modifier_filter: Some(Arc::new(
                |l, mods| matches!(l, DatumRef::Text(t) if mods.iter().any(|m| m == t)),
            )),
            index_scan_fraction: None,
            strategy_label: None,
        });
        let sess = SessionVars::new();
        let c = EvalCtx::new(&cat, &sess);
        let mk = |val: &str, mods: Vec<String>| Expr::ExtOp {
            name: "tagged".into(),
            left: Box::new(Expr::text(val)),
            right: Box::new(Expr::text("x")),
            modifiers: mods,
        };
        assert!(mk("en", vec!["en".into(), "fr".into()])
            .eval(&[], &c)
            .unwrap()
            .is_true());
        assert!(!mk("ta", vec!["en".into()]).eval(&[], &c).unwrap().is_true());
        assert!(
            mk("ta", vec![]).eval(&[], &c).unwrap().is_true(),
            "no modifiers = no filter"
        );
    }

    #[test]
    fn function_dispatch_and_arity_check() {
        let mut cat = Catalog::new();
        cat.register_function(FuncDef {
            name: "plus1".into(),
            arity: 1,
            ret: Some(DataType::Int),
            eval: Arc::new(|args, _| Ok(Datum::Int(args[0].as_int().unwrap_or(0) + 1))),
        });
        let sess = SessionVars::new();
        let c = EvalCtx::new(&cat, &sess);
        let ok = Expr::Func {
            name: "plus1".into(),
            args: vec![Expr::int(41)],
        };
        assert!(ok.eval(&[], &c).unwrap().eq_sql(&Datum::Int(42)));
        let bad = Expr::Func {
            name: "plus1".into(),
            args: vec![],
        };
        assert!(bad.eval(&[], &c).is_err());
        let missing = Expr::Func {
            name: "nope".into(),
            args: vec![],
        };
        assert!(missing.eval(&[], &c).is_err());
    }

    #[test]
    fn column_collection_and_shift() {
        let e = Expr::And(
            Box::new(Expr::Cmp {
                op: CmpOp::Eq,
                left: Box::new(col(2)),
                right: Box::new(col(0)),
            }),
            Box::new(Expr::Cmp {
                op: CmpOp::Lt,
                left: Box::new(col(2)),
                right: Box::new(Expr::int(9)),
            }),
        );
        assert_eq!(e.columns(), vec![0, 2]);
        let shifted = e.shift_columns(3);
        assert_eq!(shifted.columns(), vec![3, 5]);
        assert!(!e.is_const());
        assert!(Expr::int(1).is_const());
    }

    #[test]
    fn display_is_readable() {
        let e = Expr::ExtOp {
            name: "lexequal".into(),
            left: Box::new(col(0)),
            right: Box::new(Expr::text("Nehru")),
            modifiers: vec!["English".into(), "Hindi".into()],
        };
        assert_eq!(e.to_string(), "(c0 LEXEQUAL 'Nehru' IN (English, Hindi))");
    }

    #[test]
    fn eval_batch_matches_scalar_eval() {
        let mut cat = Catalog::new();
        // Vectorized "within 2" with a deliberately different code path
        // from the scalar closure so divergence would be visible.
        cat.register_operator(ExtOperator {
            name: "near".into(),
            operand_type: DataType::Int,
            eval: Arc::new(|l, r, _| {
                Ok(Datum::Bool(
                    (l.as_int().unwrap_or(0) - r.as_int().unwrap_or(0)).abs() <= 2,
                ))
            }),
            eval_batch: Some(Arc::new(|lefts, r, _| {
                let rv = r.as_int().unwrap_or(0);
                Ok(lefts
                    .iter()
                    .map(|l| Datum::Bool((l.to_datum().as_int().unwrap_or(0) - rv).abs() <= 2))
                    .collect())
            })),
            prepare_batch: None,
            kind: OperatorKind { commutative: true },
            per_tuple_cost: Arc::new(|_, _| 1.0),
            selectivity: Arc::new(|_| 0.1),
            index_strategy: None,
            index_extra: None,
            modifier_filter: None,
            index_scan_fraction: None,
            strategy_label: None,
        });
        let sess = SessionVars::new();
        let c = EvalCtx::new(&cat, &sess);
        // col0 NEAR 10 AND col1 > 0 — exercises the vectorized ExtOp arm,
        // NULL propagation, and the AND short-circuit recombination.
        let e = Expr::And(
            Box::new(Expr::ExtOp {
                name: "near".into(),
                left: Box::new(col(0)),
                right: Box::new(Expr::int(10)),
                modifiers: vec![],
            }),
            Box::new(Expr::Cmp {
                op: CmpOp::Gt,
                left: Box::new(col(1)),
                right: Box::new(Expr::int(0)),
            }),
        );
        let data: Vec<Vec<Datum>> = vec![
            vec![Datum::Int(9), Datum::Int(1)],
            vec![Datum::Int(50), Datum::Int(1)],
            vec![Datum::Null, Datum::Int(1)],
            vec![Datum::Int(11), Datum::Int(-1)],
            vec![Datum::Int(12), Datum::Null],
        ];
        let refs: Vec<&[Datum]> = data.iter().map(Vec::as_slice).collect();
        let batched = e.eval_batch(&refs, &c).unwrap();
        for (row, got) in data.iter().zip(&batched) {
            let want = e.eval(row, &c).unwrap();
            assert_eq!(
                format!("{got:?}"),
                format!("{want:?}"),
                "row {row:?} diverged"
            );
        }
    }

    /// A catalog with `near` (|l - r| ≤ 2, with a batch hook and an
    /// `IN (even)` modifier over its left operand), `near` again as the
    /// non-commutative `near_nc`, and the function `plus1`.
    fn near_catalog() -> Catalog {
        let mut cat = Catalog::new();
        for (name, commutative) in [("near", true), ("near_nc", false)] {
            cat.register_operator(ExtOperator {
                name: name.into(),
                operand_type: DataType::Int,
                eval: Arc::new(|l, r, _| {
                    Ok(Datum::Bool(
                        (l.as_int().unwrap_or(0) - r.as_int().unwrap_or(0)).abs() <= 2,
                    ))
                }),
                eval_batch: Some(Arc::new(|lefts, r, _| {
                    let rv = r.as_int().unwrap_or(0);
                    Ok(lefts
                        .iter()
                        .map(|l| Datum::Bool((l.to_datum().as_int().unwrap_or(0) - rv).abs() <= 2))
                        .collect())
                })),
                prepare_batch: None,
                kind: OperatorKind { commutative },
                per_tuple_cost: Arc::new(|_, _| 1.0),
                selectivity: Arc::new(|_| 0.1),
                index_strategy: None,
                index_extra: None,
                modifier_filter: Some(Arc::new(|l, mods| {
                    mods.iter().any(|m| m == "even") && matches!(l, DatumRef::Int(v) if v % 2 == 0)
                })),
                index_scan_fraction: None,
                strategy_label: None,
            });
        }
        cat.register_function(FuncDef {
            name: "plus1".into(),
            arity: 1,
            ret: Some(DataType::Int),
            eval: Arc::new(|args, _| {
                Ok(match args[0].as_int() {
                    Some(v) => Datum::Int(v + 1),
                    None => Datum::Null,
                })
            }),
        });
        cat
    }

    fn random_datum(rng: &mut rand::rngs::StdRng) -> Datum {
        use rand::Rng;
        if rng.gen_bool(0.15) {
            Datum::Null
        } else {
            Datum::Int(rng.gen_range(-3..4))
        }
    }

    /// A random expression of at most `depth` levels over `width` columns,
    /// reaching every variant `bind_outer` rewrites.
    fn random_expr(rng: &mut rand::rngs::StdRng, width: usize, depth: u32) -> Expr {
        use rand::Rng;
        if depth == 0 || rng.gen_bool(0.25) {
            return if rng.gen_bool(0.7) {
                col(rng.gen_range(0..width))
            } else {
                Expr::Literal(random_datum(rng))
            };
        }
        let mut sub = || Box::new(random_expr(rng, width, depth - 1));
        let (l, r) = (sub(), sub());
        match rng.gen_range(0..8) {
            0 => Expr::Cmp {
                op: [CmpOp::Eq, CmpOp::Ne, CmpOp::Lt, CmpOp::Ge][rng.gen_range(0..4)],
                left: l,
                right: r,
            },
            1 => Expr::Arith {
                op: [ArithOp::Add, ArithOp::Sub, ArithOp::Mul, ArithOp::Div][rng.gen_range(0..4)],
                left: l,
                right: r,
            },
            2 => Expr::And(l, r),
            3 => Expr::Or(l, r),
            4 => Expr::Not(l),
            5 => Expr::IsNull(l),
            6 => Expr::ExtOp {
                name: ["near", "near_nc"][rng.gen_range(0..2)].into(),
                left: l,
                right: r,
                modifiers: if rng.gen_bool(0.5) {
                    vec!["even".into()]
                } else {
                    vec![]
                },
            },
            _ => Expr::Func {
                name: "plus1".into(),
                args: vec![*l],
            },
        }
    }

    #[test]
    fn bind_outer_equals_eval_over_the_concatenated_row() {
        use rand::{Rng, SeedableRng};
        let cat = near_catalog();
        let sess = SessionVars::new();
        let c = EvalCtx::new(&cat, &sess);
        for seed in 0..500 {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let (n_outer, n_inner) = (rng.gen_range(0..3), rng.gen_range(1..3));
            let e = random_expr(&mut rng, n_outer + n_inner, 3);
            let row: Vec<Datum> = (0..n_outer + n_inner)
                .map(|_| random_datum(&mut rng))
                .collect();
            let (outer, inner) = row.split_at(n_outer);
            let bound = e.bind_outer(outer);
            assert!(bound.columns().iter().all(|&i| i < n_inner), "seed {seed}");
            // Errors (division by zero, NOT of an integer) must agree too.
            let show = |r: Result<Datum>| format!("{:?}", r.map_err(|e| e.to_string()));
            assert_eq!(
                show(bound.eval(inner, &c)),
                show(e.eval(&row, &c)),
                "seed {seed}: {e} bound to {outer:?} over {inner:?}"
            );
            // Re-binding in place to another outer row equals a fresh bind.
            let other: Vec<Datum> = (0..n_outer).map(|_| random_datum(&mut rng)).collect();
            let mut slot = Some(bound);
            e.bind_outer_into(&other, &mut slot);
            let row: Vec<Datum> = other.iter().chain(inner).cloned().collect();
            assert_eq!(
                show(slot.expect("bound above").eval(inner, &c)),
                show(e.eval(&row, &c)),
                "seed {seed}: {e} re-bound to {other:?} over {inner:?}"
            );
        }
    }

    #[test]
    fn eval_batch_swaps_a_commutative_constant_left_operand() {
        let cat = near_catalog();
        let sess = SessionVars::new();
        let data: Vec<Vec<Datum>> = [Some(9), Some(10), None, Some(12), Some(13), Some(50)]
            .into_iter()
            .map(|v| vec![v.map_or(Datum::Null, Datum::Int)])
            .collect();
        let refs: Vec<&[Datum]> = data.iter().map(Vec::as_slice).collect();
        let plus1 = Expr::Func {
            name: "plus1".into(),
            args: vec![col(0)],
        };
        for name in ["near", "near_nc"] {
            for constant in [Datum::Int(10), Datum::Int(11), Datum::Null] {
                for modifiers in [vec![], vec!["even".to_string()]] {
                    // A plain column (borrowed) and a computed operand.
                    for varying in [col(0), plus1.clone()] {
                        let e = Expr::ExtOp {
                            name: name.into(),
                            left: Box::new(Expr::Literal(constant.clone())),
                            right: Box::new(varying),
                            modifiers: modifiers.clone(),
                        };
                        let (batch_stats, row_stats) = (
                            crate::exec::ExecStats::default(),
                            crate::exec::ExecStats::default(),
                        );
                        let batch_ctx = EvalCtx {
                            stats: Some(&batch_stats),
                            ..EvalCtx::new(&cat, &sess)
                        };
                        let row_ctx = EvalCtx {
                            stats: Some(&row_stats),
                            ..EvalCtx::new(&cat, &sess)
                        };
                        let batched = e.eval_batch(&refs, &batch_ctx).unwrap();
                        let scalar: Vec<Datum> =
                            data.iter().map(|r| e.eval(r, &row_ctx).unwrap()).collect();
                        assert_eq!(format!("{batched:?}"), format!("{scalar:?}"), "{e}");
                        assert_eq!(
                            batch_stats.ext_op_calls.get(),
                            row_stats.ext_op_calls.get(),
                            "{e}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn cmp_flip_is_involutive_mirror() {
        for op in [
            CmpOp::Eq,
            CmpOp::Ne,
            CmpOp::Lt,
            CmpOp::Le,
            CmpOp::Gt,
            CmpOp::Ge,
        ] {
            assert_eq!(op.flip().flip(), op);
        }
        assert!(CmpOp::Lt.flip().matches(Ordering::Greater));
    }
}
