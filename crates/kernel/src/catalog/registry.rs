//! Extension registries: types, operators, scalar functions, session vars.

use crate::catalog::stats::ColumnStats;
use crate::error::Result;
use crate::value::{DataType, Datum, DatumRef, ExtTypeId};
use std::collections::HashMap;
use std::ops::Range;
use std::sync::Arc;

/// Session-settable variables (`SET name = value`).
///
/// The paper implements ψ as a *binary* operator because PostgreSQL's
/// operator extension facility only supports binary operators, routing the
/// third input — the error threshold — through "a user-settable value in a
/// system table" (§4.2).  We reproduce that mechanism: operator evaluation
/// receives the session variables and reads its threshold from there.
#[derive(Debug, Clone, Default)]
pub struct SessionVars {
    vars: HashMap<String, Datum>,
}

impl SessionVars {
    /// Empty variable set.
    pub fn new() -> Self {
        SessionVars::default()
    }

    /// Set a variable (name is lower-cased).
    pub fn set(&mut self, name: &str, value: Datum) {
        self.vars.insert(name.to_lowercase(), value);
    }

    /// Get a variable.
    pub fn get(&self, name: &str) -> Option<&Datum> {
        self.vars.get(&name.to_lowercase())
    }

    /// Get an integer variable with a default.
    pub fn get_int(&self, name: &str, default: i64) -> i64 {
        self.get(name).and_then(Datum::as_int).unwrap_or(default)
    }

    /// Iterate all (name, value) pairs (for SHOW).
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Datum)> {
        self.vars.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Order-independent digest of all variables.
    ///
    /// Part of the plan-cache key: session variables steer the optimizer
    /// (`enable_*` flags, operator thresholds like `lexequal.threshold`),
    /// so two sessions with different settings must not share cached
    /// plans.  XOR-combining per-entry hashes makes iteration order (and
    /// thus `HashMap` internals) irrelevant.
    pub fn fingerprint(&self) -> u64 {
        use std::hash::{Hash, Hasher};
        let mut acc = 0u64;
        for (k, v) in &self.vars {
            let mut h = std::collections::hash_map::DefaultHasher::new();
            k.hash(&mut h);
            v.hash(&mut h);
            acc ^= h.finish();
        }
        acc
    }
}

/// Support functions of an extension type (PostgreSQL: `CREATE TYPE`).
#[derive(Clone)]
#[allow(clippy::type_complexity)]
pub struct ExtTypeDef {
    /// Type name (lower-cased on registration).
    pub name: String,
    /// Render a value for output.
    pub display: Arc<dyn Fn(&[u8]) -> String + Send + Sync>,
    /// Total order used by sorts and B-Tree indexes.
    pub compare: Arc<dyn Fn(&[u8], &[u8]) -> std::cmp::Ordering + Send + Sync>,
    /// Insertion-time transform (e.g. UniText phoneme materialization,
    /// §4.2 "materialized to avoid repeated conversions").  Applied by the
    /// DML path to every stored value of this type.
    pub on_insert: Option<Arc<dyn Fn(&[u8]) -> Vec<u8> + Send + Sync>>,
    /// Comparison against a plain text value (`unitext_col = 'literal'`);
    /// `None` forbids mixed comparisons (the binder rejects them).
    #[allow(clippy::type_complexity)]
    pub compare_text: Option<Arc<dyn Fn(&[u8], &str) -> std::cmp::Ordering + Send + Sync>>,
    /// The prefix of a stored payload that identifies the value, when
    /// `on_insert` appends fields derived from it that may differ between
    /// two stored copies of one value (UniText's synset ids, stamped with
    /// the vocabulary they were resolved under).  Grouping (GROUP BY,
    /// DISTINCT) and ANALYZE key values on it; `None` keys them on the
    /// whole payload.
    pub identity: Option<Arc<dyn Fn(&[u8]) -> &[u8] + Send + Sync>>,
}

impl std::fmt::Debug for ExtTypeDef {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ExtTypeDef")
            .field("name", &self.name)
            .finish()
    }
}

#[derive(Default)]
pub(crate) struct TypeRegistry {
    defs: Vec<ExtTypeDef>,
    by_name: HashMap<String, ExtTypeId>,
}

impl TypeRegistry {
    pub(crate) fn new() -> Self {
        TypeRegistry::default()
    }

    pub(crate) fn register(&mut self, mut def: ExtTypeDef) -> ExtTypeId {
        def.name = def.name.to_lowercase();
        if let Some(&id) = self.by_name.get(&def.name) {
            self.defs[id.0 as usize] = def;
            return id;
        }
        let id = ExtTypeId(self.defs.len() as u32);
        self.by_name.insert(def.name.clone(), id);
        self.defs.push(def);
        id
    }

    pub(crate) fn by_name(&self, name: &str) -> Option<(ExtTypeId, &ExtTypeDef)> {
        let id = *self.by_name.get(&name.to_lowercase())?;
        Some((id, &self.defs[id.0 as usize]))
    }

    pub(crate) fn by_id(&self, id: ExtTypeId) -> Option<&ExtTypeDef> {
        self.defs.get(id.0 as usize)
    }
}

/// How an operator composes (the paper's Table 1): drives optimizer
/// rewrites such as operand swapping and pushdown through unions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OperatorKind {
    /// `a OP b ≡ b OP a` (ψ commutes; Ω does not).
    pub commutative: bool,
    /// OP distributes over set union (both ψ and Ω do), legitimizing
    /// predicate pushdown below unions and joins.
    pub distributes_over_union: bool,
}

/// Everything the optimizer needs to know about one predicate's selectivity.
pub struct SelectivityInput<'a> {
    /// Statistics of the column on the probe side (if analyzed).
    pub column: Option<&'a ColumnStats>,
    /// The constant being probed (scan-type predicates); `None` for joins.
    pub constant: Option<&'a Datum>,
    /// Statistics of the other join side (join-type predicates).
    pub other_column: Option<&'a ColumnStats>,
    /// Session variables (thresholds).
    pub session: &'a SessionVars,
}

/// Operands an [`ExtOperator::prepare_batch`] hook prepared once, to be
/// matched against many constants.  Owned, so a join keeps it beside the
/// rows it was prepared from.
pub trait PreparedOperands: Send {
    /// `operands[i] OP constant` for each `i` in `range`, in order, where
    /// `operands` are those the hook prepared: result-identical to
    /// `eval_batch(&operands[range], constant, session)`, and moving the
    /// operator's own counters as that call would.
    fn verdicts(
        &self,
        range: Range<usize>,
        constant: &Datum,
        session: &SessionVars,
    ) -> Result<Vec<Datum>>;
}

/// The signature of [`ExtOperator::prepare_batch`].
pub type PrepareBatch =
    dyn Fn(&[DatumRef<'_>], &SessionVars) -> Result<Box<dyn PreparedOperands>> + Send + Sync;

/// An extension operator: evaluation, typing, costing, selectivity, and
/// index pairing.  This is the unit of the paper's "first-class operator"
/// integration: registering one of these gives the operator the same
/// treatment `=` gets — evaluation in the executor, costing and cardinality
/// estimation in the optimizer, and index acceleration in the access layer.
#[derive(Clone)]
pub struct ExtOperator {
    /// Operator name as written in SQL (lower-cased on registration).
    pub name: String,
    /// Left/right operand types it applies to (checked by the binder).
    pub operand_type: DataType,
    /// Evaluate `left OP right` under the session variables.
    #[allow(clippy::type_complexity)]
    pub eval: Arc<dyn Fn(&Datum, &Datum, &SessionVars) -> Result<Datum> + Send + Sync>,
    /// Vectorized evaluation of `lefts[i] OP right` for a whole batch of
    /// left operands against one constant right operand, returning one
    /// verdict per input in order.  This is the hook for one-shot
    /// operands, each of which meets one constant: a heap scan passes
    /// fields read straight off the page image, before any row is
    /// decoded, and the batch executor passes values of decoded rows
    /// (filters, index rechecks, hash-join residuals).  So per-pair setup
    /// (phoneme conversion of the constant, synset lookup, DP
    /// buffer borrows) is hoisted out of the inner loop, and rows the
    /// operator rejects are never copied.  The executor never passes a
    /// NULL operand.  `None` means the operator only supports scalar
    /// evaluation and the executor calls `eval` per row.  Implementations
    /// must be result-identical to `eval` on every element.
    #[allow(clippy::type_complexity)]
    pub eval_batch: Option<
        Arc<dyn Fn(&[DatumRef<'_>], &Datum, &SessionVars) -> Result<Vec<Datum>> + Send + Sync>,
    >,
    /// The hook for operands reused across constants: a nested loop
    /// prepares its inner side's operands once per execution and matches
    /// every outer row's value against them
    /// ([`PreparedOperands::verdicts`]).  So work that depends on the
    /// operand alone (ψ's phonemes and phone sets) is done once per
    /// operand, not once per pair.  Like `eval_batch` it never sees a
    /// NULL operand, and it is used only by an operator that also has
    /// `eval_batch`; `None` means a join calls `eval_batch` per outer row.
    /// Preparing may fail on an operand that `eval_batch` would fail on.
    pub prepare_batch: Option<Arc<PrepareBatch>>,
    /// Algebraic properties (Table 1).
    pub kind: OperatorKind,
    /// CPU cost per evaluated pair, in units of `cpu_operator_cost` — ψ's
    /// banded edit distance costs k·l of these (Table 3).
    #[allow(clippy::type_complexity)]
    pub per_tuple_cost: Arc<dyn Fn(&SessionVars, f64) -> f64 + Send + Sync>,
    /// Selectivity estimator (§3.4).
    #[allow(clippy::type_complexity)]
    pub selectivity: Arc<dyn Fn(&SelectivityInput<'_>) -> f64 + Send + Sync>,
    /// `(access_method, strategy)` that can serve `col OP const` probes —
    /// e.g. `("mtree", "within")` for ψ.
    pub index_strategy: Option<(String, String)>,
    /// Extra Datum passed to the index strategy (e.g. the threshold),
    /// computed from session vars at plan time.
    #[allow(clippy::type_complexity)]
    pub index_extra: Option<Arc<dyn Fn(&SessionVars) -> Datum + Send + Sync>>,
    /// Filter applied to the LEFT operand for the operator's `IN (...)`
    /// modifier list (ψ/Ω's output-language restriction).  `None` means the
    /// operator takes no modifiers.
    #[allow(clippy::type_complexity)]
    pub modifier_filter: Option<Arc<dyn Fn(DatumRef<'_>, &[String]) -> bool + Send + Sync>>,
    /// Fraction of an *approximate* index expected to be traversed by one
    /// probe, as a function of the session threshold.  The paper models
    /// this "by a linear function on the error threshold" (§3.3); `None`
    /// falls back to the estimated selectivity.
    #[allow(clippy::type_complexity)]
    pub index_scan_fraction: Option<Arc<dyn Fn(&SessionVars) -> f64 + Send + Sync>>,
    /// Optional EXPLAIN annotation naming the operator's evaluation
    /// strategy (e.g. Ω's `intervals` containment).  The planner stamps
    /// it onto scan nodes whose pushed-down filter contains the operator,
    /// so EXPLAIN / EXPLAIN ANALYZE surface the strategy.
    pub strategy_label: Option<&'static str>,
}

impl std::fmt::Debug for ExtOperator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ExtOperator")
            .field("name", &self.name)
            .field("kind", &self.kind)
            .finish()
    }
}

#[derive(Default)]
pub(crate) struct OperatorRegistry {
    ops: HashMap<String, ExtOperator>,
}

impl OperatorRegistry {
    pub(crate) fn new() -> Self {
        OperatorRegistry::default()
    }

    pub(crate) fn register(&mut self, mut op: ExtOperator) {
        op.name = op.name.to_lowercase();
        self.ops.insert(op.name.clone(), op);
    }

    pub(crate) fn get(&self, name: &str) -> Option<&ExtOperator> {
        self.ops.get(&name.to_lowercase())
    }
}

/// A scalar function (constructor or helper callable from SQL and PL).
///
/// `eval` must be a pure function of its arguments (and of the session
/// variables, which key the plan cache).  The planner folds every call
/// whose arguments are constant into a literal, zero-argument calls
/// included, and the plan cache replays that literal on every later run
/// of the same statement; a function that reads engine state (metrics,
/// activity, the clock) would answer with its value at plan time.  Every
/// registered function (`unitext`, `text_of`, `lang_of`, `phoneme_of`,
/// `editdistance`) is pure; engine state is read with `SHOW`, which is
/// never cached.
#[derive(Clone)]
pub struct FuncDef {
    /// Function name (lower-cased on registration).
    pub name: String,
    /// Number of arguments (fixed arity).
    pub arity: usize,
    /// Result type (`None` = depends on inputs, binder infers Text).
    pub ret: Option<DataType>,
    /// Implementation.
    #[allow(clippy::type_complexity)]
    pub eval: Arc<dyn Fn(&[Datum], &SessionVars) -> Result<Datum> + Send + Sync>,
}

impl std::fmt::Debug for FuncDef {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FuncDef")
            .field("name", &self.name)
            .field("arity", &self.arity)
            .finish()
    }
}

#[derive(Default)]
pub(crate) struct FunctionRegistry {
    funcs: HashMap<String, FuncDef>,
}

impl FunctionRegistry {
    pub(crate) fn new() -> Self {
        FunctionRegistry::default()
    }

    pub(crate) fn register(&mut self, mut f: FuncDef) {
        f.name = f.name.to_lowercase();
        self.funcs.insert(f.name.clone(), f);
    }

    pub(crate) fn get(&self, name: &str) -> Option<&FuncDef> {
        self.funcs.get(&name.to_lowercase())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn session_vars_roundtrip() {
        let mut s = SessionVars::new();
        s.set("LexEqual.Threshold", Datum::Int(3));
        assert_eq!(s.get_int("lexequal.threshold", 0), 3);
        assert_eq!(s.get_int("missing", 7), 7);
        assert_eq!(s.iter().count(), 1);
    }

    #[test]
    fn type_registry_idempotent_by_name() {
        let mut r = TypeRegistry::new();
        let def = ExtTypeDef {
            name: "UniText".into(),
            display: Arc::new(|_| "x".into()),
            compare: Arc::new(|a, b| a.cmp(b)),
            on_insert: None,
            compare_text: None,
            identity: None,
        };
        let id1 = r.register(def.clone());
        let id2 = r.register(def);
        assert_eq!(id1, id2);
        assert!(r.by_name("unitext").is_some());
        assert!(r.by_id(id1).is_some());
    }

    #[test]
    fn operator_registry_case_insensitive() {
        let mut r = OperatorRegistry::new();
        r.register(ExtOperator {
            name: "LexEQUAL".into(),
            operand_type: DataType::Text,
            eval: Arc::new(|_, _, _| Ok(Datum::Bool(true))),
            eval_batch: None,
            prepare_batch: None,
            kind: OperatorKind {
                commutative: true,
                distributes_over_union: true,
            },
            per_tuple_cost: Arc::new(|_, _| 1.0),
            selectivity: Arc::new(|_| 0.1),
            index_strategy: None,
            index_extra: None,
            modifier_filter: None,
            index_scan_fraction: None,
            strategy_label: None,
        });
        assert!(r.get("lexequal").is_some());
        assert_eq!(r.get("LEXEQUAL").unwrap().name, "lexequal");
    }

    #[test]
    fn function_eval_dispatch() {
        let mut r = FunctionRegistry::new();
        r.register(FuncDef {
            name: "double".into(),
            arity: 1,
            ret: Some(DataType::Int),
            eval: Arc::new(|args, _| Ok(Datum::Int(args[0].as_int().unwrap_or(0) * 2))),
        });
        let f = r.get("double").unwrap();
        let out = (f.eval)(&[Datum::Int(21)], &SessionVars::new()).unwrap();
        assert!(out.eq_sql(&Datum::Int(42)));
    }
}
