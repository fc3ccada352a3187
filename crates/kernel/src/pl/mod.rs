//! Mini-PL: an interpreted procedural language with an SPI.
//!
//! This is the substrate of the paper's **outside-the-server** baselines
//! ("implemented outside-the-server using standard database features —
//! PL/SQL procedures, SQL scripts and recursive SQL constructs", §5.3).
//! Its performance character is the point: every statement is interpreted
//! over boxed values, every function call crosses a *function-manager*
//! boundary that marshals arguments to wire format and back (emulating
//! PostgreSQL's fmgr + UDF process separation), and every query goes
//! through the full SPI pipeline (parse → bind → plan → execute) per call.
//! Nothing here sleeps or fudges — the slowness the benchmarks measure is
//! the genuine cost of this architecture, which is exactly the paper's
//! claim about UDF-based implementations ("overheads due to the UDF
//! invocations and execution in a separate process space", §5.3).

pub mod parser;

pub use parser::parse_function;

use crate::engine::Session;
use crate::error::{Error, Result};
use crate::expr::{ArithOp, CmpOp};
use crate::schema::Row;
use crate::storage::{decode_row, encode_row};
use crate::value::Datum;
use std::collections::HashMap;

/// Runtime statistics of one PL execution.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlStats {
    /// Function-manager crossings (argument marshalling round-trips).
    pub udf_calls: u64,
    /// SQL statements executed through the SPI.
    pub spi_statements: u64,
    /// Rows fetched from SPI cursors.
    pub rows_fetched: u64,
}

/// PL expression.
#[derive(Debug, Clone)]
pub enum PlExpr {
    /// Literal.
    Const(Datum),
    /// Scalar variable.
    Var(String),
    /// Field of a row variable (by column name).
    Field(String, String),
    /// Function call through the function manager; resolves against the
    /// catalog's scalar-function registry.
    Call(String, Vec<PlExpr>),
    /// Comparison.
    Cmp(CmpOp, Box<PlExpr>, Box<PlExpr>),
    /// Arithmetic.
    Arith(ArithOp, Box<PlExpr>, Box<PlExpr>),
    /// Conjunction.
    And(Box<PlExpr>, Box<PlExpr>),
    /// Disjunction.
    Or(Box<PlExpr>, Box<PlExpr>),
    /// Negation.
    Not(Box<PlExpr>),
    /// String concatenation (dynamic SQL assembly).
    Concat(Vec<PlExpr>),
    /// List element access: `list[idx]` (0-based).
    ListGet(String, Box<PlExpr>),
    /// List length.
    ListLen(String),
    /// `length(string)` of a text value.
    StrLen(Box<PlExpr>),
    /// Character (single-char text) at a 0-based position of a text value.
    CharAt(Box<PlExpr>, Box<PlExpr>),
}

/// PL statement.
#[derive(Debug, Clone)]
pub enum PlStmt {
    /// `var := expr`.
    Assign(String, PlExpr),
    /// `IF cond THEN ... [ELSE ...] END IF`.
    If {
        cond: PlExpr,
        then_branch: Vec<PlStmt>,
        else_branch: Vec<PlStmt>,
    },
    /// `WHILE cond LOOP ... END LOOP`.
    While { cond: PlExpr, body: Vec<PlStmt> },
    /// `FOR rowvar IN EXECUTE sql LOOP ... END LOOP` — dynamic SQL through
    /// the SPI; the row variable exposes result columns as fields.
    ForQuery {
        var: String,
        sql: PlExpr,
        body: Vec<PlStmt>,
    },
    /// `RETURN NEXT (exprs...)` — append a row to the function's result set.
    ReturnNext(Vec<PlExpr>),
    /// `RETURN` — finish.
    Return,
    /// `PERFORM sql` — execute a statement, discarding rows.
    Perform(PlExpr),
    /// `var := ARRAY[]` — create an empty list (PL/SQL collections).
    ListNew(String),
    /// `var := var || expr` — append to a list.
    ListPush(String, PlExpr),
    /// `var[idx] := expr` — update a list element (0-based; the list grows
    /// with NULLs when `idx` is past the end, PL/pgSQL-style).
    ListSet(String, PlExpr, PlExpr),
    /// `dst := src` for list variables.
    ListCopy(String, String),
}

/// A set-returning PL function.
#[derive(Debug, Clone)]
pub struct PlFunction {
    /// Function name (diagnostics only).
    pub name: String,
    /// Parameter names, bound positionally at call time.
    pub params: Vec<String>,
    /// Body.
    pub body: Vec<PlStmt>,
}

/// Values a PL variable can hold.
#[derive(Debug, Clone)]
enum PlValue {
    Scalar(Datum),
    Row(Vec<(String, Datum)>),
    List(Vec<Datum>),
}

enum Flow {
    Normal,
    Returned,
}

/// The PL interpreter.  Borrows a session mutably: SPI statements are
/// real statements on that session.
pub struct PlRuntime<'a> {
    session: &'a mut Session,
    stats: PlStats,
    /// Locally-registered PL functions, callable from [`PlExpr::Call`].
    /// Local names shadow the catalog's native functions — how a pure
    /// outside-the-server deployment replaces `editdistance` with its own
    /// interpreted implementation.
    functions: HashMap<String, PlFunction>,
}

impl<'a> PlRuntime<'a> {
    /// New runtime over a session.
    pub fn new(session: &'a mut Session) -> Self {
        PlRuntime {
            session,
            stats: PlStats::default(),
            functions: HashMap::new(),
        }
    }

    /// Register a PL function; `Call(name, ...)` resolves local functions
    /// before catalog natives, so locals shadow natives.
    pub fn register_function(&mut self, f: PlFunction) {
        self.functions.insert(f.name.clone(), f);
    }

    /// Statistics accumulated so far.
    pub fn stats(&self) -> PlStats {
        self.stats
    }

    /// Invoke a PL function with positional arguments; returns its result
    /// set.  Arguments cross the function-manager boundary (marshalled to
    /// wire format and back) exactly like every nested call does.
    pub fn call(&mut self, func: &PlFunction, args: &[Datum]) -> Result<Vec<Row>> {
        if args.len() != func.params.len() {
            return Err(Error::Pl(format!(
                "{} expects {} arguments, got {}",
                func.name,
                func.params.len(),
                args.len()
            )));
        }
        let args = self.fmgr_roundtrip(args)?;
        let mut env: HashMap<String, PlValue> = HashMap::new();
        for (p, a) in func.params.iter().zip(args) {
            env.insert(p.clone(), PlValue::Scalar(a));
        }
        let mut out = Vec::new();
        self.run_block(&func.body, &mut env, &mut out)?;
        Ok(out)
    }

    /// The function-manager boundary: serialize values to the tuple wire
    /// format and deserialize them again, as a UDF call into a separate
    /// execution context would.
    fn fmgr_roundtrip(&mut self, vals: &[Datum]) -> Result<Vec<Datum>> {
        self.stats.udf_calls += 1;
        let bytes = encode_row(&vals.to_vec());
        decode_row(&bytes, vals.len())
    }

    fn run_block(
        &mut self,
        stmts: &[PlStmt],
        env: &mut HashMap<String, PlValue>,
        out: &mut Vec<Row>,
    ) -> Result<Flow> {
        for stmt in stmts {
            match stmt {
                PlStmt::Assign(name, expr) => {
                    let v = self.eval(expr, env)?;
                    env.insert(name.clone(), PlValue::Scalar(v));
                }
                PlStmt::If {
                    cond,
                    then_branch,
                    else_branch,
                } => {
                    let branch = if self.eval(cond, env)?.is_true() {
                        then_branch
                    } else {
                        else_branch
                    };
                    if let Flow::Returned = self.run_block(branch, env, out)? {
                        return Ok(Flow::Returned);
                    }
                }
                PlStmt::While { cond, body } => {
                    while self.eval(cond, env)?.is_true() {
                        if let Flow::Returned = self.run_block(body, env, out)? {
                            return Ok(Flow::Returned);
                        }
                    }
                }
                PlStmt::ForQuery { var, sql, body } => {
                    let sql_text = match self.eval(sql, env)? {
                        Datum::Text(s) => s.to_string(),
                        other => return Err(Error::Pl(format!("EXECUTE needs text, got {other}"))),
                    };
                    self.stats.spi_statements += 1;
                    let result = self.session.execute(&sql_text)?;
                    let names: Vec<String> = result
                        .schema
                        .columns()
                        .iter()
                        .map(|c| c.name.clone())
                        .collect();
                    for row in result.rows {
                        self.stats.rows_fetched += 1;
                        // Row values cross the fmgr boundary into PL space.
                        let row = self.fmgr_roundtrip(&row)?;
                        env.insert(
                            var.clone(),
                            PlValue::Row(names.iter().cloned().zip(row).collect()),
                        );
                        if let Flow::Returned = self.run_block(body, env, out)? {
                            return Ok(Flow::Returned);
                        }
                    }
                }
                PlStmt::ReturnNext(exprs) => {
                    let mut row = Row::with_capacity(exprs.len());
                    for e in exprs {
                        row.push(self.eval(e, env)?);
                    }
                    out.push(row);
                }
                PlStmt::Return => return Ok(Flow::Returned),
                PlStmt::Perform(sql) => {
                    let sql_text = match self.eval(sql, env)? {
                        Datum::Text(s) => s.to_string(),
                        other => return Err(Error::Pl(format!("PERFORM needs text, got {other}"))),
                    };
                    self.stats.spi_statements += 1;
                    self.session.execute(&sql_text)?;
                }
                PlStmt::ListNew(name) => {
                    env.insert(name.clone(), PlValue::List(Vec::new()));
                }
                PlStmt::ListPush(name, expr) => {
                    let v = self.eval(expr, env)?;
                    match env.get_mut(name) {
                        Some(PlValue::List(items)) => items.push(v),
                        _ => return Err(Error::Pl(format!("{name:?} is not a list"))),
                    }
                }
                PlStmt::ListCopy(dst, src) => {
                    let items = match env.get(src) {
                        Some(PlValue::List(items)) => items.clone(),
                        _ => return Err(Error::Pl(format!("{src:?} is not a list"))),
                    };
                    env.insert(dst.clone(), PlValue::List(items));
                }
                PlStmt::ListSet(name, idx, expr) => {
                    let i = self
                        .eval(idx, env)?
                        .as_int()
                        .ok_or_else(|| Error::Pl("list index must be int".into()))?;
                    if i < 0 {
                        return Err(Error::Pl(format!("negative list index {i}")));
                    }
                    let v = self.eval(expr, env)?;
                    match env.get_mut(name) {
                        Some(PlValue::List(items)) => {
                            let i = i as usize;
                            if i >= items.len() {
                                items.resize(i + 1, Datum::Null);
                            }
                            items[i] = v;
                        }
                        _ => return Err(Error::Pl(format!("{name:?} is not a list"))),
                    }
                }
            }
        }
        Ok(Flow::Normal)
    }

    fn eval(&mut self, expr: &PlExpr, env: &HashMap<String, PlValue>) -> Result<Datum> {
        match expr {
            PlExpr::Const(d) => Ok(d.clone()),
            PlExpr::Var(name) => match env.get(name) {
                Some(PlValue::Scalar(d)) => Ok(d.clone()),
                Some(PlValue::Row(_)) | Some(PlValue::List(_)) => Err(Error::Pl(format!(
                    "{name} is not a scalar; use a field or index access"
                ))),
                None => Err(Error::Pl(format!("undefined variable {name:?}"))),
            },
            PlExpr::Field(var, field) => match env.get(var) {
                Some(PlValue::Row(fields)) => fields
                    .iter()
                    .find(|(n, _)| n.eq_ignore_ascii_case(field))
                    .map(|(_, d)| d.clone())
                    .ok_or_else(|| Error::Pl(format!("row {var:?} has no field {field:?}"))),
                Some(PlValue::Scalar(_)) | Some(PlValue::List(_)) => {
                    Err(Error::Pl(format!("{var} has no field {field:?}")))
                }
                None => Err(Error::Pl(format!("undefined variable {var:?}"))),
            },
            PlExpr::Call(name, args) => {
                let mut vals = Vec::with_capacity(args.len());
                for a in args {
                    vals.push(self.eval(a, env)?);
                }
                // Locally-registered PL functions shadow catalog natives.
                // Used as scalars they return the first column of their
                // first result row (NULL for an empty result).
                if let Some(local) = self.functions.get(name).cloned() {
                    let rows = self.call(&local, &vals)?;
                    return Ok(rows
                        .into_iter()
                        .next()
                        .and_then(|r| r.into_iter().next())
                        .unwrap_or(Datum::Null));
                }
                // Cross the fmgr boundary per call, then dispatch through
                // the catalog's function registry.
                let vals = self.fmgr_roundtrip(&vals)?;
                let f = self
                    .session
                    .engine()
                    .catalog()
                    .function(name)
                    .ok_or_else(|| Error::Pl(format!("unknown function {name:?}")))?
                    .clone();
                if vals.len() != f.arity {
                    return Err(Error::Pl(format!(
                        "{name} expects {} args, got {}",
                        f.arity,
                        vals.len()
                    )));
                }
                let result = (f.eval)(&vals, self.session.vars())?;
                // Result marshals back out.
                let back = self.fmgr_roundtrip(std::slice::from_ref(&result))?;
                Ok(back.into_iter().next().expect("one value"))
            }
            PlExpr::Cmp(op, l, r) => {
                let lv = self.eval(l, env)?;
                let rv = self.eval(r, env)?;
                if lv.is_null() || rv.is_null() {
                    return Ok(Datum::Null);
                }
                Ok(Datum::Bool(op.matches(lv.cmp_sql(&rv))))
            }
            PlExpr::Arith(op, l, r) => {
                let lv = self.eval(l, env)?;
                let rv = self.eval(r, env)?;
                let (a, b) = (
                    lv.as_float()
                        .ok_or_else(|| Error::Pl(format!("non-numeric {lv}")))?,
                    rv.as_float()
                        .ok_or_else(|| Error::Pl(format!("non-numeric {rv}")))?,
                );
                let result = match op {
                    ArithOp::Add => a + b,
                    ArithOp::Sub => a - b,
                    ArithOp::Mul => a * b,
                    ArithOp::Div => {
                        if b == 0.0 {
                            return Err(Error::Pl("division by zero".into()));
                        }
                        a / b
                    }
                };
                // Preserve integer-ness for integer inputs.
                if matches!((&lv, &rv), (Datum::Int(_), Datum::Int(_))) && result.fract() == 0.0 {
                    Ok(Datum::Int(result as i64))
                } else {
                    Ok(Datum::Float(result))
                }
            }
            PlExpr::And(l, r) => {
                if !self.eval(l, env)?.is_true() {
                    return Ok(Datum::Bool(false));
                }
                Ok(Datum::Bool(self.eval(r, env)?.is_true()))
            }
            PlExpr::Or(l, r) => {
                if self.eval(l, env)?.is_true() {
                    return Ok(Datum::Bool(true));
                }
                Ok(Datum::Bool(self.eval(r, env)?.is_true()))
            }
            PlExpr::Not(e) => Ok(Datum::Bool(!self.eval(e, env)?.is_true())),
            PlExpr::Concat(parts) => {
                let mut s = String::new();
                for p in parts {
                    let v = self.eval(p, env)?;
                    match v {
                        Datum::Text(t) => s.push_str(&t),
                        other => s.push_str(&other.to_string()),
                    }
                }
                Ok(Datum::text(s))
            }
            PlExpr::ListGet(name, idx) => {
                let i = self
                    .eval(idx, env)?
                    .as_int()
                    .ok_or_else(|| Error::Pl("list index must be int".into()))?;
                match env.get(name) {
                    Some(PlValue::List(items)) => items
                        .get(i as usize)
                        .cloned()
                        .ok_or_else(|| Error::Pl(format!("list index {i} out of bounds"))),
                    _ => Err(Error::Pl(format!("{name:?} is not a list"))),
                }
            }
            PlExpr::ListLen(name) => match env.get(name) {
                Some(PlValue::List(items)) => Ok(Datum::Int(items.len() as i64)),
                _ => Err(Error::Pl(format!("{name:?} is not a list"))),
            },
            PlExpr::StrLen(e) => {
                let v = self.eval(e, env)?;
                match v {
                    Datum::Text(s) => Ok(Datum::Int(s.len() as i64)),
                    other => Err(Error::Pl(format!("length() needs text, got {other}"))),
                }
            }
            PlExpr::CharAt(e, idx) => {
                let v = self.eval(e, env)?;
                let i = self
                    .eval(idx, env)?
                    .as_int()
                    .ok_or_else(|| Error::Pl("charat index must be int".into()))?;
                match v {
                    Datum::Text(s) => {
                        let b = s
                            .as_bytes()
                            .get(i as usize)
                            .copied()
                            .ok_or_else(|| Error::Pl(format!("charat {i} out of bounds")))?;
                        Ok(Datum::text((b as char).to_string()))
                    }
                    other => Err(Error::Pl(format!("charat needs text, got {other}"))),
                }
            }
        }
    }
}

/// Expression-building helpers (the PL programs in `mlql-mural` and the
/// benches are assembled with these).
pub mod build {
    use super::*;

    /// Literal.
    pub fn lit(d: Datum) -> PlExpr {
        PlExpr::Const(d)
    }

    /// Text literal.
    pub fn text(s: &str) -> PlExpr {
        PlExpr::Const(Datum::text(s))
    }

    /// Integer literal.
    pub fn int(i: i64) -> PlExpr {
        PlExpr::Const(Datum::Int(i))
    }

    /// Variable reference.
    pub fn var(name: &str) -> PlExpr {
        PlExpr::Var(name.into())
    }

    /// Row-field reference.
    pub fn field(var: &str, field: &str) -> PlExpr {
        PlExpr::Field(var.into(), field.into())
    }

    /// Function call.
    pub fn call(name: &str, args: Vec<PlExpr>) -> PlExpr {
        PlExpr::Call(name.into(), args)
    }

    /// Comparison.
    pub fn cmp(op: CmpOp, l: PlExpr, r: PlExpr) -> PlExpr {
        PlExpr::Cmp(op, Box::new(l), Box::new(r))
    }

    /// String concatenation.
    pub fn concat(parts: Vec<PlExpr>) -> PlExpr {
        PlExpr::Concat(parts)
    }
}

#[cfg(test)]
mod tests {
    use super::build::*;
    use super::*;
    use crate::catalog::FuncDef;
    use std::sync::Arc;

    fn setup() -> Session {
        let mut db = Session::new_in_memory();
        db.execute("CREATE TABLE t (id INT, name TEXT)").unwrap();
        db.execute("INSERT INTO t VALUES (1, 'one'), (2, 'two'), (3, 'three')")
            .unwrap();
        db.engine().catalog_mut().register_function(FuncDef {
            name: "strlen".into(),
            arity: 1,
            ret: Some(crate::value::DataType::Int),
            eval: Arc::new(|args, _| {
                Ok(Datum::Int(
                    args[0].as_text().map(|s| s.len() as i64).unwrap_or(0),
                ))
            }),
        });
        db
    }

    #[test]
    fn for_query_with_filter_in_pl() {
        let mut db = setup();
        // Outside-the-server filter: scan all rows via SPI, keep names of
        // length > 3 in interpreted code.
        let func = PlFunction {
            name: "long_names".into(),
            params: vec![],
            body: vec![PlStmt::ForQuery {
                var: "r".into(),
                sql: text("SELECT id, name FROM t"),
                body: vec![PlStmt::If {
                    cond: cmp(CmpOp::Gt, call("strlen", vec![field("r", "name")]), int(3)),
                    then_branch: vec![PlStmt::ReturnNext(vec![field("r", "name")])],
                    else_branch: vec![],
                }],
            }],
        };
        let mut rt = PlRuntime::new(&mut db);
        let rows = rt.call(&func, &[]).unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0][0].as_text(), Some("three"));
        let stats = rt.stats();
        assert_eq!(stats.spi_statements, 1);
        assert_eq!(stats.rows_fetched, 3);
        // 1 call + 3 row marshals + 3 strlen calls × 2 (in+out) = 10.
        assert_eq!(stats.udf_calls, 10);
    }

    #[test]
    fn dynamic_sql_concat() {
        let mut db = setup();
        let func = PlFunction {
            name: "by_id".into(),
            params: vec!["target".into()],
            body: vec![PlStmt::ForQuery {
                var: "r".into(),
                sql: concat(vec![text("SELECT name FROM t WHERE id = "), var("target")]),
                body: vec![PlStmt::ReturnNext(vec![field("r", "name")])],
            }],
        };
        let mut rt = PlRuntime::new(&mut db);
        let rows = rt.call(&func, &[Datum::Int(2)]).unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0][0].as_text(), Some("two"));
    }

    #[test]
    fn while_loop_and_assignment() {
        let mut db = setup();
        let func = PlFunction {
            name: "count_to".into(),
            params: vec!["n".into()],
            body: vec![
                PlStmt::Assign("i".into(), int(0)),
                PlStmt::While {
                    cond: cmp(CmpOp::Lt, var("i"), var("n")),
                    body: vec![
                        PlStmt::ReturnNext(vec![var("i")]),
                        PlStmt::Assign(
                            "i".into(),
                            PlExpr::Arith(ArithOp::Add, Box::new(var("i")), Box::new(int(1))),
                        ),
                    ],
                },
            ],
        };
        let mut rt = PlRuntime::new(&mut db);
        let rows = rt.call(&func, &[Datum::Int(4)]).unwrap();
        assert_eq!(rows.len(), 4);
        assert!(rows[3][0].eq_sql(&Datum::Int(3)));
    }

    #[test]
    fn early_return_stops_iteration() {
        let mut db = setup();
        let func = PlFunction {
            name: "first".into(),
            params: vec![],
            body: vec![
                PlStmt::ForQuery {
                    var: "r".into(),
                    sql: text("SELECT id FROM t ORDER BY id"),
                    body: vec![PlStmt::ReturnNext(vec![field("r", "id")]), PlStmt::Return],
                },
                PlStmt::ReturnNext(vec![int(-1)]),
            ],
        };
        let mut rt = PlRuntime::new(&mut db);
        let rows = rt.call(&func, &[]).unwrap();
        assert_eq!(rows.len(), 1);
        assert!(rows[0][0].eq_sql(&Datum::Int(1)));
    }

    #[test]
    fn perform_mutates_database() {
        let mut db = setup();
        let func = PlFunction {
            name: "add_row".into(),
            params: vec![],
            body: vec![PlStmt::Perform(text("INSERT INTO t VALUES (9, 'nine')"))],
        };
        let mut rt = PlRuntime::new(&mut db);
        rt.call(&func, &[]).unwrap();
        let r = db.execute("SELECT count(*) FROM t").unwrap();
        assert!(r.rows[0][0].eq_sql(&Datum::Int(4)));
    }

    #[test]
    fn errors_are_reported() {
        let mut db = setup();
        let mut rt = PlRuntime::new(&mut db);
        let bad_var = PlFunction {
            name: "bad".into(),
            params: vec![],
            body: vec![PlStmt::ReturnNext(vec![var("nope")])],
        };
        assert!(rt.call(&bad_var, &[]).is_err());
        let bad_arity = PlFunction {
            name: "f".into(),
            params: vec!["x".into()],
            body: vec![],
        };
        assert!(rt.call(&bad_arity, &[]).is_err());
    }
}
