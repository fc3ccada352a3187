//! Surface syntax for the mini-PL — the paper's outside-the-server
//! baselines were "PL/SQL procedures"; this parser lets them be written as
//! source text rather than hand-assembled ASTs:
//!
//! ```text
//! FUNCTION near_names(q, k) BEGIN
//!     FOR r IN EXECUTE 'SELECT name, ph FROM names' LOOP
//!         IF editdistance(r.ph, q) <= k THEN
//!             RETURN NEXT r.name;
//!         END IF;
//!     END LOOP;
//! END
//! ```
//!
//! Statements: `v := expr;`, `IF e THEN ... [ELSE ...] END IF;`,
//! `WHILE e LOOP ... END LOOP;`, `FOR v IN EXECUTE e LOOP ... END LOOP;`,
//! `RETURN NEXT e [, e];`, `RETURN;`, `PERFORM e;`, and the collection
//! forms `LIST v;`, `PUSH v, e;`, `v[i] := e;`, `COPYLIST dst, src;`.
//!
//! Expressions: literals, variables, `row.field`, `list[i]`, function
//! calls, `LENGTH(e)`, `CHARAT(e, i)`, `COUNT(v)` (list length), `||`
//! concatenation, comparisons, arithmetic, `AND/OR/NOT`.

use crate::error::{Error, Result};
use crate::expr::{ArithOp, CmpOp};
use crate::pl::{PlExpr, PlFunction, PlStmt};
use crate::sql::{tokenize, Token};
use crate::value::Datum;

/// Parse one `FUNCTION name(params) BEGIN ... END`.
pub fn parse_function(source: &str) -> Result<PlFunction> {
    let tokens = tokenize(source)?;
    let mut p = Parser { tokens, pos: 0 };
    p.expect_kw("function")?;
    let name = p.ident()?;
    p.expect_sym("(")?;
    let mut params = Vec::new();
    if !p.peek_sym(")") {
        loop {
            params.push(p.ident()?);
            if !p.eat_sym(",") {
                break;
            }
        }
    }
    p.expect_sym(")")?;
    p.expect_kw("begin")?;
    let body = p.block(&["end"])?;
    p.expect_kw("end")?;
    p.eat_sym(";");
    if p.pos < p.tokens.len() {
        return Err(Error::Parse(format!(
            "trailing tokens: {:?}",
            p.tokens[p.pos]
        )));
    }
    Ok(PlFunction { name, params, body })
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
}

impl Parser {
    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos)
    }

    fn peek_kw(&self, kw: &str) -> bool {
        self.peek().map(|t| t.is_kw(kw)).unwrap_or(false)
    }

    fn peek_sym(&self, s: &str) -> bool {
        self.peek().map(|t| t.is_sym(s)).unwrap_or(false)
    }

    fn eat_kw(&mut self, kw: &str) -> bool {
        if self.peek_kw(kw) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn eat_sym(&mut self, s: &str) -> bool {
        if self.peek_sym(s) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_kw(&mut self, kw: &str) -> Result<()> {
        if self.eat_kw(kw) {
            Ok(())
        } else {
            Err(Error::Parse(format!(
                "PL: expected {kw:?}, found {:?}",
                self.peek()
            )))
        }
    }

    fn expect_sym(&mut self, s: &str) -> Result<()> {
        if self.eat_sym(s) {
            Ok(())
        } else {
            Err(Error::Parse(format!(
                "PL: expected {s:?}, found {:?}",
                self.peek()
            )))
        }
    }

    fn ident(&mut self) -> Result<String> {
        match self.peek() {
            Some(Token::Ident(s)) => {
                let s = s.to_lowercase();
                self.pos += 1;
                Ok(s)
            }
            other => Err(Error::Parse(format!(
                "PL: expected identifier, found {other:?}"
            ))),
        }
    }

    /// Parse statements until one of `terminators` (not consumed).
    fn block(&mut self, terminators: &[&str]) -> Result<Vec<PlStmt>> {
        let mut out = Vec::new();
        loop {
            if terminators.iter().any(|t| self.peek_kw(t)) {
                return Ok(out);
            }
            if self.peek().is_none() {
                return Err(Error::Parse("PL: unexpected end of input".into()));
            }
            out.push(self.statement()?);
        }
    }

    fn statement(&mut self) -> Result<PlStmt> {
        if self.eat_kw("if") {
            let cond = self.expr()?;
            self.expect_kw("then")?;
            let then_branch = self.block(&["else", "end"])?;
            let else_branch = if self.eat_kw("else") {
                self.block(&["end"])?
            } else {
                vec![]
            };
            self.expect_kw("end")?;
            self.expect_kw("if")?;
            self.expect_sym(";")?;
            return Ok(PlStmt::If {
                cond,
                then_branch,
                else_branch,
            });
        }
        if self.eat_kw("while") {
            let cond = self.expr()?;
            self.expect_kw("loop")?;
            let body = self.block(&["end"])?;
            self.expect_kw("end")?;
            self.expect_kw("loop")?;
            self.expect_sym(";")?;
            return Ok(PlStmt::While { cond, body });
        }
        if self.eat_kw("for") {
            let var = self.ident()?;
            self.expect_kw("in")?;
            self.expect_kw("execute")?;
            let sql = self.expr()?;
            self.expect_kw("loop")?;
            let body = self.block(&["end"])?;
            self.expect_kw("end")?;
            self.expect_kw("loop")?;
            self.expect_sym(";")?;
            return Ok(PlStmt::ForQuery { var, sql, body });
        }
        if self.eat_kw("return") {
            if self.eat_kw("next") {
                let mut exprs = vec![self.expr()?];
                while self.eat_sym(",") {
                    exprs.push(self.expr()?);
                }
                self.expect_sym(";")?;
                return Ok(PlStmt::ReturnNext(exprs));
            }
            self.expect_sym(";")?;
            return Ok(PlStmt::Return);
        }
        if self.eat_kw("perform") {
            let e = self.expr()?;
            self.expect_sym(";")?;
            return Ok(PlStmt::Perform(e));
        }
        if self.eat_kw("list") {
            let name = self.ident()?;
            self.expect_sym(";")?;
            return Ok(PlStmt::ListNew(name));
        }
        if self.eat_kw("push") {
            let name = self.ident()?;
            self.expect_sym(",")?;
            let e = self.expr()?;
            self.expect_sym(";")?;
            return Ok(PlStmt::ListPush(name, e));
        }
        if self.eat_kw("copylist") {
            let dst = self.ident()?;
            self.expect_sym(",")?;
            let src = self.ident()?;
            self.expect_sym(";")?;
            return Ok(PlStmt::ListCopy(dst, src));
        }
        // Assignment: `name := expr;` or `name[idx] := expr;`
        let name = self.ident()?;
        if self.eat_sym("[") {
            let idx = self.expr()?;
            self.expect_sym("]")?;
            self.expect_sym(":=")?;
            let v = self.expr()?;
            self.expect_sym(";")?;
            return Ok(PlStmt::ListSet(name, idx, v));
        }
        self.expect_sym(":=")?;
        let v = self.expr()?;
        self.expect_sym(";")?;
        Ok(PlStmt::Assign(name, v))
    }

    // Precedence: OR < AND < NOT < cmp < concat < add < mul < primary
    fn expr(&mut self) -> Result<PlExpr> {
        let mut left = self.and_expr()?;
        while self.eat_kw("or") {
            let r = self.and_expr()?;
            left = PlExpr::Or(Box::new(left), Box::new(r));
        }
        Ok(left)
    }

    fn and_expr(&mut self) -> Result<PlExpr> {
        let mut left = self.not_expr()?;
        while self.eat_kw("and") {
            let r = self.not_expr()?;
            left = PlExpr::And(Box::new(left), Box::new(r));
        }
        Ok(left)
    }

    fn not_expr(&mut self) -> Result<PlExpr> {
        if self.eat_kw("not") {
            Ok(PlExpr::Not(Box::new(self.not_expr()?)))
        } else {
            self.cmp_expr()
        }
    }

    fn cmp_expr(&mut self) -> Result<PlExpr> {
        let left = self.concat_expr()?;
        for (sym, op) in [
            ("<=", CmpOp::Le),
            (">=", CmpOp::Ge),
            ("<>", CmpOp::Ne),
            ("=", CmpOp::Eq),
            ("<", CmpOp::Lt),
            (">", CmpOp::Gt),
        ] {
            if self.eat_sym(sym) {
                let right = self.concat_expr()?;
                return Ok(PlExpr::Cmp(op, Box::new(left), Box::new(right)));
            }
        }
        Ok(left)
    }

    fn concat_expr(&mut self) -> Result<PlExpr> {
        let first = self.add_expr()?;
        if !self.peek_sym("||") {
            return Ok(first);
        }
        let mut parts = vec![first];
        while self.eat_sym("||") {
            parts.push(self.add_expr()?);
        }
        Ok(PlExpr::Concat(parts))
    }

    fn add_expr(&mut self) -> Result<PlExpr> {
        let mut left = self.mul_expr()?;
        loop {
            let op = if self.eat_sym("+") {
                ArithOp::Add
            } else if self.eat_sym("-") {
                ArithOp::Sub
            } else {
                break;
            };
            let r = self.mul_expr()?;
            left = PlExpr::Arith(op, Box::new(left), Box::new(r));
        }
        Ok(left)
    }

    fn mul_expr(&mut self) -> Result<PlExpr> {
        let mut left = self.primary()?;
        loop {
            let op = if self.eat_sym("*") {
                ArithOp::Mul
            } else if self.eat_sym("/") {
                ArithOp::Div
            } else {
                break;
            };
            let r = self.primary()?;
            left = PlExpr::Arith(op, Box::new(left), Box::new(r));
        }
        Ok(left)
    }

    fn primary(&mut self) -> Result<PlExpr> {
        match self.peek().cloned() {
            Some(Token::Int(n)) => {
                self.pos += 1;
                Ok(PlExpr::Const(Datum::Int(n)))
            }
            Some(Token::Float(f)) => {
                self.pos += 1;
                Ok(PlExpr::Const(Datum::Float(f)))
            }
            Some(Token::Str(s)) => {
                self.pos += 1;
                Ok(PlExpr::Const(Datum::text(s)))
            }
            Some(Token::Sym("(")) => {
                self.pos += 1;
                let e = self.expr()?;
                self.expect_sym(")")?;
                Ok(e)
            }
            Some(Token::Sym("-")) => {
                self.pos += 1;
                let inner = self.primary()?;
                Ok(PlExpr::Arith(
                    ArithOp::Sub,
                    Box::new(PlExpr::Const(Datum::Int(0))),
                    Box::new(inner),
                ))
            }
            Some(Token::Ident(raw)) => {
                let name = raw.to_lowercase();
                self.pos += 1;
                match name.as_str() {
                    "null" => return Ok(PlExpr::Const(Datum::Null)),
                    "true" => return Ok(PlExpr::Const(Datum::Bool(true))),
                    "false" => return Ok(PlExpr::Const(Datum::Bool(false))),
                    _ => {}
                }
                // Builtin pseudo-functions and calls.
                if self.peek_sym("(") {
                    self.pos += 1;
                    let mut args = Vec::new();
                    if !self.peek_sym(")") {
                        loop {
                            args.push(self.expr()?);
                            if !self.eat_sym(",") {
                                break;
                            }
                        }
                    }
                    self.expect_sym(")")?;
                    return match (name.as_str(), args.len()) {
                        ("length", 1) => Ok(PlExpr::StrLen(Box::new(
                            args.into_iter().next().expect("1 arg"),
                        ))),
                        ("charat", 2) => {
                            let mut it = args.into_iter();
                            let s = it.next().expect("2 args");
                            let i = it.next().expect("2 args");
                            Ok(PlExpr::CharAt(Box::new(s), Box::new(i)))
                        }
                        ("count", 1) => match args_into_var(args) {
                            Some(v) => Ok(PlExpr::ListLen(v)),
                            None => Err(Error::Parse("PL: count() takes a list variable".into())),
                        },
                        _ => Ok(PlExpr::Call(name, args)),
                    };
                }
                // Field access or list indexing.
                if self.eat_sym(".") {
                    let field = self.ident()?;
                    return Ok(PlExpr::Field(name, field));
                }
                if self.eat_sym("[") {
                    let idx = self.expr()?;
                    self.expect_sym("]")?;
                    return Ok(PlExpr::ListGet(name, Box::new(idx)));
                }
                Ok(PlExpr::Var(name))
            }
            other => Err(Error::Parse(format!("PL: unexpected token {other:?}"))),
        }
    }
}

fn args_into_var(args: Vec<PlExpr>) -> Option<String> {
    match args.into_iter().next() {
        Some(PlExpr::Var(v)) => Some(v),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::FuncDef;
    use crate::engine::Session;
    use crate::pl::PlRuntime;
    use std::sync::Arc;

    fn db_with_strlen() -> Session {
        let mut db = Session::new_in_memory();
        db.execute("CREATE TABLE t (id INT, name TEXT)").unwrap();
        db.execute("INSERT INTO t VALUES (1,'one'), (2,'two'), (3,'three')")
            .unwrap();
        db.engine().catalog_mut().register_function(FuncDef {
            name: "editdistance".into(),
            arity: 2,
            ret: Some(crate::value::DataType::Int),
            eval: Arc::new(|args, _| {
                // toy: absolute length difference
                let a = args[0].as_text().unwrap_or("").len() as i64;
                let b = args[1].as_text().unwrap_or("").len() as i64;
                Ok(Datum::Int((a - b).abs()))
            }),
        });
        db
    }

    #[test]
    fn parse_and_run_cursor_filter() {
        let mut db = db_with_strlen();
        let f = parse_function(
            "FUNCTION short_names(maxlen) BEGIN \
               FOR r IN EXECUTE 'SELECT id, name FROM t' LOOP \
                 IF LENGTH(r.name) <= maxlen THEN \
                   RETURN NEXT r.name; \
                 END IF; \
               END LOOP; \
             END",
        )
        .unwrap();
        assert_eq!(f.params, vec!["maxlen"]);
        let mut rt = PlRuntime::new(&mut db);
        let rows = rt.call(&f, &[Datum::Int(3)]).unwrap();
        assert_eq!(rows.len(), 2); // one, two
    }

    #[test]
    fn parse_while_lists_and_indexing() {
        let mut db = db_with_strlen();
        let f = parse_function(
            "FUNCTION squares(n) BEGIN \
               LIST acc; \
               i := 0; \
               WHILE i < n LOOP \
                 PUSH acc, i * i; \
                 i := i + 1; \
               END LOOP; \
               acc[0] := 99; \
               j := 0; \
               WHILE j < COUNT(acc) LOOP \
                 RETURN NEXT acc[j]; \
                 j := j + 1; \
               END LOOP; \
             END",
        )
        .unwrap();
        let mut rt = PlRuntime::new(&mut db);
        let rows = rt.call(&f, &[Datum::Int(4)]).unwrap();
        let vals: Vec<i64> = rows.iter().map(|r| r[0].as_int().unwrap()).collect();
        assert_eq!(vals, vec![99, 1, 4, 9]);
    }

    #[test]
    fn parse_dynamic_sql_concat() {
        let mut db = db_with_strlen();
        let f = parse_function(
            "FUNCTION by_id(target) BEGIN \
               FOR r IN EXECUTE 'SELECT name FROM t WHERE id = ' || target LOOP \
                 RETURN NEXT r.name; \
               END LOOP; \
             END",
        )
        .unwrap();
        let mut rt = PlRuntime::new(&mut db);
        let rows = rt.call(&f, &[Datum::Int(2)]).unwrap();
        assert_eq!(rows[0][0].as_text(), Some("two"));
    }

    #[test]
    fn parse_if_else_and_perform() {
        let mut db = db_with_strlen();
        let f = parse_function(
            "FUNCTION maybe_insert(flag) BEGIN \
               IF flag = 1 THEN \
                 PERFORM 'INSERT INTO t VALUES (9, ''nine'')'; \
               ELSE \
                 RETURN NEXT 0; \
               END IF; \
             END",
        )
        .unwrap();
        let mut rt = PlRuntime::new(&mut db);
        rt.call(&f, &[Datum::Int(1)]).unwrap();
        let n = db.query("SELECT count(*) FROM t").unwrap();
        assert_eq!(n[0][0].as_int(), Some(4));
    }

    #[test]
    fn parse_errors_are_reported() {
        assert!(parse_function("FUNCTION broken( BEGIN END").is_err());
        assert!(parse_function("FUNCTION f() BEGIN x := ; END").is_err());
        assert!(parse_function("FUNCTION f() BEGIN IF 1 THEN END").is_err());
        assert!(parse_function("FUNCTION f() BEGIN RETURN; END garbage").is_err());
    }

    #[test]
    fn parsed_equals_builder_for_scan() {
        // The text form of lexequal_scan must behave like the builder AST.
        let mut db = db_with_strlen();
        db.execute("CREATE TABLE names2 (name TEXT, ph TEXT)")
            .unwrap();
        db.execute("INSERT INTO names2 VALUES ('a','aa'), ('b','bbbb')")
            .unwrap();
        let f = parse_function(
            "FUNCTION scan2(q, k) BEGIN \
               FOR r IN EXECUTE 'SELECT name, ph FROM names2' LOOP \
                 IF editdistance(r.ph, q) <= k THEN \
                   RETURN NEXT r.name; \
                 END IF; \
               END LOOP; \
             END",
        )
        .unwrap();
        let mut rt = PlRuntime::new(&mut db);
        let rows = rt.call(&f, &[Datum::text("xx"), Datum::Int(0)]).unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0][0].as_text(), Some("a"));
    }
}
