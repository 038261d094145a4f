//! Static validation of generated programs.
//!
//! The prompts of LLM4FP instruct the model to initialize every variable and
//! avoid undefined behaviour (Section 2.3.1); on the tool side these rules
//! are enforced before a program enters the compilation driver. Programs
//! that fail validation are rejected (counted as generation failures) instead
//! of being compiled, mirroring how invalid LLM output leads to compilation
//! failures in the paper's pipeline.

use serde::{Deserialize, Serialize};

use crate::ast::{Block, Expr, IndexExpr, ParamType, Program, Stmt};
use crate::{COMP, MAX_ARRAY_LEN, MAX_LOOP_BOUND};

/// One validation problem found in a program.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ValidationError {
    pub message: String,
}

impl ValidationError {
    fn new(message: impl Into<String>) -> Self {
        ValidationError { message: message.into() }
    }
}

impl std::fmt::Display for ValidationError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for ValidationError {}

/// Validate a program. Returns all problems found (an empty `Vec` means the
/// program is accepted).
pub fn validate(program: &Program) -> Vec<ValidationError> {
    let mut errors = Vec::new();
    let mut ctx = Ctx::new(program, &mut errors);
    ctx.check_params();
    ctx.check_block(&program.body);
    if program.body.is_empty() {
        errors.push(ValidationError::new("program body is empty"));
    }
    errors
}

/// Convenience wrapper returning `Err` with the first problem.
pub fn validate_ok(program: &Program) -> Result<(), ValidationError> {
    match validate(program).into_iter().next() {
        None => Ok(()),
        Some(e) => Err(e),
    }
}

/// The names in scope are stacks borrowed from the program, innermost
/// last: a program binds a handful of names, so scanning them beats
/// hashing, and leaving a block truncates them back.
struct Ctx<'a> {
    program: &'a Program,
    errors: &'a mut Vec<ValidationError>,
    /// Initialized scalar fp variables (parameters, `comp`, declared temps).
    scalars: Vec<&'a str>,
    /// Integer variables in scope (int parameters, loop variables).
    ints: Vec<&'a str>,
    /// Arrays in scope and their lengths.
    arrays: Vec<(&'a str, usize)>,
    /// Loop variables currently in scope and their (exclusive) bounds.
    loop_bounds: Vec<(&'a str, i64)>,
}

impl<'a> Ctx<'a> {
    fn new(program: &'a Program, errors: &'a mut Vec<ValidationError>) -> Self {
        let mut scalars = vec![COMP];
        let mut ints = Vec::new();
        let mut arrays = Vec::new();
        for p in &program.params {
            match p.ty {
                ParamType::Int => ints.push(p.name.as_str()),
                ParamType::Fp => scalars.push(p.name.as_str()),
                ParamType::FpArray(len) => arrays.push((p.name.as_str(), len)),
            }
        }
        Ctx { program, errors, scalars, ints, arrays, loop_bounds: Vec::new() }
    }

    fn is_scalar(&self, name: &str) -> bool {
        self.scalars.contains(&name)
    }

    fn is_int(&self, name: &str) -> bool {
        self.ints.contains(&name)
    }

    fn error(&mut self, message: impl Into<String>) {
        self.errors.push(ValidationError::new(message));
    }

    fn check_params(&mut self) {
        let mut seen: Vec<&str> = Vec::with_capacity(self.program.params.len());
        for p in &self.program.params {
            if seen.contains(&p.name.as_str()) {
                self.error(format!("duplicate parameter name `{}`", p.name));
            } else {
                seen.push(&p.name);
            }
            if p.name == COMP {
                self.error("`comp` cannot be used as a parameter name");
            }
            if !is_valid_ident(&p.name) {
                self.error(format!("invalid parameter name `{}`", p.name));
            }
            if let ParamType::FpArray(len) = p.ty {
                if len == 0 || len > MAX_ARRAY_LEN {
                    self.error(format!(
                        "array parameter `{}` has invalid length {len} (must be 1..={MAX_ARRAY_LEN})",
                        p.name
                    ));
                }
            }
        }
    }

    fn array_len(&self, name: &str) -> Option<usize> {
        self.arrays.iter().rev().find(|(n, _)| *n == name).map(|(_, l)| *l)
    }

    fn check_block(&mut self, block: &'a Block) {
        // Track names declared in this block so they can be popped on exit;
        // the grammar has no shadowing semantics beyond C's, and we simply
        // forbid redeclaration.
        let scalars_before = self.scalars.len();
        let arrays_before = self.arrays.len();
        for stmt in &block.stmts {
            match stmt {
                Stmt::Assign { target, op: _, expr } => {
                    if !self.is_scalar(target) {
                        self.error(format!("assignment to undeclared variable `{target}`"));
                    }
                    self.check_expr(expr);
                }
                Stmt::DeclScalar { name, expr } => {
                    self.check_expr(expr);
                    if !is_valid_ident(name) {
                        self.error(format!("invalid variable name `{name}`"));
                    }
                    if self.is_scalar(name) || self.is_int(name) {
                        self.error(format!("redeclaration of `{name}`"));
                    }
                    self.scalars.push(name);
                }
                Stmt::DeclArray { name, size, init } => {
                    if *size == 0 || *size > MAX_ARRAY_LEN {
                        self.error(format!(
                            "array `{name}` has invalid length {size} (must be 1..={MAX_ARRAY_LEN})"
                        ));
                    }
                    if init.len() > *size {
                        self.error(format!(
                            "array `{name}` has {} initializers for {} elements",
                            init.len(),
                            size
                        ));
                    }
                    if self.array_len(name).is_some() || self.is_scalar(name) {
                        self.error(format!("redeclaration of `{name}`"));
                    }
                    self.arrays.push((name, *size));
                }
                Stmt::AssignIndex { array, index, op: _, expr } => {
                    match self.array_len(array) {
                        None => self.error(format!("assignment to undeclared array `{array}`")),
                        Some(len) => self.check_index(array, index, len),
                    }
                    self.check_expr(expr);
                }
                Stmt::If { cond, then_block } => {
                    self.check_expr(&cond.lhs);
                    self.check_expr(&cond.rhs);
                    if then_block.is_empty() {
                        self.error("empty `if` body");
                    }
                    self.check_block(then_block);
                }
                Stmt::For { var, bound, body } => {
                    if !is_valid_ident(var) {
                        self.error(format!("invalid loop variable name `{var}`"));
                    }
                    if *bound <= 0 || *bound > MAX_LOOP_BOUND {
                        self.error(format!(
                            "loop bound {bound} out of range (must be 1..={MAX_LOOP_BOUND})"
                        ));
                    }
                    if body.is_empty() {
                        self.error("empty `for` body");
                    }
                    self.ints.push(var);
                    self.loop_bounds.push((var, *bound));
                    self.check_block(body);
                    self.loop_bounds.pop();
                    self.ints.pop();
                }
            }
        }
        // Restore the scope: declarations local to this block disappear.
        self.scalars.truncate(scalars_before);
        self.arrays.truncate(arrays_before);
    }

    fn check_expr(&mut self, expr: &'a Expr) {
        match expr {
            Expr::Num(v) => {
                if v.is_nan() || v.is_infinite() {
                    self.error("literal NaN/Inf constants are not allowed");
                }
            }
            Expr::Int(_) => {}
            Expr::Var(name) => {
                if !self.is_scalar(name) && !self.is_int(name) {
                    self.error(format!("use of undeclared variable `{name}`"));
                }
            }
            Expr::Index { array, index } => match self.array_len(array) {
                None => self.error(format!("use of undeclared array `{array}`")),
                Some(len) => self.check_index(array, index, len),
            },
            Expr::Paren(inner) | Expr::Neg(inner) => self.check_expr(inner),
            Expr::Bin { lhs, rhs, .. } => {
                self.check_expr(lhs);
                self.check_expr(rhs);
            }
            Expr::Call { func, args } => {
                if args.len() != func.arity() {
                    self.error(format!(
                        "`{func}` expects {} arguments, found {}",
                        func.arity(),
                        args.len()
                    ));
                }
                for a in args {
                    self.check_expr(a);
                }
            }
        }
    }

    fn check_index(&mut self, array: &str, index: &IndexExpr, len: usize) {
        match index {
            IndexExpr::Const(k) => {
                if *k < 0 || *k as usize >= len {
                    self.error(format!("index {k} out of bounds for `{array}` (length {len})"));
                }
            }
            IndexExpr::Var(var) | IndexExpr::Offset { var, .. } | IndexExpr::Mod { var, .. } => {
                let bound = self.loop_bounds.iter().rev().find(|(v, _)| v == var).map(|(_, b)| *b);
                match (index, bound) {
                    (_, None) => {
                        if !self.is_int(var) {
                            self.error(format!("index variable `{var}` is not in scope"));
                        } else {
                            // An int parameter used directly as an index: its
                            // runtime value is unknown, so only `% modulus`
                            // accesses can be proven in bounds.
                            match index {
                                IndexExpr::Mod { modulus, .. }
                                    if *modulus > 0 && *modulus as usize <= len => {}
                                _ => self.error(format!(
                                    "cannot prove index `{}` is within bounds of `{array}`",
                                    index.c_str()
                                )),
                            }
                        }
                    }
                    (IndexExpr::Var(_), Some(b)) => {
                        if b as usize > len {
                            self.error(format!(
                                "loop bound {b} can exceed length {len} of `{array}`"
                            ));
                        }
                    }
                    (IndexExpr::Offset { offset, .. }, Some(b)) => {
                        let min = (*offset).min(0);
                        let max = (b - 1) + (*offset).max(0);
                        if min < 0 || max as usize >= len {
                            self.error(format!(
                                "index `{}` can leave the bounds of `{array}` (length {len})",
                                index.c_str()
                            ));
                        }
                    }
                    (IndexExpr::Mod { modulus, .. }, Some(_)) => {
                        if *modulus <= 0 || *modulus as usize > len {
                            self.error(format!(
                                "modulus {modulus} exceeds length {len} of `{array}`"
                            ));
                        }
                    }
                    (IndexExpr::Const(_), _) => unreachable!("handled above"),
                }
            }
        }
    }
}

fn is_valid_ident(name: &str) -> bool {
    !name.is_empty()
        && name.chars().next().map(|c| c.is_ascii_alphabetic() || c == '_').unwrap_or(false)
        && name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_')
        && !crate::tokens::KEYWORDS.contains(&name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{AssignOp, BinOp, BoolExpr, CmpOp, Param, Precision};
    use crate::MathFunc;

    fn valid_program() -> Program {
        let params = vec![
            Param::new("x", ParamType::Fp),
            Param::new("a", ParamType::FpArray(4)),
            Param::new("n", ParamType::Int),
        ];
        let mut body = Block::default();
        body.push(Stmt::DeclScalar { name: "t0".into(), expr: Expr::var("x") });
        body.push(Stmt::For {
            var: "i".into(),
            bound: 4,
            body: Block::new(vec![Stmt::Assign {
                target: COMP.into(),
                op: AssignOp::Add,
                expr: Expr::bin(
                    BinOp::Mul,
                    Expr::Index { array: "a".into(), index: IndexExpr::Var("i".into()) },
                    Expr::var("t0"),
                ),
            }]),
        });
        Program { precision: Precision::F64, params, body }
    }

    #[test]
    fn accepts_valid_program() {
        assert!(validate(&valid_program()).is_empty());
        assert!(validate_ok(&valid_program()).is_ok());
    }

    #[test]
    fn rejects_empty_body_and_duplicate_params() {
        let mut p = valid_program();
        p.body = Block::default();
        assert!(validate(&p).iter().any(|e| e.message.contains("empty")));

        let mut p = valid_program();
        p.params.push(Param::new("x", ParamType::Fp));
        assert!(validate(&p).iter().any(|e| e.message.contains("duplicate")));
    }

    #[test]
    fn rejects_uninitialized_variable_use() {
        let mut p = valid_program();
        p.body.push(Stmt::Assign {
            target: COMP.into(),
            op: AssignOp::Add,
            expr: Expr::var("undeclared"),
        });
        assert!(validate(&p).iter().any(|e| e.message.contains("undeclared")));
    }

    #[test]
    fn rejects_out_of_bounds_indices() {
        let mut p = valid_program();
        p.body.push(Stmt::Assign {
            target: COMP.into(),
            op: AssignOp::Add,
            expr: Expr::Index { array: "a".into(), index: IndexExpr::Const(7) },
        });
        assert!(validate(&p).iter().any(|e| e.message.contains("out of bounds")));
    }

    #[test]
    fn rejects_loop_bound_exceeding_array() {
        let mut p = valid_program();
        p.body.push(Stmt::For {
            var: "j".into(),
            bound: 9,
            body: Block::new(vec![Stmt::Assign {
                target: COMP.into(),
                op: AssignOp::Add,
                expr: Expr::Index { array: "a".into(), index: IndexExpr::Var("j".into()) },
            }]),
        });
        assert!(validate(&p).iter().any(|e| e.message.contains("can exceed")));
    }

    #[test]
    fn offset_indices_are_bounds_checked() {
        let mut p = valid_program();
        p.body.push(Stmt::For {
            var: "j".into(),
            bound: 4,
            body: Block::new(vec![Stmt::Assign {
                target: COMP.into(),
                op: AssignOp::Add,
                expr: Expr::Index {
                    array: "a".into(),
                    index: IndexExpr::Offset { var: "j".into(), offset: 1 },
                },
            }]),
        });
        assert!(validate(&p).iter().any(|e| e.message.contains("leave the bounds")));
    }

    #[test]
    fn mod_indices_with_int_params_are_accepted() {
        let mut p = valid_program();
        p.body.push(Stmt::Assign {
            target: COMP.into(),
            op: AssignOp::Add,
            expr: Expr::Index {
                array: "a".into(),
                index: IndexExpr::Mod { var: "n".into(), modulus: 4 },
            },
        });
        assert!(validate(&p).is_empty());
        // But a bare int parameter index cannot be proven in bounds.
        let mut p2 = valid_program();
        p2.body.push(Stmt::Assign {
            target: COMP.into(),
            op: AssignOp::Add,
            expr: Expr::Index { array: "a".into(), index: IndexExpr::Var("n".into()) },
        });
        assert!(validate(&p2).iter().any(|e| e.message.contains("cannot prove")));
    }

    #[test]
    fn rejects_excessive_loops_arrays_and_bad_literals() {
        let mut p = valid_program();
        p.body.push(Stmt::For {
            var: "k".into(),
            bound: MAX_LOOP_BOUND + 1,
            body: Block::new(vec![Stmt::Assign {
                target: COMP.into(),
                op: AssignOp::Add,
                expr: Expr::Num(1.0),
            }]),
        });
        assert!(validate(&p).iter().any(|e| e.message.contains("loop bound")));

        let mut p = valid_program();
        p.body.push(Stmt::DeclArray { name: "big".into(), size: MAX_ARRAY_LEN + 1, init: vec![] });
        assert!(validate(&p).iter().any(|e| e.message.contains("invalid length")));

        let mut p = valid_program();
        p.body.push(Stmt::Assign {
            target: COMP.into(),
            op: AssignOp::Assign,
            expr: Expr::Num(f64::NAN),
        });
        assert!(validate(&p).iter().any(|e| e.message.contains("NaN")));
    }

    #[test]
    fn rejects_wrong_call_arity_and_keyword_names() {
        let mut p = valid_program();
        p.body.push(Stmt::Assign {
            target: COMP.into(),
            op: AssignOp::Assign,
            expr: Expr::Call { func: MathFunc::Pow, args: vec![Expr::var("x")] },
        });
        assert!(validate(&p).iter().any(|e| e.message.contains("expects 2")));

        let mut p = valid_program();
        p.body.push(Stmt::DeclScalar { name: "double".into(), expr: Expr::Num(1.0) });
        assert!(validate(&p).iter().any(|e| e.message.contains("invalid variable name")));
    }

    #[test]
    fn block_scoping_pops_declarations() {
        // A temp declared inside an `if` is not visible afterwards.
        let mut p = valid_program();
        p.body.push(Stmt::If {
            cond: BoolExpr { lhs: Expr::var(COMP), op: CmpOp::Gt, rhs: Expr::Num(0.0) },
            then_block: Block::new(vec![Stmt::DeclScalar {
                name: "tmp".into(),
                expr: Expr::Num(1.0),
            }]),
        });
        p.body.push(Stmt::Assign {
            target: COMP.into(),
            op: AssignOp::Add,
            expr: Expr::var("tmp"),
        });
        assert!(validate(&p).iter().any(|e| e.message.contains("undeclared variable `tmp`")));
    }
}
