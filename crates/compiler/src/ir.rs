//! The virtual compiler's intermediate representation.
//!
//! The IR keeps the structured control flow of the source program (loops and
//! conditionals are interpreted, not unrolled) but normalizes expressions:
//! parentheses are gone, compound assignments are desugared, and two
//! operation kinds that do not exist in the source language appear —
//! [`OExpr::Fma`] (produced by the contraction pass) and [`OExpr::Recip`]
//! (produced by the fast-math reciprocal-division pass).

use serde::{Deserialize, Serialize};

use llm4fp_fpir::{BinOp, CmpOp, IndexExpr, MathFunc};

/// An optimized expression.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum OExpr {
    /// Floating-point constant.
    Const(f64),
    /// Scalar variable read (fp temporaries, parameters, `comp`, or integer
    /// variables, which are converted to fp on read).
    Var(String),
    /// Array element read.
    Index { array: String, index: IndexExpr },
    /// Negation.
    Neg(Box<OExpr>),
    /// Binary arithmetic.
    Bin { op: BinOp, lhs: Box<OExpr>, rhs: Box<OExpr> },
    /// Fused multiply-add `a * b + c` evaluated with a single rounding.
    Fma { a: Box<OExpr>, b: Box<OExpr>, c: Box<OExpr> },
    /// Reciprocal `1 / x`; `approx` selects the hardware approximation path.
    Recip { value: Box<OExpr>, approx: bool },
    /// Math library call.
    Call { func: MathFunc, args: Vec<OExpr> },
}

impl OExpr {
    pub fn bin(op: BinOp, lhs: OExpr, rhs: OExpr) -> OExpr {
        OExpr::Bin { op, lhs: Box::new(lhs), rhs: Box::new(rhs) }
    }

    pub fn fma(a: OExpr, b: OExpr, c: OExpr) -> OExpr {
        OExpr::Fma { a: Box::new(a), b: Box::new(b), c: Box::new(c) }
    }

    pub fn var(name: impl Into<String>) -> OExpr {
        OExpr::Var(name.into())
    }

    /// Constant value if this node is a literal.
    pub fn as_const(&self) -> Option<f64> {
        match self {
            OExpr::Const(v) => Some(*v),
            _ => None,
        }
    }

    /// Number of nodes in the tree.
    pub fn size(&self) -> usize {
        let mut n = 0;
        self.visit(&mut |_| n += 1);
        n
    }

    /// Pre-order visit of the tree.
    pub fn visit(&self, f: &mut impl FnMut(&OExpr)) {
        f(self);
        match self {
            OExpr::Neg(inner) => inner.visit(f),
            OExpr::Bin { lhs, rhs, .. } => {
                lhs.visit(f);
                rhs.visit(f);
            }
            OExpr::Fma { a, b, c } => {
                a.visit(f);
                b.visit(f);
                c.visit(f);
            }
            OExpr::Recip { value, .. } => value.visit(f),
            OExpr::Call { args, .. } => {
                for a in args {
                    a.visit(f);
                }
            }
            OExpr::Const(_) | OExpr::Var(_) | OExpr::Index { .. } => {}
        }
    }

    /// Count of nodes of a particular shape, used by pass tests and by the
    /// ablation benchmarks ("how many FMAs did contraction introduce?").
    pub fn count_matching(&self, pred: &impl Fn(&OExpr) -> bool) -> usize {
        let mut n = 0;
        self.visit(&mut |e| {
            if pred(e) {
                n += 1;
            }
        });
        n
    }
}

/// Comparison condition of an `if`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OCond {
    pub lhs: OExpr,
    pub op: CmpOp,
    pub rhs: OExpr,
}

/// An optimized statement.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum OStmt {
    /// Scalar assignment (covers declarations, plain and compound
    /// assignments of the source program; compound forms are desugared).
    Assign { target: String, expr: OExpr },
    /// Array element store.
    Store { array: String, index: IndexExpr, expr: OExpr },
    /// Local array declaration (zero-filled beyond the initializer list).
    DeclArray { name: String, size: usize, init: Vec<f64> },
    /// Conditional.
    If { cond: OCond, then_block: Vec<OStmt> },
    /// Bounded counting loop `for (var = 0; var < bound; ++var)`.
    For { var: String, bound: i64, body: Vec<OStmt> },
}

impl OStmt {
    /// Visit every expression in this statement (and nested statements).
    pub fn visit_exprs(&self, f: &mut impl FnMut(&OExpr)) {
        match self {
            OStmt::Assign { expr, .. } | OStmt::Store { expr, .. } => expr.visit(f),
            OStmt::DeclArray { .. } => {}
            OStmt::If { cond, then_block } => {
                cond.lhs.visit(f);
                cond.rhs.visit(f);
                for s in then_block {
                    s.visit_exprs(f);
                }
            }
            OStmt::For { body, .. } => {
                for s in body {
                    s.visit_exprs(f);
                }
            }
        }
    }
}

/// Count matching expression nodes across a whole body.
pub fn count_in_body(body: &[OStmt], pred: impl Fn(&OExpr) -> bool) -> usize {
    let mut n = 0;
    for s in body {
        s.visit_exprs(&mut |e| {
            if pred(e) {
                n += 1;
            }
        });
    }
    n
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expr_helpers() {
        let e = OExpr::fma(OExpr::var("a"), OExpr::var("b"), OExpr::Const(1.0));
        assert_eq!(e.size(), 4);
        assert_eq!(e.as_const(), None);
        assert_eq!(OExpr::Const(2.0).as_const(), Some(2.0));
        assert_eq!(e.count_matching(&|x| matches!(x, OExpr::Var(_))), 2);
    }

    #[test]
    fn count_in_body_sees_conditions_and_stores() {
        let body = vec![
            OStmt::Store { array: "a".into(), index: IndexExpr::Const(0), expr: OExpr::var("x") },
            OStmt::If {
                cond: OCond { lhs: OExpr::var("x"), op: CmpOp::Lt, rhs: OExpr::var("y") },
                then_block: vec![],
            },
        ];
        assert_eq!(count_in_body(&body, |e| matches!(e, OExpr::Var(_))), 3);
    }
}
