//! Abstract syntax tree for the Varity/LLM4FP program grammar (Figure 2 of
//! the paper).
//!
//! A [`Program`] is the body of a `compute` function: a parameter list plus a
//! [`Block`] of statements operating on the accumulator `comp` and on local
//! temporaries. Expressions are scalar floating-point expressions over the
//! four basic operators, parentheses, math-library calls, variables, array
//! accesses and numeric literals.

use std::fmt::Write as _;

use serde::{Deserialize, Serialize};

use crate::mathfn::MathFunc;

/// Floating-point precision of a generated program.
///
/// The paper's evaluation uses FP64 by default; FP32 is supported end to end
/// (generation, printing, virtual compilation and execution).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum Precision {
    /// IEEE-754 binary32 (`float`).
    F32,
    /// IEEE-754 binary64 (`double`).
    #[default]
    F64,
}

impl Precision {
    /// The C spelling of the type.
    pub fn c_type(self) -> &'static str {
        match self {
            Precision::F32 => "float",
            Precision::F64 => "double",
        }
    }

    /// Number of hexadecimal digits in the bit representation (8 for FP32,
    /// 16 for FP64); the unit in which "digit differences" are reported in
    /// Table 4 of the paper.
    pub fn hex_digits(self) -> usize {
        match self {
            Precision::F32 => 8,
            Precision::F64 => 16,
        }
    }

    /// The zero-padded hexadecimal encoding of a bit pattern at this
    /// precision — exactly what generated programs print and what the
    /// differential tester compares ([`Self::hex_digits`] wide). The one
    /// source of truth for the encoding: the virtual `ExecResult`, the
    /// external backend's outcomes and argv input encoding all render
    /// through it.
    pub fn hex_of_bits(self, bits: u64) -> String {
        match self {
            Precision::F32 => format!("{:08x}", bits as u32),
            Precision::F64 => format!("{bits:016x}"),
        }
    }
}

impl std::fmt::Display for Precision {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.c_type())
    }
}

/// Type of a `compute` parameter (`<param-declaration>` in the grammar).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ParamType {
    /// `int <id>` — an integer scalar (loop bound, selector, ...).
    Int,
    /// `<fp-type> <id>` — a floating-point scalar.
    Fp,
    /// `<fp-type> *<id>` — a pointer to a floating-point buffer of the given
    /// length (the length is part of the program so that inputs can be
    /// materialized and bounds validated).
    FpArray(usize),
}

impl ParamType {
    /// True for the two floating-point parameter kinds.
    pub fn is_fp(self) -> bool {
        !matches!(self, ParamType::Int)
    }
}

/// A single `compute` parameter.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Param {
    pub name: String,
    pub ty: ParamType,
}

impl Param {
    pub fn new(name: impl Into<String>, ty: ParamType) -> Self {
        Param { name: name.into(), ty }
    }
}

/// A full generated program: the `compute` function of the paper's
/// high-level structure. The accompanying `main` is derived from the
/// program together with an [`crate::InputSet`] by the printers.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Program {
    /// Floating-point precision used for every fp variable in the program.
    pub precision: Precision,
    /// `compute` parameters, in declaration order.
    pub params: Vec<Param>,
    /// Body of `compute`. The accumulator `comp` is implicitly declared as
    /// `<fp-type> comp = 0.0;` before the first statement.
    pub body: Block,
}

impl Program {
    /// Create an empty program with the given precision and parameters.
    pub fn new(precision: Precision, params: Vec<Param>) -> Self {
        Program { precision, params, body: Block::default() }
    }

    /// Look up a parameter by name.
    pub fn param(&self, name: &str) -> Option<&Param> {
        self.params.iter().find(|p| p.name == name)
    }

    /// Total number of statements, counting nested blocks.
    pub fn stmt_count(&self) -> usize {
        self.body.stmt_count()
    }

    /// Maximum loop/conditional nesting depth of the body.
    pub fn max_depth(&self) -> usize {
        self.body.max_depth()
    }

    /// Iterate over every expression in the program (including loop bounds
    /// and conditions), in source order.
    pub fn for_each_expr(&self, f: &mut impl FnMut(&Expr)) {
        self.body.for_each_expr(f);
    }

    /// Count of math-library calls in the program.
    pub fn math_call_count(&self) -> usize {
        let mut n = 0;
        self.for_each_expr(&mut |e| {
            if matches!(e, Expr::Call { .. }) {
                n += 1;
            }
        });
        n
    }
}

/// `<block>` — a non-empty (after generation) sequence of statements.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct Block {
    pub stmts: Vec<Stmt>,
}

impl Block {
    pub fn new(stmts: Vec<Stmt>) -> Self {
        Block { stmts }
    }

    pub fn push(&mut self, stmt: Stmt) {
        self.stmts.push(stmt);
    }

    pub fn is_empty(&self) -> bool {
        self.stmts.is_empty()
    }

    /// Number of statements including statements of nested blocks.
    pub fn stmt_count(&self) -> usize {
        self.stmts
            .iter()
            .map(|s| match s {
                Stmt::If { then_block, .. } => 1 + then_block.stmt_count(),
                Stmt::For { body, .. } => 1 + body.stmt_count(),
                _ => 1,
            })
            .sum()
    }

    /// Maximum nesting depth (0 for a flat block).
    pub fn max_depth(&self) -> usize {
        self.stmts
            .iter()
            .map(|s| match s {
                Stmt::If { then_block, .. } => 1 + then_block.max_depth(),
                Stmt::For { body, .. } => 1 + body.max_depth(),
                _ => 0,
            })
            .max()
            .unwrap_or(0)
    }

    /// Visit every expression in the block in source order.
    pub fn for_each_expr(&self, f: &mut impl FnMut(&Expr)) {
        for stmt in &self.stmts {
            match stmt {
                Stmt::Assign { expr, .. } | Stmt::DeclScalar { expr, .. } => expr.visit(f),
                Stmt::AssignIndex { expr, .. } => expr.visit(f),
                Stmt::DeclArray { .. } => {}
                Stmt::If { cond, then_block } => {
                    cond.lhs.visit(f);
                    cond.rhs.visit(f);
                    then_block.for_each_expr(f);
                }
                Stmt::For { body, .. } => body.for_each_expr(f),
            }
        }
    }
}

/// `<assign-op>` — plain or compound assignment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AssignOp {
    /// `=`
    Assign,
    /// `+=`
    Add,
    /// `-=`
    Sub,
    /// `*=`
    Mul,
    /// `/=`
    Div,
}

impl AssignOp {
    pub fn c_str(self) -> &'static str {
        match self {
            AssignOp::Assign => "=",
            AssignOp::Add => "+=",
            AssignOp::Sub => "-=",
            AssignOp::Mul => "*=",
            AssignOp::Div => "/=",
        }
    }

    /// The binary operator a compound assignment desugars to, if any.
    pub fn bin_op(self) -> Option<BinOp> {
        match self {
            AssignOp::Assign => None,
            AssignOp::Add => Some(BinOp::Add),
            AssignOp::Sub => Some(BinOp::Sub),
            AssignOp::Mul => Some(BinOp::Mul),
            AssignOp::Div => Some(BinOp::Div),
        }
    }
}

/// A statement of the `compute` body.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Stmt {
    /// `comp <assign-op> <expression>;` or `<id> <assign-op> <expression>;`
    /// — assignment to the accumulator or to an existing scalar variable.
    Assign { target: String, op: AssignOp, expr: Expr },
    /// `<fp-type> <id> = <expression>;` — declaration of a scalar temporary.
    DeclScalar { name: String, expr: Expr },
    /// `<fp-type> <id>[N] = { ... };` — declaration of a local array. A
    /// shorter initializer list zero-fills the remaining elements, as in C.
    DeclArray { name: String, size: usize, init: Vec<f64> },
    /// `<id>[<index>] <assign-op> <expression>;`
    AssignIndex { array: String, index: IndexExpr, op: AssignOp, expr: Expr },
    /// `if (<bool-expression>) { <block> }`
    If { cond: BoolExpr, then_block: Block },
    /// `for (int <id> = 0; <id> < <bound>; ++<id>) { <block> }`
    For { var: String, bound: i64, body: Block },
}

/// `<bool-expression>` — a single comparison between two fp expressions.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BoolExpr {
    pub lhs: Expr,
    pub op: CmpOp,
    pub rhs: Expr,
}

/// Comparison operators usable in `if` conditions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CmpOp {
    Lt,
    Le,
    Gt,
    Ge,
    Eq,
    Ne,
}

impl CmpOp {
    pub fn c_str(self) -> &'static str {
        match self {
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
            CmpOp::Eq => "==",
            CmpOp::Ne => "!=",
        }
    }

    /// Evaluate the comparison on two doubles with IEEE semantics (any
    /// comparison with NaN except `!=` is false).
    pub fn eval(self, a: f64, b: f64) -> bool {
        match self {
            CmpOp::Lt => a < b,
            CmpOp::Le => a <= b,
            CmpOp::Gt => a > b,
            CmpOp::Ge => a >= b,
            CmpOp::Eq => a == b,
            CmpOp::Ne => a != b,
        }
    }
}

/// The four floating-point binary operators of the grammar.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum BinOp {
    Add,
    Sub,
    Mul,
    Div,
}

impl BinOp {
    pub fn c_str(self) -> &'static str {
        match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
        }
    }

    /// True for the commutative/associative-under-fast-math operators.
    pub fn is_associative(self) -> bool {
        matches!(self, BinOp::Add | BinOp::Mul)
    }
}

/// Array index expressions. Kept deliberately simple (a constant, a loop
/// variable, a loop variable plus a constant offset, or a loop variable
/// reduced modulo a constant) so that bounds can be validated statically.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum IndexExpr {
    /// `a[3]`
    Const(i64),
    /// `a[i]`
    Var(String),
    /// `a[i + 2]` / `a[i - 1]`
    Offset { var: String, offset: i64 },
    /// `a[i % 4]`
    Mod { var: String, modulus: i64 },
}

impl IndexExpr {
    /// Render to C.
    pub fn c_str(&self) -> String {
        let mut out = String::new();
        self.write_c(&mut out);
        out
    }

    /// Append [`Self::c_str`] to `out`.
    pub(crate) fn write_c(&self, out: &mut String) {
        let _ = match self {
            IndexExpr::Const(k) => write!(out, "{k}"),
            IndexExpr::Var(v) => out.write_str(v),
            IndexExpr::Offset { var, offset } if *offset >= 0 => write!(out, "{var} + {offset}"),
            IndexExpr::Offset { var, offset } => write!(out, "{var} - {}", -offset),
            IndexExpr::Mod { var, modulus } => write!(out, "{var} % {modulus}"),
        };
    }

    /// The loop/integer variable referenced by the index, if any.
    pub fn var(&self) -> Option<&str> {
        match self {
            IndexExpr::Const(_) => None,
            IndexExpr::Var(v)
            | IndexExpr::Offset { var: v, .. }
            | IndexExpr::Mod { var: v, .. } => Some(v),
        }
    }

    /// Evaluate the index given the value of the referenced variable.
    pub fn eval(&self, var_value: i64) -> i64 {
        match self {
            IndexExpr::Const(k) => *k,
            IndexExpr::Var(_) => var_value,
            IndexExpr::Offset { offset, .. } => var_value + offset,
            IndexExpr::Mod { modulus, .. } => {
                if *modulus <= 0 {
                    0
                } else {
                    var_value.rem_euclid(*modulus)
                }
            }
        }
    }
}

/// `<expression>` — scalar floating-point expressions.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Expr {
    /// Floating-point numeral. The value is stored as `f64` and truncated to
    /// the program precision when printed / evaluated in FP32 programs.
    Num(f64),
    /// Integer numeral appearing inside an fp expression (implicitly
    /// converted, as in C).
    Int(i64),
    /// A scalar variable: `comp`, a temporary, an fp parameter, an int
    /// parameter or a loop variable (the latter two are converted to fp).
    Var(String),
    /// An array element: local array or fp-array parameter.
    Index { array: String, index: IndexExpr },
    /// Explicit parentheses. Semantically transparent but preserved so that
    /// printing, token streams and CodeBLEU see the same surface syntax the
    /// generator produced.
    Paren(Box<Expr>),
    /// Unary negation.
    Neg(Box<Expr>),
    /// Binary arithmetic.
    Bin { op: BinOp, lhs: Box<Expr>, rhs: Box<Expr> },
    /// Call into the C math library.
    Call { func: MathFunc, args: Vec<Expr> },
}

impl Expr {
    /// Convenience constructor for a binary expression.
    pub fn bin(op: BinOp, lhs: Expr, rhs: Expr) -> Expr {
        Expr::Bin { op, lhs: Box::new(lhs), rhs: Box::new(rhs) }
    }

    /// Convenience constructor for a variable reference.
    pub fn var(name: impl Into<String>) -> Expr {
        Expr::Var(name.into())
    }

    /// Convenience constructor for a call.
    pub fn call(func: MathFunc, args: Vec<Expr>) -> Expr {
        Expr::Call { func, args }
    }

    /// Wrap in parentheses.
    pub fn paren(self) -> Expr {
        Expr::Paren(Box::new(self))
    }

    /// Remove any number of leading `Paren` wrappers.
    pub fn strip_parens(&self) -> &Expr {
        let mut e = self;
        while let Expr::Paren(inner) = e {
            e = inner;
        }
        e
    }

    /// Visit this expression and all sub-expressions, pre-order.
    pub fn visit(&self, f: &mut impl FnMut(&Expr)) {
        f(self);
        match self {
            Expr::Paren(inner) | Expr::Neg(inner) => inner.visit(f),
            Expr::Bin { lhs, rhs, .. } => {
                lhs.visit(f);
                rhs.visit(f);
            }
            Expr::Call { args, .. } => {
                for a in args {
                    a.visit(f);
                }
            }
            Expr::Num(_) | Expr::Int(_) | Expr::Var(_) | Expr::Index { .. } => {}
        }
    }

    /// Number of nodes in the expression tree.
    pub fn size(&self) -> usize {
        let mut n = 0;
        self.visit(&mut |_| n += 1);
        n
    }

    /// Depth of the expression tree (a leaf has depth 1).
    pub fn depth(&self) -> usize {
        match self {
            Expr::Paren(inner) | Expr::Neg(inner) => 1 + inner.depth(),
            Expr::Bin { lhs, rhs, .. } => 1 + lhs.depth().max(rhs.depth()),
            Expr::Call { args, .. } => 1 + args.iter().map(Expr::depth).max().unwrap_or(0),
            _ => 1,
        }
    }

    /// Names of all scalar variables referenced by the expression.
    pub fn referenced_vars(&self) -> Vec<String> {
        let mut out = Vec::new();
        self.visit(&mut |e| {
            if let Expr::Var(v) = e {
                out.push(v.clone());
            }
        });
        out
    }
}

/// Format an `f64` as a C literal that round-trips exactly: hexadecimal
/// floating-point literals (`0x1.8p+1`) for finite values and the usual
/// spellings for the special values.
pub fn c_fp_literal(value: f64, precision: Precision) -> String {
    let mut out = String::new();
    write_c_fp_literal(&mut out, value, precision);
    out
}

/// Append [`c_fp_literal`]`(value, precision)` to `out`.
pub(crate) fn write_c_fp_literal(out: &mut String, value: f64, precision: Precision) {
    let suffix = match precision {
        Precision::F32 => "f",
        Precision::F64 => "",
    };
    if value.is_nan() {
        let _ = write!(out, "(0.0{suffix} / 0.0{suffix})");
    } else if value.is_infinite() {
        let sign = if value > 0.0 { "" } else { "-" };
        let _ = write!(out, "({sign}1.0{suffix} / 0.0{suffix})");
    } else if value.fract() == 0.0 && value.abs() < 1e6 {
        // Small integral values print as plain decimals for readability;
        // other values print as hex floats so the literal is exact.
        let _ = write!(out, "{value:.1}{suffix}");
    } else {
        write_hex_float(out, value, precision);
        out.push_str(suffix);
    }
}

/// Hexadecimal floating-point literal (C99 `%a`-style) for a finite value:
/// the 13 mantissa digits without their trailing zeros.
fn write_hex_float(out: &mut String, value: f64, precision: Precision) {
    let v = match precision {
        Precision::F32 => value as f32 as f64,
        Precision::F64 => value,
    };
    if v == 0.0 {
        out.push_str(if v.is_sign_negative() { "-0x0p+0" } else { "0x0p+0" });
        return;
    }
    let bits = v.to_bits();
    if bits >> 63 == 1 {
        out.push('-');
    }
    let exp_bits = ((bits >> 52) & 0x7ff) as i64;
    let mant = bits & 0xf_ffff_ffff_ffff;
    // Subnormals are 0.mantissa * 2^-1022.
    let (lead, exp) = if exp_bits == 0 { (0, -1022) } else { (1, exp_bits - 1023) };
    if mant == 0 {
        let _ = write!(out, "0x{lead}p{exp:+}");
    } else {
        let zero_digits = mant.trailing_zeros() / 4;
        let width = 13 - zero_digits as usize;
        let _ = write!(out, "0x{lead}.{:0width$x}p{exp:+}", mant >> (4 * zero_digits));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn precision_properties() {
        assert_eq!(Precision::F64.c_type(), "double");
        assert_eq!(Precision::F32.c_type(), "float");
        assert_eq!(Precision::F64.hex_digits(), 16);
        assert_eq!(Precision::F32.hex_digits(), 8);
        assert_eq!(Precision::default(), Precision::F64);
    }

    #[test]
    fn expr_size_and_depth() {
        // (a + b) * sin(c)
        let e = Expr::bin(
            BinOp::Mul,
            Expr::bin(BinOp::Add, Expr::var("a"), Expr::var("b")).paren(),
            Expr::call(MathFunc::Sin, vec![Expr::var("c")]),
        );
        assert_eq!(e.size(), 7);
        assert_eq!(e.depth(), 4);
        assert_eq!(e.referenced_vars(), vec!["a", "b", "c"]);
    }

    #[test]
    fn strip_parens_removes_all_layers() {
        let e = Expr::Num(1.0).paren().paren().paren();
        assert_eq!(e.strip_parens(), &Expr::Num(1.0));
    }

    #[test]
    fn block_counts() {
        let mut inner = Block::default();
        inner.push(Stmt::Assign { target: "comp".into(), op: AssignOp::Add, expr: Expr::Num(1.0) });
        let mut body = Block::default();
        body.push(Stmt::DeclScalar { name: "t0".into(), expr: Expr::Num(2.0) });
        body.push(Stmt::For { var: "i".into(), bound: 4, body: inner });
        let p = Program { precision: Precision::F64, params: vec![], body };
        assert_eq!(p.stmt_count(), 3);
        assert_eq!(p.max_depth(), 1);
    }

    #[test]
    fn index_expr_eval() {
        assert_eq!(IndexExpr::Const(3).eval(99), 3);
        assert_eq!(IndexExpr::Var("i".into()).eval(5), 5);
        assert_eq!(IndexExpr::Offset { var: "i".into(), offset: -2 }.eval(5), 3);
        assert_eq!(IndexExpr::Mod { var: "i".into(), modulus: 4 }.eval(10), 2);
        assert_eq!(IndexExpr::Mod { var: "i".into(), modulus: 0 }.eval(10), 0);
    }

    #[test]
    fn cmp_op_nan_semantics() {
        let nan = f64::NAN;
        assert!(!CmpOp::Lt.eval(nan, 1.0));
        assert!(!CmpOp::Eq.eval(nan, nan));
        assert!(CmpOp::Ne.eval(nan, nan));
    }

    #[test]
    fn fp_literal_round_trips_exactly() {
        for &v in &[0.1, 1.5, -3.75, 1e-300, 2.2250738585072014e-308, 6.5e12, -0.0] {
            let lit = c_fp_literal(v, Precision::F64);
            if lit.contains("0x") {
                // Re-parse the hex literal manually: sign 0x h . frac p exp
                let parsed = parse_hex_literal(&lit);
                assert_eq!(parsed.to_bits(), v.to_bits(), "literal {lit} for {v}");
            }
        }
    }

    fn parse_hex_literal(s: &str) -> f64 {
        let neg = s.starts_with('-');
        let s = s.trim_start_matches('-');
        let s = s.trim_start_matches("0x");
        let (mant, exp) = s.split_once(['p', 'P']).unwrap();
        let exp: i32 = exp.parse().unwrap();
        let (int_part, frac_part) = match mant.split_once('.') {
            Some((i, f)) => (i, f),
            None => (mant, ""),
        };
        let mut value = u64::from_str_radix(int_part, 16).unwrap() as f64;
        let mut scale = 1.0 / 16.0;
        for c in frac_part.chars() {
            value += (c.to_digit(16).unwrap() as f64) * scale;
            scale /= 16.0;
        }
        let v = value * 2f64.powi(exp);
        if neg {
            -v
        } else {
            v
        }
    }

    #[test]
    fn fp_literal_special_values() {
        assert!(c_fp_literal(f64::NAN, Precision::F64).contains("0.0 / 0.0"));
        assert!(c_fp_literal(f64::INFINITY, Precision::F64).starts_with("(1.0"));
        assert!(c_fp_literal(f64::NEG_INFINITY, Precision::F64).starts_with("(-1.0"));
        assert_eq!(c_fp_literal(2.0, Precision::F32), "2.0f");
    }
}
