//! Recursive-descent parser for the `compute`-function C subset.
//!
//! The parser accepts the code produced by [`crate::printer::to_compute_source`]
//! (and reasonable hand-written variants within the grammar) and rebuilds a
//! [`Program`]. It is used for printer/parser round-trip testing, for
//! re-importing externally stored successful programs, and by the simulated
//! LLM when it mutates a seed program that is only available as text.
//!
//! [`parse_compute`] scans the source once into `(TokenKind, &str)` pairs
//! whose text borrows from the input ([`crate::tokens::scan_tokens`]), so no
//! token is copied: lookahead compares slices, integers are read from their
//! digit prefix in place, and an identifier becomes a `String` only when the
//! AST stores it. Error messages are formatted only on failure.
//!
//! The input is untrusted (model responses, sources restored from run dirs
//! and wire frames), so recursion is bounded: parenthesized and negated
//! expressions, call arguments and blocks share one nesting counter, and
//! input nested deeper than 128 levels is a [`ParseError`] rather than a
//! stack overflow. Generated programs nest a handful of levels deep.

use crate::ast::{
    AssignOp, BinOp, Block, BoolExpr, CmpOp, Expr, IndexExpr, Param, ParamType, Precision, Program,
    Stmt,
};
use crate::mathfn::MathFunc;
use crate::tokens::{scan_tokens, TokenKind};
use crate::COMP;

/// Array length assumed for pointer parameters, whose length is not part of
/// the C signature. Programs built by the generators always carry their true
/// length; this default only applies to re-parsed source.
pub const PARSED_ARRAY_LEN: usize = 8;

/// Deepest nesting of parentheses, negations, call argument lists and
/// blocks the parser accepts (the same limit as `serde_json`'s recursion
/// limit). It keeps recursion far inside a 2 MB thread stack even in debug
/// builds.
const MAX_NESTING: usize = 128;

/// Parse failure: a message plus the index of the offending token.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    pub message: String,
    pub position: usize,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "parse error at token {}: {}", self.position, self.message)
    }
}

impl std::error::Error for ParseError {}

/// Parse the text of a `compute` function (optionally preceded by includes
/// or a `__global__` qualifier) into a [`Program`].
///
/// Pointer-parameter lengths are not part of a C signature, so after parsing
/// the body is analysed and each array parameter is assigned the smallest
/// length that makes every observed access in-bounds (falling back to
/// [`PARSED_ARRAY_LEN`] for arrays that are never indexed).
pub fn parse_compute(src: &str) -> Result<Program, ParseError> {
    let mut tokens = Vec::with_capacity(src.len() / 3);
    scan_tokens(src, |kind, text| tokens.push((kind, text)));
    let mut p = Parser { tokens, pos: 0, precision: Precision::F64, depth: 0 };
    let mut program = p.parse_program()?;
    infer_array_param_lengths(&mut program);
    Ok(program)
}

/// Determine the minimum length each array parameter needs so that all
/// accesses in the body are within bounds, and update the parameter types
/// accordingly: an indexed array gets its largest need (at least 0),
/// clamped to `2..=MAX_ARRAY_LEN`; an array that is never indexed gets
/// [`PARSED_ARRAY_LEN`]. Parameters with the same name share one need.
fn infer_array_param_lengths(program: &mut Program) {
    /// The largest index need seen per array name, borrowed from the body
    /// (programs index a handful of arrays, so a linear scan is enough).
    type Needs<'b> = Vec<(&'b str, i64)>;

    fn record<'b>(needs: &mut Needs<'b>, array: &'b str, need: i64) {
        match needs.iter_mut().find(|(name, _)| *name == array) {
            Some((_, max)) => *max = (*max).max(need),
            None => needs.push((array, need.max(0))),
        }
    }

    fn index_requirement(index: &IndexExpr, loop_bounds: &[(&str, i64)]) -> i64 {
        let bound_of =
            |var: &str| loop_bounds.iter().rev().find(|(v, _)| *v == var).map(|(_, b)| *b);
        match index {
            IndexExpr::Const(k) => k + 1,
            IndexExpr::Var(v) => bound_of(v).unwrap_or(PARSED_ARRAY_LEN as i64),
            IndexExpr::Offset { var, offset } => {
                bound_of(var).map(|b| b + offset.max(&0)).unwrap_or(PARSED_ARRAY_LEN as i64)
            }
            IndexExpr::Mod { modulus, .. } => (*modulus).max(1),
        }
    }

    fn scan_expr<'b>(expr: &'b Expr, loop_bounds: &[(&str, i64)], needs: &mut Needs<'b>) {
        match expr {
            Expr::Index { array, index } => {
                record(needs, array, index_requirement(index, loop_bounds))
            }
            Expr::Paren(inner) | Expr::Neg(inner) => scan_expr(inner, loop_bounds, needs),
            Expr::Bin { lhs, rhs, .. } => {
                scan_expr(lhs, loop_bounds, needs);
                scan_expr(rhs, loop_bounds, needs);
            }
            Expr::Call { args, .. } => {
                args.iter().for_each(|arg| scan_expr(arg, loop_bounds, needs))
            }
            Expr::Num(_) | Expr::Int(_) | Expr::Var(_) => {}
        }
    }

    fn scan_block<'b>(
        block: &'b Block,
        loop_bounds: &mut Vec<(&'b str, i64)>,
        needs: &mut Needs<'b>,
    ) {
        for stmt in &block.stmts {
            match stmt {
                Stmt::Assign { expr, .. } | Stmt::DeclScalar { expr, .. } => {
                    scan_expr(expr, loop_bounds, needs)
                }
                Stmt::DeclArray { .. } => {}
                Stmt::AssignIndex { array, index, expr, .. } => {
                    record(needs, array, index_requirement(index, loop_bounds));
                    scan_expr(expr, loop_bounds, needs);
                }
                Stmt::If { cond, then_block } => {
                    scan_expr(&cond.lhs, loop_bounds, needs);
                    scan_expr(&cond.rhs, loop_bounds, needs);
                    scan_block(then_block, loop_bounds, needs);
                }
                Stmt::For { var, bound, body } => {
                    loop_bounds.push((var, *bound));
                    scan_block(body, loop_bounds, needs);
                    loop_bounds.pop();
                }
            }
        }
    }

    let Program { params, body, .. } = program;
    let mut needs = Needs::new();
    scan_block(body, &mut Vec::new(), &mut needs);
    for param in params {
        if let ParamType::FpArray(len) = &mut param.ty {
            let need = needs
                .iter()
                .find(|(name, _)| *name == param.name)
                .map_or(PARSED_ARRAY_LEN as i64, |&(_, need)| need);
            *len = need.clamp(2, crate::MAX_ARRAY_LEN as i64) as usize;
        }
    }
}

/// Parse a C floating-point literal (decimal, scientific or hexadecimal,
/// with an optional `f`/`F` suffix). Returns `None` for malformed input.
pub fn parse_c_fp_literal(text: &str) -> Option<f64> {
    let t = text.trim().trim_end_matches(['f', 'F', 'l', 'L']);
    if t.starts_with("0x") || t.starts_with("0X") || t.starts_with("-0x") || t.starts_with("-0X") {
        return parse_hex_float(t);
    }
    t.parse::<f64>().ok()
}

fn parse_hex_float(t: &str) -> Option<f64> {
    let neg = t.starts_with('-');
    let t = t.trim_start_matches('-');
    let t = t.strip_prefix("0x").or_else(|| t.strip_prefix("0X"))?;
    let (mant, exp) = match t.split_once(['p', 'P']) {
        Some((m, e)) => (m, e.parse::<i32>().ok()?),
        None => (t, 0),
    };
    let (int_part, frac_part) = match mant.split_once('.') {
        Some((i, f)) => (i, f),
        None => (mant, ""),
    };
    let mut value =
        if int_part.is_empty() { 0.0 } else { u64::from_str_radix(int_part, 16).ok()? as f64 };
    let mut scale = 1.0 / 16.0;
    for c in frac_part.chars() {
        value += (c.to_digit(16)? as f64) * scale;
        scale /= 16.0;
    }
    let v = value * 2f64.powi(exp);
    Some(if neg { -v } else { v })
}

/// The value of an integer-literal token: its leading decimal digits
/// (suffixes and a hex prefix's `x...` are ignored, as C's `atoi` would).
fn int_literal_value(text: &str) -> Option<i64> {
    let digits = text.bytes().take_while(u8::is_ascii_digit).count();
    text[..digits].parse().ok()
}

/// A token: its kind and its text, borrowed from the parsed source.
type Tok<'a> = (TokenKind, &'a str);

struct Parser<'a> {
    tokens: Vec<Tok<'a>>,
    pos: usize,
    precision: Precision,
    /// Current nesting of parentheses, negations, call argument lists and
    /// blocks; see [`MAX_NESTING`].
    depth: usize,
}

impl<'a> Parser<'a> {
    fn error(&self, message: impl Into<String>) -> ParseError {
        ParseError { message: message.into(), position: self.pos }
    }

    fn err<T>(&self, message: impl Into<String>) -> Result<T, ParseError> {
        Err(self.error(message))
    }

    /// Enter one nesting level; pair with [`Self::leave`] on success.
    fn enter(&mut self) -> Result<(), ParseError> {
        if self.depth == MAX_NESTING {
            return self.err(format!("nesting deeper than {MAX_NESTING}"));
        }
        self.depth += 1;
        Ok(())
    }

    fn leave(&mut self) {
        self.depth -= 1;
    }

    fn peek(&self) -> Option<Tok<'a>> {
        self.tokens.get(self.pos).copied()
    }

    fn peek_kind(&self) -> Option<TokenKind> {
        self.peek().map(|(kind, _)| kind)
    }

    fn peek_text(&self) -> &'a str {
        self.peek_text_at(0)
    }

    fn peek_text_at(&self, offset: usize) -> &'a str {
        self.tokens.get(self.pos + offset).map_or("", |&(_, text)| text)
    }

    fn bump(&mut self) -> Option<Tok<'a>> {
        let t = self.peek();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn eat(&mut self, text: &str) -> bool {
        if self.peek_text() == text {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect(&mut self, text: &str) -> Result<(), ParseError> {
        if self.eat(text) {
            Ok(())
        } else {
            self.err(format!("expected `{text}`, found `{}`", self.peek_text()))
        }
    }

    fn parse_program(&mut self) -> Result<Program, ParseError> {
        // Skip anything before the compute definition (qualifiers, blank
        // tokens from stripped includes, ...).
        while self.peek().is_some() && !self.at_compute_signature() {
            self.pos += 1;
        }
        if self.peek().is_none() {
            return self.err("no `compute` function found");
        }
        // `__global__`? `void compute (`
        self.eat("__global__");
        self.expect("void")?;
        self.expect("compute")?;
        self.expect("(")?;
        let params = self.parse_params()?;
        self.expect(")")?;
        self.expect("{")?;
        let body = self.parse_block()?;
        Ok(Program { precision: self.precision, params, body })
    }

    fn at_compute_signature(&self) -> bool {
        (self.peek_text() == "void" && self.peek_text_at(1) == "compute")
            || (self.peek_text() == "__global__"
                && self.peek_text_at(1) == "void"
                && self.peek_text_at(2) == "compute")
    }

    fn parse_params(&mut self) -> Result<Vec<Param>, ParseError> {
        let mut params = Vec::new();
        if self.peek_text() == ")" {
            return Ok(params);
        }
        loop {
            let (_, ty) = self
                .bump()
                .ok_or_else(|| self.error("unexpected end of input in parameter list"))?;
            match ty {
                "int" => {
                    let name = self.parse_ident()?;
                    params.push(Param::new(name, ParamType::Int));
                }
                "double" | "float" => {
                    if ty == "float" {
                        self.precision = Precision::F32;
                    }
                    let is_ptr = self.eat("*");
                    let name = self.parse_ident()?;
                    // Synthetic output parameter added by the CUDA printer.
                    if name == "llm4fp_out" {
                        if !self.eat(",") {
                            break;
                        }
                        continue;
                    }
                    let ty =
                        if is_ptr { ParamType::FpArray(PARSED_ARRAY_LEN) } else { ParamType::Fp };
                    params.push(Param::new(name, ty));
                }
                other => return self.err(format!("unexpected parameter type `{other}`")),
            }
            if !self.eat(",") {
                break;
            }
        }
        Ok(params)
    }

    fn parse_ident(&mut self) -> Result<&'a str, ParseError> {
        match self.peek() {
            Some((TokenKind::Ident, text)) => {
                self.pos += 1;
                Ok(text)
            }
            _ => self.err(format!("expected identifier, found `{}`", self.peek_text())),
        }
    }

    /// Parse the statements of a block whose `{` has been consumed, up to
    /// and including its `}`.
    fn parse_block(&mut self) -> Result<Block, ParseError> {
        self.enter()?;
        let mut block = Block::default();
        loop {
            match self.peek_text() {
                "" => return self.err("unexpected end of input inside block"),
                "}" => {
                    self.pos += 1;
                    self.leave();
                    return Ok(block);
                }
                _ => {
                    if let Some(stmt) = self.parse_stmt()? {
                        block.push(stmt);
                    }
                }
            }
        }
    }

    /// Parse one statement. Returns `Ok(None)` for statements that belong to
    /// the printer's prologue/epilogue and are not part of the logical
    /// program (the implicit `comp` declaration, the bit-printing lines).
    fn parse_stmt(&mut self) -> Result<Option<Stmt>, ParseError> {
        let text = self.peek_text();
        match text {
            "for" => return self.parse_for().map(Some),
            "if" => return self.parse_if().map(Some),
            "union" => {
                self.skip_union_decl();
                return Ok(None);
            }
            "return" => {
                self.skip_to_semicolon();
                return Ok(None);
            }
            "double" | "float" => return self.parse_decl(),
            "*" => {
                // `*llm4fp_out = comp;` from the device epilogue.
                self.skip_to_semicolon();
                return Ok(None);
            }
            _ => {}
        }
        if self.peek_kind() == Some(TokenKind::Ident) {
            if text == "printf" || text == "llm4fp_bits" {
                self.skip_to_semicolon();
                return Ok(None);
            }
            return self.parse_assignment().map(Some);
        }
        self.err(format!("unexpected token `{text}` at statement position"))
    }

    fn skip_to_semicolon(&mut self) {
        while let Some((_, text)) = self.bump() {
            if text == ";" {
                break;
            }
        }
    }

    /// Skip an anonymous-union declaration (`union { ... } name;`) emitted by
    /// the printing epilogue: consume the balanced braces, then the trailing
    /// declarator up to its semicolon.
    fn skip_union_decl(&mut self) {
        self.expect("union").ok();
        if self.eat("{") {
            let mut depth = 1usize;
            while depth > 0 {
                match self.bump() {
                    Some((_, "{")) => depth += 1,
                    Some((_, "}")) => depth -= 1,
                    Some(_) => {}
                    None => return,
                }
            }
        }
        self.skip_to_semicolon();
    }

    fn parse_decl(&mut self) -> Result<Option<Stmt>, ParseError> {
        if self.peek_text() == "float" {
            self.precision = Precision::F32;
        }
        self.pos += 1;
        let name = self.parse_ident()?;
        if self.eat("[") {
            let size = self.parse_int_literal()? as usize;
            self.expect("]")?;
            self.expect("=")?;
            self.expect("{")?;
            let mut init = Vec::new();
            while self.peek_text() != "}" {
                let neg = self.eat("-");
                let v = self.parse_fp_or_int_literal()?;
                init.push(if neg { -v } else { v });
                if !self.eat(",") {
                    break;
                }
            }
            self.expect("}")?;
            self.expect(";")?;
            // `= {0}` is the zero-initializer idiom, not a one-element array.
            if init == [0.0] {
                init.clear();
            }
            return Ok(Some(Stmt::DeclArray { name: name.into(), size, init }));
        }
        self.expect("=")?;
        let expr = self.parse_expr()?;
        self.expect(";")?;
        // The implicit accumulator prologue emitted by the printer.
        if name == COMP {
            if matches!(expr.strip_parens(), Expr::Num(v) if *v == 0.0) {
                return Ok(None);
            }
            return Ok(Some(Stmt::Assign { target: name.into(), op: AssignOp::Assign, expr }));
        }
        Ok(Some(Stmt::DeclScalar { name: name.into(), expr }))
    }

    fn parse_assignment(&mut self) -> Result<Stmt, ParseError> {
        let name = self.parse_ident()?;
        if self.eat("[") {
            let index = self.parse_index_expr()?;
            self.expect("]")?;
            let op = self.parse_assign_op()?;
            let expr = self.parse_expr()?;
            self.expect(";")?;
            return Ok(Stmt::AssignIndex { array: name.into(), index, op, expr });
        }
        let op = self.parse_assign_op()?;
        let expr = self.parse_expr()?;
        self.expect(";")?;
        Ok(Stmt::Assign { target: name.into(), op, expr })
    }

    fn parse_assign_op(&mut self) -> Result<AssignOp, ParseError> {
        let op = match self.peek_text() {
            "=" => AssignOp::Assign,
            "+=" => AssignOp::Add,
            "-=" => AssignOp::Sub,
            "*=" => AssignOp::Mul,
            "/=" => AssignOp::Div,
            other => return self.err(format!("expected assignment operator, found `{other}`")),
        };
        self.pos += 1;
        Ok(op)
    }

    fn parse_for(&mut self) -> Result<Stmt, ParseError> {
        self.expect("for")?;
        self.expect("(")?;
        self.expect("int")?;
        let var = self.parse_ident()?;
        self.expect("=")?;
        let _start = self.parse_int_literal()?;
        self.expect(";")?;
        if self.parse_ident()? != var {
            return self.err("loop condition must test the loop variable");
        }
        self.expect("<")?;
        let bound = self.parse_int_literal()?;
        self.expect(";")?;
        // `++i` or `i++`
        let pre_increment = self.eat("++");
        if self.parse_ident()? != var {
            return self.err("loop increment must update the loop variable");
        }
        if !pre_increment {
            self.expect("++")?;
        }
        self.expect(")")?;
        self.expect("{")?;
        let body = self.parse_block()?;
        Ok(Stmt::For { var: var.into(), bound, body })
    }

    fn parse_if(&mut self) -> Result<Stmt, ParseError> {
        self.expect("if")?;
        self.expect("(")?;
        let lhs = self.parse_expr()?;
        let op = match self.peek_text() {
            "<" => CmpOp::Lt,
            "<=" => CmpOp::Le,
            ">" => CmpOp::Gt,
            ">=" => CmpOp::Ge,
            "==" => CmpOp::Eq,
            "!=" => CmpOp::Ne,
            other => return self.err(format!("expected comparison operator, found `{other}`")),
        };
        self.pos += 1;
        let rhs = self.parse_expr()?;
        self.expect(")")?;
        self.expect("{")?;
        let then_block = self.parse_block()?;
        Ok(Stmt::If { cond: BoolExpr { lhs, op, rhs }, then_block })
    }

    fn parse_index_expr(&mut self) -> Result<IndexExpr, ParseError> {
        match self.peek_kind() {
            Some(TokenKind::IntLit) => {
                let v = self.parse_int_literal()?;
                Ok(IndexExpr::Const(v))
            }
            Some(TokenKind::Ident) => {
                let var = self.parse_ident()?.to_string();
                match self.peek_text() {
                    "+" => {
                        self.pos += 1;
                        let off = self.parse_int_literal()?;
                        Ok(IndexExpr::Offset { var, offset: off })
                    }
                    "-" => {
                        self.pos += 1;
                        let off = self.parse_int_literal()?;
                        Ok(IndexExpr::Offset { var, offset: -off })
                    }
                    "%" => {
                        self.pos += 1;
                        let m = self.parse_int_literal()?;
                        Ok(IndexExpr::Mod { var, modulus: m })
                    }
                    _ => Ok(IndexExpr::Var(var)),
                }
            }
            _ => self.err(format!("invalid array index `{}`", self.peek_text())),
        }
    }

    fn parse_int_literal(&mut self) -> Result<i64, ParseError> {
        match self.peek() {
            Some((TokenKind::IntLit, text)) => {
                self.pos += 1;
                int_literal_value(text)
                    .ok_or_else(|| self.error(format!("invalid integer literal `{text}`")))
            }
            _ => self.err(format!("expected integer literal, found `{}`", self.peek_text())),
        }
    }

    fn parse_fp_or_int_literal(&mut self) -> Result<f64, ParseError> {
        match self.peek() {
            Some((TokenKind::FpLit | TokenKind::IntLit, text)) => {
                self.pos += 1;
                parse_c_fp_literal(text)
                    .ok_or_else(|| self.error(format!("invalid floating-point literal `{text}`")))
            }
            _ => self.err(format!("expected numeric literal, found `{}`", self.peek_text())),
        }
    }

    // Expression grammar: additive -> multiplicative -> unary -> primary.
    fn parse_expr(&mut self) -> Result<Expr, ParseError> {
        let mut lhs = self.parse_mul()?;
        loop {
            let op = match self.peek_text() {
                "+" => BinOp::Add,
                "-" => BinOp::Sub,
                _ => break,
            };
            self.pos += 1;
            let rhs = self.parse_mul()?;
            lhs = Expr::bin(op, lhs, rhs);
        }
        Ok(lhs)
    }

    fn parse_mul(&mut self) -> Result<Expr, ParseError> {
        let mut lhs = self.parse_unary()?;
        loop {
            let op = match self.peek_text() {
                "*" => BinOp::Mul,
                "/" => BinOp::Div,
                _ => break,
            };
            self.pos += 1;
            let rhs = self.parse_unary()?;
            lhs = Expr::bin(op, lhs, rhs);
        }
        Ok(lhs)
    }

    fn parse_unary(&mut self) -> Result<Expr, ParseError> {
        let negate = match self.peek_text() {
            "-" => true,
            "+" => false,
            _ => return self.parse_primary(),
        };
        self.enter()?;
        self.pos += 1;
        let inner = self.parse_unary()?;
        self.leave();
        if !negate {
            return Ok(inner);
        }
        // Fold negation of literals so that `-0x1.8p+1` parses to the
        // same node the printer emitted it from (keeps print→parse→print
        // a fixpoint).
        Ok(match inner {
            Expr::Num(v) => Expr::Num(-v),
            Expr::Int(v) => Expr::Int(-v),
            other => Expr::Neg(Box::new(other)),
        })
    }

    fn parse_primary(&mut self) -> Result<Expr, ParseError> {
        let Some((kind, text)) = self.peek() else {
            return self.err("unexpected end of input in expression");
        };
        match kind {
            TokenKind::FpLit => {
                self.pos += 1;
                let v = parse_c_fp_literal(text).ok_or_else(|| {
                    self.error(format!("invalid floating-point literal `{text}`"))
                })?;
                Ok(Expr::Num(v))
            }
            TokenKind::IntLit => {
                self.pos += 1;
                let v = int_literal_value(text)
                    .ok_or_else(|| self.error(format!("invalid integer literal `{text}`")))?;
                Ok(Expr::Int(v))
            }
            TokenKind::Ident => {
                self.pos += 1;
                // Function call?
                if self.peek_text() == "(" {
                    let func = MathFunc::from_c_name(text)
                        .ok_or_else(|| self.error(format!("unknown function `{text}`")))?;
                    self.enter()?;
                    self.expect("(")?;
                    let mut args = Vec::with_capacity(func.arity());
                    if self.peek_text() != ")" {
                        loop {
                            args.push(self.parse_expr()?);
                            if !self.eat(",") {
                                break;
                            }
                        }
                    }
                    self.expect(")")?;
                    self.leave();
                    if args.len() != func.arity() {
                        return self.err(format!(
                            "`{}` expects {} arguments, found {}",
                            func,
                            func.arity(),
                            args.len()
                        ));
                    }
                    return Ok(Expr::Call { func, args });
                }
                // Array access?
                if self.eat("[") {
                    let index = self.parse_index_expr()?;
                    self.expect("]")?;
                    return Ok(Expr::Index { array: text.into(), index });
                }
                Ok(Expr::Var(text.into()))
            }
            TokenKind::Punct if text == "(" => {
                self.enter()?;
                self.pos += 1;
                let inner = self.parse_expr()?;
                self.expect(")")?;
                self.leave();
                Ok(inner.paren())
            }
            _ => self.err(format!("unexpected token `{text}` in expression")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::default_inputs;
    use crate::printer::{to_c_source, to_compute_source};

    #[test]
    fn parses_minimal_compute() {
        let src = "void compute(double x) {\n double comp = 0.0;\n comp = x * 2.0;\n}";
        let p = parse_compute(src).unwrap();
        assert_eq!(p.precision, Precision::F64);
        assert_eq!(p.params.len(), 1);
        assert_eq!(p.body.stmts.len(), 1);
    }

    #[test]
    fn parses_loops_conditionals_and_calls() {
        let src = r#"
void compute(double x, int n, double *a) {
    double comp = 0.0;
    double t0 = x * 0.5;
    for (int i = 0; i < 4; ++i) {
        comp += a[i] * t0;
    }
    if (comp > 1.0) {
        comp = sqrt(comp);
    }
    union { double d; unsigned long long u; } llm4fp_bits;
    llm4fp_bits.d = comp;
    printf("%016llx\n", llm4fp_bits.u);
}
"#;
        let p = parse_compute(src).unwrap();
        assert_eq!(p.params.len(), 3);
        assert_eq!(p.body.stmts.len(), 3);
        assert!(matches!(p.body.stmts[1], Stmt::For { bound: 4, .. }));
        assert!(matches!(p.body.stmts[2], Stmt::If { .. }));
    }

    #[test]
    fn print_parse_print_is_a_fixpoint() {
        let src = r#"
void compute(double x, double y, double *a) {
    double comp = 0.0;
    double t0 = (x + y) * 0.5;
    double buf[3] = {1.0, 2.5, -3.0};
    for (int i = 0; i < 3; ++i) {
        buf[i] = buf[i] + a[i % 4];
        comp += sin(buf[i]) / (t0 + 1.5);
    }
    if (comp < 10.0) {
        comp = fma(comp, t0, y);
    }
}
"#;
        let p1 = parse_compute(src).unwrap();
        let printed1 = to_compute_source(&p1);
        let p2 = parse_compute(&printed1).unwrap();
        let printed2 = to_compute_source(&p2);
        assert_eq!(printed1, printed2);
    }

    #[test]
    fn round_trips_full_printed_file() {
        let src = r#"
void compute(float x, float *v) {
    float comp = 0.0f;
    comp = x;
    for (int k = 0; k < 2; ++k) {
        comp *= v[k];
    }
}
"#;
        let p = parse_compute(src).unwrap();
        assert_eq!(p.precision, Precision::F32);
        let full = to_c_source(&p, &default_inputs(&p.params));
        let reparsed = parse_compute(&full).unwrap();
        assert_eq!(to_compute_source(&p), to_compute_source(&reparsed));
    }

    #[test]
    fn rejects_unknown_functions_and_malformed_loops() {
        assert!(parse_compute("void compute(double x) { comp = frobnicate(x); }").is_err());
        assert!(parse_compute("void compute(double x) { for (int i = 0; j < 4; ++i) {} }").is_err());
        assert!(parse_compute("int main(void) { return 0; }").is_err());
    }

    #[test]
    fn rejects_wrong_arity_calls() {
        assert!(parse_compute("void compute(double x) { comp = pow(x); }").is_err());
        assert!(parse_compute("void compute(double x) { comp = sin(x, x); }").is_err());
    }

    #[test]
    fn parses_cuda_kernel_signature() {
        let src = r#"
__global__ void compute(double x, double *llm4fp_out) {
    double comp = 0.0;
    comp = cos(x);
    *llm4fp_out = comp;
}
"#;
        let p = parse_compute(src).unwrap();
        assert_eq!(p.params.len(), 1);
        assert_eq!(p.body.stmts.len(), 1);
    }

    #[test]
    fn fp_literal_parser_handles_all_forms() {
        assert_eq!(parse_c_fp_literal("2.0"), Some(2.0));
        assert_eq!(parse_c_fp_literal("2.5f"), Some(2.5));
        assert_eq!(parse_c_fp_literal("1e3"), Some(1000.0));
        assert_eq!(parse_c_fp_literal("0x1.8p+1"), Some(3.0));
        assert_eq!(parse_c_fp_literal("-0x1p-1"), Some(-0.5));
        assert_eq!(parse_c_fp_literal("abc"), None);
    }

    #[test]
    fn hex_literals_round_trip_through_parser() {
        for &v in &[0.1, -7.25e-12, 3.0e100, 2.2250738585072014e-308] {
            let lit = crate::ast::c_fp_literal(v, Precision::F64);
            let parsed = parse_c_fp_literal(lit.trim_end_matches('f')).unwrap();
            assert_eq!(parsed.to_bits(), v.to_bits(), "{lit}");
        }
    }

    #[test]
    fn parse_errors_are_pinned_by_value() {
        // `ParseError` is public and `position` is a token index, so
        // callers may rely on both fields.
        let cases = [
            (
                "void compute(double x) { comp = frobnicate(x); }",
                "unknown function `frobnicate`",
                10,
            ),
            (
                "void compute(double x) { for (int i = 0; j < 4; ++i) {} }",
                "loop condition must test the loop variable",
                15,
            ),
            ("int main(void) { return 0; }", "no `compute` function found", 10),
            ("void compute(double x) { comp = pow(x); }", "`pow` expects 2 arguments, found 1", 13),
            (
                "void compute(double x) { comp = sin(x, x); }",
                "`sin` expects 1 arguments, found 2",
                15,
            ),
            ("", "no `compute` function found", 0),
            ("void compute(double x) { comp = x }", "expected `;`, found `}`", 10),
            ("void compute(double x) { comp = x; ", "unexpected end of input inside block", 11),
            (
                "void compute(double x) { comp = 1.0.0.0; }",
                "invalid floating-point literal `1.0.0.0`",
                10,
            ),
            (
                "void compute(double x) { comp = 99999999999999999999; }",
                "invalid integer literal `99999999999999999999`",
                10,
            ),
            (
                "void compute(double x) { double b[99999999999999999999] = {0}; }",
                "invalid integer literal `99999999999999999999`",
                11,
            ),
            ("void compute(char x) { }", "unexpected parameter type `char`", 4),
            ("void compute(double x) { comp ^ x; }", "expected assignment operator, found `^`", 8),
            (
                "void compute(double x) { if (x ? 1.0) {} }",
                "expected comparison operator, found `?`",
                10,
            ),
            ("void compute(double x) { comp = (x; }", "expected `)`, found `;`", 11),
            ("void compute(double x) { comp = ; }", "unexpected token `;` in expression", 9),
            ("void compute(double x, ) { }", "unexpected parameter type `)`", 7),
            (
                "void compute(double x) { for (int i = 0; i < 4; ++j) {} }",
                "loop increment must update the loop variable",
                20,
            ),
            (
                "void compute(double x) { double b[2] = {1.0, x}; }",
                "expected numeric literal, found `x`",
                16,
            ),
        ];
        for (src, message, position) in cases {
            let err = parse_compute(src).unwrap_err();
            assert_eq!((err.message.as_str(), err.position), (message, position), "{src}");
        }
    }

    #[test]
    fn inferred_array_lengths_are_pinned() {
        let lengths = |src: &str| -> Vec<(String, ParamType)> {
            parse_compute(src).unwrap().params.into_iter().map(|p| (p.name, p.ty)).collect()
        };
        let arr = |name: &str, len| (name.to_string(), ParamType::FpArray(len));
        // A pointer that is never indexed gets the default length.
        assert_eq!(
            lengths("void compute(double *a, double *b) { comp = b[1]; }"),
            [arr("a", PARSED_ARRAY_LEN), arr("b", 2)]
        );
        // A loop that never runs still indexes: the need is 0, raised to 2.
        assert_eq!(
            lengths("void compute(double *a) { for (int i = 0; i < 0; ++i) { comp += a[i]; } }"),
            [arr("a", 2)]
        );
        // Parameters with the same name share one length.
        assert_eq!(
            lengths("void compute(double *a, double *a) { comp = a[5]; }"),
            [arr("a", 6), arr("a", 6)]
        );
        // `%` needs its modulus, `+k` the bound plus k, `-k` just the bound;
        // a constant past the cap is clamped to it.
        assert_eq!(
            lengths(
                "void compute(double *a, double *b, double *c, double *d) {\n\
                 for (int i = 0; i < 10; ++i) { comp += a[i % 3] + b[i + 4] + c[i - 2] + d[i]; }\n\
                 c[300] = 1.0;\n\
                 }"
            ),
            [arr("a", 3), arr("b", 14), arr("c", crate::MAX_ARRAY_LEN), arr("d", 10)]
        );
        assert_eq!(
            lengths(
                "void compute(double *a, double *b) {\n\
                 for (int i = 0; i < 5; ++i) { comp += a[i % 0] + b[i - 9]; }\n\
                 }"
            ),
            [arr("a", 2), arr("b", 5)]
        );
    }

    /// Run `f` on a thread with a 2 MB stack, the shard workers' default,
    /// so a recursion that escaped the nesting cap aborts the test binary.
    fn on_small_stack(f: impl FnOnce() + Send + 'static) {
        std::thread::Builder::new().stack_size(2 << 20).spawn(f).unwrap().join().unwrap();
    }

    /// Sources nested `depth` levels deep in each recursive form.
    fn nested_sources(depth: usize) -> [String; 4] {
        let wrap = |open: &str, inner: &str, close: &str| {
            format!(
                "void compute(double x) {{ comp = {}{inner}{}; }}",
                open.repeat(depth),
                close.repeat(depth)
            )
        };
        [
            wrap("(", "x", ")"),
            wrap("- ", "x", ""),
            wrap("sin(", "x", ")"),
            format!(
                "void compute(double x) {{ {} comp = x; {} }}",
                "if (x > 1.0) {".repeat(depth),
                "}".repeat(depth)
            ),
        ]
    }

    #[test]
    fn deep_nesting_is_a_parse_error_not_a_stack_overflow() {
        on_small_stack(|| {
            for src in nested_sources(10_000) {
                let err = parse_compute(&src).unwrap_err();
                assert_eq!(err.message, "nesting deeper than 128", "{}", &src[..60]);
            }
            for src in nested_sources(100) {
                assert!(parse_compute(&src).is_ok(), "{}", &src[..60]);
            }
        });
    }
}
