//! The optimization pass pipeline.
//!
//! Each pass is a stage that reads one expression arena (`crate::arena`)
//! and writes a fresh one, parameterized by the [`Semantics`] derived
//! from a [`crate::CompilerConfig`]. The statement skeleton never changes;
//! only expressions are rewritten, bottom-up, with node-local rules:
//!
//! 1. **Constant folding** (`-O1` and above) — folds arithmetic on literal
//!    constants with correct rounding (value-preserving).
//! 2. **Algebraic simplification** (fast-math only) — `x - x → 0`,
//!    `x * 0 → 0`, `x + 0 → x`, `x * 1 → x`, `x / 1 → x`. Invalid under
//!    IEEE semantics when `x` is NaN, infinite or signed zero, which is one
//!    of the ways `O3_fastmath` produces extreme-value inconsistencies.
//! 3. **Reassociation** (fast-math only) — flattens chains of `+` / `*` and
//!    rebuilds them in a personality-specific order, changing rounding.
//! 4. **Reciprocal division** (fast-math only) — `x / y → x * (1/y)`, with
//!    an approximate reciprocal on the device personality.
//! 5. **FMA contraction** — fuses `a*b ± c` into a single-rounding FMA
//!    according to the personality's [`ContractionStyle`].
//!
//! The contraction pass runs last so that reassociation (when enabled)
//! changes which multiply-add pairs are adjacent — mirroring how real
//! backends contract after the IR has been reshaped.
//!
//! A stage walks each expression site from its root, so its output holds
//! only live nodes. Nodes a rule discards (the folded operands of a
//! constant, the multiply an FMA absorbs) stay behind as dead entries of
//! that output, which the next stage never visits.

use llm4fp_fpir::BinOp;

use crate::arena::{Arena, Node, NodeId};
use crate::config::{ContractionStyle, ReassocStyle, Semantics};
use crate::ir::OStmt;

/// One enabled pass application, fully parameterized. The pipeline a
/// [`Semantics`] selects is a *sequence* of stages ([`stages`]); rewriting
/// an arena with each in turn ([`rewrite`]) is exactly [`run_pipeline`].
/// Matrix sealing exploits the decomposition: configurations whose stage
/// sequences share a prefix share the intermediate arena after that
/// prefix (see `Frontend::seal_matrix`), so equality of `Stage` values is
/// the sharing criterion and must capture every parameter a pass reads.
/// The order only groups pipelines that share a prefix.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum Stage {
    ConstFold,
    AlgebraicSimplify,
    Reassociate(ReassocStyle),
    RecipDivision { approx: bool },
    Contract(ContractionStyle),
}

/// The stage sequence a semantics enables, in pipeline order.
pub(crate) fn stages(sem: &Semantics) -> Vec<Stage> {
    let mut out = Vec::with_capacity(5);
    if sem.const_fold {
        out.push(Stage::ConstFold);
    }
    if sem.algebraic_simplify {
        out.push(Stage::AlgebraicSimplify);
    }
    if sem.fast_math && sem.reassoc != ReassocStyle::SourceOrder {
        out.push(Stage::Reassociate(sem.reassoc));
    }
    if sem.recip_division {
        out.push(Stage::RecipDivision { approx: sem.approx_recip });
    }
    if sem.contraction != ContractionStyle::Off {
        out.push(Stage::Contract(sem.contraction));
    }
    out
}

/// Run the full pipeline for the given semantics over a lowered body's
/// arena.
pub(crate) fn optimize<'s>(mut arena: Arena<'s>, sem: &Semantics) -> Arena<'s> {
    // Two arenas take turns as each stage's input and output.
    let mut spare = None;
    for stage in stages(sem) {
        let out = spare.take().unwrap_or_else(|| Arena::sized_like(&arena));
        let out = rewrite(&arena, stage, out);
        spare = Some(std::mem::replace(&mut arena, out));
    }
    arena
}

/// Run the full pipeline for the given semantics, returning an owned body
/// (the form the reference interpreter executes).
pub fn run_pipeline(body: &[OStmt], sem: &Semantics) -> Vec<OStmt> {
    optimize(Arena::from_body(body), sem).raise(body)
}

/// Apply one stage: read `src`, write one root per root of `src` into
/// the buffers of `out`, whose contents are discarded.
pub(crate) fn rewrite<'s>(src: &Arena<'s>, stage: Stage, mut out: Arena<'s>) -> Arena<'s> {
    out.nodes.clear();
    out.args.clear();
    out.roots.clear();
    out.leaves = src.leaves;
    let mut rewriter =
        Rewriter { src, out, stage, operands: Vec::new(), non_constants: Vec::new() };
    for &root in &src.roots {
        let id = rewriter.expr(root);
        rewriter.out.roots.push(id);
    }
    rewriter.out
}

/// The state of one stage application.
struct Rewriter<'a, 's> {
    src: &'a Arena<'s>,
    out: Arena<'s>,
    stage: Stage,
    /// Operand stack of the chains being reassociated, outermost first.
    operands: Vec<NodeId>,
    /// Scratch of the constants-first partition.
    non_constants: Vec<NodeId>,
}

impl<'s> Rewriter<'_, 's> {
    /// Rewrite the subtree at `id` of `src` into `out`: children first,
    /// then the stage's node-local rule on the rebuilt node.
    fn expr(&mut self, id: NodeId) -> NodeId {
        let node = self.src.node(id);
        if let (Node::Bin(op, ..), Stage::Reassociate(style)) = (node, self.stage) {
            if op.is_associative() {
                return self.chain(op, id, style);
            }
        }
        let node = self.children(node);
        match self.stage {
            Stage::ConstFold => self.const_fold(node),
            Stage::AlgebraicSimplify => self.algebraic_simplify(node),
            Stage::Reassociate(_) => self.out.push(node),
            Stage::RecipDivision { approx } => self.recip_division(node, approx),
            Stage::Contract(style) => self.contract(node, style),
        }
    }

    /// `node` with its children rewritten into `out`.
    fn children(&mut self, node: Node<'s>) -> Node<'s> {
        match node {
            Node::Const(_) | Node::Var(..) | Node::Index(..) => node,
            Node::Neg(inner) => Node::Neg(self.expr(inner)),
            Node::Bin(op, lhs, rhs) => {
                let lhs = self.expr(lhs);
                Node::Bin(op, lhs, self.expr(rhs))
            }
            Node::Fma(a, b, c) => {
                let a = self.expr(a);
                let b = self.expr(b);
                Node::Fma(a, b, self.expr(c))
            }
            Node::Recip(value, approx) => Node::Recip(self.expr(value), approx),
            Node::Call(func, start, len) => {
                let at = self.out.reserve_args(len as usize);
                for k in 0..len {
                    let arg = self.expr(self.src.arg(start, k));
                    self.out.args[(at + k) as usize] = arg;
                }
                Node::Call(func, at, len)
            }
        }
    }

    // -----------------------------------------------------------------------
    // 1. Constant folding
    // -----------------------------------------------------------------------

    /// Fold arithmetic on literals. Only plain binary arithmetic and
    /// negation are folded (with the same rounding the interpreter would
    /// apply), so folding never changes the program's result — it models
    /// the value-preserving part of `-O1`/`-O2`/`-O3`.
    fn const_fold(&mut self, node: Node<'s>) -> NodeId {
        match node {
            Node::Neg(inner) => {
                if let Some(v) = self.out.as_const(inner) {
                    return self.out.push(Node::Const(-v));
                }
            }
            Node::Bin(op, lhs, rhs) => {
                if let (Some(a), Some(b)) = (self.out.as_const(lhs), self.out.as_const(rhs)) {
                    let v = match op {
                        BinOp::Add => a + b,
                        BinOp::Sub => a - b,
                        BinOp::Mul => a * b,
                        BinOp::Div => a / b,
                    };
                    // NaN/Inf results are kept symbolic (not folded): real
                    // compilers avoid folding traps/exceptional values at
                    // compile time.
                    if v.is_finite() {
                        return self.out.push(Node::Const(v));
                    }
                }
            }
            _ => {}
        }
        self.out.push(node)
    }

    // -----------------------------------------------------------------------
    // 2. Algebraic simplification (fast-math)
    // -----------------------------------------------------------------------

    /// Value-unsafe algebraic identities applied under fast-math.
    fn algebraic_simplify(&mut self, node: Node<'s>) -> NodeId {
        if let Node::Bin(op, lhs, rhs) = node {
            let (l, r) = (self.out.as_const(lhs), self.out.as_const(rhs));
            match op {
                BinOp::Sub if self.out.same_tree(lhs, rhs) => {
                    return self.out.push(Node::Const(0.0));
                }
                BinOp::Add => {
                    if r == Some(0.0) {
                        return lhs;
                    }
                    if l == Some(0.0) {
                        return rhs;
                    }
                }
                BinOp::Mul => {
                    if l == Some(0.0) || r == Some(0.0) {
                        return self.out.push(Node::Const(0.0));
                    }
                    if r == Some(1.0) {
                        return lhs;
                    }
                    if l == Some(1.0) {
                        return rhs;
                    }
                }
                BinOp::Div if r == Some(1.0) => return lhs,
                _ => {}
            }
        }
        self.out.push(node)
    }

    // -----------------------------------------------------------------------
    // 3. Reassociation (fast-math)
    // -----------------------------------------------------------------------

    /// Reassociate the maximal chain of `op` rooted at `root`, building its
    /// tree once.
    ///
    /// The order matches a bottom-up pass that flattens and rebuilds the
    /// chain at every node with more than two operands: each such node's
    /// operands form one contiguous segment of the chain's in-order
    /// operand list, and the rebuilt subtree lists them in the permuted
    /// order. So permuting every inner segment in post-order, then building
    /// at the root, reproduces that pass's composed order exactly.
    fn chain(&mut self, op: BinOp, root: NodeId, style: ReassocStyle) -> NodeId {
        let base = self.operands.len();
        self.collect(op, root, style);
        let id = match style {
            ReassocStyle::BalancedTree => self.balanced(op, base, self.operands.len()),
            _ => {
                let mut acc = self.operands[base];
                for k in base + 1..self.operands.len() {
                    acc = self.out.push(Node::Bin(op, acc, self.operands[k]));
                }
                acc
            }
        };
        self.operands.truncate(base);
        id
    }

    /// Push the rewritten operands of the chain node `id` onto the operand
    /// stack, permuting the node's segment per `style`.
    fn collect(&mut self, op: BinOp, id: NodeId, style: ReassocStyle) {
        match self.src.node(id) {
            Node::Bin(o, lhs, rhs) if o == op => {
                let begin = self.operands.len();
                self.collect(op, lhs, style);
                self.collect(op, rhs, style);
                if self.operands.len() - begin > 2 {
                    self.permute(begin, style);
                }
            }
            _ => {
                let operand = self.expr(id);
                self.operands.push(operand);
            }
        }
    }

    fn permute(&mut self, begin: usize, style: ReassocStyle) {
        match style {
            ReassocStyle::Reversed => self.operands[begin..].reverse(),
            ReassocStyle::ConstantsFirst => {
                // Stable partition: constants, then the rest.
                self.non_constants.clear();
                let mut write = begin;
                for k in begin..self.operands.len() {
                    let id = self.operands[k];
                    if matches!(self.out.node(id), Node::Const(_)) {
                        self.operands[write] = id;
                        write += 1;
                    } else {
                        self.non_constants.push(id);
                    }
                }
                self.operands[write..].copy_from_slice(&self.non_constants);
            }
            // A balanced rebuild keeps the in-order operand sequence, and
            // so does a left fold in source order.
            ReassocStyle::BalancedTree | ReassocStyle::SourceOrder => {}
        }
    }

    /// A balanced tree over `operands[lo..hi]`.
    fn balanced(&mut self, op: BinOp, lo: usize, hi: usize) -> NodeId {
        if hi - lo == 1 {
            return self.operands[lo];
        }
        let mid = lo + (hi - lo) / 2;
        let lhs = self.balanced(op, lo, mid);
        let rhs = self.balanced(op, mid, hi);
        self.out.push(Node::Bin(op, lhs, rhs))
    }

    // -----------------------------------------------------------------------
    // 4. Reciprocal division (fast-math)
    // -----------------------------------------------------------------------

    /// Rewrite divisions into multiplications by a (possibly approximate)
    /// reciprocal: `1 / y` stays a plain reciprocal of y; `x / y` becomes
    /// x * (1/y).
    fn recip_division(&mut self, node: Node<'s>, approx: bool) -> NodeId {
        if let Node::Bin(BinOp::Div, lhs, rhs) = node {
            let recip = self.out.push(Node::Recip(rhs, approx));
            if self.out.as_const(lhs) == Some(1.0) {
                return recip;
            }
            return self.out.push(Node::Bin(BinOp::Mul, lhs, recip));
        }
        self.out.push(node)
    }

    // -----------------------------------------------------------------------
    // 5. FMA contraction
    // -----------------------------------------------------------------------

    /// Contract `a*b ± c` shapes into fused multiply-adds.
    fn contract(&mut self, node: Node<'s>, style: ContractionStyle) -> NodeId {
        if style == ContractionStyle::Off {
            return self.out.push(node);
        }
        let aggressive = style == ContractionStyle::Aggressive;
        match node {
            Node::Bin(BinOp::Add, lhs, rhs) => {
                // a*b + c (both styles)
                if let Node::Bin(BinOp::Mul, a, b) = self.out.node(lhs) {
                    return self.out.push(Node::Fma(a, b, rhs));
                }
                // c + a*b (aggressive only)
                if let (true, Node::Bin(BinOp::Mul, a, b)) = (aggressive, self.out.node(rhs)) {
                    return self.out.push(Node::Fma(a, b, lhs));
                }
            }
            Node::Bin(BinOp::Sub, lhs, rhs) => {
                // a*b - c  →  fma(a, b, -c) (both styles)
                if let Node::Bin(BinOp::Mul, a, b) = self.out.node(lhs) {
                    let c = self.out.push(Node::Neg(rhs));
                    return self.out.push(Node::Fma(a, b, c));
                }
                // c - a*b  →  fma(-a, b, c) (aggressive only)
                if let (true, Node::Bin(BinOp::Mul, a, b)) = (aggressive, self.out.node(rhs)) {
                    let a = self.out.push(Node::Neg(a));
                    return self.out.push(Node::Fma(a, b, lhs));
                }
            }
            _ => {}
        }
        self.out.push(node)
    }
}

/// The bottom-up tree passes the arena stages replaced: every stage
/// rewrites children first, then applies its node-local rule to the
/// rebuilt node, and reassociation flattens and rebuilds the chain at
/// every node. Kept as the oracle the stage tests check the arena against.
#[cfg(test)]
mod reference {
    use llm4fp_fpir::BinOp;

    use super::Stage;
    use crate::config::{ContractionStyle, ReassocStyle};
    use crate::ir::OExpr;

    pub(super) fn apply(expr: OExpr, stage: Stage) -> OExpr {
        let expr = map_children(expr, &|e| apply(e, stage));
        match stage {
            Stage::ConstFold => const_fold_node(expr),
            Stage::AlgebraicSimplify => algebraic_simplify_node(expr),
            Stage::Reassociate(style) => reassociate_node(expr, style),
            Stage::RecipDivision { approx } => recip_division_node(expr, approx),
            Stage::Contract(style) => contract_node(expr, style),
        }
    }

    fn map_children(expr: OExpr, f: &impl Fn(OExpr) -> OExpr) -> OExpr {
        match expr {
            OExpr::Neg(inner) => OExpr::Neg(Box::new(f(*inner))),
            OExpr::Bin { op, lhs, rhs } => {
                OExpr::Bin { op, lhs: Box::new(f(*lhs)), rhs: Box::new(f(*rhs)) }
            }
            OExpr::Fma { a, b, c } => {
                OExpr::Fma { a: Box::new(f(*a)), b: Box::new(f(*b)), c: Box::new(f(*c)) }
            }
            OExpr::Recip { value, approx } => OExpr::Recip { value: Box::new(f(*value)), approx },
            OExpr::Call { func, args } => {
                OExpr::Call { func, args: args.into_iter().map(f).collect() }
            }
            leaf @ (OExpr::Const(_) | OExpr::Var(_) | OExpr::Index { .. }) => leaf,
        }
    }

    fn const_fold_node(expr: OExpr) -> OExpr {
        match &expr {
            OExpr::Neg(inner) => {
                if let Some(v) = inner.as_const() {
                    return OExpr::Const(-v);
                }
            }
            OExpr::Bin { op, lhs, rhs } => {
                if let (Some(a), Some(b)) = (lhs.as_const(), rhs.as_const()) {
                    let v = match op {
                        BinOp::Add => a + b,
                        BinOp::Sub => a - b,
                        BinOp::Mul => a * b,
                        BinOp::Div => a / b,
                    };
                    if v.is_finite() {
                        return OExpr::Const(v);
                    }
                }
            }
            _ => {}
        }
        expr
    }

    fn algebraic_simplify_node(expr: OExpr) -> OExpr {
        if let OExpr::Bin { op, lhs, rhs } = &expr {
            match op {
                BinOp::Sub if lhs == rhs => return OExpr::Const(0.0),
                BinOp::Add => {
                    if rhs.as_const() == Some(0.0) {
                        return (**lhs).clone();
                    }
                    if lhs.as_const() == Some(0.0) {
                        return (**rhs).clone();
                    }
                }
                BinOp::Mul => {
                    if lhs.as_const() == Some(0.0) || rhs.as_const() == Some(0.0) {
                        return OExpr::Const(0.0);
                    }
                    if rhs.as_const() == Some(1.0) {
                        return (**lhs).clone();
                    }
                    if lhs.as_const() == Some(1.0) {
                        return (**rhs).clone();
                    }
                }
                BinOp::Div if rhs.as_const() == Some(1.0) => return (**lhs).clone(),
                _ => {}
            }
        }
        expr
    }

    fn reassociate_node(expr: OExpr, style: ReassocStyle) -> OExpr {
        if let OExpr::Bin { op, .. } = &expr {
            if op.is_associative() {
                let op = *op;
                let mut operands = Vec::new();
                flatten_chain(&expr, op, &mut operands);
                if operands.len() > 2 {
                    return rebuild_chain(op, operands, style);
                }
            }
        }
        expr
    }

    fn flatten_chain(expr: &OExpr, op: BinOp, out: &mut Vec<OExpr>) {
        match expr {
            OExpr::Bin { op: o, lhs, rhs } if *o == op => {
                flatten_chain(lhs, op, out);
                flatten_chain(rhs, op, out);
            }
            other => out.push(other.clone()),
        }
    }

    fn rebuild_chain(op: BinOp, mut operands: Vec<OExpr>, style: ReassocStyle) -> OExpr {
        match style {
            ReassocStyle::SourceOrder => {}
            ReassocStyle::Reversed => operands.reverse(),
            ReassocStyle::ConstantsFirst => {
                let (mut ordered, rest): (Vec<_>, Vec<_>) =
                    operands.into_iter().partition(|e| matches!(e, OExpr::Const(_)));
                ordered.extend(rest);
                operands = ordered;
            }
            ReassocStyle::BalancedTree => return build_balanced(op, &operands),
        }
        let mut iter = operands.into_iter();
        let first = iter.next().expect("chain has at least one operand");
        iter.fold(first, |acc, next| OExpr::bin(op, acc, next))
    }

    fn build_balanced(op: BinOp, operands: &[OExpr]) -> OExpr {
        match operands.len() {
            1 => operands[0].clone(),
            n => OExpr::bin(
                op,
                build_balanced(op, &operands[..n / 2]),
                build_balanced(op, &operands[n / 2..]),
            ),
        }
    }

    fn recip_division_node(expr: OExpr, approx: bool) -> OExpr {
        if let OExpr::Bin { op: BinOp::Div, lhs, rhs } = expr {
            let recip = OExpr::Recip { value: rhs, approx };
            if lhs.as_const() == Some(1.0) {
                return recip;
            }
            return OExpr::Bin { op: BinOp::Mul, lhs, rhs: Box::new(recip) };
        }
        expr
    }

    fn contract_node(expr: OExpr, style: ContractionStyle) -> OExpr {
        if style == ContractionStyle::Off {
            return expr;
        }
        let aggressive = style == ContractionStyle::Aggressive;
        if let OExpr::Bin { op, lhs, rhs } = &expr {
            let mul = |e: &OExpr| match e {
                OExpr::Bin { op: BinOp::Mul, lhs: a, rhs: b } => {
                    Some(((**a).clone(), (**b).clone()))
                }
                _ => None,
            };
            let neg = |e: OExpr| OExpr::Neg(Box::new(e));
            match op {
                BinOp::Add => {
                    if let Some((a, b)) = mul(lhs) {
                        return OExpr::fma(a, b, (**rhs).clone());
                    }
                    if let (true, Some((a, b))) = (aggressive, mul(rhs)) {
                        return OExpr::fma(a, b, (**lhs).clone());
                    }
                }
                BinOp::Sub => {
                    if let Some((a, b)) = mul(lhs) {
                        return OExpr::fma(a, b, neg((**rhs).clone()));
                    }
                    if let (true, Some((a, b))) = (aggressive, mul(rhs)) {
                        return OExpr::fma(neg(a), b, (**lhs).clone());
                    }
                }
                _ => {}
            }
        }
        expr
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{CompilerConfig, CompilerId, OptLevel};
    use crate::ir::{count_in_body, OCond, OExpr};
    use crate::lower::lower_program;
    use llm4fp_fpir::{parse_compute, CmpOp, IndexExpr, MathFunc};
    use proptest::prelude::*;

    fn lower_src(src: &str) -> Vec<OStmt> {
        lower_program(&parse_compute(src).unwrap())
    }

    fn sem(compiler: CompilerId, level: OptLevel) -> Semantics {
        CompilerConfig::new(compiler, level).semantics()
    }

    /// Apply one stage to a single expression through the arena.
    fn apply(expr: OExpr, stage: Stage) -> OExpr {
        let body = [OStmt::Assign { target: "comp".into(), expr }];
        let arena = Arena::from_body(&body);
        match rewrite(&arena, stage, Arena::sized_like(&arena)).raise(&body).pop() {
            Some(OStmt::Assign { expr, .. }) => expr,
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn const_folding_folds_literal_arithmetic_only() {
        let e = apply(
            OExpr::bin(
                BinOp::Mul,
                OExpr::bin(BinOp::Add, OExpr::Const(1.5), OExpr::Const(2.5)),
                OExpr::var("x"),
            ),
            Stage::ConstFold,
        );
        match e {
            OExpr::Bin { op: BinOp::Mul, lhs, .. } => assert_eq!(lhs.as_const(), Some(4.0)),
            other => panic!("unexpected {other:?}"),
        }
        // Division by literal zero is left symbolic.
        let e =
            apply(OExpr::bin(BinOp::Div, OExpr::Const(1.0), OExpr::Const(0.0)), Stage::ConstFold);
        assert!(matches!(e, OExpr::Bin { .. }));
    }

    #[test]
    fn algebraic_simplification_applies_unsafe_identities() {
        let simplify = |e| apply(e, Stage::AlgebraicSimplify);
        let x_minus_x = OExpr::bin(BinOp::Sub, OExpr::var("x"), OExpr::var("x"));
        assert_eq!(simplify(x_minus_x).as_const(), Some(0.0));
        let x_times_0 = OExpr::bin(BinOp::Mul, OExpr::var("x"), OExpr::Const(0.0));
        assert_eq!(simplify(x_times_0).as_const(), Some(0.0));
        let x_plus_0 = OExpr::bin(BinOp::Add, OExpr::Const(0.0), OExpr::var("x"));
        assert_eq!(simplify(x_plus_0), OExpr::var("x"));
        let x_div_1 = OExpr::bin(BinOp::Div, OExpr::var("x"), OExpr::Const(1.0));
        assert_eq!(simplify(x_div_1), OExpr::var("x"));
        // x - y is untouched.
        let x_minus_y = OExpr::bin(BinOp::Sub, OExpr::var("x"), OExpr::var("y"));
        assert_eq!(simplify(x_minus_y.clone()), x_minus_y);
    }

    #[test]
    fn reassociation_styles_produce_different_trees() {
        let chain = OExpr::bin(
            BinOp::Add,
            OExpr::bin(
                BinOp::Add,
                OExpr::bin(BinOp::Add, OExpr::var("a"), OExpr::var("b")),
                OExpr::Const(3.0),
            ),
            OExpr::var("d"),
        );
        let reassociate = |style| apply(chain.clone(), Stage::Reassociate(style));
        let balanced = reassociate(ReassocStyle::BalancedTree);
        let constants_first = reassociate(ReassocStyle::ConstantsFirst);
        let reversed = reassociate(ReassocStyle::Reversed);
        assert_ne!(balanced, chain);
        assert_ne!(constants_first, balanced);
        assert_ne!(reversed, balanced);
        // Constants-first puts the literal in the leftmost position.
        fn leftmost(e: &OExpr) -> &OExpr {
            match e {
                OExpr::Bin { lhs, .. } => leftmost(lhs),
                other => other,
            }
        }
        assert_eq!(leftmost(&constants_first).as_const(), Some(3.0));
        assert_eq!(leftmost(&reversed), &OExpr::var("d"));
        // All styles keep the same operand multiset (same size).
        assert_eq!(balanced.size(), chain.size());
        assert_eq!(reversed.size(), chain.size());
    }

    #[test]
    fn short_chains_are_not_reassociated() {
        let two = OExpr::bin(BinOp::Add, OExpr::var("a"), OExpr::var("b"));
        assert_eq!(apply(two.clone(), Stage::Reassociate(ReassocStyle::BalancedTree)), two);
        // Non-associative operators are never flattened.
        let subs = OExpr::bin(
            BinOp::Sub,
            OExpr::bin(BinOp::Sub, OExpr::var("a"), OExpr::var("b")),
            OExpr::var("c"),
        );
        assert_eq!(apply(subs.clone(), Stage::Reassociate(ReassocStyle::Reversed)), subs);
    }

    #[test]
    fn reciprocal_division_rewrites_divisions() {
        let div = OExpr::bin(BinOp::Div, OExpr::var("x"), OExpr::var("y"));
        match apply(div, Stage::RecipDivision { approx: false }) {
            OExpr::Bin { op: BinOp::Mul, rhs, .. } => {
                assert!(matches!(*rhs, OExpr::Recip { approx: false, .. }));
            }
            other => panic!("unexpected {other:?}"),
        }
        let one_over = OExpr::bin(BinOp::Div, OExpr::Const(1.0), OExpr::var("y"));
        assert!(matches!(
            apply(one_over, Stage::RecipDivision { approx: true }),
            OExpr::Recip { approx: true, .. }
        ));
    }

    #[test]
    fn contraction_styles_cover_different_patterns() {
        let contract = |e, style| apply(e, Stage::Contract(style));
        let mul_left = OExpr::bin(
            BinOp::Add,
            OExpr::bin(BinOp::Mul, OExpr::var("a"), OExpr::var("b")),
            OExpr::var("c"),
        );
        let mul_right = OExpr::bin(
            BinOp::Add,
            OExpr::var("c"),
            OExpr::bin(BinOp::Mul, OExpr::var("a"), OExpr::var("b")),
        );
        assert!(matches!(
            contract(mul_left.clone(), ContractionStyle::MulOnLeft),
            OExpr::Fma { .. }
        ));
        assert!(matches!(
            contract(mul_left.clone(), ContractionStyle::Aggressive),
            OExpr::Fma { .. }
        ));
        // The conservative style leaves `c + a*b` alone; the aggressive one fuses it.
        assert!(matches!(
            contract(mul_right.clone(), ContractionStyle::MulOnLeft),
            OExpr::Bin { .. }
        ));
        assert!(matches!(contract(mul_right, ContractionStyle::Aggressive), OExpr::Fma { .. }));
        // Subtraction with the multiply on the right needs a negated operand.
        let sub_right = OExpr::bin(
            BinOp::Sub,
            OExpr::var("c"),
            OExpr::bin(BinOp::Mul, OExpr::var("a"), OExpr::var("b")),
        );
        match contract(sub_right, ContractionStyle::Aggressive) {
            OExpr::Fma { a, .. } => assert!(matches!(*a, OExpr::Neg(_))),
            other => panic!("unexpected {other:?}"),
        }
        assert!(matches!(contract(mul_left, ContractionStyle::Off), OExpr::Bin { .. }));
    }

    #[test]
    fn pipeline_matches_table1_expectations_per_configuration() {
        let src = "void compute(double x, double y, double z) {\n\
                   comp = x * y + z;\n\
                   comp += x / y;\n\
                   comp = comp + x + y + z + 1.0;\n\
                   }";
        let body = lower_src(src);
        let run = |compiler, level| run_pipeline(&body, &sem(compiler, level));
        // O0_nofma: nothing happens.
        let strict = run(CompilerId::Gcc, OptLevel::O0Nofma);
        assert_eq!(count_in_body(&strict, |e| matches!(e, OExpr::Fma { .. })), 0);
        assert_eq!(count_in_body(&strict, |e| matches!(e, OExpr::Recip { .. })), 0);

        // gcc -O2 contracts but does not touch division or association.
        let gcc_o2 = run(CompilerId::Gcc, OptLevel::O2);
        assert!(count_in_body(&gcc_o2, |e| matches!(e, OExpr::Fma { .. })) >= 1);
        assert_eq!(count_in_body(&gcc_o2, |e| matches!(e, OExpr::Recip { .. })), 0);

        // nvcc -O0 already contracts (fmad default), hosts at -O0 do not.
        let nvcc_o0 = run(CompilerId::Nvcc, OptLevel::O0);
        let gcc_o0 = run(CompilerId::Gcc, OptLevel::O0);
        assert!(count_in_body(&nvcc_o0, |e| matches!(e, OExpr::Fma { .. })) >= 1);
        assert_eq!(count_in_body(&gcc_o0, |e| matches!(e, OExpr::Fma { .. })), 0);

        // Fast-math introduces reciprocals everywhere and approximate ones on
        // the device.
        let gcc_fast = run(CompilerId::Gcc, OptLevel::O3Fastmath);
        let nvcc_fast = run(CompilerId::Nvcc, OptLevel::O3Fastmath);
        assert!(count_in_body(&gcc_fast, |e| matches!(e, OExpr::Recip { approx: false, .. })) >= 1);
        assert!(count_in_body(&nvcc_fast, |e| matches!(e, OExpr::Recip { approx: true, .. })) >= 1);

        // The three personalities produce three different fast-math bodies.
        let clang_fast = run(CompilerId::Clang, OptLevel::O3Fastmath);
        assert_ne!(gcc_fast, clang_fast);
        assert_ne!(gcc_fast, nvcc_fast);
        assert_ne!(clang_fast, nvcc_fast);
    }

    #[test]
    fn pipeline_is_identity_preserving_for_structure() {
        // Control flow shape survives every pipeline.
        let src = "void compute(double *a, double s) {\n\
                   for (int i = 0; i < 4; ++i) {\n\
                     if (s > 0.0) { comp += a[i] * s + 1.0; }\n\
                   }\n\
                   }";
        let lowered = lower_src(src);
        for &c in &CompilerId::ALL {
            for &l in &OptLevel::ALL {
                let body = run_pipeline(&lowered, &sem(c, l));
                assert_eq!(body.len(), 1);
                match &body[0] {
                    OStmt::For { bound: 4, body, .. } => {
                        assert!(matches!(body[0], OStmt::If { .. }))
                    }
                    other => panic!("loop structure lost for {c} {l}: {other:?}"),
                }
            }
        }
    }

    /// Every stage parameterization, fast-math ones included.
    const ALL_STAGES: [Stage; 11] = [
        Stage::ConstFold,
        Stage::AlgebraicSimplify,
        Stage::Reassociate(ReassocStyle::SourceOrder),
        Stage::Reassociate(ReassocStyle::BalancedTree),
        Stage::Reassociate(ReassocStyle::ConstantsFirst),
        Stage::Reassociate(ReassocStyle::Reversed),
        Stage::RecipDivision { approx: false },
        Stage::RecipDivision { approx: true },
        Stage::Contract(ContractionStyle::Off),
        Stage::Contract(ContractionStyle::MulOnLeft),
        Stage::Contract(ContractionStyle::Aggressive),
    ];

    /// Random expression trees shaped to make every rule fire: long mixed
    /// chains, the constants 0.0, -0.0, 1.0 and NaN, and repeated
    /// subtrees so that `x - x` matches.
    struct TreeGen {
        state: u64,
        budget: usize,
        seen: Vec<OExpr>,
    }

    impl TreeGen {
        fn new(seed: u64) -> Self {
            TreeGen { state: seed, budget: 0, seen: Vec::new() }
        }

        fn below(&mut self, n: usize) -> usize {
            self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            ((z ^ (z >> 31)) % n as u64) as usize
        }

        fn leaf(&mut self) -> OExpr {
            match self.below(9) {
                0 => OExpr::Const(0.0),
                1 => OExpr::Const(-0.0),
                2 => OExpr::Const(1.0),
                3 => OExpr::Const(f64::NAN),
                4 => OExpr::Const(2.5),
                5 => OExpr::var("x"),
                6 => OExpr::var("y"),
                7 => OExpr::Index { array: "a".into(), index: IndexExpr::Var("i".into()) },
                _ => OExpr::Index { array: "a".into(), index: IndexExpr::Const(1) },
            }
        }

        fn op(&mut self) -> BinOp {
            [BinOp::Add, BinOp::Mul, BinOp::Sub, BinOp::Div][self.below(4)]
        }

        /// A fresh tree of at most `depth` levels, not a bare leaf.
        fn tree(&mut self, depth: usize) -> OExpr {
            loop {
                self.budget = 12;
                let e = self.expr(depth);
                if e.size() > 1 {
                    return e;
                }
            }
        }

        fn expr(&mut self, depth: usize) -> OExpr {
            if depth == 0 || self.budget == 0 || self.below(5) == 0 {
                return self.leaf();
            }
            if !self.seen.is_empty() && self.below(6) == 0 {
                let k = self.below(self.seen.len());
                return self.seen[k].clone();
            }
            self.budget -= 1;
            let e = match self.below(9) {
                0..=2 => {
                    // A chain of 2..=12 operands in a random association,
                    // mostly of one associative op, sometimes broken up.
                    let op = [BinOp::Add, BinOp::Mul][self.below(2)];
                    let operands: Vec<OExpr> =
                        (0..2 + self.below(11)).map(|_| self.expr(depth - 1)).collect();
                    self.shape(op, operands)
                }
                3 => OExpr::Neg(Box::new(self.expr(depth - 1))),
                4 => match self.below(3) {
                    0 => OExpr::Call { func: MathFunc::Sin, args: vec![self.expr(depth - 1)] },
                    1 => OExpr::Call {
                        func: MathFunc::Pow,
                        args: vec![self.expr(depth - 1), self.expr(depth - 1)],
                    },
                    _ => OExpr::Call {
                        func: MathFunc::Fma,
                        args: vec![
                            self.expr(depth - 1),
                            self.expr(depth - 1),
                            self.expr(depth - 1),
                        ],
                    },
                },
                5 => {
                    let lhs = self.expr(depth - 1);
                    let rhs = if self.below(2) == 0 { lhs.clone() } else { self.expr(depth - 1) };
                    OExpr::bin(BinOp::Sub, lhs, rhs)
                }
                6 => match self.below(2) {
                    0 => {
                        OExpr::fma(self.expr(depth - 1), self.expr(depth - 1), self.expr(depth - 1))
                    }
                    _ => OExpr::Recip {
                        value: Box::new(self.expr(depth - 1)),
                        approx: self.below(2) == 0,
                    },
                },
                _ => {
                    let op = self.op();
                    OExpr::bin(op, self.expr(depth - 1), self.expr(depth - 1))
                }
            };
            if e.size() <= 9 {
                self.seen.push(e.clone());
            }
            e
        }

        /// Associate `operands` into a random binary tree whose inner
        /// nodes are mostly `op`.
        fn shape(&mut self, op: BinOp, mut operands: Vec<OExpr>) -> OExpr {
            if operands.len() == 1 {
                return operands.pop().unwrap();
            }
            let split = 1 + self.below(operands.len() - 1);
            let rhs = operands.split_off(split);
            let node_op = if self.below(5) == 0 { self.op() } else { op };
            let lhs = self.shape(op, operands);
            OExpr::bin(node_op, lhs, self.shape(op, rhs))
        }
    }

    /// Structural equality that tells constants apart by their bits, so a
    /// sign-of-zero or NaN-payload change shows.
    fn same_bits(a: &OExpr, b: &OExpr) -> bool {
        match (a, b) {
            (OExpr::Const(x), OExpr::Const(y)) => x.to_bits() == y.to_bits(),
            (OExpr::Var(x), OExpr::Var(y)) => x == y,
            (OExpr::Index { .. }, OExpr::Index { .. }) => a == b,
            (OExpr::Neg(x), OExpr::Neg(y)) => same_bits(x, y),
            (OExpr::Bin { op: p, lhs: l, rhs: r }, OExpr::Bin { op: q, lhs: m, rhs: s }) => {
                p == q && same_bits(l, m) && same_bits(r, s)
            }
            (OExpr::Fma { a: a1, b: b1, c: c1 }, OExpr::Fma { a: a2, b: b2, c: c2 }) => {
                same_bits(a1, a2) && same_bits(b1, b2) && same_bits(c1, c2)
            }
            (OExpr::Recip { value: x, approx: p }, OExpr::Recip { value: y, approx: q }) => {
                p == q && same_bits(x, y)
            }
            (OExpr::Call { func: f, args: x }, OExpr::Call { func: g, args: y }) => {
                f == g && x.len() == y.len() && x.iter().zip(y).all(|(x, y)| same_bits(x, y))
            }
            _ => false,
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Every arena stage produces exactly the tree the bottom-up tree
        /// pass produces, constant bits included, alone and composed into
        /// each configuration's pipeline over a multi-site body.
        #[test]
        fn arena_stages_match_the_tree_passes(seed in any::<u64>()) {
            let mut gen = TreeGen::new(seed);
            let expr = gen.tree(5);
            for stage in ALL_STAGES {
                let arena = apply(expr.clone(), stage);
                let tree = reference::apply(expr.clone(), stage);
                prop_assert!(same_bits(&arena, &tree), "{stage:?} of {expr:?}:\n{arena:?}\n{tree:?}");
            }

            let body = vec![
                OStmt::Assign { target: "comp".into(), expr: expr.clone() },
                OStmt::For {
                    var: "i".into(),
                    bound: 2,
                    body: vec![OStmt::If {
                        cond: OCond { lhs: gen.tree(3), op: CmpOp::Lt, rhs: gen.tree(3) },
                        then_block: vec![OStmt::Store {
                            array: "a".into(),
                            index: IndexExpr::Var("i".into()),
                            expr: gen.tree(4),
                        }],
                    }],
                },
            ];
            for config in CompilerConfig::full_matrix() {
                let sem = config.semantics();
                let arena = run_pipeline(&body, &sem);
                let mut tree = body.clone();
                for stage in stages(&sem) {
                    tree = tree.into_iter().map(|s| map_stmt(s, &|e| reference::apply(e, stage))).collect();
                }
                let (mut a, mut t) = (Vec::new(), Vec::new());
                for s in &arena { s.visit_exprs(&mut |e| a.push(e.clone())); }
                for s in &tree { s.visit_exprs(&mut |e| t.push(e.clone())); }
                prop_assert!(
                    a.len() == t.len() && a.iter().zip(&t).all(|(x, y)| same_bits(x, y)),
                    "{config}"
                );
            }
        }
    }

    fn map_stmt(stmt: OStmt, f: &impl Fn(OExpr) -> OExpr) -> OStmt {
        match stmt {
            OStmt::Assign { target, expr } => OStmt::Assign { target, expr: f(expr) },
            OStmt::Store { array, index, expr } => OStmt::Store { array, index, expr: f(expr) },
            OStmt::DeclArray { .. } => stmt,
            OStmt::If { cond, then_block } => OStmt::If {
                cond: OCond { lhs: f(cond.lhs), op: cond.op, rhs: f(cond.rhs) },
                then_block: then_block.into_iter().map(|s| map_stmt(s, f)).collect(),
            },
            OStmt::For { var, bound, body } => {
                OStmt::For { var, bound, body: body.into_iter().map(|s| map_stmt(s, f)).collect() }
            }
        }
    }
}
