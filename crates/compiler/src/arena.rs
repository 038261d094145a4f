//! The pass pipeline's working IR: a flat expression arena.
//!
//! Every optimization stage, the sealing flattener and the interpreter's
//! `specialize` run over this representation. One program's expressions
//! live in a single [`Arena`]: nodes in one `Vec` with `u32` children,
//! math-call arguments in a side `Vec<u32>`, and one root per expression
//! site. Leaves are `Copy` and borrow their names from the lowered
//! [`OStmt`] body, so a stage that rewrites an arena allocates a few
//! vectors, not one box and one string per node.
//!
//! The statement skeleton is not copied: it stays the lowered body, whose
//! statement structure no stage changes. The arena holds the body's
//! expression sites in walk order: an `Assign`/`Store` expression, then an
//! `If`'s condition operands (left, then right), then the nested
//! statements of an `If` or `For`. [`Arena::raise`] pairs the two back
//! into an [`OStmt`] body.
//!
//! Each name leaf (`Var`, `Index`) carries a [`LeafId`]: its position
//! among the leaves of the body, numbered in walk order as the body is
//! lowered. Stages copy leaves and never make new ones, so the id
//! survives every rewrite, and the sealing flattener finds the leaf's
//! resolved slot by it instead of by name.

use llm4fp_fpir::{BinOp, IndexExpr, MathFunc};

use crate::ir::{OCond, OExpr, OStmt};

/// Index of a node in an [`Arena`].
pub(crate) type NodeId = u32;

/// Position of a name leaf among the leaves of the lowered body (see the
/// module docs).
pub(crate) type LeafId = u32;

/// One expression node. Children are indices into the same arena.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Node<'s> {
    Const(f64),
    Var(&'s str, LeafId),
    Index(&'s str, &'s IndexExpr, LeafId),
    Neg(NodeId),
    Bin(BinOp, NodeId, NodeId),
    Fma(NodeId, NodeId, NodeId),
    Recip(NodeId, bool),
    /// A math call whose arguments are `args[start..start + len]`.
    Call(MathFunc, u32, u32),
}

/// The expressions of one program body (see the module docs).
#[derive(Debug)]
pub(crate) struct Arena<'s> {
    pub(crate) nodes: Vec<Node<'s>>,
    pub(crate) args: Vec<NodeId>,
    /// One root per expression site, in walk order.
    pub(crate) roots: Vec<NodeId>,
    /// Number of name leaves of the body (the next free [`LeafId`] while
    /// the body is lowered).
    pub(crate) leaves: u32,
}

impl<'s> Arena<'s> {
    /// An empty arena sized like `other`.
    pub(crate) fn sized_like(other: &Arena<'_>) -> Arena<'s> {
        Arena {
            nodes: Vec::with_capacity(other.nodes.len()),
            args: Vec::with_capacity(other.args.len()),
            roots: Vec::with_capacity(other.roots.len()),
            leaves: other.leaves,
        }
    }

    /// An empty arena to lower a body into.
    pub(crate) fn new() -> Arena<'s> {
        // Sized for a typical generated program (a few dozen nodes): growing
        // from empty reallocates several times and costs about as much as
        // the walk itself.
        Arena {
            nodes: Vec::with_capacity(64),
            args: Vec::with_capacity(8),
            roots: Vec::with_capacity(16),
            leaves: 0,
        }
    }

    /// Lower every expression site of `body` into a fresh arena.
    pub(crate) fn from_body(body: &'s [OStmt]) -> Arena<'s> {
        let mut arena = Arena::new();
        arena.add_block(body);
        arena
    }

    fn add_block(&mut self, body: &'s [OStmt]) {
        for stmt in body {
            match stmt {
                OStmt::Assign { expr, .. } | OStmt::Store { expr, .. } => {
                    self.push_site(expr, &mut |_| {})
                }
                OStmt::DeclArray { .. } => {}
                OStmt::If { cond, then_block } => {
                    self.push_site(&cond.lhs, &mut |_| {});
                    self.push_site(&cond.rhs, &mut |_| {});
                    self.add_block(then_block);
                }
                OStmt::For { body, .. } => self.add_block(body),
            }
        }
    }

    /// Lower the next expression site of a body (in the walk order above)
    /// as this arena's next root. Each name leaf gets the next
    /// [`LeafId`] and is handed to `leaf`, in id order.
    pub(crate) fn push_site(&mut self, expr: &'s OExpr, leaf: &mut impl FnMut(Node<'s>)) {
        let root = self.add_expr(expr, leaf);
        self.roots.push(root);
    }

    fn add_expr(&mut self, expr: &'s OExpr, leaf: &mut impl FnMut(Node<'s>)) -> NodeId {
        let node = match expr {
            OExpr::Const(v) => Node::Const(*v),
            OExpr::Var(name) => return self.add_leaf(Node::Var(name, 0), leaf),
            OExpr::Index { array, index } => {
                return self.add_leaf(Node::Index(array, index, 0), leaf)
            }
            OExpr::Neg(inner) => Node::Neg(self.add_expr(inner, leaf)),
            OExpr::Bin { op, lhs, rhs } => {
                let lhs = self.add_expr(lhs, leaf);
                Node::Bin(*op, lhs, self.add_expr(rhs, leaf))
            }
            OExpr::Fma { a, b, c } => {
                let a = self.add_expr(a, leaf);
                let b = self.add_expr(b, leaf);
                Node::Fma(a, b, self.add_expr(c, leaf))
            }
            OExpr::Recip { value, approx } => Node::Recip(self.add_expr(value, leaf), *approx),
            OExpr::Call { func, args } => {
                let start = self.reserve_args(args.len());
                for (k, arg) in args.iter().enumerate() {
                    let id = self.add_expr(arg, leaf);
                    self.args[start as usize + k] = id;
                }
                Node::Call(*func, start, args.len() as u32)
            }
        };
        self.push(node)
    }

    /// Number a `Var` or `Index` leaf, hand it to `leaf` and append it.
    fn add_leaf(&mut self, node: Node<'s>, leaf: &mut impl FnMut(Node<'s>)) -> NodeId {
        let id = self.leaves;
        self.leaves += 1;
        let node = match node {
            Node::Var(name, _) => Node::Var(name, id),
            Node::Index(array, index, _) => Node::Index(array, index, id),
            other => unreachable!("{other:?} is not a name leaf"),
        };
        leaf(node);
        self.push(node)
    }

    /// Append a node and return its id.
    #[inline]
    pub(crate) fn push(&mut self, node: Node<'s>) -> NodeId {
        self.nodes.push(node);
        (self.nodes.len() - 1) as NodeId
    }

    /// Reserve `len` contiguous argument slots and return the first.
    /// Arguments are filled in after their subtrees are built, since those
    /// may reserve slots of their own.
    pub(crate) fn reserve_args(&mut self, len: usize) -> u32 {
        let start = self.args.len();
        self.args.resize(start + len, 0);
        start as u32
    }

    #[inline]
    pub(crate) fn node(&self, id: NodeId) -> Node<'s> {
        self.nodes[id as usize]
    }

    #[inline]
    pub(crate) fn arg(&self, start: u32, k: u32) -> NodeId {
        self.args[(start + k) as usize]
    }

    /// The value of a constant node.
    #[inline]
    pub(crate) fn as_const(&self, id: NodeId) -> Option<f64> {
        match self.node(id) {
            Node::Const(v) => Some(v),
            _ => None,
        }
    }

    /// Structural equality of two subtrees, with exactly the meaning of
    /// [`OExpr`]'s `PartialEq`: constants compare as `f64` (so `0.0` equals
    /// `-0.0` and NaN equals nothing), names and indices by value.
    pub(crate) fn same_tree(&self, a: NodeId, b: NodeId) -> bool {
        match (self.node(a), self.node(b)) {
            (Node::Const(x), Node::Const(y)) => x == y,
            (Node::Var(x, _), Node::Var(y, _)) => x == y,
            (Node::Index(x, i, _), Node::Index(y, j, _)) => x == y && i == j,
            (Node::Neg(x), Node::Neg(y)) => self.same_tree(x, y),
            (Node::Bin(p, l, r), Node::Bin(q, m, s)) => {
                p == q && self.same_tree(l, m) && self.same_tree(r, s)
            }
            (Node::Fma(a1, b1, c1), Node::Fma(a2, b2, c2)) => {
                self.same_tree(a1, a2) && self.same_tree(b1, b2) && self.same_tree(c1, c2)
            }
            (Node::Recip(x, p), Node::Recip(y, q)) => p == q && self.same_tree(x, y),
            (Node::Call(f, s, n), Node::Call(g, t, m)) => {
                f == g && n == m && (0..n).all(|k| self.same_tree(self.arg(s, k), self.arg(t, k)))
            }
            _ => false,
        }
    }

    /// Pair this arena's expressions with the statement skeleton they were
    /// lowered from (or rewritten from), producing an owned body.
    pub(crate) fn raise(&self, skeleton: &[OStmt]) -> Vec<OStmt> {
        let mut roots = self.roots.iter();
        let body = self.raise_block(skeleton, &mut roots);
        debug_assert!(roots.next().is_none(), "arena has more roots than the skeleton");
        body
    }

    fn raise_block(
        &self,
        skeleton: &[OStmt],
        roots: &mut std::slice::Iter<'_, NodeId>,
    ) -> Vec<OStmt> {
        let next = |roots: &mut std::slice::Iter<'_, NodeId>| {
            self.raise_expr(*roots.next().expect("arena has a root per expression site"))
        };
        skeleton
            .iter()
            .map(|stmt| match stmt {
                OStmt::Assign { target, .. } => {
                    OStmt::Assign { target: target.clone(), expr: next(roots) }
                }
                OStmt::Store { array, index, .. } => {
                    OStmt::Store { array: array.clone(), index: index.clone(), expr: next(roots) }
                }
                OStmt::DeclArray { .. } => stmt.clone(),
                OStmt::If { cond, then_block } => {
                    let lhs = next(roots);
                    let rhs = next(roots);
                    OStmt::If {
                        cond: OCond { lhs, op: cond.op, rhs },
                        then_block: self.raise_block(then_block, roots),
                    }
                }
                OStmt::For { var, bound, body } => OStmt::For {
                    var: var.clone(),
                    bound: *bound,
                    body: self.raise_block(body, roots),
                },
            })
            .collect()
    }

    /// The owned expression tree rooted at `id`.
    fn raise_expr(&self, id: NodeId) -> OExpr {
        let boxed = |id| Box::new(self.raise_expr(id));
        match self.node(id) {
            Node::Const(v) => OExpr::Const(v),
            Node::Var(name, _) => OExpr::Var(name.to_string()),
            Node::Index(array, index, _) => {
                OExpr::Index { array: array.to_string(), index: index.clone() }
            }
            Node::Neg(inner) => OExpr::Neg(boxed(inner)),
            Node::Bin(op, lhs, rhs) => OExpr::Bin { op, lhs: boxed(lhs), rhs: boxed(rhs) },
            Node::Fma(a, b, c) => OExpr::Fma { a: boxed(a), b: boxed(b), c: boxed(c) },
            Node::Recip(value, approx) => OExpr::Recip { value: boxed(value), approx },
            Node::Call(func, start, len) => OExpr::Call {
                func,
                args: (0..len).map(|k| self.raise_expr(self.arg(start, k))).collect(),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lower::lower_program;
    use llm4fp_fpir::parse_compute;

    #[test]
    fn lowering_then_raising_is_the_identity() {
        let src = "void compute(double *a, double x) {\n\
                   double buf[2] = {0.5};\n\
                   for (int i = 0; i < 4; ++i) {\n\
                     if (a[i] > -x) { buf[i % 2] += pow(a[i], 2.0) * x - sin(-x); }\n\
                   }\n\
                   comp = buf[0] + buf[1];\n\
                   }";
        let body = lower_program(&parse_compute(src).unwrap());
        let arena = Arena::from_body(&body);
        // Sites: the store's expression, the condition's two operands and
        // the final assignment.
        assert_eq!(arena.roots.len(), 4);
        assert_eq!(arena.raise(&body), body);
    }

    #[test]
    fn same_tree_keeps_f64_equality_on_constants() {
        let mut arena = Arena { nodes: Vec::new(), args: Vec::new(), roots: Vec::new(), leaves: 0 };
        let zero = arena.push(Node::Const(0.0));
        let neg_zero = arena.push(Node::Const(-0.0));
        let nan = arena.push(Node::Const(f64::NAN));
        assert!(arena.same_tree(zero, neg_zero));
        assert!(!arena.same_tree(nan, nan));
        let x = arena.push(Node::Var("x", 0));
        let y = arena.push(Node::Var("x", 1));
        let sum = arena.push(Node::Bin(BinOp::Add, x, zero));
        let same = arena.push(Node::Bin(BinOp::Add, y, neg_zero));
        let other = arena.push(Node::Bin(BinOp::Mul, y, neg_zero));
        assert!(arena.same_tree(sum, same));
        assert!(!arena.same_tree(sum, other));
    }
}
