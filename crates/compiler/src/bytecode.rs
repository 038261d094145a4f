//! The sealing pass: one-time compilation of an optimized body into a
//! register-machine bytecode program.
//!
//! Sealing resolves every scalar, integer and array name to a dense slot
//! index via a compile-time symbol table (scoped exactly like the static
//! validator scopes names), flattens the statement tree into a linear
//! `Instr` sequence with structured jumps for conditionals and loops, and
//! pre-rounds every constant (and array initializer) to the program
//! precision. The result — a [`SealedProgram`] — is executed by the
//! register VM in [`crate::vm`] with reusable scratch buffers: no hash
//! maps, no string comparisons, no per-run allocation.
//!
//! ## Matrix-shared layout
//!
//! The work splits into two phases. A `SealPlan` performs everything
//! that is *configuration-independent* — the scalar/int/array slot
//! layout, the parameter binding plan, the name pool, the pre-rounded
//! initializer pool and the resolution of every name a leaf or an
//! assignment reads — once per program. (The optimization pass pipeline
//! rewrites expressions only; statement structure, assignment targets,
//! loop variables and array declarations are identical under every
//! configuration, so one layout serves the whole 18-configuration
//! matrix.) The plan's walk over the lowered body also lowers its
//! expressions into the arena (`crate::arena`) the pass pipeline starts
//! from, and records the statement skeleton as a flat list of ops. A
//! `Flattener` then emits the `Instr` stream for one
//! configuration's optimized arena laid over that skeleton, which *is*
//! configuration-dependent. It compares no strings: every leaf carries
//! the id the plan's walk gave it, the pipeline keeps the id, and the
//! plan holds that leaf's resolution (or its refusal, so a configuration
//! whose rewrites drop the leaf still seals).
//! The layout lands in an [`Arc<SealLayout>`] shared by every
//! [`SealedProgram`] of the matrix, so sealing a full matrix allocates
//! the string tables and initializer pools once instead of once per
//! configuration — see [`crate::Frontend::seal_matrix`].
//!
//! ## Bit-exactness contract
//!
//! The sealed program is pinned to the reference interpreter
//! ([`crate::interp::Interpreter`]): for every program that passed
//! validation (the only programs [`crate::compile()`] produces), execution
//! yields the same [`crate::interp::ExecResult`] value bits, the same step
//! count, and the same [`crate::interp::ExecError`] variants — including
//! the exact statement/iteration at which fuel runs out, because `Burn`
//! instructions are emitted at precisely the interpreter's burn points
//! (once per statement, once per loop iteration, in the same order).
//!
//! Name resolution is static while the interpreter's is dynamic; the two
//! agree for every validated program except one pathological corner: a
//! name that is *both* a loop variable in scope and a scalar assignment
//! target elsewhere in the program (the interpreter then picks dynamically
//! based on which assignments have executed). Sealing refuses such
//! programs with [`SealError::AmbiguousName`] and callers fall back to the
//! reference interpreter, so bit-identity holds universally rather than
//! merely almost always.

use std::sync::Arc;

use llm4fp_fpir::{BinOp, CmpOp, IndexExpr, MathFunc, Param, ParamType, Precision};
use llm4fp_mathlib::{FastMathLib, MathLib};

use crate::arena::{Arena, LeafId, Node, NodeId};
use crate::config::{MathLibKind, Semantics};
use crate::ir::OStmt;

/// Round an exact `f64` to a program precision — the single
/// implementation of the rounding convention, shared by the seal-time
/// constant pre-rounding (plan init pools, `Const` operands) and the
/// VM's run-time `round` (see `SealedProgram::round` in [`crate::vm`]).
#[inline(always)]
pub(crate) fn round_to(precision: Precision, v: f64) -> f64 {
    match precision {
        Precision::F64 => v,
        Precision::F32 => v as f32 as f64,
    }
}

/// Why a program could not be sealed. Sealing failures are not errors of
/// the pipeline: callers fall back to the reference interpreter, which
/// reproduces whatever runtime behaviour the program actually has.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SealError {
    /// A name is visible both as an in-scope integer (loop variable or int
    /// parameter) and as a scalar assignment target somewhere in the
    /// program; the interpreter resolves such reads dynamically.
    AmbiguousName(String),
    /// A scalar variable is read without any reaching definition (the
    /// validator rejects such programs; they never reach sealing through
    /// [`crate::compile()`]).
    UnresolvedVariable(String),
    /// An array is accessed outside the scope of any declaration.
    UnresolvedArray(String),
    /// The program exceeds a bytecode encoding limit (slot or register
    /// indices beyond `u16`, more than `u32::MAX` instructions).
    TooComplex(&'static str),
}

impl std::fmt::Display for SealError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SealError::AmbiguousName(n) => {
                write!(f, "name `{n}` is dynamically ambiguous between int and scalar")
            }
            SealError::UnresolvedVariable(n) => write!(f, "no reaching definition for `{n}`"),
            SealError::UnresolvedArray(n) => write!(f, "array `{n}` is not in scope"),
            SealError::TooComplex(what) => write!(f, "program exceeds bytecode limits: {what}"),
        }
    }
}

impl std::error::Error for SealError {}

/// A floating-point register index.
pub(crate) type Reg = u16;

/// An array index expression with its variable resolved to an int slot (or
/// folded to a constant when no variable is referenced / in scope, exactly
/// mirroring the interpreter's `ints.get(v).unwrap_or(&0)`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum SlotIndex {
    Const(i64),
    Var(u16),
    Offset { slot: u16, offset: i64 },
    Mod { slot: u16, modulus: i64 },
}

impl SlotIndex {
    /// Evaluate against the integer slot file. Mirrors [`IndexExpr::eval`].
    #[inline]
    pub(crate) fn eval(self, ints: &[i64]) -> i64 {
        match self {
            SlotIndex::Const(k) => k,
            SlotIndex::Var(slot) => ints[slot as usize],
            SlotIndex::Offset { slot, offset } => ints[slot as usize] + offset,
            SlotIndex::Mod { slot, modulus } => {
                if modulus <= 0 {
                    0
                } else {
                    ints[slot as usize].rem_euclid(modulus)
                }
            }
        }
    }
}

/// One bytecode instruction of the register machine.
///
/// Expression instructions write a floating-point register; statement
/// instructions move values between registers and the scalar / integer /
/// array slot files. `Burn` consumes one unit of fuel (and counts one
/// step), placed exactly where the reference interpreter burns.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Instr {
    Burn,
    Const {
        dst: Reg,
        value: f64,
    },
    LoadScalar {
        dst: Reg,
        slot: u16,
    },
    LoadInt {
        dst: Reg,
        slot: u16,
    },
    LoadElem {
        dst: Reg,
        array: u16,
        index: SlotIndex,
    },
    Neg {
        dst: Reg,
        src: Reg,
    },
    Bin {
        op: BinOp,
        dst: Reg,
        lhs: Reg,
        rhs: Reg,
    },
    Fma {
        dst: Reg,
        a: Reg,
        b: Reg,
        c: Reg,
    },
    Recip {
        dst: Reg,
        src: Reg,
        approx: bool,
    },
    Call {
        func: MathFunc,
        dst: Reg,
        base: Reg,
        arity: u8,
    },
    StoreScalar {
        slot: u16,
        src: Reg,
    },
    StoreElem {
        array: u16,
        index: SlotIndex,
        src: Reg,
    },
    /// Reset a local array from the pre-rounded initializer pool
    /// (`init .. init + len(array)`).
    DeclArray {
        array: u16,
        init: u32,
    },
    SetInt {
        slot: u16,
        value: i64,
    },
    IncInt {
        slot: u16,
    },
    JumpIfIntGe {
        slot: u16,
        bound: i64,
        target: u32,
    },
    JumpCmpFalse {
        op: CmpOp,
        lhs: Reg,
        rhs: Reg,
        target: u32,
    },
    Jump {
        target: u32,
    },
    Halt,
}

/// How one `compute` parameter binds into the slot files.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum ParamBind {
    Int { slot: u16 },
    Fp { slot: u16 },
    Array { slot: u16 },
}

/// A parameter's binding plan (name kept for `InputSet` lookup and
/// `MissingInput` reporting).
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct SealedParam {
    pub name: String,
    pub bind: ParamBind,
}

/// Static metadata of one array slot.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct ArraySlot {
    /// Fixed element count (parameter length or declaration size).
    pub len: usize,
    /// Index into the name pool, for error reporting.
    pub name: u32,
}

/// The configuration-independent layout of a sealed program: parameter
/// binding plans, array metadata, the error-reporting name pool and the
/// pre-rounded initializer pool. Computed once per program by
/// [`SealPlan`] and shared (via `Arc`) by every [`SealedProgram`] the
/// matrix produces for that program.
#[derive(Debug)]
pub(crate) struct SealLayout {
    pub(crate) params: Vec<SealedParam>,
    pub(crate) arrays: Vec<ArraySlot>,
    /// Name pool for cold-path error construction.
    pub(crate) names: Vec<String>,
    /// Pre-rounded, pre-sized array initializers.
    pub(crate) init_pool: Vec<f64>,
}

/// An optimized program sealed into register-machine bytecode, ready for
/// repeated execution against many input sets (see [`crate::vm`]).
pub struct SealedProgram {
    pub(crate) precision: Precision,
    pub(crate) flush_to_zero: bool,
    /// Math library instantiated once at seal time (the libraries are
    /// stateless, so sharing one instance across runs is observationally
    /// identical to the interpreter's per-run instantiation).
    pub(crate) math: Arc<dyn MathLib>,
    /// Which library `math` is (the only semantics a `Call` reads).
    pub(crate) math_lib: MathLibKind,
    pub(crate) fast: FastMathLib,
    pub(crate) instrs: Vec<Instr>,
    /// Whether `instrs` holds a `Call` (so `math` matters).
    pub(crate) calls_math: bool,
    /// Configuration-independent layout, shared across a matrix.
    pub(crate) layout: Arc<SealLayout>,
    pub(crate) n_regs: usize,
    pub(crate) n_scalars: usize,
    pub(crate) n_ints: usize,
    pub(crate) comp_slot: u16,
}

impl std::fmt::Debug for SealedProgram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SealedProgram")
            .field("precision", &self.precision)
            .field("instrs", &self.instrs.len())
            .field("regs", &self.n_regs)
            .field("scalars", &self.n_scalars)
            .field("ints", &self.n_ints)
            .field("arrays", &self.layout.arrays.len())
            .finish()
    }
}

impl SealedProgram {
    /// Number of bytecode instructions (used by tests and diagnostics).
    pub fn instruction_count(&self) -> usize {
        self.instrs.len()
    }

    /// Size of the floating-point register file the VM allocates for this
    /// program.
    pub fn register_count(&self) -> usize {
        self.n_regs
    }

    /// Whether executing `self` and `other` gives the same result on every
    /// input set. Both come from one seal plan (one matrix of one
    /// program), their instruction streams are bit-identical, their
    /// register counts and flush-to-zero modes are equal, and they link
    /// the same math library unless the stream calls none. The VM reads
    /// nothing else, so the differential tester runs such a pair once.
    pub fn runs_identically(&self, other: &SealedProgram) -> bool {
        Arc::ptr_eq(&self.layout, &other.layout)
            && self.flush_to_zero == other.flush_to_zero
            && self.n_regs == other.n_regs
            && self.calls_math == other.calls_math
            && (self.math_lib == other.math_lib || !self.calls_math)
            && same_instrs(&self.instrs, &other.instrs)
    }
}

/// Whether two instruction streams are the same bit for bit. `Instr`'s
/// derived `PartialEq` compares `Const` values as `f64`s, which calls
/// `0.0` and `-0.0` equal (they execute differently) and a NaN constant
/// unequal to itself.
pub(crate) fn same_instrs(a: &[Instr], b: &[Instr]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|pair| match pair {
            (Instr::Const { dst: x, value: v }, Instr::Const { dst: y, value: w }) => {
                x == y && v.to_bits() == w.to_bits()
            }
            (x, y) => x == y,
        })
}

/// One flattened instruction stream, with what execution needs to know
/// about it beyond the configuration's semantics.
#[derive(Debug, Clone)]
pub(crate) struct Stream {
    instrs: Vec<Instr>,
    n_regs: usize,
    calls_math: bool,
}

/// What a leaf read compiles to, resolved once per program by the plan.
#[derive(Debug, Clone, Copy)]
enum Leaf {
    Scalar(u16),
    Int(u16),
    Elem { array: u16, index: SlotIndex },
}

/// A scalar slot plus the point in the statement walk at which its
/// defining assignment interned it. Reads resolve against the table *as
/// it stood* at the reading statement (replicating the interpreter's
/// dynamic map, which only contains already-executed assignments — for
/// validated programs every read lexically follows its definition, so the
/// distinction is invisible, but the plan keeps the exact refusal
/// behaviour for anything else).
#[derive(Debug, Clone, Copy)]
struct ScalarSlot<'p> {
    name: &'p str,
    slot: u16,
    /// Visible to reads once this many assignments have been walked (0 =
    /// parameters and `comp`, visible from the start).
    visible_from: u32,
}

/// One statement of the plan's skeleton, in walk order: what the flattener
/// emits around the body's expression sites. `If` and `For` open a block
/// that the matching `End` closes.
#[derive(Debug, Clone)]
enum Op {
    /// An assignment to a scalar: one expression site, then its store, or
    /// why its target is ambiguous (which refuses before the expression
    /// compiles).
    Assign(Result<Instr, SealError>),
    /// An assignment to an array element: one expression site, then its
    /// store, or why the array is not in scope (which refuses after).
    Store(Result<Instr, SealError>),
    /// A local array declaration, as its `DeclArray` instruction.
    DeclArray(Instr),
    /// A conditional: two expression sites and their comparison.
    If(CmpOp),
    /// A loop with its exclusive bound.
    For(i64),
    End,
}

/// The per-program half of sealing: everything the optimization pipeline
/// cannot change. Built once, then flattened against each configuration's
/// optimized expression arena.
pub(crate) struct SealPlan {
    precision: Precision,
    layout: Arc<SealLayout>,
    /// The statement skeleton every flattened arena is laid over.
    ops: Vec<Op>,
    /// The resolution of every leaf, indexed by its [`LeafId`]. A refusal
    /// stays here until a flatten reaches the leaf, so a configuration
    /// whose rewrites drop every refused leaf still seals.
    leaves: Vec<Result<Leaf, SealError>>,
    /// Statements in the body, nested ones included (sizes the stream).
    n_stmts: usize,
    n_int_params: u16,
    /// Total int slots: parameters plus one per `for` statement.
    n_ints: usize,
    n_scalars: usize,
    comp_slot: u16,
}

impl SealPlan {
    /// Plan an IR body (lowered, or optimized by the pass pipeline): its
    /// configuration-independent layout and the resolution of every name
    /// it reads. The same walk lowers the body's expressions into the
    /// arena the pass pipeline starts from ([`Arena::from_body`]'s), which
    /// is returned with the plan.
    pub(crate) fn new<'p>(
        precision: Precision,
        params: &'p [Param],
        body: &'p [OStmt],
    ) -> Result<(Self, Arena<'p>), SealError> {
        let mut walk = PlanWalk::new(precision, params)?;
        let mut arena = Arena::new();
        walk.walk(body, &mut arena)?;
        Ok((walk.finish(), arena))
    }

    /// Flatten one optimized arena against this plan. The arena must be
    /// the one the plan was built with, or a pass-pipeline rewrite of it
    /// (one root per expression site of the body).
    pub(crate) fn flatten(
        &self,
        arena: &Arena<'_>,
        semantics: &Semantics,
    ) -> Result<SealedProgram, SealError> {
        Ok(self.assemble(self.flatten_instrs(arena)?, semantics))
    }

    /// The configuration-dependent half of [`SealPlan::flatten`]: emit the
    /// instruction stream. Split out so matrix sealing can memoize it per
    /// distinct pass pipeline (configurations sharing a pipeline share the
    /// identical arena, hence one stream).
    pub(crate) fn flatten_instrs(&self, arena: &Arena<'_>) -> Result<Stream, SealError> {
        debug_assert_eq!(arena.leaves as usize, self.leaves.len(), "arena of another body");
        let mut flattener = Flattener {
            plan: self,
            arena,
            next_op: 0,
            next_root: 0,
            next_int: self.n_int_params as usize,
            // One instruction per live node (the arena holds them all),
            // at most six per statement (a loop's) and the final `Halt`.
            instrs: Vec::with_capacity(arena.nodes.len() + 6 * self.n_stmts + 1),
            n_regs: 0,
            calls_math: false,
        };
        flattener.seal_block()?;
        flattener.instrs.push(Instr::Halt);
        if flattener.instrs.len() > u32::MAX as usize {
            return Err(SealError::TooComplex("instruction count"));
        }
        Ok(Stream {
            instrs: flattener.instrs,
            n_regs: flattener.n_regs,
            calls_math: flattener.calls_math,
        })
    }

    /// Pair a flattened instruction stream with one configuration's
    /// execution semantics.
    pub(crate) fn assemble(&self, stream: Stream, semantics: &Semantics) -> SealedProgram {
        SealedProgram {
            precision: self.precision,
            flush_to_zero: semantics.flush_to_zero,
            math: semantics.math_lib.shared(),
            math_lib: semantics.math_lib,
            fast: FastMathLib::new(),
            instrs: stream.instrs,
            calls_math: stream.calls_math,
            layout: Arc::clone(&self.layout),
            n_regs: stream.n_regs,
            n_scalars: self.n_scalars,
            n_ints: self.n_ints,
            comp_slot: self.comp_slot,
        }
    }
}

/// Mutable state of a plan's single statement walk (the plan itself is
/// immutable once built, with its layout behind an `Arc`). The walk visits
/// statements and leaves in the order every flatten does, with the scopes
/// a flatten would see at each one.
struct PlanWalk<'p> {
    precision: Precision,
    layout: SealLayout,
    /// `comp`, the fp parameters and every assignment target walked so
    /// far. Linear tables throughout: generated programs bind a handful of
    /// names, so vector scans beat hashing.
    scalar_slots: Vec<ScalarSlot<'p>>,
    int_params: Vec<(&'p str, u16)>,
    /// Loop variables currently in scope, innermost last.
    int_scope: Vec<(&'p str, u16)>,
    /// Arrays in scope, innermost last; parameters at the bottom.
    array_scope: Vec<(&'p str, u16)>,
    ops: Vec<Op>,
    leaves: Vec<Result<Leaf, SealError>>,
    /// Leaves read as an int, by index, with their names: `finish` refuses
    /// those the program also assigns as a scalar anywhere, earlier or
    /// later (the interpreter resolves such reads dynamically).
    int_reads: Vec<(usize, &'p str)>,
    n_int_params: u16,
    n_ints: usize,
    /// Number of assignments walked so far — the clock scalar visibility
    /// is measured against.
    assigns_done: u32,
    comp_slot: u16,
}

impl<'p> PlanWalk<'p> {
    /// A fresh walk, with `comp` and the parameters bound.
    fn new(precision: Precision, params: &'p [Param]) -> Result<Self, SealError> {
        let mut walk = PlanWalk {
            precision,
            layout: SealLayout {
                params: Vec::with_capacity(params.len()),
                arrays: Vec::new(),
                names: Vec::new(),
                init_pool: Vec::new(),
            },
            scalar_slots: Vec::with_capacity(8),
            int_params: Vec::new(),
            int_scope: Vec::new(),
            array_scope: Vec::new(),
            ops: Vec::with_capacity(16),
            leaves: Vec::with_capacity(32),
            int_reads: Vec::new(),
            n_int_params: 0,
            n_ints: 0,
            assigns_done: 0,
            comp_slot: 0,
        };
        // The accumulator owns scalar slot 0, mirroring its implicit
        // declaration in the interpreter.
        walk.comp_slot = walk.intern_scalar(llm4fp_fpir::COMP, 0)?;
        for p in params {
            let bind = match p.ty {
                ParamType::Int => {
                    let slot = checked_u16(walk.n_int_params as usize, "int slots")?;
                    walk.n_int_params += 1;
                    walk.int_params.push((p.name.as_str(), slot));
                    ParamBind::Int { slot }
                }
                ParamType::Fp => ParamBind::Fp { slot: walk.intern_scalar(&p.name, 0)? },
                ParamType::FpArray(len) => {
                    let slot = walk.new_array(&p.name, len)?;
                    walk.array_scope.push((p.name.as_str(), slot));
                    ParamBind::Array { slot }
                }
            };
            walk.layout.params.push(SealedParam { name: p.name.clone(), bind });
        }
        walk.n_ints = walk.n_int_params as usize;
        Ok(walk)
    }

    fn finish(mut self) -> SealPlan {
        // Every assignment target is interned now. A name read as an int is
        // never a visible scalar at the read, so it is interned only if
        // some assignment targets it.
        for &(leaf, name) in &self.int_reads {
            if self.scalar_slots.iter().any(|s| s.name == name) {
                self.leaves[leaf] = Err(SealError::AmbiguousName(name.to_string()));
            }
        }
        SealPlan {
            precision: self.precision,
            layout: Arc::new(self.layout),
            n_stmts: self.ops.iter().filter(|op| !matches!(op, Op::End)).count(),
            ops: self.ops,
            leaves: self.leaves,
            n_int_params: self.n_int_params,
            n_ints: self.n_ints,
            n_scalars: self.scalar_slots.len(),
            comp_slot: self.comp_slot,
        }
    }

    /// Walk an IR body once, interning assignment targets, loop int slots
    /// and array declarations, lowering each expression site into `arena`
    /// and resolving every read, in the exact order the flattener will
    /// encounter them under every configuration (the pass pipeline
    /// rewrites expressions only — statement structure is invariant).
    fn walk(&mut self, body: &'p [OStmt], arena: &mut Arena<'p>) -> Result<(), SealError> {
        let arrays_before = self.array_scope.len();
        for stmt in body {
            match stmt {
                OStmt::Assign { target, expr } => {
                    arena.push_site(expr, &mut |leaf| self.resolve_leaf(leaf));
                    self.assign(target)?;
                }
                OStmt::Store { array, index, expr } => {
                    arena.push_site(expr, &mut |leaf| self.resolve_leaf(leaf));
                    self.store(array, index);
                }
                OStmt::DeclArray { name, size, init } => self.decl_array(name, *size, init)?,
                OStmt::If { cond, then_block } => {
                    arena.push_site(&cond.lhs, &mut |leaf| self.resolve_leaf(leaf));
                    arena.push_site(&cond.rhs, &mut |leaf| self.resolve_leaf(leaf));
                    self.ops.push(Op::If(cond.op));
                    self.walk(then_block, arena)?;
                    self.ops.push(Op::End);
                }
                OStmt::For { var, bound, body } => {
                    self.enter_for(var, *bound)?;
                    self.walk(body, arena)?;
                    self.exit_for();
                }
            }
        }
        self.array_scope.truncate(arrays_before);
        Ok(())
    }

    /// Record an assignment to `target` whose expression site was just
    /// lowered. A target that is also an in-scope int refuses to seal.
    fn assign(&mut self, target: &'p str) -> Result<(), SealError> {
        let ambiguous = self.int_binding(target).is_some();
        // The target becomes visible to reads only *after* this assignment
        // (the expression is compiled first).
        self.assigns_done += 1;
        let slot = self.intern_scalar(target, self.assigns_done)?;
        self.ops.push(Op::Assign(if ambiguous {
            Err(SealError::AmbiguousName(target.to_string()))
        } else {
            Ok(Instr::StoreScalar { slot, src: 0 })
        }));
        Ok(())
    }

    /// Record a store to `array[index]` whose expression site was just
    /// lowered.
    fn store(&mut self, array: &str, index: &IndexExpr) {
        let store = self.resolve_array(array).map(|array| Instr::StoreElem {
            array,
            index: self.seal_index(index),
            src: 0,
        });
        self.ops.push(Op::Store(store));
    }

    fn decl_array(&mut self, name: &'p str, size: usize, init: &[f64]) -> Result<(), SealError> {
        let slot = self.new_array(name, size)?;
        let offset = self.layout.init_pool.len();
        if offset + size > u32::MAX as usize {
            return Err(SealError::TooComplex("initializer pool"));
        }
        let precision = self.precision;
        self.layout.init_pool.extend(init.iter().take(size).map(|&v| round_to(precision, v)));
        self.layout.init_pool.resize(offset + size, 0.0);
        self.array_scope.push((name, slot));
        self.ops.push(Op::DeclArray(Instr::DeclArray { array: slot, init: offset as u32 }));
        Ok(())
    }

    fn enter_for(&mut self, var: &'p str, bound: i64) -> Result<(), SealError> {
        let slot = checked_u16(self.n_ints, "int slots")?;
        self.n_ints += 1;
        self.int_scope.push((var, slot));
        self.ops.push(Op::For(bound));
        Ok(())
    }

    fn exit_for(&mut self) {
        self.int_scope.pop();
        self.ops.push(Op::End);
    }

    /// Resolve the next name leaf, in [`LeafId`] order.
    fn resolve_leaf(&mut self, leaf: Node<'p>) {
        let resolved = match leaf {
            Node::Var(name, _) => self.resolve_var(name),
            Node::Index(array, index, _) => self
                .resolve_array(array)
                .map(|array| Leaf::Elem { array, index: self.seal_index(index) }),
            other => unreachable!("{other:?} is not a name leaf"),
        };
        self.leaves.push(resolved);
    }

    fn scalar_binding(&self, name: &str) -> Option<u16> {
        self.scalar_slots
            .iter()
            .find(|s| s.name == name && s.visible_from <= self.assigns_done)
            .map(|s| s.slot)
    }

    fn int_binding(&self, name: &str) -> Option<u16> {
        self.int_scope
            .iter()
            .rev()
            .find(|(n, _)| *n == name)
            .or_else(|| self.int_params.iter().find(|(n, _)| *n == name))
            .map(|&(_, s)| s)
    }

    fn resolve_array(&self, name: &str) -> Result<u16, SealError> {
        self.array_scope
            .iter()
            .rev()
            .find(|(n, _)| *n == name)
            .map(|&(_, s)| s)
            .ok_or_else(|| SealError::UnresolvedArray(name.to_string()))
    }

    /// Resolve a scalar-expression variable read the way the interpreter
    /// would at runtime (scalars first, then ints), rejecting reads whose
    /// dynamic resolution cannot be proven static.
    fn resolve_var(&mut self, name: &'p str) -> Result<Leaf, SealError> {
        match (self.scalar_binding(name), self.int_binding(name)) {
            (Some(slot), None) => Ok(Leaf::Scalar(slot)),
            (None, Some(slot)) => {
                // An assignment elsewhere could have (or could later) put
                // this name into the interpreter's scalar map: `finish`
                // checks once every assignment is known.
                self.int_reads.push((self.leaves.len(), name));
                Ok(Leaf::Int(slot))
            }
            (Some(_), Some(_)) => Err(SealError::AmbiguousName(name.to_string())),
            (None, None) => Err(SealError::UnresolvedVariable(name.to_string())),
        }
    }

    fn seal_index(&self, index: &IndexExpr) -> SlotIndex {
        let slot = index.var().and_then(|v| self.int_binding(v));
        match (index, slot) {
            // No variable in scope: the interpreter substitutes 0.
            (_, None) => SlotIndex::Const(index.eval(0)),
            (IndexExpr::Const(k), _) => SlotIndex::Const(*k),
            (IndexExpr::Var(_), Some(slot)) => SlotIndex::Var(slot),
            (IndexExpr::Offset { offset, .. }, Some(slot)) => {
                SlotIndex::Offset { slot, offset: *offset }
            }
            (IndexExpr::Mod { modulus, .. }, Some(slot)) => {
                SlotIndex::Mod { slot, modulus: *modulus }
            }
        }
    }

    fn intern_scalar(&mut self, name: &'p str, visible_from: u32) -> Result<u16, SealError> {
        if let Some(s) = self.scalar_slots.iter().find(|s| s.name == name) {
            return Ok(s.slot);
        }
        let slot = checked_u16(self.scalar_slots.len(), "scalar slots")?;
        self.scalar_slots.push(ScalarSlot { name, slot, visible_from });
        Ok(slot)
    }

    fn new_array(&mut self, name: &str, len: usize) -> Result<u16, SealError> {
        let slot = checked_u16(self.layout.arrays.len(), "array slots")?;
        let name_idx = match self.layout.names.iter().position(|n| n == name) {
            Some(i) => i as u32,
            None => {
                self.layout.names.push(name.to_string());
                (self.layout.names.len() - 1) as u32
            }
        };
        self.layout.arrays.push(ArraySlot { len, name: name_idx });
        Ok(slot)
    }
}

/// Per-configuration instruction emission over a shared [`SealPlan`]:
/// walks the plan's statement skeleton and compiles each expression site
/// from the next root of the arena. Every name was resolved by the plan,
/// so emission looks leaves up by id and takes store targets from the
/// ops.
struct Flattener<'a> {
    plan: &'a SealPlan,
    arena: &'a Arena<'a>,
    /// The plan's next op.
    next_op: usize,
    /// The arena root of the next expression site.
    next_root: usize,
    /// Next loop int slot in walk order (usize so a program with exactly
    /// `u16::MAX + 1` slots — which the plan's per-slot `checked_u16`
    /// accepts — doesn't overflow on the final increment; each assigned
    /// slot itself is plan-validated to fit `u16`).
    next_int: usize,
    instrs: Vec<Instr>,
    n_regs: usize,
    calls_math: bool,
}

impl<'a> Flattener<'a> {
    /// The root of the next expression site, in walk order.
    fn next_root(&mut self) -> NodeId {
        self.next_root += 1;
        self.arena.roots[self.next_root - 1]
    }

    /// Emit the plan's ops from the next one up to the `End` that closes
    /// the current block (or the end of the plan). Each statement burns
    /// once; an `If` or `For` emits its block by recursion, then patches
    /// its jump to the block's end.
    fn seal_block(&mut self) -> Result<(), SealError> {
        let plan = self.plan;
        while let Some(op) = plan.ops.get(self.next_op) {
            self.next_op += 1;
            if let Op::End = op {
                return Ok(());
            }
            self.instrs.push(Instr::Burn);
            match op {
                Op::Assign(store) => {
                    // A target that is also an in-scope int refuses before
                    // its expression compiles.
                    let store = store.clone()?;
                    let root = self.next_root();
                    self.compile_expr(root, 0)?;
                    self.instrs.push(store);
                }
                Op::Store(store) => {
                    // Interpreter order: expression first, then index
                    // resolution and the bounds check.
                    let root = self.next_root();
                    self.compile_expr(root, 0)?;
                    self.instrs.push(store.clone()?);
                }
                Op::DeclArray(decl) => self.instrs.push(*decl),
                &Op::If(cmp) => {
                    let lhs = self.next_root();
                    self.compile_expr(lhs, 0)?;
                    let rhs = self.next_root();
                    self.compile_expr(rhs, 1)?;
                    let branch = self.instrs.len();
                    self.instrs.push(Instr::JumpCmpFalse {
                        op: cmp,
                        lhs: 0,
                        rhs: 1,
                        target: u32::MAX,
                    });
                    self.seal_block()?;
                    let end = self.instrs.len() as u32;
                    if let Instr::JumpCmpFalse { target, .. } = &mut self.instrs[branch] {
                        *target = end;
                    }
                }
                &Op::For(bound) => {
                    let slot = self.next_int as u16;
                    self.next_int += 1;
                    self.instrs.push(Instr::SetInt { slot, value: 0 });
                    let head = self.instrs.len();
                    self.instrs.push(Instr::JumpIfIntGe { slot, bound, target: u32::MAX });
                    // Per-iteration burn, exactly where the interpreter
                    // burns (before the loop variable is visible to the
                    // body).
                    self.instrs.push(Instr::Burn);
                    self.seal_block()?;
                    self.instrs.push(Instr::IncInt { slot });
                    self.instrs.push(Instr::Jump { target: head as u32 });
                    let end = self.instrs.len() as u32;
                    if let Instr::JumpIfIntGe { target, .. } = &mut self.instrs[head] {
                        *target = end;
                    }
                }
                Op::End => unreachable!("handled above"),
            }
        }
        Ok(())
    }

    /// Compile the arena subtree at `id` so its value lands in register
    /// `dst`; children use registers `dst`, `dst + 1`, ... (left-to-right
    /// evaluation, matching the interpreter's recursion order).
    fn compile_expr(&mut self, id: NodeId, dst: Reg) -> Result<(), SealError> {
        self.n_regs = self.n_regs.max(dst as usize + 1);
        match self.arena.node(id) {
            Node::Const(v) => {
                let value = round_to(self.plan.precision, v);
                self.instrs.push(Instr::Const { dst, value });
            }
            Node::Var(_, leaf) | Node::Index(_, _, leaf) => {
                let instr = match self.leaf(leaf)? {
                    Leaf::Scalar(slot) => Instr::LoadScalar { dst, slot },
                    Leaf::Int(slot) => Instr::LoadInt { dst, slot },
                    Leaf::Elem { array, index } => Instr::LoadElem { dst, array, index },
                };
                self.instrs.push(instr);
            }
            Node::Neg(inner) => {
                self.compile_expr(inner, dst)?;
                self.instrs.push(Instr::Neg { dst, src: dst });
            }
            Node::Bin(op, lhs, rhs) => {
                let rhs_reg = checked_reg(dst, 1)?;
                self.compile_expr(lhs, dst)?;
                self.compile_expr(rhs, rhs_reg)?;
                self.instrs.push(Instr::Bin { op, dst, lhs: dst, rhs: rhs_reg });
            }
            Node::Fma(a, b, c) => {
                let rb = checked_reg(dst, 1)?;
                let rc = checked_reg(dst, 2)?;
                self.compile_expr(a, dst)?;
                self.compile_expr(b, rb)?;
                self.compile_expr(c, rc)?;
                self.instrs.push(Instr::Fma { dst, a: dst, b: rb, c: rc });
            }
            Node::Recip(value, approx) => {
                self.compile_expr(value, dst)?;
                self.instrs.push(Instr::Recip { dst, src: dst, approx });
            }
            Node::Call(func, start, len) => {
                if len > 3 {
                    return Err(SealError::TooComplex("call arity"));
                }
                for k in 0..len {
                    let reg = checked_reg(dst, k as u16)?;
                    self.compile_expr(self.arena.arg(start, k), reg)?;
                }
                self.instrs.push(Instr::Call { func, dst, base: dst, arity: len as u8 });
                self.calls_math = true;
            }
        }
        Ok(())
    }

    /// The plan's resolution of one leaf.
    fn leaf(&self, id: LeafId) -> Result<Leaf, SealError> {
        self.plan.leaves[id as usize].clone()
    }
}

fn checked_u16(value: usize, what: &'static str) -> Result<u16, SealError> {
    u16::try_from(value).map_err(|_| SealError::TooComplex(what))
}

fn checked_reg(base: Reg, offset: u16) -> Result<Reg, SealError> {
    base.checked_add(offset).ok_or(SealError::TooComplex("register file"))
}
