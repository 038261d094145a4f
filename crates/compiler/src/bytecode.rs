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
//! that is *configuration-independent* — the assigned-name census, the
//! scalar/int/array slot layout, the parameter binding plan, the name
//! pool and the pre-rounded initializer pool — once per program. (The
//! optimization pass pipeline rewrites expressions only; statement
//! structure, assignment targets, loop variables and array declarations
//! are identical under every configuration, so one layout serves the
//! whole 18-configuration matrix.) A `Flattener` then emits the `Instr`
//! stream for one configuration's optimized expressions — an expression
//! arena (`crate::arena`) laid over the plan's statement skeleton — which
//! *is* configuration-dependent.
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

use crate::arena::{Arena, Node, NodeId};
use crate::config::Semantics;
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
    pub(crate) fast: FastMathLib,
    pub(crate) instrs: Vec<Instr>,
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
}

/// A scalar slot plus the point in the statement walk at which its
/// defining assignment interned it. Reads resolve against the table *as
/// it stood* at the reading statement (replicating the interpreter's
/// dynamic map, which only contains already-executed assignments — for
/// validated programs every read lexically follows its definition, so the
/// distinction is invisible, but the flattener keeps the exact refusal
/// behaviour for anything else).
#[derive(Debug, Clone, Copy)]
struct ScalarSlot<'p> {
    name: &'p str,
    slot: u16,
    /// Visible to reads once this many `Assign` statements have been
    /// flattened (0 = parameters and `comp`, visible from the start).
    visible_from: u32,
}

/// The per-program half of sealing: everything the optimization pipeline
/// cannot change. Built once, then flattened against each configuration's
/// optimized expression arena.
pub(crate) struct SealPlan<'p> {
    precision: Precision,
    layout: Arc<SealLayout>,
    /// The statement skeleton every flattened arena is laid over.
    body: &'p [OStmt],
    /// Every scalar assignment target anywhere in the program (used to
    /// detect dynamically ambiguous int/scalar names). Linear tables
    /// throughout: generated programs bind a handful of names, so vector
    /// scans beat hashing and keep sealing allocation-light — sealing sits
    /// on the campaign hot path (once per program × configuration).
    assigned_anywhere: Vec<&'p str>,
    scalar_slots: Vec<ScalarSlot<'p>>,
    int_params: Vec<(&'p str, u16)>,
    /// Array parameters, in declaration order (the base of the flattener's
    /// array scope).
    param_arrays: Vec<(&'p str, u16)>,
    /// `(array slot, init-pool offset)` of the k-th `DeclArray` statement
    /// in walk order.
    decl_arrays: Vec<(u16, u32)>,
    n_int_params: u16,
    /// Total int slots: parameters plus one per `for` statement.
    n_ints: usize,
    comp_slot: u16,
}

impl<'p> SealPlan<'p> {
    /// Compute the configuration-independent layout of one program.
    pub(crate) fn new(
        precision: Precision,
        params: &'p [Param],
        body: &'p [OStmt],
    ) -> Result<Self, SealError> {
        let mut assigned_anywhere = Vec::new();
        collect_assigned(body, &mut assigned_anywhere);

        let mut builder = PlanBuilder {
            precision,
            layout: SealLayout {
                params: Vec::with_capacity(params.len()),
                arrays: Vec::new(),
                names: Vec::new(),
                init_pool: Vec::new(),
            },
            scalar_slots: Vec::with_capacity(8),
            int_params: Vec::new(),
            param_arrays: Vec::new(),
            decl_arrays: Vec::new(),
            n_int_params: 0,
            n_ints: 0,
        };

        // The accumulator owns scalar slot 0, mirroring its implicit
        // declaration in the interpreter.
        let comp_slot = builder.intern_scalar(llm4fp_fpir::COMP, 0)?;

        for p in params {
            let bind = match p.ty {
                ParamType::Int => {
                    let slot = checked_u16(builder.n_int_params as usize, "int slots")?;
                    builder.n_int_params += 1;
                    builder.int_params.push((p.name.as_str(), slot));
                    ParamBind::Int { slot }
                }
                ParamType::Fp => ParamBind::Fp { slot: builder.intern_scalar(&p.name, 0)? },
                ParamType::FpArray(len) => {
                    let slot = builder.new_array(&p.name, len)?;
                    builder.param_arrays.push((p.name.as_str(), slot));
                    ParamBind::Array { slot }
                }
            };
            builder.layout.params.push(SealedParam { name: p.name.clone(), bind });
        }

        builder.n_ints = builder.n_int_params as usize;
        let mut assign_seq = 0u32;
        builder.walk(body, &mut assign_seq)?;
        Ok(SealPlan {
            precision,
            layout: Arc::new(builder.layout),
            body,
            assigned_anywhere,
            scalar_slots: builder.scalar_slots,
            int_params: builder.int_params,
            param_arrays: builder.param_arrays,
            decl_arrays: builder.decl_arrays,
            n_int_params: builder.n_int_params,
            n_ints: builder.n_ints,
            comp_slot,
        })
    }

    /// Flatten one optimized arena against this plan. The arena must be
    /// the plan's body lowered by [`Arena::from_body`], or a pass-pipeline
    /// rewrite of it (one root per expression site of the body).
    pub(crate) fn flatten(
        &self,
        arena: &Arena<'_>,
        semantics: &Semantics,
    ) -> Result<SealedProgram, SealError> {
        let (instrs, n_regs) = self.flatten_instrs(arena)?;
        Ok(self.assemble(instrs, n_regs, semantics))
    }

    /// The configuration-dependent half of [`SealPlan::flatten`]: emit the
    /// instruction stream. Split out so matrix sealing can memoize it per
    /// distinct pass pipeline (configurations sharing a pipeline share the
    /// identical arena, hence the identical raw stream).
    pub(crate) fn flatten_instrs(
        &self,
        arena: &Arena<'_>,
    ) -> Result<(Vec<Instr>, usize), SealError> {
        let mut flattener = Flattener {
            plan: self,
            arena,
            next_root: 0,
            int_scope: Vec::new(),
            array_scope: self.param_arrays.clone(),
            next_int: self.n_int_params as usize,
            next_decl: 0,
            assigns_done: 0,
            instrs: Vec::with_capacity(64),
            n_regs: 0,
        };
        flattener.seal_block(self.body)?;
        flattener.instrs.push(Instr::Halt);
        if flattener.instrs.len() > u32::MAX as usize {
            return Err(SealError::TooComplex("instruction count"));
        }
        Ok((flattener.instrs, flattener.n_regs))
    }

    /// Pair a flattened instruction stream with one configuration's
    /// execution semantics.
    pub(crate) fn assemble(
        &self,
        instrs: Vec<Instr>,
        n_regs: usize,
        semantics: &Semantics,
    ) -> SealedProgram {
        SealedProgram {
            precision: self.precision,
            flush_to_zero: semantics.flush_to_zero,
            math: semantics.math_lib.shared(),
            fast: FastMathLib::new(),
            instrs,
            layout: Arc::clone(&self.layout),
            n_regs,
            n_scalars: self.scalar_slots.len(),
            n_ints: self.n_ints,
            comp_slot: self.comp_slot,
        }
    }
}

/// Mutable state of [`SealPlan::new`]'s single statement walk (the plan
/// itself is immutable once built, with its layout behind an `Arc`).
struct PlanBuilder<'p> {
    precision: Precision,
    layout: SealLayout,
    scalar_slots: Vec<ScalarSlot<'p>>,
    int_params: Vec<(&'p str, u16)>,
    param_arrays: Vec<(&'p str, u16)>,
    decl_arrays: Vec<(u16, u32)>,
    n_int_params: u16,
    n_ints: usize,
}

impl<'p> PlanBuilder<'p> {
    /// Walk the statement tree once, interning assignment targets, loop
    /// int slots and array declarations in the exact order the flattener
    /// will encounter them under every configuration (the pass pipeline
    /// rewrites expressions only — statement structure is invariant).
    fn walk(&mut self, body: &'p [OStmt], assign_seq: &mut u32) -> Result<(), SealError> {
        for stmt in body {
            match stmt {
                OStmt::Assign { target, .. } => {
                    // The target becomes visible to reads only *after*
                    // this assignment (the expression is compiled first).
                    *assign_seq += 1;
                    self.intern_scalar(target, *assign_seq)?;
                }
                OStmt::Store { .. } => {}
                OStmt::DeclArray { name, size, init } => {
                    let slot = self.new_array(name, *size)?;
                    let offset = self.layout.init_pool.len();
                    if offset + *size > u32::MAX as usize {
                        return Err(SealError::TooComplex("initializer pool"));
                    }
                    let precision = self.precision;
                    self.layout
                        .init_pool
                        .extend(init.iter().take(*size).map(|&v| round_to(precision, v)));
                    self.layout.init_pool.resize(offset + *size, 0.0);
                    self.decl_arrays.push((slot, offset as u32));
                }
                OStmt::If { then_block, .. } => self.walk(then_block, assign_seq)?,
                OStmt::For { body, .. } => {
                    checked_u16(self.n_ints, "int slots")?;
                    self.n_ints += 1;
                    self.walk(body, assign_seq)?;
                }
            }
        }
        Ok(())
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
/// from the next root of the arena.
///
/// `'a` is the borrow of the plan and of the arena (scope entries for
/// declared arrays borrow their names from the plan's layout pool).
struct Flattener<'a> {
    plan: &'a SealPlan<'a>,
    arena: &'a Arena<'a>,
    /// The arena root of the next expression site.
    next_root: usize,
    /// Loop variables currently in scope, innermost last.
    int_scope: Vec<(&'a str, u16)>,
    /// Arrays in scope, innermost last; parameters at the bottom. Slot
    /// numbers come from the plan (declarations are numbered in walk
    /// order, which the flattener replays).
    array_scope: Vec<(&'a str, u16)>,
    /// Next loop int slot in walk order (usize so a program with exactly
    /// `u16::MAX + 1` slots — which the plan's per-slot `checked_u16`
    /// accepts — doesn't overflow on the final increment; each assigned
    /// slot itself is plan-validated to fit `u16`).
    next_int: usize,
    next_decl: usize,
    /// Number of `Assign` statements flattened so far — the clock scalar
    /// visibility is measured against.
    assigns_done: u32,
    instrs: Vec<Instr>,
    n_regs: usize,
}

impl<'a> Flattener<'a> {
    fn scalar_binding(&self, name: &str) -> Option<u16> {
        self.plan
            .scalar_slots
            .iter()
            .find(|s| s.name == name && s.visible_from <= self.assigns_done)
            .map(|s| s.slot)
    }

    fn int_binding(&self, name: &str) -> Option<u16> {
        self.int_scope
            .iter()
            .rev()
            .find(|(n, _)| *n == name)
            .or_else(|| self.plan.int_params.iter().find(|(n, _)| *n == name))
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
    fn resolve_var(&self, name: &str) -> Result<Instr, SealError> {
        let scalar = self.scalar_binding(name);
        let int = self.int_binding(name);
        match (scalar, int) {
            (Some(slot), None) => Ok(Instr::LoadScalar { dst: 0, slot }),
            (None, Some(slot)) => {
                if self.plan.assigned_anywhere.contains(&name) {
                    // An assignment elsewhere could have (or could later)
                    // put this name into the interpreter's scalar map.
                    Err(SealError::AmbiguousName(name.to_string()))
                } else {
                    Ok(Instr::LoadInt { dst: 0, slot })
                }
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

    /// The root of the next expression site, in walk order.
    fn next_root(&mut self) -> NodeId {
        self.next_root += 1;
        self.arena.roots[self.next_root - 1]
    }

    fn seal_block(&mut self, body: &'a [OStmt]) -> Result<(), SealError> {
        // Arrays are block-scoped (matching the validator); scalars are a
        // flat namespace (safe because every read lexically follows its
        // defining assignment in validated programs).
        let arrays_before = self.array_scope.len();
        for stmt in body {
            self.seal_stmt(stmt)?;
        }
        self.array_scope.truncate(arrays_before);
        Ok(())
    }

    fn seal_stmt(&mut self, stmt: &'a OStmt) -> Result<(), SealError> {
        self.instrs.push(Instr::Burn);
        match stmt {
            OStmt::Assign { target, .. } => {
                if self.int_binding(target).is_some() {
                    return Err(SealError::AmbiguousName(target.clone()));
                }
                let root = self.next_root();
                self.compile_expr(root, 0)?;
                self.assigns_done += 1;
                let slot = self
                    .plan
                    .scalar_slots
                    .iter()
                    .find(|s| s.name == target)
                    .map(|s| s.slot)
                    .ok_or_else(|| SealError::UnresolvedVariable(target.clone()))?;
                self.instrs.push(Instr::StoreScalar { slot, src: 0 });
            }
            OStmt::Store { array, index, .. } => {
                // Interpreter order: expression first, then index
                // resolution and the bounds check.
                let root = self.next_root();
                self.compile_expr(root, 0)?;
                let slot = self.resolve_array(array)?;
                let index = self.seal_index(index);
                self.instrs.push(Instr::StoreElem { array: slot, index, src: 0 });
            }
            OStmt::DeclArray { name, .. } => {
                let (slot, init) = self.plan.decl_arrays[self.next_decl];
                self.next_decl += 1;
                self.array_scope.push((name.as_str(), slot));
                self.instrs.push(Instr::DeclArray { array: slot, init });
            }
            OStmt::If { cond, then_block } => {
                let lhs = self.next_root();
                self.compile_expr(lhs, 0)?;
                let rhs = self.next_root();
                self.compile_expr(rhs, 1)?;
                let branch = self.instrs.len();
                self.instrs.push(Instr::JumpCmpFalse {
                    op: cond.op,
                    lhs: 0,
                    rhs: 1,
                    target: u32::MAX,
                });
                self.seal_block(then_block)?;
                let end = self.instrs.len() as u32;
                if let Instr::JumpCmpFalse { target, .. } = &mut self.instrs[branch] {
                    *target = end;
                }
            }
            OStmt::For { var, bound, body } => {
                let slot = self.next_int as u16;
                self.next_int += 1;
                self.instrs.push(Instr::SetInt { slot, value: 0 });
                let head = self.instrs.len();
                self.instrs.push(Instr::JumpIfIntGe { slot, bound: *bound, target: u32::MAX });
                // Per-iteration burn, exactly where the interpreter burns
                // (before the loop variable is visible to the body).
                self.instrs.push(Instr::Burn);
                self.int_scope.push((var.as_str(), slot));
                self.seal_block(body)?;
                self.int_scope.pop();
                self.instrs.push(Instr::IncInt { slot });
                self.instrs.push(Instr::Jump { target: head as u32 });
                let end = self.instrs.len() as u32;
                if let Instr::JumpIfIntGe { target, .. } = &mut self.instrs[head] {
                    *target = end;
                }
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
            Node::Var(name) => {
                let instr = match self.resolve_var(name)? {
                    Instr::LoadScalar { slot, .. } => Instr::LoadScalar { dst, slot },
                    Instr::LoadInt { slot, .. } => Instr::LoadInt { dst, slot },
                    other => other,
                };
                self.instrs.push(instr);
            }
            Node::Index(array, index) => {
                let slot = self.resolve_array(array)?;
                let index = self.seal_index(index);
                self.instrs.push(Instr::LoadElem { dst, array: slot, index });
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
            }
        }
        Ok(())
    }
}

fn collect_assigned<'a>(body: &'a [OStmt], out: &mut Vec<&'a str>) {
    for stmt in body {
        match stmt {
            OStmt::Assign { target, .. } => {
                if !out.contains(&target.as_str()) {
                    out.push(target.as_str());
                }
            }
            OStmt::If { then_block, .. } => collect_assigned(then_block, out),
            OStmt::For { body, .. } => collect_assigned(body, out),
            OStmt::Store { .. } | OStmt::DeclArray { .. } => {}
        }
    }
}

fn checked_u16(value: usize, what: &'static str) -> Result<u16, SealError> {
    u16::try_from(value).map_err(|_| SealError::TooComplex(what))
}

fn checked_reg(base: Reg, offset: u16) -> Result<Reg, SealError> {
    base.checked_add(offset).ok_or(SealError::TooComplex("register file"))
}
