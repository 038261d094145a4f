//! # llm4fp-compiler
//!
//! The virtual floating-point compiler: the substrate that stands in for the
//! gcc / clang / nvcc toolchains of the paper's testbed.
//!
//! A [`CompilerConfig`] — a compiler *personality* ([`CompilerId`]) plus an
//! optimization level ([`OptLevel`], Table 1 of the paper) — determines a set
//! of floating-point [`Semantics`]: whether FMA contraction is performed and
//! with which pattern coverage, whether fast-math value-unsafe rewrites
//! (reassociation, reciprocal division, algebraic simplification) are
//! applied, which math library calls are lowered to, and whether subnormal
//! results are flushed to zero. Compiling a program runs a front end
//! ([`lower`]), a pass pipeline ([`passes`]) parameterized by those
//! semantics, and produces a [`CompiledProgram`] that the bit-exact
//! interpreter ([`interp`]) executes to obtain the program's printed result.
//!
//! The design goal is not to model any particular compiler version exactly,
//! but to reproduce the *mechanics* by which real compilers make the same
//! source program produce different bits: different FMA contraction
//! defaults, different math libraries on host vs device, and value-unsafe
//! fast-math transformations (see DESIGN.md for the mapping).
//!
//! ```
//! use llm4fp_fpir::{parse_compute, InputSet, InputValue};
//! use llm4fp_compiler::{compile, CompilerConfig, CompilerId, OptLevel};
//!
//! let program = parse_compute(
//!     "void compute(double x) { double comp = 0.0; comp = sin(x) * x + x; }",
//! ).unwrap();
//! let inputs = InputSet::new().with("x", InputValue::Fp(0.7));
//!
//! let host = compile(&program, CompilerConfig::new(CompilerId::Gcc, OptLevel::O0Nofma)).unwrap();
//! let device = compile(&program, CompilerConfig::new(CompilerId::Nvcc, OptLevel::O3)).unwrap();
//! let a = host.execute(&inputs).unwrap();
//! let b = device.execute(&inputs).unwrap();
//! // The two configurations may legitimately produce different bit patterns.
//! println!("{:016x} vs {:016x}", a.bits(), b.bits());
//! ```

#![deny(unsafe_code)]

mod arena;
pub mod bytecode;
pub mod compile;
pub mod config;
pub mod interp;
pub mod ir;
pub mod lower;
pub mod passes;
pub mod vm;

pub use bytecode::{SealError, SealedProgram};
pub use compile::{compile, CompileError, CompiledProgram, Frontend, SealMode, SealScratch};
pub use config::{CompilerConfig, CompilerId, ContractionStyle, OptLevel, ReassocStyle, Semantics};
pub use interp::{ExecError, ExecResult};
pub use ir::{OExpr, OStmt};
pub use vm::ExecScratch;
