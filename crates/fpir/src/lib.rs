//! # llm4fp-fpir
//!
//! Floating-point program intermediate representation for the LLM4FP
//! reproduction.
//!
//! The crate models the program family described in Section 2.2 of the paper
//! (the grammar first introduced by Varity): a `compute` function that takes
//! scalar / array floating-point arguments and integer arguments, performs a
//! sequence of arithmetic statements (assignments, bounded `for` loops,
//! conditionals, calls into the C math library) on an accumulator variable
//! `comp`, and prints the final value of `comp` to standard output.
//!
//! Provided here:
//!
//! * [`ast`] — the abstract syntax tree ([`Program`], [`Stmt`], [`Expr`], ...)
//! * [`mathfn`] — the supported C math-library functions ([`MathFunc`])
//! * [`printer`] — pretty printers to C and CUDA source
//! * [`parser`] — a recursive-descent parser for the same C subset
//! * [`tokens`] — a C-like tokenizer used by the diversity metrics
//! * [`validate()`] — static validation (initialization, bounds, loop limits)
//! * [`inputs`] — input sets binding concrete values to `compute` parameters
//! * [`hash`] — structural program hashing
//!
//! The IR is deliberately small: it is the *contract* between the program
//! generators (crate `llm4fp-generator`), the virtual compiler
//! (`llm4fp-compiler`), the external compiler harness (`llm4fp-extcc`) and
//! the diversity metrics (`llm4fp-metrics`).

pub mod ast;
pub mod hash;
pub mod inputs;
pub mod mathfn;
pub mod parser;
pub mod printer;
pub mod tokens;
pub mod validate;

pub use ast::{
    AssignOp, BinOp, Block, BoolExpr, CmpOp, Expr, IndexExpr, Param, ParamType, Precision, Program,
    Stmt,
};
pub use hash::{hash_id, program_hash, program_id, source_hash};
pub use inputs::{InputSet, InputValue};
pub use mathfn::MathFunc;
pub use parser::{parse_compute, ParseError};
pub use printer::{to_c_source, to_c_source_argv, to_compute_source, to_cuda_source};
pub use tokens::{tokenize, Token, TokenKind};
pub use validate::{validate, ValidationError};

/// Name of the accumulator variable holding the program result.
pub const COMP: &str = "comp";

/// Maximum loop trip count accepted by [`validate()`] (and therefore by the
/// virtual compiler's interpreter). Mirrors the small bounded loops produced
/// by the Varity grammar.
pub const MAX_LOOP_BOUND: i64 = 256;

/// Maximum declared array length accepted by [`validate()`].
pub const MAX_ARRAY_LEN: usize = 256;
