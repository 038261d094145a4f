//! # llm4fp-difftest
//!
//! Differential testing of floating-point programs across compiler
//! configurations (Section 2.4 of the paper).
//!
//! For one (program, input set) pair the [`DiffTester`] compiles the program
//! under every configuration of the evaluation matrix (3 compilers × 6
//! optimization levels by default), executes all artifacts on the same
//! inputs, and compares the printed hexadecimal results of every compiler
//! pair at every level. A *floating-point inconsistency* is recorded
//! whenever two outputs differ in their bitwise representation.
//!
//! The [`aggregate`] module accumulates the statistics the paper reports:
//! inconsistency rates per compiler pair and level with digit-difference
//! statistics (Table 4), inconsistency-kind counts (Figure 3 and Table 3),
//! and per-compiler rates of each level against `O0_nofma` (Table 5).

#![deny(unsafe_code)]

pub mod aggregate;
pub mod backend;
pub mod cache;
pub mod compare;
pub mod matrix;

pub use aggregate::{Aggregates, KindByLevel, PairLevelStats, VsBaselineStats};
pub use backend::ExecBackend;
pub use cache::{CacheStats, CachedDiff, ResultCache};
pub use compare::{classify, digit_difference, DiffRecord, InconsistencyKind, ValueClass};
pub use matrix::{
    record_outcome_metrics, ConfigOutcome, DiffTester, ExecEngine, MatrixScratch, Outcome,
    ProgramDiffResult,
};
