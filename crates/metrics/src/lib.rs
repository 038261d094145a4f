//! # llm4fp-metrics
//!
//! Program-diversity metrics used in the paper's evaluation (Section 3.2.2):
//!
//! * [`codebleu()`] — the CodeBLEU similarity score (n-gram BLEU, weighted
//!   n-gram match, AST subtree match and data-flow match), computed pairwise
//!   over a corpus of generated programs. Lower average pairwise CodeBLEU
//!   means a more diverse corpus (Table 2's last column).
//! * [`clones`] — NiCad-style detection of Type-1, Type-2 and Type-2c code
//!   clones over the corpus (the paper reports that no clones of these types
//!   are found for any approach).
//! * [`corpus`] — corpus-level helpers: pairwise averaging, and the
//!   combined [`corpus::DiversityReport`].
//!
//! A corpus average profiles each program once, interning its n-grams,
//! AST shapes and def-use edges into one id space the corpus shares; the
//! programs are profiled on every core, each lane with a vocabulary of its
//! own that is then merged into the first lane's. Each pair is then
//! scored by table lookup: the candidate's feature counts are scattered
//! into a dense table indexed by id, and every reference is matched
//! against it in one pass over its own features. Those matched counts are
//! integers, so every score has the same bits whatever ids the features
//! got and however the programs and pairs are split across cores.

#![deny(unsafe_code)]

pub mod clones;
pub mod codebleu;
pub mod corpus;

pub use clones::{detect_clones, CloneReport, CloneType};
pub use codebleu::{codebleu, CodeBleuBreakdown, CodeBleuWeights};
pub use corpus::{average_pairwise_codebleu, sampled_pairs, DiversityReport};
