//! CodeBLEU (Ren et al., 2020), reimplemented over the LLM4FP token stream
//! and AST.
//!
//! CodeBLEU is a weighted combination of four components:
//!
//! 1. **BLEU** — standard n-gram precision (n = 1..4) with brevity penalty;
//! 2. **weighted n-gram match** — the same computation with n-grams that
//!    contain language keywords given a higher weight;
//! 3. **syntactic AST match** — the fraction of the candidate's AST subtrees
//!    that also occur in the reference's AST (identifiers and literal values
//!    abstracted away);
//! 4. **semantic data-flow match** — the fraction of the candidate's
//!    def-use pairs (with variables normalized by first-occurrence order)
//!    that also occur in the reference.
//!
//! A *lower* pairwise score over a program corpus indicates more diverse
//! programs, which is how the paper uses the metric.
//!
//! A corpus average scores each program against up to 2(N−1) others, so
//! the work is split in two: `Vocabulary::profile` tokenizes and parses a
//! program once into a profile of sorted id runs, and `score` rates a pair
//! of profiles with one merge walk per component.

use std::cmp::Ordering;
use std::collections::HashMap;

use serde::{Deserialize, Serialize};

use llm4fp_fpir::tokens::scan_tokens;
use llm4fp_fpir::{parse_compute, Block, Expr, Program, Stmt, TokenKind};

/// Component weights; the reference implementation defaults to 0.25 each.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CodeBleuWeights {
    pub ngram: f64,
    pub weighted_ngram: f64,
    pub syntax: f64,
    pub dataflow: f64,
}

impl Default for CodeBleuWeights {
    fn default() -> Self {
        CodeBleuWeights { ngram: 0.25, weighted_ngram: 0.25, syntax: 0.25, dataflow: 0.25 }
    }
}

/// The four component scores plus the combined value.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CodeBleuBreakdown {
    pub bleu: f64,
    pub weighted_bleu: f64,
    pub syntax_match: f64,
    pub dataflow_match: f64,
    pub combined: f64,
}

/// Compute CodeBLEU of `candidate` against `reference` (both C source of a
/// `compute` function). Falls back gracefully when a program cannot be
/// parsed: the AST and data-flow components are then 0.
pub fn codebleu(candidate: &str, reference: &str, weights: CodeBleuWeights) -> CodeBleuBreakdown {
    let mut vocabulary = Vocabulary::default();
    let candidate = vocabulary.profile(candidate);
    let reference = vocabulary.profile(reference);
    score(&candidate, &reference, weights)
}

/// Convenience: CodeBLEU with the default 0.25/0.25/0.25/0.25 weights.
pub fn codebleu_default(candidate: &str, reference: &str) -> CodeBleuBreakdown {
    codebleu(candidate, reference, CodeBleuWeights::default())
}

/// CodeBLEU of one profiled program against another. Both profiles must
/// come from the same [`Vocabulary`].
pub(crate) fn score(
    candidate: &CodeBleuProfile,
    reference: &CodeBleuProfile,
    weights: CodeBleuWeights,
) -> CodeBleuBreakdown {
    let (bleu, weighted_bleu) = bleu_scores(candidate, reference);
    let (syntax_match, dataflow_match) = match (&candidate.structure, &reference.structure) {
        (Some(c), Some(r)) => (
            clipped_ratio(&c.shapes, &r.shapes).unwrap_or(0.0),
            // No data flow at all: treat as fully matched only if the
            // reference also has none (both are trivial programs).
            clipped_ratio(&c.edges, &r.edges).unwrap_or(if r.edges.is_empty() { 1.0 } else { 0.0 }),
        ),
        _ => (0.0, 0.0),
    };
    let combined = weights.ngram * bleu
        + weights.weighted_ngram * weighted_bleu
        + weights.syntax * syntax_match
        + weights.dataflow * dataflow_match;
    CodeBleuBreakdown { bleu, weighted_bleu, syntax_match, dataflow_match, combined }
}

// ---------------------------------------------------------------------------
// Profiles
// ---------------------------------------------------------------------------

/// Highest n-gram order of the two BLEU components.
const MAX_N: usize = 4;

/// Weight of a keyword token in the weighted n-gram match (others weigh 1).
const KEYWORD_WEIGHT: u32 = 4;

/// Interns token texts and AST shapes to dense ids, so that profiles built
/// from one vocabulary compare by id instead of by string.
#[derive(Debug, Default)]
pub(crate) struct Vocabulary {
    ids: HashMap<String, u32>,
}

/// Everything CodeBLEU needs to know about one program, in sorted runs
/// that score a pair with one merge walk each.
#[derive(Debug)]
pub(crate) struct CodeBleuProfile {
    tokens: usize,
    /// `ngrams[n - 1]`: the distinct n-grams, sorted by key.
    ngrams: [Vec<Gram>; MAX_N],
    /// `None` when the source does not parse.
    structure: Option<Structure>,
}

/// One distinct n-gram: token ids (zero-padded past `n`), its number of
/// occurrences and the sum over them of its token weights.
///
/// The reference implementation weighs each occurrence by the *mean* token
/// weight, `sum / n`. With weights 1 and 4 that mean is a multiple of ¼
/// for every n ≤ 4 (for n = 3 because 4 ≡ 1 mod 3), so every total it
/// feeds is exact and dividing both sides of a precision by `n` cannot
/// change its value: the integer sums give the same bits.
#[derive(Debug)]
struct Gram {
    key: [u32; MAX_N],
    count: u32,
    weight: u32,
}

/// Sorted `(id, count)` multisets of a parsed program's abstracted AST
/// shapes and normalized def-use edges.
#[derive(Debug)]
struct Structure {
    shapes: Vec<(u32, u32)>,
    edges: Vec<(u64, u32)>,
}

impl Vocabulary {
    /// Tokenize and parse `source` once into its CodeBLEU profile.
    pub(crate) fn profile(&mut self, source: &str) -> CodeBleuProfile {
        let mut tokens = Vec::new();
        scan_tokens(source, |kind, text| {
            let weight = if kind == TokenKind::Keyword { KEYWORD_WEIGHT } else { 1 };
            tokens.push((self.id(text), weight));
        });
        let structure = parse_compute(source).ok().map(|program| Structure {
            shapes: multiset(collect_shapes(&program).iter().map(|s| self.id(s)).collect()),
            edges: multiset(dataflow_edges(&program)),
        });
        CodeBleuProfile {
            tokens: tokens.len(),
            ngrams: std::array::from_fn(|i| ngram_run(&tokens, i + 1)),
            structure,
        }
    }

    fn id(&mut self, text: &str) -> u32 {
        if let Some(&id) = self.ids.get(text) {
            return id;
        }
        let id = u32::try_from(self.ids.len()).expect("vocabulary exceeds u32 ids");
        self.ids.insert(text.to_string(), id);
        id
    }
}

/// The sorted distinct n-grams of a `(token id, weight)` stream.
fn ngram_run(tokens: &[(u32, u32)], n: usize) -> Vec<Gram> {
    let mut grams: Vec<Gram> = tokens
        .windows(n)
        .map(|window| {
            let mut key = [0; MAX_N];
            for (slot, &(id, _)) in key.iter_mut().zip(window) {
                *slot = id;
            }
            Gram { key, count: 1, weight: window.iter().map(|&(_, weight)| weight).sum() }
        })
        .collect();
    grams.sort_unstable_by_key(|gram| gram.key);
    grams.dedup_by(|next, kept| {
        let same = next.key == kept.key;
        if same {
            kept.count += next.count;
            kept.weight += next.weight;
        }
        same
    });
    // A corpus keeps every profile alive while its pairs are scored.
    grams.shrink_to_fit();
    grams
}

/// Sort `keys` into `(key, count)` runs.
fn multiset<K: Ord + Copy>(mut keys: Vec<K>) -> Vec<(K, u32)> {
    keys.sort_unstable();
    let mut runs: Vec<(K, u32)> = Vec::new();
    for key in keys {
        match runs.last_mut() {
            Some((last, count)) if *last == key => *count += 1,
            _ => runs.push((key, 1)),
        }
    }
    runs.shrink_to_fit();
    runs
}

/// Call `both` on every pair of entries that two key-sorted runs share.
fn for_shared<T, K: Ord>(a: &[T], b: &[T], key: impl Fn(&T) -> K, mut both: impl FnMut(&T, &T)) {
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match key(&a[i]).cmp(&key(&b[j])) {
            Ordering::Less => i += 1,
            Ordering::Greater => j += 1,
            Ordering::Equal => {
                both(&a[i], &b[j]);
                i += 1;
                j += 1;
            }
        }
    }
}

/// The share of the candidate multiset that the reference covers,
/// `Σ min(count) / Σ candidate count`; `None` for an empty candidate.
fn clipped_ratio<K: Ord + Copy>(cand: &[(K, u32)], reference: &[(K, u32)]) -> Option<f64> {
    if cand.is_empty() {
        return None;
    }
    let mut matched = 0u64;
    for_shared(cand, reference, |&(key, _)| key, |c, r| matched += u64::from(c.1.min(r.1)));
    let total: u64 = cand.iter().map(|&(_, count)| u64::from(count)).sum();
    Some(matched as f64 / total as f64)
}

// ---------------------------------------------------------------------------
// BLEU / weighted BLEU
// ---------------------------------------------------------------------------

/// Plain and keyword-weighted modified n-gram precision, from one walk.
fn modified_precisions(cand: &[Gram], reference: &[Gram]) -> (f64, f64) {
    if cand.is_empty() {
        return (0.0, 0.0);
    }
    let (mut matched, mut matched_weight) = (0u64, 0u64);
    for_shared(
        cand,
        reference,
        |gram| gram.key,
        |c, r| {
            matched += u64::from(c.count.min(r.count));
            matched_weight += u64::from(c.weight.min(r.weight));
        },
    );
    let (mut total, mut total_weight) = (0u64, 0u64);
    for gram in cand {
        total += u64::from(gram.count);
        total_weight += u64::from(gram.weight);
    }
    (matched as f64 / total as f64, matched_weight as f64 / total_weight as f64)
}

/// `(bleu, weighted_bleu)` of a profiled pair.
fn bleu_scores(cand: &CodeBleuProfile, reference: &CodeBleuProfile) -> (f64, f64) {
    if cand.tokens == 0 || reference.tokens == 0 {
        return (0.0, 0.0);
    }
    // Smoothed geometric mean of the modified precisions (smoothing keeps a
    // single empty precision from zeroing the whole score, as in the common
    // "add-epsilon" BLEU smoothing).
    let (mut log_sum, mut log_sum_weighted) = (0.0, 0.0);
    for (c, r) in cand.ngrams.iter().zip(&reference.ngrams) {
        let (p, p_weighted) = modified_precisions(c, r);
        log_sum += p.max(1e-6).ln() / MAX_N as f64;
        log_sum_weighted += p_weighted.max(1e-6).ln() / MAX_N as f64;
    }
    // Brevity penalty.
    let c = cand.tokens as f64;
    let r = reference.tokens as f64;
    let bp = if c >= r { 1.0 } else { (1.0 - r / c).exp() };
    ((log_sum.exp() * bp).clamp(0.0, 1.0), (log_sum_weighted.exp() * bp).clamp(0.0, 1.0))
}

// ---------------------------------------------------------------------------
// AST subtree shapes
// ---------------------------------------------------------------------------

/// Collect abstracted shapes of every expression subtree and every statement
/// in the program. Identifiers and literal values are replaced by
/// placeholders so the comparison is purely structural.
fn collect_shapes(program: &Program) -> Vec<String> {
    let mut shapes = Vec::new();
    collect_block(&program.body, &mut shapes);
    shapes
}

fn collect_block(block: &Block, shapes: &mut Vec<String>) {
    for stmt in &block.stmts {
        match stmt {
            Stmt::Assign { op, expr, .. } => {
                let e = expr_shape(expr, shapes);
                shapes.push(format!("assign({op:?},{e})"));
            }
            Stmt::DeclScalar { expr, .. } => {
                let e = expr_shape(expr, shapes);
                shapes.push(format!("decl({e})"));
            }
            Stmt::DeclArray { size, .. } => shapes.push(format!("declarray({size})")),
            Stmt::AssignIndex { op, expr, .. } => {
                let e = expr_shape(expr, shapes);
                shapes.push(format!("store({op:?},{e})"));
            }
            Stmt::If { cond, then_block } => {
                let lhs = expr_shape(&cond.lhs, shapes);
                let rhs = expr_shape(&cond.rhs, shapes);
                shapes.push(format!("if({:?},{lhs},{rhs})", cond.op));
                collect_block(then_block, shapes);
            }
            Stmt::For { body, .. } => {
                shapes.push("for".to_string());
                collect_block(body, shapes);
            }
        }
    }
}

fn expr_shape(expr: &Expr, shapes: &mut Vec<String>) -> String {
    let shape = match expr {
        Expr::Num(_) => "num".to_string(),
        Expr::Int(_) => "int".to_string(),
        Expr::Var(_) => "var".to_string(),
        Expr::Index { .. } => "index".to_string(),
        Expr::Paren(inner) => format!("({})", expr_shape(inner, shapes)),
        Expr::Neg(inner) => format!("neg({})", expr_shape(inner, shapes)),
        Expr::Bin { op, lhs, rhs } => {
            let l = expr_shape(lhs, shapes);
            let r = expr_shape(rhs, shapes);
            format!("bin({op:?},{l},{r})")
        }
        Expr::Call { func, args } => {
            let inner: Vec<String> = args.iter().map(|a| expr_shape(a, shapes)).collect();
            format!("call({},{})", func.c_name(), inner.join(","))
        }
    };
    // Every non-leaf subtree contributes to the shape multiset.
    if !matches!(expr, Expr::Num(_) | Expr::Int(_) | Expr::Var(_)) {
        shapes.push(shape.clone());
    }
    shape
}

// ---------------------------------------------------------------------------
// Data-flow edges
// ---------------------------------------------------------------------------

/// The def side of an `if` condition's use edges.
const COND: u32 = u32::MAX;

/// Def-use edges with variables numbered by first occurrence order, so
/// that `a = b + c` and `x = y + z` produce identical edges. Each edge is
/// packed as `def << 32 | use`.
fn dataflow_edges(program: &Program) -> Vec<u64> {
    let mut renamer = HashMap::new();
    let mut edges = Vec::new();
    collect_dataflow(&program.body, &mut renamer, &mut edges);
    edges
}

fn canon(name: &str, renamer: &mut HashMap<String, u32>) -> u32 {
    let next = renamer.len() as u32;
    *renamer.entry(name.to_string()).or_insert(next)
}

fn edge(def: u32, used: u32) -> u64 {
    u64::from(def) << 32 | u64::from(used)
}

fn collect_dataflow(block: &Block, renamer: &mut HashMap<String, u32>, edges: &mut Vec<u64>) {
    for stmt in &block.stmts {
        match stmt {
            Stmt::Assign { target, expr, .. } | Stmt::DeclScalar { name: target, expr } => {
                let uses = expr.referenced_vars();
                let def = canon(target, renamer);
                for u in uses {
                    edges.push(edge(def, canon(&u, renamer)));
                }
            }
            Stmt::AssignIndex { array, expr, .. } => {
                let def = canon(array, renamer);
                for u in expr.referenced_vars() {
                    edges.push(edge(def, canon(&u, renamer)));
                }
            }
            Stmt::DeclArray { name, .. } => {
                let _ = canon(name, renamer);
            }
            Stmt::If { cond, then_block } => {
                for u in cond.lhs.referenced_vars().into_iter().chain(cond.rhs.referenced_vars()) {
                    edges.push(edge(COND, canon(&u, renamer)));
                }
                collect_dataflow(then_block, renamer, edges);
            }
            Stmt::For { var, body, .. } => {
                let _ = canon(var, renamer);
                collect_dataflow(body, renamer, edges);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const PROG_A: &str = "void compute(double x, double y) {\n\
                          double comp = 0.0;\n\
                          double t0 = x * 0.5;\n\
                          for (int i = 0; i < 4; ++i) {\n\
                            comp += t0 * y + sin(x);\n\
                          }\n\
                          }";

    const PROG_B: &str = "void compute(double a, double b) {\n\
                          double comp = 0.0;\n\
                          double s = a * 2.25;\n\
                          for (int k = 0; k < 4; ++k) {\n\
                            comp += s * b + sin(a);\n\
                          }\n\
                          }";

    const PROG_C: &str = "void compute(double *buf, double gain) {\n\
                          double comp = 0.0;\n\
                          if (gain > 1.0) {\n\
                            comp = log(gain) / 3.0;\n\
                          }\n\
                          for (int i = 0; i < 8; ++i) {\n\
                            buf[i] *= gain;\n\
                            comp += exp(buf[i] / 100.0) - 1.0;\n\
                          }\n\
                          }";

    #[test]
    fn identical_programs_score_one() {
        let b = codebleu_default(PROG_A, PROG_A);
        assert!((b.bleu - 1.0).abs() < 1e-9, "{b:?}");
        assert!((b.weighted_bleu - 1.0).abs() < 1e-9);
        assert!((b.syntax_match - 1.0).abs() < 1e-9);
        assert!((b.dataflow_match - 1.0).abs() < 1e-9);
        assert!((b.combined - 1.0).abs() < 1e-6);
    }

    #[test]
    fn renamed_programs_score_high_but_not_one() {
        let b = codebleu_default(PROG_A, PROG_B);
        // Same structure, different identifiers/constants: syntax and
        // data-flow components are ~1, token components lower.
        assert!(b.syntax_match > 0.9, "{b:?}");
        assert!(b.dataflow_match > 0.9, "{b:?}");
        assert!(b.bleu < 0.9, "{b:?}");
        assert!(b.combined > 0.5 && b.combined < 1.0, "{b:?}");
    }

    #[test]
    fn structurally_different_programs_score_low() {
        let similar = codebleu_default(PROG_A, PROG_B).combined;
        let different = codebleu_default(PROG_A, PROG_C).combined;
        assert!(different < similar, "different={different} similar={similar}");
        assert!(different < 0.55, "different={different}");
    }

    #[test]
    fn scores_are_bounded_and_handle_unparseable_input() {
        for (a, b) in [(PROG_A, PROG_C), (PROG_C, PROG_A), ("not c code", PROG_A), (PROG_A, "x")] {
            let s = codebleu_default(a, b);
            for v in [s.bleu, s.weighted_bleu, s.syntax_match, s.dataflow_match, s.combined] {
                assert!((0.0..=1.0).contains(&v), "{s:?}");
            }
        }
    }

    #[test]
    fn weights_change_the_combination() {
        let only_syntax =
            CodeBleuWeights { ngram: 0.0, weighted_ngram: 0.0, syntax: 1.0, dataflow: 0.0 };
        let s = codebleu(PROG_A, PROG_B, only_syntax);
        assert!((s.combined - s.syntax_match).abs() < 1e-12);
    }

    #[test]
    fn keyword_weighting_raises_scores_for_keyword_heavy_overlap() {
        // Two programs sharing control-flow keywords but different payloads:
        // the weighted variant should not be lower than plain BLEU.
        let a = "void compute(double x) { double comp = 0.0; for (int i = 0; i < 3; ++i) { comp += x; } }";
        let c = "void compute(double q) { double comp = 0.0; for (int j = 0; j < 9; ++j) { comp *= q - 1.5; } }";
        let s = codebleu_default(a, c);
        assert!(s.weighted_bleu >= s.bleu - 1e-9, "{s:?}");
    }
}
