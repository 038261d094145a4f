//! The merge-walk CodeBLEU scorer that the dense-table scorer replaced,
//! kept as a test oracle. It interns token texts and `format!`-spelled AST
//! shapes through one string map, keeps every component as a key-sorted
//! run, and scores a pair with one merge walk per component. The table
//! scorer must reproduce each of its scores bit for bit.

use std::cmp::Ordering;
use std::collections::HashMap;

use llm4fp_fpir::tokens::scan_tokens;
use llm4fp_fpir::{parse_compute, Block, Expr, Program, Stmt, TokenKind};

use super::{CodeBleuBreakdown, CodeBleuWeights, KEYWORD_WEIGHT, MAX_N};

/// [`super::codebleu`] as the merge-walk scorer computes it.
pub(crate) fn codebleu(
    candidate: &str,
    reference: &str,
    weights: CodeBleuWeights,
) -> CodeBleuBreakdown {
    let mut vocabulary = Vocabulary::default();
    let candidate = vocabulary.profile(candidate);
    let reference = vocabulary.profile(reference);
    score(&candidate, &reference, weights)
}

/// CodeBLEU of one profiled program against another. Both profiles must
/// come from the same [`Vocabulary`].
pub(crate) fn score(
    candidate: &Profile,
    reference: &Profile,
    weights: CodeBleuWeights,
) -> CodeBleuBreakdown {
    let (bleu, weighted_bleu) = bleu_scores(candidate, reference);
    let (syntax_match, dataflow_match) = match (&candidate.structure, &reference.structure) {
        (Some(c), Some(r)) => (
            clipped_ratio(&c.shapes, &r.shapes).unwrap_or(0.0),
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

/// Interns token texts and AST shape strings to dense ids.
#[derive(Debug, Default)]
pub(crate) struct Vocabulary {
    ids: HashMap<String, u32>,
}

/// One program's sorted n-gram runs and structure multisets.
#[derive(Debug)]
pub(crate) struct Profile {
    tokens: usize,
    ngrams: [Vec<Gram>; MAX_N],
    structure: Option<Structure>,
}

/// One distinct n-gram: token ids (zero-padded past `n`), its number of
/// occurrences and the sum over them of its token weights.
#[derive(Debug)]
struct Gram {
    key: [u32; MAX_N],
    count: u32,
    weight: u32,
}

#[derive(Debug)]
struct Structure {
    shapes: Vec<(u32, u32)>,
    edges: Vec<(u64, u32)>,
}

impl Vocabulary {
    pub(crate) fn profile(&mut self, source: &str) -> Profile {
        let mut tokens = Vec::new();
        scan_tokens(source, |kind, text| {
            let weight = if kind == TokenKind::Keyword { KEYWORD_WEIGHT } else { 1 };
            tokens.push((self.id(text), weight));
        });
        let structure = parse_compute(source).ok().map(|program| Structure {
            shapes: multiset(collect_shapes(&program).iter().map(|s| self.id(s)).collect()),
            edges: multiset(dataflow_edges(&program)),
        });
        Profile {
            tokens: tokens.len(),
            ngrams: std::array::from_fn(|i| ngram_run(&tokens, i + 1)),
            structure,
        }
    }

    fn id(&mut self, text: &str) -> u32 {
        let next = self.ids.len() as u32;
        *self.ids.entry(text.to_string()).or_insert(next)
    }
}

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
    grams
}

fn multiset<K: Ord + Copy>(mut keys: Vec<K>) -> Vec<(K, u32)> {
    keys.sort_unstable();
    let mut runs: Vec<(K, u32)> = Vec::new();
    for key in keys {
        match runs.last_mut() {
            Some((last, count)) if *last == key => *count += 1,
            _ => runs.push((key, 1)),
        }
    }
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

fn clipped_ratio<K: Ord + Copy>(cand: &[(K, u32)], reference: &[(K, u32)]) -> Option<f64> {
    if cand.is_empty() {
        return None;
    }
    let mut matched = 0u64;
    for_shared(cand, reference, |&(key, _)| key, |c, r| matched += u64::from(c.1.min(r.1)));
    let total: u64 = cand.iter().map(|&(_, count)| u64::from(count)).sum();
    Some(matched as f64 / total as f64)
}

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

fn bleu_scores(cand: &Profile, reference: &Profile) -> (f64, f64) {
    if cand.tokens == 0 || reference.tokens == 0 {
        return (0.0, 0.0);
    }
    let (mut log_sum, mut log_sum_weighted) = (0.0, 0.0);
    for (c, r) in cand.ngrams.iter().zip(&reference.ngrams) {
        let (p, p_weighted) = modified_precisions(c, r);
        log_sum += p.max(1e-6).ln() / MAX_N as f64;
        log_sum_weighted += p_weighted.max(1e-6).ln() / MAX_N as f64;
    }
    let c = cand.tokens as f64;
    let r = reference.tokens as f64;
    let bp = if c >= r { 1.0 } else { (1.0 - r / c).exp() };
    ((log_sum.exp() * bp).clamp(0.0, 1.0), (log_sum_weighted.exp() * bp).clamp(0.0, 1.0))
}

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
    if !matches!(expr, Expr::Num(_) | Expr::Int(_) | Expr::Var(_)) {
        shapes.push(shape.clone());
    }
    shape
}

const COND: u32 = u32::MAX;

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

/// The five fields of a breakdown, as bits.
pub(crate) fn bits(score: CodeBleuBreakdown) -> [u64; 5] {
    let CodeBleuBreakdown { bleu, weighted_bleu, syntax_match, dataflow_match, combined } = score;
    [bleu, weighted_bleu, syntax_match, dataflow_match, combined].map(f64::to_bits)
}
