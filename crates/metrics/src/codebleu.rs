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
//! the work is split in two. `Vocabulary::profile` tokenizes and parses a
//! program once and interns each of its features (the 1- to 4-grams, the
//! AST shapes and the def-use edges) into the vocabulary's id space. An
//! n-gram is interned as its (n−1)-prefix's id and its last token's id,
//! and a shape as its kind, its operator or function and its children's
//! ids, so no feature is spelled out as a string. The profile keeps one
//! `(id, count, weight)` run per component and the run's totals.
//!
//! A corpus is profiled in lanes, each with a vocabulary of its own.
//! `Vocabulary::absorb` then merges a lane's vocabulary into the first
//! lane's, one id space for the corpus: it walks the lane's features in
//! id order, translates the ids a key holds (an id is always handed out
//! after the ids its key holds), and returns the table that
//! `CodeBleuProfile::remap` renumbers the lane's profiles with.
//!
//! A `MatchTable` scatters a candidate's runs into a dense table indexed
//! by id, then scores each reference with one pass over the reference's
//! runs: Σ min(table, count) per component. Those matched counts are the
//! same integer sums whatever the ids are, so a score depends neither on
//! the order in which a corpus was profiled nor on its lanes.

use std::collections::HashMap;
use std::hash::Hash;

use serde::{Deserialize, Serialize};

use llm4fp_fpir::tokens::scan_tokens;
use llm4fp_fpir::{parse_compute, Block, Expr, Program, Stmt, TokenKind};

#[cfg(test)]
pub(crate) mod oracle;

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
    let mut table = MatchTable::new(vocabulary.len());
    table.load(&candidate);
    table.score(&reference, weights)
}

/// Convenience: CodeBLEU with the default 0.25/0.25/0.25/0.25 weights.
pub fn codebleu_default(candidate: &str, reference: &str) -> CodeBleuBreakdown {
    codebleu(candidate, reference, CodeBleuWeights::default())
}

// ---------------------------------------------------------------------------
// Profiles
// ---------------------------------------------------------------------------

/// Highest n-gram order of the two BLEU components.
const MAX_N: usize = 4;

/// Weight of a keyword token in the weighted n-gram match (others weigh 1).
const KEYWORD_WEIGHT: u32 = 4;

/// A profile's components: the n-gram orders 1..=4, then these two.
const SHAPES: usize = MAX_N;
const EDGES: usize = MAX_N + 1;
const COMPONENTS: usize = MAX_N + 2;

/// Interns every feature of the programs it profiles into one dense id
/// space, so that profiles built from one vocabulary compare by id.
#[derive(Debug, Default)]
pub(crate) struct Vocabulary {
    /// Token text → the id of its 1-gram.
    tokens: HashMap<Box<str>, u32>,
    /// Every other feature, by its [`Key`].
    features: HashMap<Key, u32>,
    /// Ids handed out so far.
    len: u32,
    /// Scratch of `profile`: the features of the program being profiled,
    /// and, indexed by id, where each sits in that list (`NONE` if absent).
    run: Vec<Feature>,
    slots: Vec<u32>,
}

/// A feature other than a 1-gram: a tag naming its kind (and operator or
/// function), then two ids or small integers.
type Key = (u32, u32, u32);

const NONE: u32 = u32::MAX;

/// Everything CodeBLEU needs to know about one program.
#[derive(Debug, PartialEq)]
pub(crate) struct CodeBleuProfile {
    tokens: usize,
    /// Whether the source parsed; if not, the structure components are
    /// empty and score 0.
    parsed: bool,
    /// The distinct features of each component in turn: component `c` is
    /// `features[ends[c - 1]..ends[c]]` (from 0 for `c = 0`).
    features: Box<[Feature]>,
    ends: [u32; COMPONENTS],
    /// Σ count and Σ weight over each component's features.
    totals: [(u32, u32); COMPONENTS],
}

/// One distinct feature of a program: its id, its number of occurrences
/// and, for an n-gram, the sum over them of its token weights (0 for a
/// shape or an edge).
///
/// The reference implementation weighs each n-gram occurrence by the
/// *mean* token weight, `sum / n`. With weights 1 and 4 that mean is a
/// multiple of ¼ for every n ≤ 4 (for n = 3 because 4 ≡ 1 mod 3), so every
/// total it feeds is exact and dividing both sides of a precision by `n`
/// cannot change its value: the integer sums give the same bits.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Feature {
    id: u32,
    count: u32,
    weight: u32,
}

impl CodeBleuProfile {
    fn run(&self, component: usize) -> &[Feature] {
        let start = if component == 0 { 0 } else { self.ends[component - 1] };
        &self.features[start as usize..self.ends[component] as usize]
    }

    /// Renumber the features of a profile from an absorbed vocabulary
    /// through the `map` that [`Vocabulary::absorb`] returned.
    pub(crate) fn remap(&mut self, map: &[u32]) {
        for feature in self.features.iter_mut() {
            feature.id = map[feature.id as usize];
        }
    }
}

impl Vocabulary {
    /// The number of ids handed out: a [`MatchTable`] for this vocabulary's
    /// profiles needs this many slots.
    pub(crate) fn len(&self) -> usize {
        self.len as usize
    }

    /// Tokenize and parse `source` once into its CodeBLEU profile.
    pub(crate) fn profile(&mut self, source: &str) -> CodeBleuProfile {
        self.profile_with(source, |_, _| {})
    }

    /// [`Self::profile`], also handing each token of `source` to `each`
    /// from the same pass.
    pub(crate) fn profile_with<'a>(
        &mut self,
        source: &'a str,
        mut each: impl FnMut(TokenKind, &'a str),
    ) -> CodeBleuProfile {
        let mut grams = Vec::new();
        scan_tokens(source, |kind, text| {
            let weight = if kind == TokenKind::Keyword { KEYWORD_WEIGHT } else { 1 };
            grams.push((self.token(text), weight));
            each(kind, text);
        });
        let tokens = grams.len();
        let unigrams = grams.clone();
        let mut ends = [0; COMPONENTS];
        for n in 1..=MAX_N {
            if n > 1 {
                // Extend each (n−1)-gram by the token that follows it.
                grams.pop();
                for (gram, &(last, weight)) in grams.iter_mut().zip(unigrams.iter().skip(n - 1)) {
                    *gram = (self.intern((GRAM, gram.0, last)), gram.1 + weight);
                }
            }
            for &(id, weight) in &grams {
                self.count(id, weight);
            }
            ends[n - 1] = self.run.len() as u32;
        }
        let program = parse_compute(source).ok();
        if let Some(program) = &program {
            self.shape_block(&program.body);
        }
        ends[SHAPES] = self.run.len() as u32;
        if let Some(program) = &program {
            self.dataflow(program);
        }
        ends[EDGES] = self.run.len() as u32;
        let mut start = 0;
        let totals = ends.map(|end| {
            let run = &self.run[start as usize..end as usize];
            start = end;
            run.iter().fold((0, 0), |(count, weight), f| (count + f.count, weight + f.weight))
        });
        for feature in &self.run {
            self.slots[feature.id as usize] = NONE;
        }
        let features = Box::from(&self.run[..]);
        self.run.clear();
        CodeBleuProfile { tokens, parsed: program.is_some(), features, ends, totals }
    }

    /// The 1-gram id of a token text.
    fn token(&mut self, text: &str) -> u32 {
        if let Some(&id) = self.tokens.get(text) {
            return id;
        }
        let id = self.next_id();
        self.tokens.insert(text.into(), id);
        id
    }

    /// The tags of the interned keys, with any operator or function
    /// masked off.
    #[cfg(test)]
    pub(crate) fn key_tags(&self) -> std::collections::BTreeSet<u32> {
        self.features.keys().map(|&(tag, _, _)| if tag < 256 { tag } else { tag & !0xff }).collect()
    }

    /// Number every feature of `lane`, another vocabulary, in this one's
    /// id space, and return the translation: lane id `i` is this
    /// vocabulary's id `map[i]`. A feature this vocabulary lacks gets the
    /// next id, and is interned here if `intern` is set. Without it the
    /// maps need not grow, but this vocabulary is then fit only to report
    /// its [`Self::len`]: that is for the last lane absorbed.
    ///
    /// A key's ids are always older than the key itself, so in lane id
    /// order each key's ids are translated before the key is looked up. If
    /// this vocabulary profiled the sources just before the lane's, every
    /// feature gets the id that profiling all of them here would have
    /// given it.
    pub(crate) fn absorb(&mut self, lane: Vocabulary, intern: bool) -> Vec<u32> {
        // The lane's keys by id, with `TOKEN` in each token's place, and
        // its tokens in id order.
        let mut keys = vec![(TOKEN, 0, 0); lane.len()];
        for (key, id) in lane.features {
            keys[id as usize] = key;
        }
        let mut tokens: Vec<(u32, Box<str>)> =
            lane.tokens.into_iter().map(|(text, id)| (id, text)).collect();
        tokens.sort_unstable_by_key(|&(id, _)| id);
        let mut tokens = tokens.into_iter();
        let mut map = Vec::with_capacity(keys.len());
        for (tag, a, b) in keys {
            let id = if tag == TOKEN {
                let (_, text) = tokens.next().expect("every token has an id");
                number(&mut self.tokens, &mut self.len, text, intern)
            } else {
                let key = match id_fields(tag) {
                    0 => (tag, a, b),
                    1 => (tag, map[a as usize], b),
                    _ => (tag, map[a as usize], map[b as usize]),
                };
                number(&mut self.features, &mut self.len, key, intern)
            };
            map.push(id);
        }
        map
    }

    fn intern(&mut self, key: Key) -> u32 {
        let next = self.len;
        let id = *self.features.entry(key).or_insert(next);
        if id == next {
            self.next_id();
        }
        id
    }

    fn next_id(&mut self) -> u32 {
        next_id(&mut self.len)
    }

    /// Count one occurrence of feature `id` in the program being profiled.
    fn count(&mut self, id: u32, weight: u32) {
        if self.slots.len() <= id as usize {
            self.slots.resize(self.len as usize, NONE);
        }
        let slot = &mut self.slots[id as usize];
        if *slot == NONE {
            *slot = self.run.len() as u32;
            self.run.push(Feature { id, count: 1, weight });
        } else {
            let feature = &mut self.run[*slot as usize];
            feature.count += 1;
            feature.weight += weight;
        }
    }
}

/// Hand out the next of `len` ids.
fn next_id(len: &mut u32) -> u32 {
    let id = *len;
    *len = id.checked_add(1).filter(|&len| len != NONE).expect("vocabulary exceeds u32 ids");
    id
}

/// The id of `key` in `map`, or the next of `len` ids, entered into `map`
/// if `intern` is set.
fn number<K: Hash + Eq>(map: &mut HashMap<K, u32>, len: &mut u32, key: K, intern: bool) -> u32 {
    if let Some(&id) = map.get(&key) {
        return id;
    }
    let id = next_id(len);
    if intern {
        map.insert(key, id);
    }
    id
}

// ---------------------------------------------------------------------------
// Scoring
// ---------------------------------------------------------------------------

/// One candidate's features scattered into a dense table indexed by id:
/// `slots[id]` holds the candidate's `(count, weight)` of feature `id`,
/// and `(0, 0)` for every feature the candidate lacks.
#[derive(Debug)]
pub(crate) struct MatchTable<'p> {
    slots: Vec<(u32, u32)>,
    candidate: Option<&'p CodeBleuProfile>,
}

impl<'p> MatchTable<'p> {
    /// An empty table for profiles of a vocabulary with `len` ids.
    pub(crate) fn new(len: usize) -> MatchTable<'p> {
        MatchTable { slots: vec![(0, 0); len], candidate: None }
    }

    /// Make `candidate` the program that [`Self::score`] rates, clearing
    /// the previous candidate's entries.
    pub(crate) fn load(&mut self, candidate: &'p CodeBleuProfile) {
        if let Some(previous) = self.candidate {
            for feature in previous.features.iter() {
                self.slots[feature.id as usize] = (0, 0);
            }
        }
        for feature in candidate.features.iter() {
            self.slots[feature.id as usize] = (feature.count, feature.weight);
        }
        self.candidate = Some(candidate);
    }

    /// CodeBLEU of the loaded candidate against `reference`. Both profiles
    /// must come from the same [`Vocabulary`].
    pub(crate) fn score(
        &self,
        reference: &CodeBleuProfile,
        weights: CodeBleuWeights,
    ) -> CodeBleuBreakdown {
        let candidate = self.candidate.expect("a candidate is loaded before scoring");
        let (bleu, weighted_bleu) = self.bleu_scores(candidate, reference);
        let (syntax_match, dataflow_match) = if candidate.parsed && reference.parsed {
            let (shapes, edges) = (candidate.totals[SHAPES].0, candidate.totals[EDGES].0);
            (
                self.coverage(shapes, reference.run(SHAPES)).unwrap_or(0.0),
                // No data flow at all: treat as fully matched only if the
                // reference also has none (both are trivial programs).
                self.coverage(edges, reference.run(EDGES))
                    .unwrap_or(if reference.run(EDGES).is_empty() { 1.0 } else { 0.0 }),
            )
        } else {
            (0.0, 0.0)
        };
        let combined = weights.ngram * bleu
            + weights.weighted_ngram * weighted_bleu
            + weights.syntax * syntax_match
            + weights.dataflow * dataflow_match;
        CodeBleuBreakdown { bleu, weighted_bleu, syntax_match, dataflow_match, combined }
    }

    /// `(Σ min count, Σ min weight)` of the candidate against one run of
    /// the reference: the multiset intersection's size, read from the
    /// table in one pass.
    fn matched(&self, reference: &[Feature]) -> (u64, u64) {
        let (mut count, mut weight) = (0u64, 0u64);
        for feature in reference {
            let (c, w) = self.slots[feature.id as usize];
            count += u64::from(c.min(feature.count));
            weight += u64::from(w.min(feature.weight));
        }
        (count, weight)
    }

    /// The share of the candidate's `total` features that the reference
    /// covers; `None` for an empty candidate.
    fn coverage(&self, total: u32, reference: &[Feature]) -> Option<f64> {
        (total > 0).then(|| self.matched(reference).0 as f64 / f64::from(total))
    }

    /// `(bleu, weighted_bleu)` of the candidate against `reference`.
    fn bleu_scores(&self, cand: &CodeBleuProfile, reference: &CodeBleuProfile) -> (f64, f64) {
        if cand.tokens == 0 || reference.tokens == 0 {
            return (0.0, 0.0);
        }
        // Smoothed geometric mean of the modified precisions (smoothing
        // keeps a single empty precision from zeroing the whole score, as
        // in the common "add-epsilon" BLEU smoothing).
        let (mut log_sum, mut log_sum_weighted) = (0.0, 0.0);
        for n in 0..MAX_N {
            let (total, total_weight) = cand.totals[n];
            let (p, p_weighted) = if total == 0 {
                (0.0, 0.0)
            } else {
                let (matched, matched_weight) = self.matched(reference.run(n));
                (matched as f64 / f64::from(total), matched_weight as f64 / f64::from(total_weight))
            };
            log_sum += p.max(1e-6).ln() / MAX_N as f64;
            log_sum_weighted += p_weighted.max(1e-6).ln() / MAX_N as f64;
        }
        // Brevity penalty.
        let c = cand.tokens as f64;
        let r = reference.tokens as f64;
        let bp = if c >= r { 1.0 } else { (1.0 - r / c).exp() };
        ((log_sum.exp() * bp).clamp(0.0, 1.0), (log_sum_weighted.exp() * bp).clamp(0.0, 1.0))
    }
}

// ---------------------------------------------------------------------------
// Feature keys: n-grams, AST shapes and data-flow edges
// ---------------------------------------------------------------------------

/// Tags of the [`Key`]s. The tags from `ASSIGN` on carry an operator or a
/// math function, added to the tag: each is 256 past the one before, more
/// than any of those enums has variants.
const GRAM: u32 = 0;
const EDGE: u32 = 1;
const NUM: u32 = 2;
const INT: u32 = 3;
const VAR: u32 = 4;
const INDEX: u32 = 5;
const PAREN: u32 = 6;
const NEG: u32 = 7;
const FOR: u32 = 8;
const DECL: u32 = 9;
const DECL_ARRAY: u32 = 10;
const CALL_ARG: u32 = 11;
const ASSIGN: u32 = 1 << 8;
const STORE: u32 = 2 << 8;
const BIN: u32 = 3 << 8;
const IF: u32 = 4 << 8;
const CALL: u32 = 5 << 8;
/// Stands for a token in [`Vocabulary::absorb`]; no key has this tag.
const TOKEN: u32 = u32::MAX;

/// How many of a key's two fields, after its tag, are feature ids: 2 for
/// an n-gram (prefix and last token), a call argument (the call so far and
/// the argument), a binary operation and an `if` (both operands); 1 for a
/// parenthesis, a negation, a declaration, an assignment and a store (the
/// expression). A def-use edge holds variable numbers, an array
/// declaration its size, and a leaf, a loop and a call's head nothing.
fn id_fields(tag: u32) -> usize {
    match tag {
        GRAM | CALL_ARG => 2,
        PAREN | NEG | DECL => 1,
        EDGE | NUM | INT | VAR | INDEX | FOR | DECL_ARRAY => 0,
        _ => match tag & !0xff {
            BIN | IF => 2,
            ASSIGN | STORE => 1,
            CALL => 0,
            _ => unreachable!("no key has tag {tag}"),
        },
    }
}

impl Vocabulary {
    /// Count the shape of every statement and every non-leaf expression
    /// subtree of `block`. Identifiers and literal values are abstracted
    /// away, so the comparison is purely structural.
    fn shape_block(&mut self, block: &Block) {
        for stmt in &block.stmts {
            let (key, body) = match stmt {
                Stmt::Assign { op, expr, .. } => {
                    ((ASSIGN + *op as u32, self.shape_expr(expr), 0), None)
                }
                Stmt::DeclScalar { expr, .. } => ((DECL, self.shape_expr(expr), 0), None),
                Stmt::DeclArray { size, .. } => {
                    let size = *size as u64;
                    ((DECL_ARRAY, size as u32, (size >> 32) as u32), None)
                }
                Stmt::AssignIndex { op, expr, .. } => {
                    ((STORE + *op as u32, self.shape_expr(expr), 0), None)
                }
                Stmt::If { cond, then_block } => {
                    let lhs = self.shape_expr(&cond.lhs);
                    let rhs = self.shape_expr(&cond.rhs);
                    ((IF + cond.op as u32, lhs, rhs), Some(then_block))
                }
                Stmt::For { body, .. } => ((FOR, 0, 0), Some(body)),
            };
            self.count_key(key);
            if let Some(body) = body {
                self.shape_block(body);
            }
        }
    }

    /// The shape id of `expr`; counts it unless it is a leaf (a literal or
    /// a variable).
    fn shape_expr(&mut self, expr: &Expr) -> u32 {
        let key = match expr {
            Expr::Num(_) => return self.intern((NUM, 0, 0)),
            Expr::Int(_) => return self.intern((INT, 0, 0)),
            Expr::Var(_) => return self.intern((VAR, 0, 0)),
            Expr::Index { .. } => (INDEX, 0, 0),
            Expr::Paren(inner) => (PAREN, self.shape_expr(inner), 0),
            Expr::Neg(inner) => (NEG, self.shape_expr(inner), 0),
            Expr::Bin { op, lhs, rhs } => {
                let l = self.shape_expr(lhs);
                let r = self.shape_expr(rhs);
                (BIN + *op as u32, l, r)
            }
            Expr::Call { func, args } => {
                // The arguments are chained one by one onto the call's head.
                let mut id = self.intern((CALL + *func as u32, 0, 0));
                for arg in args {
                    let arg = self.shape_expr(arg);
                    id = self.intern((CALL_ARG, id, arg));
                }
                self.count(id, 0);
                return id;
            }
        };
        self.count_key(key)
    }

    /// Intern `key` and count one occurrence of it; returns its id.
    fn count_key(&mut self, key: Key) -> u32 {
        let id = self.intern(key);
        self.count(id, 0);
        id
    }

    /// Count the program's def-use edges, with variables numbered by first
    /// occurrence so that `a = b + c` and `x = y + z` give identical edges.
    fn dataflow(&mut self, program: &Program) {
        let mut renamer = HashMap::new();
        let mut uses = Vec::new();
        self.dataflow_block(&program.body, &mut renamer, &mut uses);
    }

    fn dataflow_block<'a>(
        &mut self,
        block: &'a Block,
        renamer: &mut HashMap<&'a str, u32>,
        uses: &mut Vec<&'a str>,
    ) {
        for stmt in &block.stmts {
            match stmt {
                Stmt::Assign { target: def, expr, .. }
                | Stmt::DeclScalar { name: def, expr }
                | Stmt::AssignIndex { array: def, expr, .. } => {
                    uses.clear();
                    referenced_vars(expr, uses);
                    let def = canon(def, renamer);
                    for &used in uses.iter() {
                        let used = canon(used, renamer);
                        self.count_key((EDGE, def, used));
                    }
                }
                Stmt::DeclArray { name, .. } => {
                    canon(name, renamer);
                }
                Stmt::If { cond, then_block } => {
                    uses.clear();
                    referenced_vars(&cond.lhs, uses);
                    referenced_vars(&cond.rhs, uses);
                    for &used in uses.iter() {
                        let used = canon(used, renamer);
                        self.count_key((EDGE, COND, used));
                    }
                    self.dataflow_block(then_block, renamer, uses);
                }
                Stmt::For { var, body, .. } => {
                    canon(var, renamer);
                    self.dataflow_block(body, renamer, uses);
                }
            }
        }
    }
}

/// The def side of an `if` condition's use edges.
const COND: u32 = u32::MAX;

/// A variable's number: its rank among the program's variables by first
/// occurrence.
fn canon<'a>(name: &'a str, renamer: &mut HashMap<&'a str, u32>) -> u32 {
    let next = renamer.len() as u32;
    *renamer.entry(name).or_insert(next)
}

/// Push the scalar variables `expr` reads, in [`Expr::referenced_vars`]
/// order.
fn referenced_vars<'a>(expr: &'a Expr, out: &mut Vec<&'a str>) {
    match expr {
        Expr::Var(name) => out.push(name),
        Expr::Paren(inner) | Expr::Neg(inner) => referenced_vars(inner, out),
        Expr::Bin { lhs, rhs, .. } => {
            referenced_vars(lhs, out);
            referenced_vars(rhs, out);
        }
        Expr::Call { args, .. } => args.iter().for_each(|arg| referenced_vars(arg, out)),
        Expr::Num(_) | Expr::Int(_) | Expr::Index { .. } => {}
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
    fn single_pairs_match_the_merge_walk_oracle_bit_for_bit() {
        const EDGE_CASES: [&str; 7] = [
            "",
            "x",
            "not c code",
            "void compute(double x) { comp = ; }",
            // Parses, but has no def-use edges.
            "void compute(double a, int n, double *buf) {\n}",
            "void compute(double x) { double t[3] = {1.0, 2.0}; for (int i = 0; i < 3; ++i) { } }",
            // Repeated n-grams, shapes and edges.
            "void compute(double x) { double comp = 0.0; comp += x; comp += x; comp += x; }",
        ];
        let only_syntax =
            CodeBleuWeights { ngram: 0.0, weighted_ngram: 0.0, syntax: 1.0, dataflow: 0.0 };
        let programs = [PROG_A, PROG_B, PROG_C].into_iter().chain(EDGE_CASES);
        let programs: Vec<&str> = programs.collect();
        for &candidate in &programs {
            for &reference in &programs {
                for weights in [CodeBleuWeights::default(), only_syntax] {
                    assert_eq!(
                        oracle::bits(codebleu(candidate, reference, weights)),
                        oracle::bits(oracle::codebleu(candidate, reference, weights)),
                        "{candidate:?} against {reference:?}"
                    );
                }
            }
        }
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
