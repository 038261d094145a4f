//! Corpus-level diversity measurement.
//!
//! The paper reports, per approach, the average pairwise CodeBLEU over all
//! generated programs and the NiCad clone counts. Scoring all N² pairs is
//! quadratic, so every program is profiled once and each pair is scored
//! from the two profiles; very large corpora can be estimated from a
//! deterministic subsample of pairs.
//!
//! Profiling stays sequential: one `Vocabulary` interns every program's
//! features into one id space, in source order. The pair scores are split
//! across the machine's cores ([`std::thread::available_parallelism`]),
//! each lane filling one contiguous slice of a single score buffer, and
//! the calling thread sums that buffer in pair order. Pairs come in
//! row-major order, so a lane's slice covers a few candidate rows: the
//! lane loads each row's candidate into its own `MatchTable` once and
//! scores the row's references against it. Every score is computed
//! exactly as on one thread and added in the same order, so the average
//! is bit-identical at every lane count.

use std::num::NonZeroUsize;
use std::ops::Range;
use std::thread;

use serde::{Deserialize, Serialize};

use crate::clones::{detect_clones, CloneReport, CloneType};
use crate::codebleu::{
    CodeBleuBreakdown, CodeBleuProfile, CodeBleuWeights, MatchTable, Vocabulary,
};

/// Combined diversity report for one approach's corpus.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DiversityReport {
    /// Number of programs in the corpus.
    pub programs: usize,
    /// Number of (ordered) pairs actually scored.
    pub pairs_scored: usize,
    /// Average pairwise CodeBLEU (lower = more diverse).
    pub avg_codebleu: f64,
    /// Clone detection outcome.
    pub clones: CloneReport,
}

impl DiversityReport {
    /// Build the full report for a corpus of program sources. CodeBLEU
    /// pairs are scored on every core ([`average_pairwise_codebleu`]);
    /// clone detection runs on the calling thread.
    pub fn measure(sources: &[String], max_pairs: usize) -> DiversityReport {
        let (avg, pairs) = average_pairwise_codebleu(sources, 1, max_pairs);
        DiversityReport {
            programs: sources.len(),
            pairs_scored: pairs,
            avg_codebleu: avg,
            clones: detect_clones(sources),
        }
    }

    /// Convenience accessor for the clone counts line of the report.
    pub fn clone_pairs(&self, clone_type: CloneType) -> usize {
        self.clones.pair_count(clone_type)
    }
}

/// Average pairwise CodeBLEU over a corpus.
///
/// Profiles each program once, in source order, then scores the pairs of
/// [`sampled_pairs`] on one lane per available core (the calling thread
/// is one of them). Each lane takes a contiguous range of at least 1,024
/// pairs, so a small corpus is scored on the calling thread alone. The
/// scores are summed in pair order, so the result is bit-identical to a
/// single-threaded run. `threads` is ignored: it is kept so that existing
/// callers still compile.
/// Returns `(average, pairs_scored)`.
pub fn average_pairwise_codebleu(
    sources: &[String],
    _threads: usize,
    max_pairs: usize,
) -> (f64, usize) {
    let mut vocabulary = Vocabulary::default();
    let profiles: Vec<_> = sources.iter().map(|source| vocabulary.profile(source)).collect();
    let ids = vocabulary.len();
    // The interning maps are not needed to score: free them first.
    drop(vocabulary);
    let lanes = thread::available_parallelism().map_or(1, NonZeroUsize::get);
    score_pairs(&profiles, ids, max_pairs, lanes)
}

/// Fewest pairs a lane is given: about a millisecond of scoring (a pair
/// takes about a microsecond), far above the cost of spawning the lane's
/// thread.
const MIN_PAIRS_PER_LANE: usize = 1024;

/// Average CodeBLEU over the [`sampled_pairs`] of `profiles` (from one
/// vocabulary of `ids` ids), scored on up to `lanes` threads. Returns
/// `(average, pairs_scored)`, bit-identical at every lane count.
fn score_pairs(
    profiles: &[CodeBleuProfile],
    ids: usize,
    max_pairs: usize,
    lanes: usize,
) -> (f64, usize) {
    let pairs = PairSample::new(profiles.len(), max_pairs);
    if pairs.len == 0 {
        return (0.0, 0);
    }
    let mut scores = vec![0.0; pairs.len];
    let per_lane = lane_len(pairs.len, lanes);
    let score_chunk = |first: usize, chunk: &mut [f64]| {
        let range = first..first + chunk.len();
        for_each_score(profiles, ids, pairs, range, |k, score| chunk[k - first] = score.combined);
    };
    thread::scope(|scope| {
        let mut chunks = scores.chunks_mut(per_lane).enumerate();
        let own = chunks.next();
        for (lane, chunk) in chunks {
            scope.spawn(move || score_chunk(lane * per_lane, chunk));
        }
        if let Some((_, chunk)) = own {
            score_chunk(0, chunk);
        }
    });
    // One sequential sum in pair order: the bits do not depend on `lanes`.
    let mut total = 0.0;
    for value in &scores {
        total += value;
    }
    (total / pairs.len as f64, pairs.len)
}

/// How many of `pairs` pairs each of up to `lanes` lanes scores.
fn lane_len(pairs: usize, lanes: usize) -> usize {
    pairs.div_ceil(lanes.max(1)).max(MIN_PAIRS_PER_LANE)
}

/// Score the sampled pairs whose indices fall in `range`, calling `each`
/// with every pair's index and breakdown in index order. One table is
/// filled per candidate row, on the calling thread.
fn for_each_score(
    profiles: &[CodeBleuProfile],
    ids: usize,
    pairs: PairSample,
    range: Range<usize>,
    mut each: impl FnMut(usize, CodeBleuBreakdown),
) {
    let weights = CodeBleuWeights::default();
    let mut table = MatchTable::new(ids);
    let mut row = None;
    for k in range {
        let (i, j) = pairs.get(k);
        if row != Some(i) {
            table.load(&profiles[i]);
            row = Some(i);
        }
        each(k, table.score(&profiles[j], weights));
    }
}

/// The ordered pairs `(i, j), i ≠ j` of an `n`-program corpus that
/// [`average_pairwise_codebleu`] scores, in row-major order.
///
/// All `n(n−1)` pairs are kept when their number does not exceed
/// `max_pairs` (read as at least 1); otherwise every `stride`-th pair is
/// kept, `stride = ⌈n(n−1) / max_pairs⌉`, so at most `max_pairs` pairs
/// come out (no RNG, so results are reproducible). The k-th pair is
/// computed from its index; nothing is materialized.
pub fn sampled_pairs(n: usize, max_pairs: usize) -> impl Iterator<Item = (usize, usize)> {
    let pairs = PairSample::new(n, max_pairs);
    (0..pairs.len).map(move |k| pairs.get(k))
}

/// The index space of [`sampled_pairs`]: `len` pairs, the k-th of which is
/// the `k·stride`-th ordered pair of `n` programs.
#[derive(Debug, Clone, Copy)]
struct PairSample {
    n: usize,
    stride: usize,
    len: usize,
}

impl PairSample {
    fn new(n: usize, max_pairs: usize) -> PairSample {
        let all = n * n.saturating_sub(1);
        let stride = all.div_ceil(max_pairs.max(1)).max(1);
        PairSample { n, stride, len: all.div_ceil(stride) }
    }

    /// The k-th sampled pair, `k < len`.
    fn get(&self, k: usize) -> (usize, usize) {
        let flat = k * self.stride;
        let (i, r) = (flat / (self.n - 1), flat % (self.n - 1));
        (i, if r < i { r } else { r + 1 })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codebleu::oracle;

    fn corpus_similar() -> Vec<String> {
        vec![
            "void compute(double x) { double comp = 0.0; comp = x * 2.0 + 1.0; }".to_string(),
            "void compute(double y) { double comp = 0.0; comp = y * 2.5 + 1.5; }".to_string(),
            "void compute(double z) { double comp = 0.0; comp = z * 3.0 + 0.5; }".to_string(),
        ]
    }

    fn corpus_diverse() -> Vec<String> {
        vec![
            "void compute(double x) { double comp = 0.0; comp = x * 2.0 + 1.0; }".to_string(),
            "void compute(double *a, double s) { double comp = 0.0; for (int i = 0; i < 4; ++i) { comp += a[i] / (s + 1.0); } }".to_string(),
            "void compute(double u, double v) { double comp = 0.0; if (u > v) { comp = log(u - v) * tanh(v); } comp += hypot(u, v); }".to_string(),
        ]
    }

    #[test]
    fn similar_corpora_score_higher_than_diverse_ones() {
        let (similar, _) = average_pairwise_codebleu(&corpus_similar(), 2, usize::MAX);
        let (diverse, _) = average_pairwise_codebleu(&corpus_diverse(), 2, usize::MAX);
        assert!(similar > diverse, "similar={similar} diverse={diverse}");
        assert!(similar > 0.5);
        assert!(diverse < 0.6);
    }

    #[test]
    fn pairwise_average_counts_ordered_pairs() {
        let (_, pairs) = average_pairwise_codebleu(&corpus_similar(), 1, usize::MAX);
        assert_eq!(pairs, 6); // 3 programs -> 6 ordered pairs
        let (_, capped) = average_pairwise_codebleu(&corpus_similar(), 1, 3);
        assert!(capped <= 3);
        let (avg, count) = average_pairwise_codebleu(&[], 4, 100);
        assert_eq!((avg, count), (0.0, 0));
        let single = vec!["void compute(double x) { comp = x; }".to_string()];
        assert_eq!(average_pairwise_codebleu(&single, 4, 100), (0.0, 0));
    }

    /// The pair list as it used to be built: every ordered pair
    /// materialized, then strided.
    fn enumerated_pairs(n: usize, max_pairs: usize) -> Vec<(usize, usize)> {
        let all: Vec<(usize, usize)> =
            (0..n).flat_map(|i| (0..n).filter(move |&j| j != i).map(move |j| (i, j))).collect();
        let len = all.len();
        if len <= max_pairs.max(1) {
            all
        } else {
            all.into_iter().step_by(len.div_ceil(max_pairs.max(1))).collect()
        }
    }

    #[test]
    fn sampled_pairs_match_the_enumerated_stride() {
        for n in [0usize, 1, 2, 3, 17] {
            let all = n * n.saturating_sub(1);
            for cap in [0, 1, all.saturating_sub(1), all, usize::MAX] {
                let sampled: Vec<_> = sampled_pairs(n, cap).collect();
                assert_eq!(sampled, enumerated_pairs(n, cap), "n={n} cap={cap}");
                assert!(sampled.len() <= cap.max(1), "n={n} cap={cap}");
            }
        }
    }

    #[test]
    fn thread_count_does_not_change_the_result() {
        let sources = corpus_diverse();
        let (a, _) = average_pairwise_codebleu(&sources, 1, usize::MAX);
        let (b, _) = average_pairwise_codebleu(&sources, 4, usize::MAX);
        assert_eq!(a.to_bits(), b.to_bits());
    }

    /// The LLM4FP corpus of `pairwise_codebleu_is_pinned_bit_for_bit`
    /// (160 programs, seed 7).
    fn llm4fp_corpus() -> Vec<String> {
        split(include_str!("../testdata/llm4fp_160_seed7.txt"))
    }

    /// A corpus file's programs, each ending at its closing brace.
    fn split(corpus: &str) -> Vec<String> {
        corpus.split_inclusive("\n}\n").map(str::to_string).collect()
    }

    /// Profiles of `sources` from one vocabulary, and its id count.
    fn profiles(sources: &[String]) -> (Vec<CodeBleuProfile>, usize) {
        let mut vocabulary = Vocabulary::default();
        let profiles = sources.iter().map(|source| vocabulary.profile(source)).collect();
        (profiles, vocabulary.len())
    }

    #[test]
    fn lane_count_does_not_change_a_single_bit() {
        let corpus = llm4fp_corpus();
        assert_eq!(corpus.len(), 160);
        let (profiles, ids) = profiles(&corpus);
        let (avg, pairs) = score_pairs(&profiles, ids, 20_000, 1);
        // The pinned Table 2 value, so the corpus file is the pinned corpus.
        assert_eq!((avg.to_bits(), pairs), (0x3fd5_16e5_23fa_efea, 12_720));
        // Two lanes split the pairs between two rows; three start the
        // second lane inside a row, on a table of its own.
        let sample = PairSample::new(corpus.len(), 20_000);
        let first_of_second_lane = |lanes| sample.get(lane_len(pairs, lanes)).1 == 0;
        assert!(first_of_second_lane(2));
        assert!(!first_of_second_lane(3));
        for lanes in [2, 3, 7, pairs + 1] {
            let (lane_avg, lane_pairs) = score_pairs(&profiles, ids, 20_000, lanes);
            assert_eq!((lane_avg.to_bits(), lane_pairs), (avg.to_bits(), pairs), "lanes={lanes}");
        }
    }

    #[test]
    fn profiling_order_does_not_change_a_single_bit() {
        let corpus = llm4fp_corpus();
        let (forward, ids) = profiles(&corpus);
        // Profiled last to first, every feature gets another id.
        let reversed: Vec<String> = corpus.iter().rev().cloned().collect();
        let (mut backward, backward_ids) = profiles(&reversed);
        backward.reverse();
        let (avg, pairs) = score_pairs(&forward, ids, 20_000, 1);
        let (backward_avg, backward_pairs) = score_pairs(&backward, backward_ids, 20_000, 1);
        assert_eq!((backward_avg.to_bits(), backward_pairs), (avg.to_bits(), pairs));
    }

    #[test]
    fn corpora_without_pairs_score_zero_at_every_lane_count() {
        let (single, ids) = profiles(&corpus_similar()[..1]);
        for lanes in [1, 2, 3, 7, 100] {
            assert_eq!(score_pairs(&[], 0, usize::MAX, lanes), (0.0, 0), "lanes={lanes}");
            assert_eq!(score_pairs(&single, ids, usize::MAX, lanes), (0.0, 0), "lanes={lanes}");
        }
    }

    /// Each approach's 160-program corpus at seeds 1, 7 and 42, with the
    /// average pairwise CodeBLEU that Table 2 reports for it (20,000-pair
    /// cap).
    const CORPORA: [(&str, &str, u64); 12] = [
        ("varity 1", include_str!("../testdata/varity_160_seed1.txt"), 0x3fd0_e17e_2958_ca89),
        ("varity 7", include_str!("../testdata/varity_160_seed7.txt"), 0x3fd1_1a0c_936a_902e),
        ("varity 42", include_str!("../testdata/varity_160_seed42.txt"), 0x3fd1_5067_e45f_8d27),
        (
            "direct prompt 1",
            include_str!("../testdata/direct_prompt_160_seed1.txt"),
            0x3fd6_f26a_b8b4_6d1e,
        ),
        (
            "direct prompt 7",
            include_str!("../testdata/direct_prompt_160_seed7.txt"),
            0x3fd7_3538_d4b6_d903,
        ),
        (
            "direct prompt 42",
            include_str!("../testdata/direct_prompt_160_seed42.txt"),
            0x3fd7_9586_dbe6_ba4e,
        ),
        (
            "grammar guided 1",
            include_str!("../testdata/grammar_guided_160_seed1.txt"),
            0x3fd5_a8fa_5133_d997,
        ),
        (
            "grammar guided 7",
            include_str!("../testdata/grammar_guided_160_seed7.txt"),
            0x3fd5_833c_e04a_bce0,
        ),
        (
            "grammar guided 42",
            include_str!("../testdata/grammar_guided_160_seed42.txt"),
            0x3fd5_a223_5894_6401,
        ),
        ("llm4fp 1", include_str!("../testdata/llm4fp_160_seed1.txt"), 0x3fd5_736a_74da_e726),
        ("llm4fp 7", include_str!("../testdata/llm4fp_160_seed7.txt"), 0x3fd5_16e5_23fa_efea),
        ("llm4fp 42", include_str!("../testdata/llm4fp_160_seed42.txt"), 0x3fd6_a371_4442_282c),
    ];

    /// Score every sampled pair of the corpora of one seed, requiring each
    /// breakdown to equal the merge-walk oracle's bit for bit and the
    /// oracle's average to equal Table 2's.
    fn matches_the_merge_walk_oracle(seed: &str) {
        let weights = CodeBleuWeights::default();
        for (name, corpus, avg_bits) in CORPORA.into_iter().filter(|c| c.0.ends_with(seed)) {
            let corpus = split(corpus);
            let (profiles, ids) = profiles(&corpus);
            let mut vocabulary = oracle::Vocabulary::default();
            let expected: Vec<_> = corpus.iter().map(|source| vocabulary.profile(source)).collect();
            let pairs = PairSample::new(corpus.len(), 20_000);
            let mut total = 0.0;
            for_each_score(&profiles, ids, pairs, 0..pairs.len, |k, score| {
                let (i, j) = pairs.get(k);
                let oracle = oracle::score(&expected[i], &expected[j], weights);
                assert_eq!(oracle::bits(score), oracle::bits(oracle), "{name}: pair ({i}, {j})");
                total += oracle.combined;
            });
            assert_eq!((total / pairs.len as f64).to_bits(), avg_bits, "{name}");
        }
    }

    #[test]
    fn every_sampled_pair_matches_the_merge_walk_oracle_at_seed_1() {
        matches_the_merge_walk_oracle(" 1");
    }

    #[test]
    fn every_sampled_pair_matches_the_merge_walk_oracle_at_seed_7() {
        matches_the_merge_walk_oracle(" 7");
    }

    #[test]
    fn every_sampled_pair_matches_the_merge_walk_oracle_at_seed_42() {
        matches_the_merge_walk_oracle(" 42");
    }

    #[test]
    fn diversity_report_combines_codebleu_and_clones() {
        let mut sources = corpus_similar();
        sources.push(sources[0].clone()); // introduce an exact clone
        let report = DiversityReport::measure(&sources, usize::MAX);
        assert_eq!(report.programs, 4);
        assert!(report.avg_codebleu > 0.4);
        assert!(!report.clones.is_clone_free());
        assert_eq!(report.clone_pairs(CloneType::Type1), 1);
        let clean = DiversityReport::measure(&corpus_diverse(), usize::MAX);
        assert!(clean.clones.is_clone_free());
    }
}
