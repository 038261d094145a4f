//! Corpus-level diversity measurement.
//!
//! The paper reports, per approach, the average pairwise CodeBLEU over all
//! generated programs and the NiCad clone counts. Scoring all N² pairs is
//! quadratic, so every program is profiled once and each pair is scored
//! from the two profiles; very large corpora can be estimated from a
//! deterministic subsample of pairs.
//!
//! Profiling stays sequential: one `Vocabulary` interns ids in source
//! order. The pair scores are split across the machine's cores
//! ([`std::thread::available_parallelism`]), each lane filling one
//! contiguous slice of a single score buffer, and the calling thread sums
//! that buffer in pair order. Every score is computed exactly as on one
//! thread and added in the same order, so the average is bit-identical at
//! every lane count.

use std::num::NonZeroUsize;
use std::thread;

use serde::{Deserialize, Serialize};

use crate::clones::{detect_clones, CloneReport, CloneType};
use crate::codebleu::{score, CodeBleuProfile, CodeBleuWeights, Vocabulary};

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
    let lanes = thread::available_parallelism().map_or(1, NonZeroUsize::get);
    score_pairs(&profiles, max_pairs, lanes)
}

/// Fewest pairs a lane is given: milliseconds of scoring (a pair takes a
/// few microseconds), far above the cost of spawning the lane's thread.
const MIN_PAIRS_PER_LANE: usize = 1024;

/// Average CodeBLEU over the [`sampled_pairs`] of `profiles`, scored on
/// up to `lanes` threads. Returns `(average, pairs_scored)`, bit-identical
/// at every lane count.
fn score_pairs(profiles: &[CodeBleuProfile], max_pairs: usize, lanes: usize) -> (f64, usize) {
    let pairs = PairSample::new(profiles.len(), max_pairs);
    if pairs.len == 0 {
        return (0.0, 0);
    }
    let weights = CodeBleuWeights::default();
    let score_range = |first: usize, scores: &mut [f64]| {
        for (k, slot) in (first..).zip(scores.iter_mut()) {
            let (i, j) = pairs.get(k);
            *slot = score(&profiles[i], &profiles[j], weights).combined;
        }
    };
    let mut scores = vec![0.0; pairs.len];
    let per_lane = pairs.len.div_ceil(lanes.max(1)).max(MIN_PAIRS_PER_LANE);
    thread::scope(|scope| {
        let mut chunks = scores.chunks_mut(per_lane).enumerate();
        let own = chunks.next();
        for (lane, chunk) in chunks {
            scope.spawn(move || score_range(lane * per_lane, chunk));
        }
        if let Some((_, chunk)) = own {
            score_range(0, chunk);
        }
    });
    // One sequential sum in pair order: the bits do not depend on `lanes`.
    let mut total = 0.0;
    for value in &scores {
        total += value;
    }
    (total / pairs.len as f64, pairs.len)
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
    /// (160 programs, seed 7), each program ending at its closing brace.
    fn llm4fp_corpus() -> Vec<String> {
        include_str!("../testdata/llm4fp_160_seed7.txt")
            .split_inclusive("\n}\n")
            .map(str::to_string)
            .collect()
    }

    fn profiles(sources: &[String]) -> Vec<CodeBleuProfile> {
        let mut vocabulary = Vocabulary::default();
        sources.iter().map(|source| vocabulary.profile(source)).collect()
    }

    #[test]
    fn lane_count_does_not_change_a_single_bit() {
        let corpus = llm4fp_corpus();
        assert_eq!(corpus.len(), 160);
        let profiles = profiles(&corpus);
        let (avg, pairs) = score_pairs(&profiles, 20_000, 1);
        // The pinned Table 2 value, so the corpus file is the pinned corpus.
        assert_eq!((avg.to_bits(), pairs), (0x3fd5_16e5_23fa_efea, 12_720));
        for lanes in [2, 3, 7, pairs + 1] {
            let (lane_avg, lane_pairs) = score_pairs(&profiles, 20_000, lanes);
            assert_eq!((lane_avg.to_bits(), lane_pairs), (avg.to_bits(), pairs), "lanes={lanes}");
        }
    }

    #[test]
    fn corpora_without_pairs_score_zero_at_every_lane_count() {
        let single = profiles(&corpus_similar()[..1]);
        for lanes in [1, 2, 3, 7, 100] {
            assert_eq!(score_pairs(&[], usize::MAX, lanes), (0.0, 0), "lanes={lanes}");
            assert_eq!(score_pairs(&single, usize::MAX, lanes), (0.0, 0), "lanes={lanes}");
        }
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
