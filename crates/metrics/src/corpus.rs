//! Corpus-level diversity measurement.
//!
//! The paper reports, per approach, the average pairwise CodeBLEU over all
//! generated programs and the NiCad clone counts. Scoring all N² pairs is
//! quadratic, so every program is profiled once and each pair is scored
//! from the two profiles; very large corpora can be estimated from a
//! deterministic subsample of pairs.

use serde::{Deserialize, Serialize};

use crate::clones::{detect_clones, CloneReport, CloneType};
use crate::codebleu::{score, CodeBleuWeights, Vocabulary};

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
    /// Build the full report for a corpus of program sources.
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
/// Scores the pairs of [`sampled_pairs`] in order on the calling thread,
/// each program profiled once. `threads` is ignored: it is kept so that
/// existing callers still compile.
/// Returns `(average, pairs_scored)`.
pub fn average_pairwise_codebleu(
    sources: &[String],
    _threads: usize,
    max_pairs: usize,
) -> (f64, usize) {
    let mut vocabulary = Vocabulary::default();
    let profiles: Vec<_> = sources.iter().map(|source| vocabulary.profile(source)).collect();
    let weights = CodeBleuWeights::default();
    let mut total = 0.0;
    let mut count = 0usize;
    for (i, j) in sampled_pairs(sources.len(), max_pairs) {
        total += score(&profiles[i], &profiles[j], weights).combined;
        count += 1;
    }
    if count == 0 {
        (0.0, 0)
    } else {
        (total / count as f64, count)
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
    let all = n * n.saturating_sub(1);
    let stride = all.div_ceil(max_pairs.max(1)).max(1);
    (0..all).step_by(stride).map(move |k| {
        let (i, r) = (k / (n - 1), k % (n - 1));
        (i, if r < i { r } else { r + 1 })
    })
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
