//! Corpus-level diversity measurement.
//!
//! The paper reports, per approach, the average pairwise CodeBLEU over all
//! generated programs and the NiCad clone counts. Computing all N² pairs is
//! quadratic, so the pairwise average is parallelized with crossbeam and can
//! optionally be estimated from a deterministic subsample of pairs for very
//! large corpora.

use crossbeam::thread;
use serde::{Deserialize, Serialize};

use crate::clones::{detect_clones, CloneReport, CloneType};
use crate::codebleu::{codebleu, CodeBleuWeights};

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
    pub fn measure(sources: &[String], threads: usize, max_pairs: usize) -> DiversityReport {
        let (avg, pairs) = average_pairwise_codebleu(sources, threads, max_pairs);
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
/// All ordered pairs `(i, j), i ≠ j` are scored when their number does not
/// exceed `max_pairs`; otherwise a deterministic stride-based subsample of
/// at most `max_pairs` pairs is used (no RNG, so results are reproducible).
/// Returns `(average, pairs_scored)`.
pub fn average_pairwise_codebleu(
    sources: &[String],
    threads: usize,
    max_pairs: usize,
) -> (f64, usize) {
    let n = sources.len();
    if n < 2 {
        return (0.0, 0);
    }
    let all_pairs: Vec<(usize, usize)> =
        (0..n).flat_map(|i| (0..n).filter(move |&j| j != i).map(move |j| (i, j))).collect();
    let pairs: Vec<(usize, usize)> = if all_pairs.len() <= max_pairs.max(1) {
        all_pairs
    } else {
        let stride = all_pairs.len().div_ceil(max_pairs);
        all_pairs.into_iter().step_by(stride.max(1)).collect()
    };
    let weights = CodeBleuWeights::default();
    let threads = threads.max(1).min(pairs.len().max(1));
    let chunk_size = pairs.len().div_ceil(threads);
    // Scores are summed in pair order, so the average is bit-identical
    // for every thread count.
    let mut total = 0.0;
    let mut count = 0usize;
    thread::scope(|scope| {
        let handles: Vec<_> = pairs
            .chunks(chunk_size)
            .map(|chunk| {
                scope.spawn(move |_| {
                    chunk
                        .iter()
                        .map(|&(i, j)| codebleu(&sources[i], &sources[j], weights).combined)
                        .collect::<Vec<f64>>()
                })
            })
            .collect();
        for h in handles {
            let scores = h.join().expect("codebleu worker panicked");
            count += scores.len();
            for score in scores {
                total += score;
            }
        }
    })
    .expect("crossbeam scope failed");
    if count == 0 {
        (0.0, 0)
    } else {
        (total / count as f64, count)
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
        let report = DiversityReport::measure(&sources, 2, usize::MAX);
        assert_eq!(report.programs, 4);
        assert!(report.avg_codebleu > 0.4);
        assert!(!report.clones.is_clone_free());
        assert_eq!(report.clone_pairs(CloneType::Type1), 1);
        let clean = DiversityReport::measure(&corpus_diverse(), 2, usize::MAX);
        assert!(clean.clones.is_clone_free());
    }
}
