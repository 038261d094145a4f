//! Corpus-level diversity measurement.
//!
//! The paper reports, per approach, the average pairwise CodeBLEU over all
//! generated programs and the NiCad clone counts. Scoring all N² pairs is
//! quadratic, so every program is profiled once and each pair is scored
//! from the two profiles; very large corpora can be estimated from a
//! deterministic subsample of pairs.
//!
//! Both halves run on every core ([`std::thread::available_parallelism`]);
//! the calling thread is lane 0. Profiling cuts the sources into
//! contiguous lanes of at least `MIN_SOURCES_PER_LANE`. Each lane profiles
//! its sources with a `Vocabulary` of its own and, in the same token pass,
//! builds each source's three clone keys. One sequential pass then absorbs
//! each later lane's vocabulary into lane 0's, in lane order, and renumbers
//! that lane's profiles into the one id space. The pair scores are split
//! the same way, each lane filling one contiguous slice of a single score
//! buffer, and the calling thread sums that buffer in pair order. Pairs
//! come in row-major order, so a lane's slice covers a few candidate rows:
//! the lane loads each row's candidate into its own `MatchTable` once and
//! scores the row's references against it. A score is made of integer
//! match sums, so the ids a feature gets cannot change it, and every score
//! is added in the same order: the average is bit-identical at every lane
//! count. The clone keys are bucketed in source order on the calling
//! thread.

use std::num::NonZeroUsize;
use std::ops::Range;
use std::thread;

use serde::{Deserialize, Serialize};

use crate::clones::{clone_report, CloneKeys, CloneReport, CloneType};
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
    /// Build the full report for a corpus of program sources. The sources
    /// are profiled and clone-keyed on every core, the CodeBLEU pairs are
    /// scored on every core ([`average_pairwise_codebleu`]), and the clone
    /// keys are bucketed on the calling thread. The report is the same at
    /// every core count.
    pub fn measure(sources: &[String], max_pairs: usize) -> DiversityReport {
        let cores = cores();
        DiversityReport::measure_on(
            sources,
            max_pairs,
            profiling_lanes(sources.len(), cores),
            cores,
        )
    }

    /// [`Self::measure`] with the sources profiled on `lanes` lanes and the
    /// pairs scored on up to `score_lanes`.
    fn measure_on(
        sources: &[String],
        max_pairs: usize,
        lanes: usize,
        score_lanes: usize,
    ) -> DiversityReport {
        let corpus = Profiled::new(sources, lanes, true);
        let clones = clone_report(sources, &corpus.clone_keys);
        let (avg, pairs) = score_pairs(&corpus.profiles, corpus.ids, max_pairs, score_lanes);
        DiversityReport { programs: sources.len(), pairs_scored: pairs, avg_codebleu: avg, clones }
    }

    /// Convenience accessor for the clone counts line of the report.
    pub fn clone_pairs(&self, clone_type: CloneType) -> usize {
        self.clones.pair_count(clone_type)
    }
}

/// Average pairwise CodeBLEU over a corpus.
///
/// Profiles each program once, then scores the pairs of [`sampled_pairs`],
/// both on up to one lane per available core (the calling thread is one of
/// them). A profiling lane takes a contiguous run of at least 64 sources
/// and a scoring lane one of at least 1,024 pairs, so a small corpus runs
/// on the calling thread alone. The scores are summed in pair order, so
/// the result is bit-identical to a single-threaded run. `threads` is
/// ignored: it is kept so that existing callers still compile.
/// Returns `(average, pairs_scored)`.
pub fn average_pairwise_codebleu(
    sources: &[String],
    _threads: usize,
    max_pairs: usize,
) -> (f64, usize) {
    let cores = cores();
    let corpus = Profiled::new(sources, profiling_lanes(sources.len(), cores), false);
    score_pairs(&corpus.profiles, corpus.ids, max_pairs, cores)
}

/// The lanes this machine runs in parallel.
fn cores() -> usize {
    thread::available_parallelism().map_or(1, NonZeroUsize::get)
}

/// Fewest sources a profiling lane is given: about 2 ms of profiling (a
/// source takes about 30 µs), far above the cost of spawning the lane's
/// thread.
const MIN_SOURCES_PER_LANE: usize = 64;

/// How many lanes profile `sources` sources on `cores` cores.
fn profiling_lanes(sources: usize, cores: usize) -> usize {
    cores.min(sources / MIN_SOURCES_PER_LANE).max(1)
}

/// Stack of every spawned lane: that of a main thread, so that a deeply
/// nested program the calling thread could profile does not overflow the
/// lane it falls to.
const LANE_STACK: usize = 8 << 20;

/// Run `work` on every item of `lanes`, the first on the calling thread
/// and each other on a thread of its own. Returns the results in lane
/// order.
fn on_lanes<L: Send, T: Send>(
    lanes: impl IntoIterator<Item = L>,
    work: impl Fn(L) -> T + Sync,
) -> Vec<T> {
    let work = &work;
    thread::scope(|scope| {
        let mut lanes = lanes.into_iter();
        let Some(own) = lanes.next() else {
            return Vec::new();
        };
        let spawned: Vec<_> = lanes
            .map(|lane| {
                thread::Builder::new()
                    .stack_size(LANE_STACK)
                    .spawn_scoped(scope, move || work(lane))
                    .expect("spawn a lane thread")
            })
            .collect();
        let mut results = vec![work(own)];
        for handle in spawned {
            results.push(handle.join().unwrap_or_else(|panic| std::panic::resume_unwind(panic)));
        }
        results
    })
}

/// A corpus profiled into one id space.
#[derive(Debug, Default)]
struct Profiled {
    /// Each source's profile, in source order.
    profiles: Vec<CodeBleuProfile>,
    /// How many ids the profiles' shared vocabulary handed out.
    ids: usize,
    /// Each source's clone keys, in source order, if they were asked for.
    clone_keys: Vec<[u64; 3]>,
}

impl Profiled {
    /// Profile `sources` on up to `lanes` lanes of contiguous sources,
    /// building their clone keys too if `clone_keys` is set.
    fn new(sources: &[String], lanes: usize, clone_keys: bool) -> Profiled {
        let per_lane = sources.len().div_ceil(lanes.max(1)).max(1);
        let lanes = on_lanes(sources.chunks(per_lane), |chunk| profile_lane(chunk, clone_keys));
        let mut lanes = lanes.into_iter();
        let Some((mut vocabulary, mut corpus)) = lanes.next() else {
            return Profiled::default();
        };
        let mut lanes = lanes.peekable();
        while let Some((lane_vocabulary, lane)) = lanes.next() {
            // Nothing is looked up after the last lane: its new features
            // need ids, not entries.
            let map = vocabulary.absorb(lane_vocabulary, lanes.peek().is_some());
            corpus.profiles.extend(lane.profiles.into_iter().map(|mut profile| {
                profile.remap(&map);
                profile
            }));
            corpus.clone_keys.extend(lane.clone_keys);
        }
        // Scoring needs the vocabulary's size, not its maps: they are
        // freed here.
        corpus.ids = vocabulary.len();
        corpus
    }
}

/// Profile one lane's `sources` with a vocabulary of its own, and build
/// their clone keys from the same token pass if `clone_keys` is set.
fn profile_lane(sources: &[String], clone_keys: bool) -> (Vocabulary, Profiled) {
    let mut vocabulary = Vocabulary::default();
    let mut lane = Profiled::default();
    for source in sources {
        if clone_keys {
            let mut keys = CloneKeys::default();
            lane.profiles.push(vocabulary.profile_with(source, |kind, text| keys.push(kind, text)));
            lane.clone_keys.push(keys.finish());
        } else {
            lane.profiles.push(vocabulary.profile(source));
        }
    }
    (vocabulary, lane)
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
    on_lanes(scores.chunks_mut(per_lane).enumerate(), |(lane, chunk)| {
        let first = lane * per_lane;
        let range = first..first + chunk.len();
        for_each_score(profiles, ids, pairs, range, |k, score| chunk[k - first] = score.combined);
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

    /// Require `sources` to give the same report at every profiling lane
    /// count as on one lane, and that report's clones to be
    /// `detect_clones`'.
    fn same_report_on_every_lane_count(name: &str, sources: &[String]) -> DiversityReport {
        let report = DiversityReport::measure_on(sources, 20_000, 1, 1);
        assert_eq!(report.clones, crate::detect_clones(sources), "{name}");
        for lanes in [2, 3, 7, sources.len()] {
            let lane_report = DiversityReport::measure_on(sources, 20_000, lanes, 2);
            assert_eq!(
                (lane_report.avg_codebleu.to_bits(), lane_report.pairs_scored, &lane_report.clones),
                (report.avg_codebleu.to_bits(), report.pairs_scored, &report.clones),
                "{name}: lanes={lanes}"
            );
            assert_eq!(lane_report.programs, sources.len(), "{name}: lanes={lanes}");
        }
        report
    }

    fn reports_match_at_every_lane_count(seed: &str) {
        for (name, corpus, avg_bits) in CORPORA.into_iter().filter(|c| c.0.ends_with(seed)) {
            let report = same_report_on_every_lane_count(name, &split(corpus));
            assert_eq!(report.avg_codebleu.to_bits(), avg_bits, "{name}");
        }
    }

    #[test]
    fn reports_are_bit_identical_at_every_profiling_lane_count_at_seed_1() {
        reports_match_at_every_lane_count(" 1");
    }

    #[test]
    fn reports_are_bit_identical_at_every_profiling_lane_count_at_seed_7() {
        reports_match_at_every_lane_count(" 7");
    }

    #[test]
    fn reports_are_bit_identical_at_every_profiling_lane_count_at_seed_42() {
        reports_match_at_every_lane_count(" 42");
    }

    #[test]
    fn small_and_unparsable_corpora_report_alike_at_every_lane_count() {
        let empty = same_report_on_every_lane_count("empty", &[]);
        assert_eq!((empty.programs, empty.pairs_scored, empty.avg_codebleu), (0, 0, 0.0));
        assert!(empty.clones.is_clone_free());
        // Fewer sources than lanes, with a Type-1 clone among them.
        let mut few = corpus_similar();
        few.push(few[0].clone());
        let report = same_report_on_every_lane_count("few", &few);
        assert_eq!(report.clone_pairs(CloneType::Type1), 1);
        // At two lanes the second holds only sources that fail to parse,
        // or that have no tokens at all.
        for bad in [["not c code", "void compute(double x) { comp = ; }"], ["", ""]] {
            let mut sources = corpus_diverse()[..2].to_vec();
            sources.extend(bad.map(String::from));
            same_report_on_every_lane_count(&format!("{bad:?}"), &sources);
        }
    }

    /// A program with every kind of statement and expression, so that
    /// its vocabulary holds a key of every tag.
    const EVERY_SHAPE: &str = "void compute(double x, double *a) {\n\
        double comp = -(x + 1.0) * sqrt(x) - pow(x, 2.0) + floor(x);\n\
        double t[4] = {1.0, 2.0, 3.0, 4.0};\n\
        if (x * 2.0 > a[0] - x) {\n\
          comp += t[1] / (x - 3.0);\n\
          a[2] *= -x;\n\
        }\n\
        for (int i = 0; i < 4; ++i) {\n\
          comp -= fmax(a[i], 1.5) * 2;\n\
          t[i] = comp;\n\
        }\n\
        }\n";

    #[test]
    fn absorbed_profiles_equal_directly_interned_ones() {
        for (name, corpus, _) in CORPORA {
            // Three lanes. Each later one starts with a token that is not
            // the corpus's first, so no lane id maps to itself by chance
            // (a field that holds no id must not be translated), and ends
            // with a program of every tag.
            let corpus = split(corpus);
            let third = corpus.len() / 3;
            let mut lanes = [&corpus[..third], &corpus[third..2 * third], &corpus[2 * third..]]
                .map(<[String]>::to_vec);
            for lane in &mut lanes[1..] {
                lane.insert(0, "not c code".to_string());
                lane.push(EVERY_SHAPE.to_string());
            }
            let (direct, ids) = profiles(&lanes.concat());
            let mut global = Vocabulary::default();
            let mut absorbed: Vec<_> =
                lanes[0].iter().map(|source| global.profile(source)).collect();
            for (k, sources) in lanes.iter().enumerate().skip(1) {
                let mut lane = Vocabulary::default();
                let profiles: Vec<_> = sources.iter().map(|source| lane.profile(source)).collect();
                assert_eq!(lane.key_tags().len(), 17, "{name}, lane {k}: {:?}", lane.key_tags());
                // The middle lane's new features are interned; the last
                // lane's are only numbered, and must find every key of
                // the middle lane's program of every tag.
                let map = global.absorb(lane, k == 1);
                absorbed.extend(profiles.into_iter().map(|mut profile| {
                    profile.remap(&map);
                    profile
                }));
            }
            assert_eq!((global.len(), absorbed.len()), (ids, direct.len()), "{name}");
            for (i, (absorbed, direct)) in absorbed.iter().zip(&direct).enumerate() {
                assert_eq!(absorbed, direct, "{name}: source {i}");
            }
        }
    }

    /// `comp = x + x + … + x;` with `terms` terms.
    fn chain(terms: usize) -> String {
        let sum = vec!["x"; terms].join(" + ");
        format!("void compute(double x) {{\n  double comp = 0.0;\n  comp = {sum};\n}}\n")
    }

    #[test]
    fn a_later_lane_profiles_what_the_calling_thread_can() {
        // The calling thread has a main thread's stack; the 20,000-term
        // chain falls to the second lane, a thread the report spawns.
        let mut sources = corpus_diverse();
        sources.push(chain(20_000));
        let report = thread::Builder::new()
            .stack_size(8 << 20)
            .spawn(move || DiversityReport::measure_on(&sources, usize::MAX, 2, 2))
            .unwrap()
            .join()
            .unwrap();
        assert_eq!((report.programs, report.pairs_scored), (4, 12));
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
