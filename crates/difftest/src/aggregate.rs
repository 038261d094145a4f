//! Aggregation of differential-testing results into the statistics the
//! paper reports.
//!
//! * [`PairLevelStats`] — inconsistency counts and digit-difference
//!   min/max/avg per (compiler pair, optimization level): Table 4.
//! * [`KindByLevel`] — inconsistency-kind counts overall (Figure 3) and per
//!   level (Table 3).
//! * [`VsBaselineStats`] — within-compiler comparisons of every level
//!   against `O0_nofma`: Table 5.
//! * [`Aggregates`] — everything above plus the overall inconsistency rate
//!   of Table 2, accumulated incrementally as programs are tested.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use llm4fp_compiler::{CompilerId, OptLevel};

use crate::compare::{DiffRecord, InconsistencyKind};
use crate::matrix::ProgramDiffResult;

/// Digit-difference statistics (min / max / mean) for one cell of Table 4.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub struct DigitStats {
    pub count: u64,
    pub min: usize,
    pub max: usize,
    pub sum: u64,
}

impl DigitStats {
    fn record(&mut self, digits: usize) {
        if self.count == 0 {
            self.min = digits;
            self.max = digits;
        } else {
            self.min = self.min.min(digits);
            self.max = self.max.max(digits);
        }
        self.count += 1;
        self.sum += digits as u64;
    }

    /// Mean digit difference (0 when no inconsistencies were recorded).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

/// Per (compiler pair, level) inconsistency statistics.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct PairLevelStats {
    /// Inconsistency count per (pair, level).
    counts: BTreeMap<((CompilerId, CompilerId), OptLevel), u64>,
    /// Digit statistics per (pair, level).
    digits: BTreeMap<((CompilerId, CompilerId), OptLevel), DigitStats>,
}

impl PairLevelStats {
    fn record(&mut self, rec: &DiffRecord) {
        let key = (rec.pair, rec.level);
        *self.counts.entry(key).or_default() += 1;
        self.digits.entry(key).or_default().record(rec.digit_diff);
    }

    /// Inconsistency count for one cell.
    pub fn count(&self, pair: (CompilerId, CompilerId), level: OptLevel) -> u64 {
        self.counts.get(&(pair, level)).copied().unwrap_or(0)
    }

    /// Total count for a pair across all levels.
    pub fn pair_total(&self, pair: (CompilerId, CompilerId)) -> u64 {
        self.counts.iter().filter(|((p, _), _)| *p == pair).map(|(_, c)| *c).sum()
    }

    /// Digit statistics for one cell.
    pub fn digit_stats(&self, pair: (CompilerId, CompilerId), level: OptLevel) -> DigitStats {
        self.digits.get(&(pair, level)).copied().unwrap_or_default()
    }

    /// Rate for one cell given the number of programs tested (each program
    /// contributes exactly one comparison per pair per level).
    pub fn rate(&self, pair: (CompilerId, CompilerId), level: OptLevel, programs: u64) -> f64 {
        if programs == 0 {
            0.0
        } else {
            self.count(pair, level) as f64 / programs as f64
        }
    }

    /// Total rate for a pair: inconsistencies across all levels divided by
    /// (programs × levels), matching the "Total" row of Table 4.
    pub fn pair_rate(&self, pair: (CompilerId, CompilerId), programs: u64, levels: usize) -> f64 {
        let denom = programs * levels as u64;
        if denom == 0 {
            0.0
        } else {
            self.pair_total(pair) as f64 / denom as f64
        }
    }
}

/// Inconsistency-kind counts, overall and per optimization level.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct KindByLevel {
    overall: BTreeMap<InconsistencyKind, u64>,
    by_level: BTreeMap<(OptLevel, InconsistencyKind), u64>,
}

impl KindByLevel {
    fn record(&mut self, rec: &DiffRecord) {
        *self.overall.entry(rec.kind()).or_default() += 1;
        *self.by_level.entry((rec.level, rec.kind())).or_default() += 1;
    }

    /// Overall count for a kind (Figure 3 bars).
    pub fn count(&self, kind: InconsistencyKind) -> u64 {
        self.overall.get(&kind).copied().unwrap_or(0)
    }

    /// Count for a kind at one level (Table 3 cells).
    pub fn count_at(&self, level: OptLevel, kind: InconsistencyKind) -> u64 {
        self.by_level.get(&(level, kind)).copied().unwrap_or(0)
    }

    /// Total number of recorded inconsistencies.
    pub fn total(&self) -> u64 {
        self.overall.values().sum()
    }

    /// Fraction of inconsistencies belonging to `kind`.
    pub fn fraction(&self, kind: InconsistencyKind) -> f64 {
        let total = self.total();
        if total == 0 {
            0.0
        } else {
            self.count(kind) as f64 / total as f64
        }
    }
}

/// Within-compiler comparisons of every level against `O0_nofma` (RQ4).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct VsBaselineStats {
    differing: BTreeMap<(CompilerId, OptLevel), u64>,
    compared: BTreeMap<(CompilerId, OptLevel), u64>,
}

impl VsBaselineStats {
    /// Record the outcome of one (compiler, level) vs `O0_nofma` comparison.
    pub fn record(&mut self, compiler: CompilerId, level: OptLevel, differs: bool) {
        *self.compared.entry((compiler, level)).or_default() += 1;
        if differs {
            *self.differing.entry((compiler, level)).or_default() += 1;
        }
    }

    /// Number of differing comparisons for a cell of Table 5.
    pub fn differing(&self, compiler: CompilerId, level: OptLevel) -> u64 {
        self.differing.get(&(compiler, level)).copied().unwrap_or(0)
    }

    /// Inconsistency rate for one cell of Table 5, computed against the
    /// number of programs tested.
    pub fn rate(&self, compiler: CompilerId, level: OptLevel, programs: u64) -> f64 {
        if programs == 0 {
            0.0
        } else {
            self.differing(compiler, level) as f64 / programs as f64
        }
    }

    /// Total rate for one compiler across all non-baseline levels (the
    /// "Total" row of Table 5).
    pub fn compiler_rate(&self, compiler: CompilerId, programs: u64, levels: usize) -> f64 {
        let total: u64 = OptLevel::ALL
            .iter()
            .filter(|&&l| l != OptLevel::O0Nofma)
            .map(|&l| self.differing(compiler, l))
            .sum();
        let denom = programs * levels.saturating_sub(1) as u64;
        if denom == 0 {
            0.0
        } else {
            total as f64 / denom as f64
        }
    }
}

/// Everything the experiment binaries need, accumulated program by program.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Aggregates {
    /// Number of programs fed to the differential tester.
    pub programs: u64,
    /// Number of programs that triggered at least one inconsistency.
    pub triggering_programs: u64,
    /// Total pairwise comparisons in the denominator of the inconsistency
    /// rate (`(C choose 2) × O × N`).
    pub total_comparisons: u64,
    /// Comparisons that could actually be performed (both sides executed).
    pub performed_comparisons: u64,
    /// Total inconsistencies.
    pub inconsistencies: u64,
    /// Table 4 statistics.
    pub pair_level: PairLevelStats,
    /// Figure 3 / Table 3 statistics.
    pub kinds: KindByLevel,
    /// Table 5 statistics.
    pub vs_baseline: VsBaselineStats,
}

impl Aggregates {
    pub fn new() -> Self {
        Self::default()
    }

    /// Fold one program's differential-testing result into the aggregates.
    /// `comparisons_per_program` is the matrix-defined denominator
    /// contribution (18 for the full matrix).
    pub fn add_result(&mut self, result: &ProgramDiffResult, comparisons_per_program: usize) {
        self.programs += 1;
        self.total_comparisons += comparisons_per_program as u64;
        self.performed_comparisons += result.comparisons_performed as u64;
        if result.triggered_inconsistency() {
            self.triggering_programs += 1;
        }
        self.inconsistencies += result.records.len() as u64;
        for rec in &result.records {
            self.pair_level.record(rec);
            self.kinds.record(rec);
        }
    }

    /// Fold the RQ4 baseline comparisons of one program.
    pub fn add_baseline_comparisons(&mut self, comparisons: &[(CompilerId, OptLevel, bool)]) {
        for &(c, l, differs) in comparisons {
            self.vs_baseline.record(c, l, differs);
        }
    }

    /// The headline inconsistency rate of Table 2.
    pub fn inconsistency_rate(&self) -> f64 {
        if self.total_comparisons == 0 {
            0.0
        } else {
            self.inconsistencies as f64 / self.total_comparisons as f64
        }
    }

    /// Merge another aggregate (used when campaigns run sharded across
    /// threads).
    pub fn merge(&mut self, other: &Aggregates) {
        self.programs += other.programs;
        self.triggering_programs += other.triggering_programs;
        self.total_comparisons += other.total_comparisons;
        self.performed_comparisons += other.performed_comparisons;
        self.inconsistencies += other.inconsistencies;
        for (k, v) in &other.pair_level.counts {
            *self.pair_level.counts.entry(*k).or_default() += v;
        }
        for (k, v) in &other.pair_level.digits {
            let entry = self.pair_level.digits.entry(*k).or_default();
            if entry.count == 0 {
                *entry = *v;
            } else if v.count > 0 {
                entry.min = entry.min.min(v.min);
                entry.max = entry.max.max(v.max);
                entry.count += v.count;
                entry.sum += v.sum;
            }
        }
        for (k, v) in &other.kinds.overall {
            *self.kinds.overall.entry(*k).or_default() += v;
        }
        for (k, v) in &other.kinds.by_level {
            *self.kinds.by_level.entry(*k).or_default() += v;
        }
        for (k, v) in &other.vs_baseline.differing {
            *self.vs_baseline.differing.entry(*k).or_default() += v;
        }
        for (k, v) in &other.vs_baseline.compared {
            *self.vs_baseline.compared.entry(*k).or_default() += v;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compare::ValueClass;

    fn record(pair: (CompilerId, CompilerId), level: OptLevel, digits: usize) -> DiffRecord {
        DiffRecord {
            level,
            pair,
            value_a: 1.0,
            value_b: 2.0,
            bits_a: 1,
            bits_b: 2,
            class_a: ValueClass::Real,
            class_b: ValueClass::Real,
            digit_diff: digits,
        }
    }

    fn result_with(records: Vec<DiffRecord>) -> ProgramDiffResult {
        ProgramDiffResult {
            program_id: "p".into(),
            outcomes: vec![],
            comparisons_performed: 18,
            records,
        }
    }

    #[test]
    fn digit_stats_track_min_max_mean() {
        let mut s = DigitStats::default();
        assert_eq!(s.mean(), 0.0);
        s.record(3);
        s.record(7);
        s.record(2);
        assert_eq!(s.min, 2);
        assert_eq!(s.max, 7);
        assert_eq!(s.count, 3);
        assert!((s.mean() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn aggregates_compute_rates_and_kind_fractions() {
        let gcc_nvcc = (CompilerId::Gcc, CompilerId::Nvcc);
        let mut agg = Aggregates::new();
        for i in 0..10 {
            let recs = if i < 4 {
                vec![record(gcc_nvcc, OptLevel::O3Fastmath, 3), record(gcc_nvcc, OptLevel::O0, 1)]
            } else {
                vec![]
            };
            agg.add_result(&result_with(recs), 18);
        }
        assert_eq!(agg.programs, 10);
        assert_eq!(agg.triggering_programs, 4);
        assert_eq!(agg.inconsistencies, 8);
        assert_eq!(agg.total_comparisons, 180);
        assert!((agg.inconsistency_rate() - 8.0 / 180.0).abs() < 1e-12);
        assert_eq!(agg.pair_level.count(gcc_nvcc, OptLevel::O3Fastmath), 4);
        assert_eq!(agg.pair_level.pair_total(gcc_nvcc), 8);
        assert!((agg.pair_level.rate(gcc_nvcc, OptLevel::O0, 10) - 0.4).abs() < 1e-12);
        assert!((agg.pair_level.pair_rate(gcc_nvcc, 10, 6) - 8.0 / 60.0).abs() < 1e-12);
        let real_real = InconsistencyKind::new(ValueClass::Real, ValueClass::Real);
        assert_eq!(agg.kinds.count(real_real), 8);
        assert_eq!(agg.kinds.count_at(OptLevel::O0, real_real), 4);
        assert!((agg.kinds.fraction(real_real) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn baseline_stats_follow_table5_shape() {
        let mut agg = Aggregates::new();
        for i in 0..20 {
            agg.add_baseline_comparisons(&[
                (CompilerId::Gcc, OptLevel::O3Fastmath, i % 2 == 0),
                (CompilerId::Gcc, OptLevel::O1, false),
                (CompilerId::Nvcc, OptLevel::O0, i % 4 == 0),
            ]);
        }
        assert_eq!(agg.vs_baseline.differing(CompilerId::Gcc, OptLevel::O3Fastmath), 10);
        assert_eq!(agg.vs_baseline.differing(CompilerId::Gcc, OptLevel::O1), 0);
        assert!(
            (agg.vs_baseline.rate(CompilerId::Gcc, OptLevel::O3Fastmath, 20) - 0.5).abs() < 1e-12
        );
        assert!((agg.vs_baseline.rate(CompilerId::Nvcc, OptLevel::O0, 20) - 0.25).abs() < 1e-12);
        // Compiler totals: gcc has 10 differing out of 20 programs × 5 levels.
        assert!((agg.vs_baseline.compiler_rate(CompilerId::Gcc, 20, 6) - 0.1).abs() < 1e-12);
    }

    #[test]
    fn merge_combines_shards_correctly() {
        let pair = (CompilerId::Clang, CompilerId::Nvcc);
        let mut a = Aggregates::new();
        a.add_result(&result_with(vec![record(pair, OptLevel::O2, 2)]), 18);
        let mut b = Aggregates::new();
        b.add_result(&result_with(vec![record(pair, OptLevel::O2, 6)]), 18);
        b.add_result(&result_with(vec![]), 18);
        let mut merged = Aggregates::new();
        merged.merge(&a);
        merged.merge(&b);
        assert_eq!(merged.programs, 3);
        assert_eq!(merged.inconsistencies, 2);
        assert_eq!(merged.total_comparisons, 54);
        let ds = merged.pair_level.digit_stats(pair, OptLevel::O2);
        assert_eq!(ds.min, 2);
        assert_eq!(ds.max, 6);
        assert_eq!(ds.count, 2);
        assert!((ds.mean() - 4.0).abs() < 1e-12);
        assert_eq!(merged.kinds.total(), 2);
    }

    #[test]
    fn empty_aggregates_report_zero_rates() {
        let agg = Aggregates::new();
        assert_eq!(agg.inconsistency_rate(), 0.0);
        assert_eq!(agg.pair_level.rate((CompilerId::Gcc, CompilerId::Clang), OptLevel::O0, 0), 0.0);
        assert_eq!(agg.vs_baseline.rate(CompilerId::Gcc, OptLevel::O1, 0), 0.0);
        assert_eq!(
            agg.kinds.fraction(InconsistencyKind::new(ValueClass::Real, ValueClass::NaN)),
            0.0
        );
    }
}
