//! Result comparison and classification.
//!
//! Outputs are compared on their hexadecimal bit-pattern encoding (16 hex
//! digits for FP64, 8 for FP32): any differing digit is an inconsistency.
//! Each result value is classified into one of the five classes the paper
//! uses — Real (normal and subnormal numbers), Zero (±0), +Inf, −Inf and
//! NaN — and an inconsistency's *kind* is the unordered pair of the two
//! classes, e.g. `{Real, Real}` or `{Real, +Inf}`.

use serde::{Deserialize, Serialize};

use llm4fp_compiler::{CompilerConfig, CompilerId, OptLevel};
use llm4fp_fpir::Precision;

/// The five value classes of RQ2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum ValueClass {
    /// Normal or subnormal finite non-zero value.
    Real,
    /// Positive or negative zero.
    Zero,
    /// Positive infinity.
    PosInf,
    /// Negative infinity.
    NegInf,
    /// Not-a-number.
    NaN,
}

impl ValueClass {
    pub fn name(self) -> &'static str {
        match self {
            ValueClass::Real => "Real",
            ValueClass::Zero => "Zero",
            ValueClass::PosInf => "+Inf",
            ValueClass::NegInf => "-Inf",
            ValueClass::NaN => "NaN",
        }
    }
}

impl std::fmt::Display for ValueClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Classify a floating-point value.
pub fn classify(value: f64) -> ValueClass {
    if value.is_nan() {
        ValueClass::NaN
    } else if value.is_infinite() {
        if value > 0.0 {
            ValueClass::PosInf
        } else {
            ValueClass::NegInf
        }
    } else if value == 0.0 {
        ValueClass::Zero
    } else {
        ValueClass::Real
    }
}

/// An unordered pair of value classes — the "kind" of an inconsistency.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct InconsistencyKind {
    /// The smaller class (by enum order).
    pub first: ValueClass,
    /// The larger class (by enum order).
    pub second: ValueClass,
}

impl InconsistencyKind {
    /// Build the unordered pair.
    pub fn new(a: ValueClass, b: ValueClass) -> Self {
        if a <= b {
            InconsistencyKind { first: a, second: b }
        } else {
            InconsistencyKind { first: b, second: a }
        }
    }

    /// The eleven kinds, in the order Figure 3 lists them.
    pub fn figure3_order() -> Vec<InconsistencyKind> {
        use ValueClass::*;
        [
            (Real, Real),
            (Real, Zero),
            (Real, NaN),
            (Real, PosInf),
            (Real, NegInf),
            (Zero, NaN),
            (Zero, PosInf),
            (Zero, NegInf),
            (NaN, PosInf),
            (NaN, NegInf),
            (PosInf, NegInf),
        ]
        .into_iter()
        .map(|(a, b)| InconsistencyKind::new(a, b))
        .collect()
    }

    /// Label like `{Real, +Inf}`.
    pub fn label(&self) -> String {
        format!("{{{}, {}}}", self.first, self.second)
    }
}

/// Number of differing hexadecimal digits between two results, the severity
/// measure reported in Table 4 (1–16 for FP64, 1–8 for FP32; 0 means the
/// results are identical).
pub fn digit_difference(bits_a: u64, bits_b: u64, precision: Precision) -> usize {
    let digits = precision.hex_digits();
    let mut count = 0;
    for i in 0..digits {
        let shift = 4 * i;
        if (bits_a >> shift) & 0xf != (bits_b >> shift) & 0xf {
            count += 1;
        }
    }
    count
}

/// One recorded inconsistency: a pair of configurations at the same
/// optimization level whose outputs differ bitwise.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DiffRecord {
    /// Optimization level at which the pair was compared.
    pub level: OptLevel,
    /// The two compilers (host compilers come first, matching Table 4).
    pub pair: (CompilerId, CompilerId),
    /// Configurations, values and bit patterns of the two results.
    pub value_a: f64,
    pub value_b: f64,
    pub bits_a: u64,
    pub bits_b: u64,
    /// Value classes of the two results.
    pub class_a: ValueClass,
    pub class_b: ValueClass,
    /// Number of differing hex digits.
    pub digit_diff: usize,
}

impl DiffRecord {
    /// The unordered class pair.
    pub fn kind(&self) -> InconsistencyKind {
        InconsistencyKind::new(self.class_a, self.class_b)
    }

    /// The two compiler configurations involved.
    pub fn configs(&self) -> (CompilerConfig, CompilerConfig) {
        (CompilerConfig::new(self.pair.0, self.level), CompilerConfig::new(self.pair.1, self.level))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification_covers_all_value_categories() {
        assert_eq!(classify(1.5), ValueClass::Real);
        assert_eq!(classify(f64::MIN_POSITIVE / 4.0), ValueClass::Real, "subnormals are Real");
        assert_eq!(classify(0.0), ValueClass::Zero);
        assert_eq!(classify(-0.0), ValueClass::Zero);
        assert_eq!(classify(f64::INFINITY), ValueClass::PosInf);
        assert_eq!(classify(f64::NEG_INFINITY), ValueClass::NegInf);
        assert_eq!(classify(f64::NAN), ValueClass::NaN);
    }

    #[test]
    fn kinds_are_unordered_pairs() {
        let a = InconsistencyKind::new(ValueClass::Real, ValueClass::NaN);
        let b = InconsistencyKind::new(ValueClass::NaN, ValueClass::Real);
        assert_eq!(a, b);
        assert_eq!(a.label(), "{Real, NaN}");
        assert_eq!(InconsistencyKind::figure3_order().len(), 11);
        // All eleven are distinct.
        let set: std::collections::HashSet<_> =
            InconsistencyKind::figure3_order().into_iter().collect();
        assert_eq!(set.len(), 11);
    }

    #[test]
    fn digit_difference_counts_nibbles() {
        let a = 0x3ff0_0000_0000_0000u64;
        assert_eq!(digit_difference(a, a, Precision::F64), 0);
        assert_eq!(digit_difference(a, a ^ 0x1, Precision::F64), 1);
        assert_eq!(digit_difference(a, a ^ 0xff, Precision::F64), 2);
        assert_eq!(digit_difference(0, u64::MAX, Precision::F64), 16);
        // FP32 comparisons only look at the low 8 digits.
        assert_eq!(digit_difference(0x0000_0000, 0xffff_ffff, Precision::F32), 8);
        assert_eq!(digit_difference(0x1234_5678, 0x1234_5678, Precision::F32), 0);
    }

    #[test]
    fn one_ulp_differences_are_visible() {
        let x = 1.0f64 / 3.0;
        let y = f64::from_bits(x.to_bits() + 1);
        let d = digit_difference(x.to_bits(), y.to_bits(), Precision::F64);
        assert!(d >= 1);
    }

    #[test]
    fn diff_record_kind_and_configs() {
        let rec = DiffRecord {
            level: OptLevel::O3,
            pair: (CompilerId::Gcc, CompilerId::Nvcc),
            value_a: 1.0,
            value_b: f64::INFINITY,
            bits_a: 1.0f64.to_bits(),
            bits_b: f64::INFINITY.to_bits(),
            class_a: ValueClass::Real,
            class_b: ValueClass::PosInf,
            digit_diff: 3,
        };
        assert_eq!(rec.kind(), InconsistencyKind::new(ValueClass::PosInf, ValueClass::Real));
        let (a, b) = rec.configs();
        assert_eq!(a.label(), "gcc@O3");
        assert_eq!(b.label(), "nvcc@O3");
    }
}
