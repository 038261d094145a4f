//! The C math-library functions usable inside generated programs.
//!
//! The grammar (Figure 2) allows calls into the standard C math library;
//! this module enumerates the functions supported across the whole pipeline
//! (generation, printing, virtual compilation via `llm4fp-mathlib`, and the
//! real-compiler harness). The set mirrors the functions commonly emitted by
//! Varity plus the functions the simulated LLM's HPC idioms rely on.

use serde::{Deserialize, Serialize};

/// A function of `<math.h>`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
#[allow(missing_docs)]
pub enum MathFunc {
    Sin,
    Cos,
    Tan,
    Asin,
    Acos,
    Atan,
    Atan2,
    Sinh,
    Cosh,
    Tanh,
    Exp,
    Exp2,
    Expm1,
    Log,
    Log2,
    Log10,
    Log1p,
    Sqrt,
    Cbrt,
    Pow,
    Hypot,
    Fabs,
    Floor,
    Ceil,
    Trunc,
    Round,
    Fmin,
    Fmax,
    Fmod,
    Fma,
}

impl MathFunc {
    /// Every supported function, in a stable order.
    pub const ALL: [MathFunc; 30] = [
        MathFunc::Sin,
        MathFunc::Cos,
        MathFunc::Tan,
        MathFunc::Asin,
        MathFunc::Acos,
        MathFunc::Atan,
        MathFunc::Atan2,
        MathFunc::Sinh,
        MathFunc::Cosh,
        MathFunc::Tanh,
        MathFunc::Exp,
        MathFunc::Exp2,
        MathFunc::Expm1,
        MathFunc::Log,
        MathFunc::Log2,
        MathFunc::Log10,
        MathFunc::Log1p,
        MathFunc::Sqrt,
        MathFunc::Cbrt,
        MathFunc::Pow,
        MathFunc::Hypot,
        MathFunc::Fabs,
        MathFunc::Floor,
        MathFunc::Ceil,
        MathFunc::Trunc,
        MathFunc::Round,
        MathFunc::Fmin,
        MathFunc::Fmax,
        MathFunc::Fmod,
        MathFunc::Fma,
    ];

    /// The C name of the double-precision variant (`sin`, `pow`, ...).
    pub fn c_name(self) -> &'static str {
        match self {
            MathFunc::Sin => "sin",
            MathFunc::Cos => "cos",
            MathFunc::Tan => "tan",
            MathFunc::Asin => "asin",
            MathFunc::Acos => "acos",
            MathFunc::Atan => "atan",
            MathFunc::Atan2 => "atan2",
            MathFunc::Sinh => "sinh",
            MathFunc::Cosh => "cosh",
            MathFunc::Tanh => "tanh",
            MathFunc::Exp => "exp",
            MathFunc::Exp2 => "exp2",
            MathFunc::Expm1 => "expm1",
            MathFunc::Log => "log",
            MathFunc::Log2 => "log2",
            MathFunc::Log10 => "log10",
            MathFunc::Log1p => "log1p",
            MathFunc::Sqrt => "sqrt",
            MathFunc::Cbrt => "cbrt",
            MathFunc::Pow => "pow",
            MathFunc::Hypot => "hypot",
            MathFunc::Fabs => "fabs",
            MathFunc::Floor => "floor",
            MathFunc::Ceil => "ceil",
            MathFunc::Trunc => "trunc",
            MathFunc::Round => "round",
            MathFunc::Fmin => "fmin",
            MathFunc::Fmax => "fmax",
            MathFunc::Fmod => "fmod",
            MathFunc::Fma => "fma",
        }
    }

    /// The C name of the single-precision variant (`sinf`, `powf`, ...).
    pub fn c_name_f32(self) -> String {
        format!("{}f", self.c_name())
    }

    /// Number of arguments.
    pub fn arity(self) -> usize {
        match self {
            MathFunc::Atan2
            | MathFunc::Pow
            | MathFunc::Hypot
            | MathFunc::Fmin
            | MathFunc::Fmax
            | MathFunc::Fmod => 2,
            MathFunc::Fma => 3,
            _ => 1,
        }
    }

    /// Look up a function by its double-precision C name.
    pub fn from_c_name(name: &str) -> Option<MathFunc> {
        let base = name.strip_suffix('f').filter(|b| Self::ALL.iter().any(|m| m.c_name() == *b));
        let name = base.unwrap_or(name);
        Self::ALL.iter().copied().find(|m| m.c_name() == name)
    }

    /// Functions whose result stays finite for every finite input
    /// (useful when the generator wants to avoid extreme values).
    pub fn is_total_finite(self) -> bool {
        matches!(
            self,
            MathFunc::Sin
                | MathFunc::Cos
                | MathFunc::Atan
                | MathFunc::Tanh
                | MathFunc::Fabs
                | MathFunc::Floor
                | MathFunc::Ceil
                | MathFunc::Trunc
                | MathFunc::Round
                | MathFunc::Fmin
                | MathFunc::Fmax
        )
    }

    /// Functions with a restricted domain (can produce NaN for out-of-domain
    /// finite inputs): `sqrt`, `log*`, `asin`, `acos`, `pow`, `fmod`.
    pub fn has_restricted_domain(self) -> bool {
        matches!(
            self,
            MathFunc::Sqrt
                | MathFunc::Log
                | MathFunc::Log2
                | MathFunc::Log10
                | MathFunc::Log1p
                | MathFunc::Asin
                | MathFunc::Acos
                | MathFunc::Pow
                | MathFunc::Fmod
        )
    }
}

impl std::fmt::Display for MathFunc {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.c_name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_functions_round_trip_by_name() {
        for &m in MathFunc::ALL.iter() {
            assert_eq!(MathFunc::from_c_name(m.c_name()), Some(m));
            assert_eq!(MathFunc::from_c_name(&m.c_name_f32()), Some(m), "f32 name of {m}");
        }
    }

    #[test]
    fn unknown_names_are_rejected() {
        assert_eq!(MathFunc::from_c_name("sincos"), None);
        assert_eq!(MathFunc::from_c_name(""), None);
        assert_eq!(MathFunc::from_c_name("printf"), None);
    }

    #[test]
    fn arities_are_consistent() {
        assert_eq!(MathFunc::Sin.arity(), 1);
        assert_eq!(MathFunc::Pow.arity(), 2);
        assert_eq!(MathFunc::Fma.arity(), 3);
        for &m in MathFunc::ALL.iter() {
            assert!((1..=3).contains(&m.arity()));
        }
    }

    #[test]
    fn classification_sets_are_disjoint_enough() {
        // A function with a restricted domain should not be listed as total
        // finite.
        for &m in MathFunc::ALL.iter() {
            if m.has_restricted_domain() {
                assert!(!m.is_total_finite(), "{m} cannot be both");
            }
        }
    }

    #[test]
    fn f32_names_have_f_suffix() {
        assert_eq!(MathFunc::Sqrt.c_name_f32(), "sqrtf");
        assert_eq!(MathFunc::Atan2.c_name_f32(), "atan2f");
    }
}
